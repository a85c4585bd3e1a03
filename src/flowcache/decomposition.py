"""Parallel/orthogonal decomposition of the discrete velocity acceleration.

The finite difference of consecutive velocities is split along the current
velocity into a relative magnitude rate ``k`` (1/time) and an orthogonal
residual ``r_perp``; the dimensionless direction score ``d`` rescales the
residual by the local speed and the step size. These per-step scalars are
the raw material for offline calibration and come for free from sampler
outputs: no extra oracle evaluations are ever needed.
"""

from __future__ import annotations

import numpy as np


def _accel_rows(v: np.ndarray, v_next: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Finite-difference accelerations ``(v_next - v) / dt`` of every row, in a fresh (n, D) array."""
    accel = np.subtract(v_next, v)
    accel /= dt[:, None]
    return accel


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row ``a[i] @ b[i]`` of two (n, D) arrays, bit for bit the 1-d products."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _decompose_rows(v: np.ndarray, accel: np.ndarray, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each ``accel`` row along its ``v`` row, as ``(k, r_perp, d)``; ``r_perp`` overwrites ``accel``.

    ``v`` and ``accel`` are (n, D) and ``dt`` is (n,). Per row,
    ``k = accel.v / v.v``, ``r_perp = accel - k v`` and
    ``d = |r_perp| dt / |v|``. A zero-velocity row gives ``k = d = 0`` and a
    zero ``r_perp``.
    """
    vv = _row_dots(v, v)
    zero = vv == 0.0
    vv[zero] = 1.0
    k = _row_dots(accel, v)
    k /= vv
    k[zero] = 0.0
    r_perp = np.subtract(accel, k[:, None] * v, out=accel)
    r_perp[zero] = 0.0
    d = np.sqrt(_row_dots(r_perp, r_perp))
    d *= dt
    d /= np.sqrt(vv)
    return k, r_perp, d
