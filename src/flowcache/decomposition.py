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


def _shrunk(*rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(e, rows * 2**-e)``, e per row (last axis) putting the rows' top entry in [0.5, 1): no square overflows."""
    e = np.frexp(np.max([np.abs(row).max(axis=-1) for row in rows], axis=0))[1]
    with np.errstate(under="ignore"):  # an entry far below the largest may lose bits
        return e, [np.ldexp(row, -e[..., None]) for row in rows]


def _decompose_rows(v: np.ndarray, accel: np.ndarray, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each ``accel`` row along its ``v`` row, as ``(k, r_perp, d)``.

    ``v`` and ``accel`` are (n, D) and ``dt`` is (n,). Per row,
    ``k = accel.v / v.v``, ``r_perp = accel - k v`` and
    ``d = |r_perp| dt / |v|``. A zero-velocity row gives ``k = d = 0`` and a
    zero ``r_perp``. A finite row whose dot products overflow is split again
    scaled by a power of two, which changes no bit of its ``k`` and ``d``
    unless a scaled entry underflows; the other rows never see the scaling.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row is split again below
        vv = _row_dots(v, v)
        zero = vv == 0.0
        vv[zero] = 1.0
        k = _row_dots(accel, v)
        k /= vv
        k[zero] = 0.0
        r_perp = k[:, None] * v
        np.subtract(accel, r_perp, out=r_perp)
        r_perp[zero] = 0.0
        rr = _row_dots(r_perp, r_perp)
        d = np.sqrt(rr)
        d *= dt
        d /= np.sqrt(vv)
    redo = np.flatnonzero(~np.isfinite(vv + rr))
    if redo.size:
        redo = redo[np.isfinite(v[redo]).all(axis=1) & np.isfinite(accel[redo]).all(axis=1)]  # a non-finite row stays
        e, scaled = _shrunk(v[redo], accel[redo])
        with np.errstate(under="ignore"):
            k[redo], r_scaled, d[redo] = _decompose_rows(*scaled, dt[redo])
        r_perp[redo] = np.ldexp(r_scaled, e[:, None])
    return k, r_perp, d
