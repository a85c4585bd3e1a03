"""Parallel/orthogonal decomposition of the discrete velocity acceleration.

The finite difference of consecutive velocities is split along the current
velocity into a relative magnitude rate ``k`` (1/time) and an orthogonal
residual ``r_perp``; the dimensionless direction score ``d`` rescales the
residual by the local speed and the step size. These per-step scalars are
the raw material for offline calibration and come for free from sampler
outputs: no extra oracle evaluations are ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVelocityError, InvalidArgumentError
from .solver import TrajectoryRecord


@dataclass(frozen=True, eq=False)
class StepDecomposition:
    """One step's split: accel = k * v + r_perp, d = |r_perp| * dt / |v|."""

    accel: np.ndarray
    k: float
    r_perp: np.ndarray
    d: float


def discrete_accel(v_n: np.ndarray, v_next: np.ndarray, dt: float) -> np.ndarray:
    """Finite-difference acceleration (v_next - v_n) / dt."""
    if dt <= 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    return (np.asarray(v_next, dtype=float) - np.asarray(v_n, dtype=float)) / dt


def decompose(v_n: np.ndarray, accel: np.ndarray, dt: float) -> StepDecomposition:
    """Split ``accel`` along ``v_n`` into parallel rate and orthogonal residual."""
    if dt <= 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    v_n = np.asarray(v_n, dtype=float)
    accel = np.asarray(accel, dtype=float)
    vv = float(v_n @ v_n)
    if vv == 0.0:
        raise DegenerateVelocityError("cannot decompose against a zero velocity")
    k = float(accel @ v_n) / vv
    r_perp = accel - k * v_n
    d = float(np.linalg.norm(r_perp)) * dt / np.sqrt(vv)
    return StepDecomposition(accel=accel, k=k, r_perp=r_perp, d=d)


def _accel_rows(v: np.ndarray, v_next: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """``discrete_accel`` of every row, in a fresh (n, D) array."""
    accel = np.subtract(v_next, v)
    accel /= dt[:, None]
    return accel


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row ``a[i] @ b[i]`` of two (n, D) arrays, bit for bit the 1-d products."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _decompose_rows(v: np.ndarray, accel: np.ndarray, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``decompose`` of every row, as ``(k, r_perp, d)``; ``r_perp`` overwrites ``accel``.

    ``v`` and ``accel`` are (n, D) and ``dt`` is (n,). A zero-velocity row
    gives ``k = d = 0`` and a zero ``r_perp`` instead of raising.
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


def decompose_trajectory(record: TrajectoryRecord) -> list[StepDecomposition]:
    """Per-step decompositions from a fully evaluated record, N-1 in total.

    Calibration statistics must come from genuine oracle outputs, so records
    containing cached steps are rejected. Steps with a zero velocity are
    mapped to an all-zero decomposition (zero directional update).
    """
    if not bool(record.evaluated.all()):
        raise InvalidArgumentError("decomposition needs a fully evaluated record (no cached steps)")
    v = record.velocities
    dt = record.grid.dt[:-1]
    accel = _accel_rows(v[:-1], v[1:], dt)
    k, r_perp, d = _decompose_rows(v[:-1], accel.copy(), dt)
    return [StepDecomposition(accel=accel[i], k=float(k[i]), r_perp=r_perp[i], d=float(d[i])) for i in range(dt.size)]
