"""Online cached sampling: reconstruct skipped velocities, evaluate at anchors.

Within a skip interval the velocity is never re-evaluated. Instead, the
anchor evaluation seeds a recursion that multiplies the magnitude by
exp(k_tilde * dt) and adds a directional correction of size
d_tilde * |v_hat| along the sample's own historical turning direction,
re-orthogonalized against the evolving reconstruction at every step. The
historical direction is extracted once per interval from the two most
recent evaluated velocities; those need not be adjacent grid steps when the
previous interval skipped ahead.

Degenerate geometry (zero velocities, turning directions that collapse onto
the current velocity) downgrades the update to magnitude-only; it never
aborts a run.

The record keeps each step's unit direction ``u_hat`` in ``directions`` (NaN
where the step had none); diagnostics read it there instead of re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ScheduleBundle
from .errors import (
    DegenerateDirectionError,
    DegenerateVelocityError,
    InvalidArgumentError,
    NumericDomainError,
)
from .fields import Condition, VelocityField
from .schedule import skip_intervals
from .solver import TrajectoryRecord, euler_step

# Residual-norm fraction below which a direction anchor counts as parallel.
EPS_DIR = 1e-12


@dataclass(frozen=True)
class CompensationToggles:
    """Enable/disable the magnitude and direction corrections independently.

    With both off, cached steps simply reuse the anchor velocity; that is the
    schedule-only baseline in the ablation experiments.
    """

    use_mi: bool = True
    use_di: bool = True


def init_direction(v_prev: np.ndarray, v_curr: np.ndarray) -> np.ndarray:
    """Turning direction from the last two evaluated velocities.

    The velocity increment is projected off ``v_prev``; the result is
    orthogonal to ``v_prev`` and anchors the directional updates of the
    upcoming skip interval.
    """
    v_prev = np.asarray(v_prev, dtype=float)
    v_curr = np.asarray(v_curr, dtype=float)
    vv = float(v_prev @ v_prev)
    if vv == 0.0:
        raise DegenerateVelocityError("cannot extract a turning direction against a zero velocity")
    dv = v_curr - v_prev
    return dv - (float(dv @ v_prev) / vv) * v_prev


def reorthogonalize(anchor: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Unit component of ``anchor`` orthogonal to ``v_hat``.

    Raises DegenerateDirectionError when the residual is numerically
    parallel (below EPS_DIR relative to the anchor norm); callers zero the
    directional update in that case.
    """
    anchor = np.asarray(anchor, dtype=float)
    v_hat = np.asarray(v_hat, dtype=float)
    vv = float(v_hat @ v_hat)
    if vv == 0.0:
        raise DegenerateVelocityError("cannot re-orthogonalize against a zero velocity")
    residual = anchor - (float(anchor @ v_hat) / vv) * v_hat
    norm = float(np.linalg.norm(residual))
    if norm == 0.0 or norm < EPS_DIR * float(np.linalg.norm(anchor)):
        raise DegenerateDirectionError("direction anchor is numerically parallel to the velocity")
    return residual / norm


def skip_update(
    v_hat: np.ndarray,
    u_perp: np.ndarray | None,
    k_t: float,
    d_t: float,
    dt: float,
    toggles: CompensationToggles = CompensationToggles(),
) -> np.ndarray:
    """One reconstruction step: exp(k*dt) magnitude scaling plus turning term.

    ``u_perp`` may be None for a degenerate direction, which zeroes the
    directional term regardless of the toggles.
    """
    v_hat = np.asarray(v_hat, dtype=float)
    if dt <= 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    if not (np.isfinite(v_hat).all() and np.isfinite(k_t) and np.isfinite(d_t) and np.isfinite(dt)):
        raise NumericDomainError("skip_update requires finite inputs")
    k_eff = k_t if toggles.use_mi else 0.0
    out = np.exp(k_eff * dt) * v_hat
    if toggles.use_di and u_perp is not None and d_t != 0.0:
        out = out + d_t * float(np.linalg.norm(v_hat)) * np.asarray(u_perp, dtype=float)
    return out


def sample_cached(
    field: VelocityField,
    bundle: ScheduleBundle,
    x0: np.ndarray,
    condition: Condition,
    toggles: CompensationToggles = CompensationToggles(),
) -> TrajectoryRecord:
    """Run the skip schedule: anchor evaluations plus reconstructed steps.

    Walks the intervals of ``skip_intervals``. An interval of length 1
    performs a standard evaluate-and-update; a longer interval performs
    one anchor evaluation, then advances through the interval with
    reconstructed velocities and zero oracle calls, consuming the indicator
    entries of each absolute step index. Evaluated flags and the oracle call
    count reflect exactly the anchor evaluations; ``directions[m]`` is the
    ``u_hat`` passed to ``skip_update`` at step m.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dimension,):
        raise InvalidArgumentError(f"x0 shape {x0.shape} does not match field dimension {field.dimension}")
    grid = bundle.grid
    n_steps = grid.n_steps
    dt = grid.dt
    k_tilde = bundle.indicators.k_tilde
    d_tilde = bundle.indicators.d_tilde

    states = np.empty((n_steps + 1, field.dimension))
    velocities = np.empty((n_steps, field.dimension))
    evaluated = np.zeros(n_steps, dtype=bool)
    directions = np.full((n_steps, field.dimension), np.nan)
    states[0] = x0

    last_eval_velocity: np.ndarray | None = None
    for n, h in skip_intervals(bundle.schedule, n_steps):
        v = field.evaluate(states[n], float(grid.times[n]), condition)
        evaluated[n] = True
        if h == 1:
            velocities[n] = v
            states[n + 1] = euler_step(states[n], v, float(dt[n]))
            last_eval_velocity = v
            continue

        # interval opening: extract the turning anchor from the most recent
        # evaluated velocity, which may predate t_{n-1} after a prior skip
        assert last_eval_velocity is not None  # step 0 is always evaluated first
        anchor: np.ndarray | None
        try:
            anchor = init_direction(last_eval_velocity, v)
        except DegenerateVelocityError:
            anchor = None
        v_hat = v
        for m in range(n, n + h):
            u_hat: np.ndarray | None = None
            if anchor is not None:
                try:
                    u_hat = directions[m] = reorthogonalize(anchor, v_hat)
                except (DegenerateDirectionError, DegenerateVelocityError):
                    pass  # magnitude-only update; the direction row stays NaN
            velocities[m] = v_hat
            states[m + 1] = euler_step(states[m], v_hat, float(dt[m]))
            v_hat = skip_update(v_hat, u_hat, float(k_tilde[m]), float(d_tilde[m]), float(dt[m]), toggles)
        last_eval_velocity = v

    return TrajectoryRecord(grid, states, velocities, evaluated, directions)
