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
from typing import Iterator, Sequence

import numpy as np

from .calibration import ScheduleBundle
from .errors import DegenerateDirectionError, DegenerateVelocityError, InvalidArgumentError, NumericDomainError
from .fields import Condition, VelocityField
from .schedule import skip_intervals
from .solver import TrajectoryRecord, _check_start, _parallel_tol, _project_off, _reconstruct, _unit_residual, _walk


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
    return _project_off(v_curr - v_prev, v_prev, vv)


def reorthogonalize(anchor: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Unit component of ``anchor`` orthogonal to ``v_hat``.

    Raises DegenerateDirectionError when the residual is numerically
    parallel (below ``solver.EPS_DIR`` relative to the anchor norm); callers zero the
    directional update in that case.
    """
    anchor = np.asarray(anchor, dtype=float)
    v_hat = np.asarray(v_hat, dtype=float)
    vv = float(v_hat @ v_hat)
    if vv == 0.0:
        raise DegenerateVelocityError("cannot re-orthogonalize against a zero velocity")
    u = _unit_residual(anchor, v_hat, vv, _parallel_tol(anchor))
    if u is None:
        raise DegenerateDirectionError("direction anchor is numerically parallel to the velocity")
    return u


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
    growth = np.exp((k_t if toggles.use_mi else 0.0) * dt)
    u_perp = np.asarray(u_perp, dtype=float) if toggles.use_di and u_perp is not None else None
    return _reconstruct(v_hat, growth, d_t, float(np.linalg.norm(v_hat)), u_perp)


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
    ``u_hat`` the reconstruction used at step m.
    """
    return next(_cached_kernel(field, bundle, _check_start(field, x0)[None], (condition,), toggles))


def _cached_kernel(
    field: VelocityField,
    bundle: ScheduleBundle,
    x0: np.ndarray,
    conditions: Sequence[Condition],
    toggles: CompensationToggles | Sequence[CompensationToggles],
) -> Iterator[TrajectoryRecord]:
    """Cached runs from the checked (B, D) start states ``x0``, one per condition: the walk over the skip intervals.

    The bundle's schedule is shared, so every run anchors on the same steps.
    ``toggles`` is one setting for all runs or one per run. The indicators
    are checked once and turned into the walk's per-step reconstruction
    factors, with a disabled correction's factor neutral.
    """
    grid = bundle.grid
    n_steps = grid.n_steps
    k_tilde = bundle.indicators.k_tilde
    d_tilde = bundle.indicators.d_tilde
    if not (np.isfinite(k_tilde).all() and np.isfinite(d_tilde).all()):
        raise NumericDomainError("the bundle's indicators must be finite")
    growth, turn = np.exp(k_tilde * grid.dt).tolist(), d_tilde.tolist()
    if isinstance(toggles, CompensationToggles):
        toggles = [toggles] * len(conditions)
    factors = [(growth if t.use_mi else [1.0] * n_steps, turn if t.use_di else [0.0] * n_steps) for t in toggles]
    return _walk(field, grid, x0, conditions, skip_intervals(bundle.schedule, n_steps), factors)
