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
from .fields import Condition, VelocityField
from .schedule import skip_intervals
from .solver import TrajectoryRecord, _check_start, _walk


@dataclass(frozen=True)
class CompensationToggles:
    """Enable/disable the magnitude and direction corrections independently.

    With both off, cached steps simply reuse the anchor velocity; that is the
    schedule-only baseline in the ablation experiments.
    """

    use_mi: bool = True
    use_di: bool = True


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
    records: bool = True,
    references: Sequence[TrajectoryRecord] = (),
) -> Iterator:
    """Cached runs from the checked (B, D) start states ``x0``, one per condition: the walk over the skip intervals.

    The bundle's schedule is shared, so all runs ride one batch with one oracle
    call per anchor. ``toggles`` is one setting for all runs or one per run.
    The indicators, finite by ``IndicatorTable``'s rule, become the walk's
    per-step reconstruction factors, with a disabled correction's factor neutral.
    With ``records`` it yields each run's record; without, the ``(velocities, states)`` rows of each skip
    interval's last step (``_walk``, which takes the velocities of ``references`` where they serve and calls
    no oracle there; references on another grid go unused).
    """
    grid = bundle.grid
    n_steps = grid.n_steps
    growth, turn = np.exp(bundle.indicators.k_tilde * grid.dt).tolist(), bundle.indicators.d_tilde.tolist()
    if isinstance(toggles, CompensationToggles):
        toggles = [toggles] * len(conditions)
    factors = [(growth if t.use_mi else [1.0] * n_steps, turn if t.use_di else [0.0] * n_steps) for t in toggles]
    references = references if all(np.array_equal(full.grid.times, grid.times) for full in references) else ()
    return _walk(field, grid, x0, conditions, skip_intervals(bundle.schedule, n_steps), factors, records, references)
