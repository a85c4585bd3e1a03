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
from .errors import InvalidArgumentError
from .fields import Condition, VelocityField
from .ioutil import _json_value
from .solver import TrajectoryRecord, _check_start, _walk


@dataclass(frozen=True)
class CompensationToggles:
    """Enable/disable the magnitude and direction corrections independently.

    With both off, cached steps simply reuse the anchor velocity; that is the
    schedule-only baseline in the ablation experiments.
    """

    use_mi: bool = True
    use_di: bool = True

    def __post_init__(self) -> None:
        for key in ("use_mi", "use_di"):  # the config's bool rule
            _json_value(vars(self), key, "bool", error=lambda key, reason: InvalidArgumentError(f"{key}: {reason}"))


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
    records: int | None = None,
    references: Sequence[TrajectoryRecord] = (),
    opening: np.ndarray | None = None,
) -> Iterator:
    """Cached runs from the checked (B, D) start states ``x0``, one per condition: the walk over the skip intervals.

    ``toggles`` is one setting for all runs or one per run, and ``opening``
    the (B, N) ``skip_intervals`` rows of the runs' skip schedules (the
    bundle's for every run, if None). The indicators, finite by
    ``IndicatorTable``'s rule, become each run's per-step reconstruction
    factors, with a disabled correction's factor neutral. ``records`` and
    ``references``, full-step runs on the bundle's grid, are ``_walk``'s.
    """
    grid, indicators = bundle.grid, bundle.indicators
    toggles = [toggles] * len(conditions) if isinstance(toggles, CompensationToggles) else toggles
    use_mi, use_di = np.array([(t.use_mi, t.use_di) for t in toggles]).T[:, :, None]  # (B, 1) columns
    factors = np.where(use_mi, np.exp(indicators.k_tilde * grid.dt), 1.0), np.where(use_di, indicators.d_tilde, 0.0)
    if opening is None:
        opening = np.tile(bundle.opening, (len(conditions), 1))
    return _walk(field, grid, x0, conditions, opening, factors, records, references)
