"""Skip-schedule construction from cumulative-variation thresholds.

Given a non-negative per-step variation sequence, the admissible skip
interval at step n is the largest h whose cumulative variation stays within
the tolerance; h = 1 is always admissible (a standard one-step update), and
intervals never extend past the end of the grid. The magnitude sequence is
|k_tilde| * dt per step, the direction sequence is d_tilde itself (dt was
already absorbed at decomposition time), and the final schedule takes the
stricter of the two at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import IndicatorTable, _check_thresholds
from .errors import InvalidArgumentError
from .solver import TimeGrid

DEFAULT_H_MAX = 12
# (tau_k, tau_d) operating points; the first is the default.
THRESHOLD_PRESETS = ((0.06, 0.6), (0.04, 0.4), (0.03, 0.3))
DEFAULT_TAU_K, DEFAULT_TAU_D = THRESHOLD_PRESETS[0]


@dataclass(frozen=True, eq=False)
class VariationSequence:
    """Non-negative per-step variation values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidArgumentError("variation sequence must be 1-d")
        if not np.isfinite(values).all() or np.any(values < 0):
            raise InvalidArgumentError("variation values must be finite and non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def max_stable_interval(z: VariationSequence, n: int, tau: float, h_max: int) -> int:
    """Largest admissible skip interval at step n.

    Returns the largest h in {1, ..., min(h_max, N - n)} such that h = 1 or
    the cumulative variation z_n + ... + z_{n+h-1} stays <= tau. The
    comparison is non-strict, so ties at the threshold still admit the skip.
    """
    size = len(z)
    if not 0 <= n < size:
        raise InvalidArgumentError(f"step index {n} out of range for {size} steps")
    cap = min(h_max, size - n)
    best = 1
    total = 0.0
    for h in range(1, cap + 1):
        total += float(z.values[n + h - 1])
        if total <= tau:
            best = h
        else:
            # values are non-negative, so longer prefixes cannot recover
            break
    return best


def build_schedule(indicators: IndicatorTable, grid: TimeGrid, tau_k: float, tau_d: float, h_max: int) -> np.ndarray:
    """Per-step skip lengths under both magnitude and direction tolerances."""
    _check_thresholds(tau_k=tau_k, tau_d=tau_d, h_max=h_max)
    n = grid.n_steps
    if indicators.n_steps != n:
        raise InvalidArgumentError(f"indicators cover {indicators.n_steps} steps, grid has {n}")
    magnitude = VariationSequence(np.abs(indicators.k_tilde) * grid.dt)
    direction = VariationSequence(indicators.d_tilde)
    return np.array(
        [
            min(
                max_stable_interval(magnitude, i, tau_k, h_max),
                max_stable_interval(direction, i, tau_d, h_max),
            )
            for i in range(n)
        ],
        dtype=int,
    )


def skip_intervals(schedule: np.ndarray, n_steps: int) -> list[tuple[int, int]]:
    """The ``(start, length)`` intervals the inference loop walks, in order.

    Each interval opens with one oracle evaluation at ``start``. Step 0 is
    always a length-1 standard update, since the direction anchor of a skip
    needs an earlier evaluated velocity; every later interval is
    ``min(schedule[n], N - n)`` steps long, so length 1 is a standard update
    and a longer interval reconstructs its remaining steps.
    """
    intervals: list[tuple[int, int]] = []
    n = 0
    while n < n_steps:
        h = 1 if n == 0 else min(int(schedule[n]), n_steps - n)
        intervals.append((n, h))
        n += h
    return intervals


def schedule_coverage(schedule: np.ndarray, n_steps: int) -> tuple[float, list[int]]:
    """Skip ratio and anchor (evaluated) step indices: the interval starts."""
    anchors = [start for start, _ in skip_intervals(schedule, n_steps)]
    return 1.0 - len(anchors) / n_steps, anchors
