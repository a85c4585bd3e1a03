"""Skip-schedule construction from cumulative-variation thresholds.

Given a non-negative per-step variation sequence, the admissible skip
interval at step n is the largest h whose cumulative variation, summed left
to right from n, stays within the tolerance (a tie admits); h = 1 is always
admissible (a standard one-step update), and intervals never extend past the
end of the grid. One array pass gives every step's interval. The magnitude
sequence is |k_tilde| * dt per step, the direction sequence is d_tilde itself
(dt was absorbed at decomposition time); the schedule takes the stricter.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import FieldError, InvalidArgumentError
from .ioutil import _check_count
from .solver import TimeGrid

if TYPE_CHECKING:
    from .calibration import IndicatorTable

DEFAULT_H_MAX = 12
DEFAULT_TAU_K, DEFAULT_TAU_D = 0.06, 0.6


def _check_thresholds(error=FieldError, **values: float) -> None:
    """The threshold rule on the given keys: ``tau_k`` and ``tau_d`` finite and >= 0, ``h_max`` an integer >= 1.

    NaN fails it, and so do a float or bool ``h_max``. The first breach raises ``error(key, reason)``.
    """
    for key, value in values.items():
        if key == "h_max":
            _check_count(key, value, error)
        elif not (math.isfinite(value) and value >= 0):
            raise error(key, f"thresholds must be non-negative and finite, got {value!r}")


# Most window entries ``_stable_intervals`` sums at once.
_WINDOW_ENTRIES = 1 << 16


def _stable_intervals(z: np.ndarray, tau: float, h_max: int) -> np.ndarray:
    """Largest admissible skip interval at every step of the non-negative sequence ``z``.

    Entry n counts the h in {1, ..., min(h_max, N - n)} whose sum z_n + ... +
    z_{n+h-1}, taken left to right, is <= tau, and is at least 1. The sums only
    grow, so that count is the largest such h; ``+inf`` padding ends every
    interval at the grid's end. Column n of a window block holds z_n, z_{n+1},
    ..., and starts go in blocks of at most ``_WINDOW_ENTRIES`` entries.
    """
    size, width = z.size, min(h_max, z.size)
    padded = np.full(size + width - 1, np.inf)
    padded[:size] = z
    windows, block = np.arange(width)[:, None], max(1, _WINDOW_ENTRIES // width)
    counts = [
        (padded[windows + np.arange(n, min(n + block, size))].cumsum(axis=0) <= tau).sum(axis=0)
        for n in range(0, size, block)
    ]
    return np.maximum(np.concatenate(counts), 1)


def build_schedule(indicators: IndicatorTable, grid: TimeGrid, tau_k: float, tau_d: float, h_max: int) -> np.ndarray:
    """Per-step skip lengths under both magnitude and direction tolerances."""
    _check_thresholds(tau_k=tau_k, tau_d=tau_d, h_max=h_max)
    n = grid.n_steps
    if indicators.n_steps != n:
        raise InvalidArgumentError(f"indicators cover {indicators.n_steps} steps, grid has {n}")
    magnitude = _stable_intervals(np.abs(indicators.k_tilde) * grid.dt, tau_k, h_max)
    return np.minimum(magnitude, _stable_intervals(indicators.d_tilde, tau_d, h_max))


def skip_intervals(schedule: np.ndarray, n_steps: int) -> np.ndarray:
    """The intervals the inference loop walks, as an (N,) row: each interval's length at its start, 0 elsewhere.

    Each interval opens with one oracle evaluation at its start. Step 0 is
    always a length-1 standard update, since the direction anchor of a skip
    needs an earlier evaluated velocity; every later interval is
    ``min(schedule[n], N - n)`` steps long, so length 1 is a standard update
    and a longer interval reconstructs its remaining steps, where the row
    holds 0.
    """
    opening = [0] * n_steps
    n = 0
    while n < n_steps:
        opening[n] = h = 1 if n == 0 else min(int(schedule[n]), n_steps - n)
        n += h
    return np.array(opening, dtype=int)


def opening_coverage(opening: np.ndarray) -> tuple[float, list[int]]:
    """Skip ratio and anchor (evaluated) step indices of a ``skip_intervals`` row: the interval starts."""
    anchors = np.flatnonzero(opening).tolist()
    return 1.0 - len(anchors) / len(opening), anchors


def schedule_coverage(schedule: np.ndarray, n_steps: int) -> tuple[float, list[int]]:
    """``opening_coverage`` of the schedule's ``skip_intervals`` row."""
    return opening_coverage(skip_intervals(schedule, n_steps))
