"""Time grids and first-order Euler integration.

Sampling runs from t=1 (noise) down to t=0 (data) on a strictly decreasing
grid; each step advances the state by ``state - dt * velocity``. Full-step
runs evaluate the oracle at every step and serve as the reference for every
cached-sampling comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError
from .fields import Condition, VelocityField
from .ioutil import write_csv


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly decreasing times t_0 = 1 > t_1 > ... > t_N = 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("a time grid needs at least two nodes")
        if times[0] != 1.0 or times[-1] != 0.0:
            raise InvalidArgumentError("grid endpoints must be exactly 1 and 0")
        if not np.all(np.diff(times) < 0.0):
            raise InvalidArgumentError("grid times must be strictly decreasing")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> np.ndarray:
        """Per-step sizes dt_n = t_n - t_{n+1}, all positive."""
        return self.times[:-1] - self.times[1:]


def make_uniform_grid(n_steps: int) -> TimeGrid:
    if n_steps < 1:
        raise InvalidArgumentError(f"n_steps must be >= 1, got {n_steps}")
    return TimeGrid(np.linspace(1.0, 0.0, n_steps + 1))


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States, velocities, and evaluation flags from one sampling run.

    ``states`` has N+1 rows (one per grid node); ``velocities`` and
    ``evaluated`` have N entries (one per step). ``evaluated[n]`` is True
    where the oracle was actually called, so ``nfe`` counts true oracle work.
    A cached run also records ``directions``, shaped like ``velocities``:
    row n is the unit turning direction handed to the reconstruction at step
    n, and all-NaN where the step had none. Full-step runs carry None. The
    record makes the float arrays it is given read-only; it does not copy them.
    """

    grid: TimeGrid
    states: np.ndarray
    velocities: np.ndarray
    evaluated: np.ndarray
    directions: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        # the (N, D) arrays are frozen in place, not copied: the samplers hand over views of a
        # fresh batch block, and each copy would be one more large allocation per run
        states = np.asarray(self.states, dtype=float)
        velocities = np.asarray(self.velocities, dtype=float)
        evaluated = np.array(self.evaluated, dtype=bool)
        directions = None if self.directions is None else np.asarray(self.directions, dtype=float)
        if states.shape[0] != n + 1:
            raise InvalidArgumentError(f"expected {n + 1} states, got {states.shape[0]}")
        if velocities.shape[0] != n or evaluated.shape[0] != n:
            raise InvalidArgumentError(f"expected {n} velocities and flags")
        if directions is not None and directions.shape != velocities.shape:
            raise InvalidArgumentError("directions must be shaped like velocities")
        arrays = {"states": states, "velocities": velocities, "evaluated": evaluated, "directions": directions}
        for name, arr in arrays.items():
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def nfe(self) -> int:
        return int(np.count_nonzero(self.evaluated))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def euler_step(state: np.ndarray, velocity: np.ndarray, dt: float) -> np.ndarray:
    """One explicit Euler update toward the data end: state - dt * velocity."""
    state = np.asarray(state, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if dt <= 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    if state.shape != velocity.shape:
        raise InvalidArgumentError(f"state shape {state.shape} does not match velocity shape {velocity.shape}")
    if not (np.isfinite(state).all() and np.isfinite(velocity).all() and np.isfinite(dt)):
        raise NumericDomainError("euler_step requires finite state, velocity, and dt")
    return _euler(state, velocity, dt)


def _euler(state: np.ndarray, velocity: np.ndarray, dt: float, out: np.ndarray | None = None) -> np.ndarray:
    """The Euler update on checked inputs, written into ``out`` when given."""
    return np.subtract(state, dt * velocity, out=out)


def _check_start(field: VelocityField, x0: np.ndarray) -> np.ndarray:
    """``x0`` as a float array, checked to be a finite state of ``field``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dimension,):
        raise InvalidArgumentError(f"x0 shape {x0.shape} does not match field dimension {field.dimension}")
    if not np.isfinite(x0).all():
        raise NumericDomainError("the start state must be finite")
    return x0


# Most bytes one batch's block of run arrays takes. A larger set of runs goes
# in consecutive batches, so memory stays bounded whatever the seed count.
_BATCH_BYTES = 1 << 20


def _batches(
    x0: np.ndarray, conditions: Sequence[Condition], width: int
) -> Iterator[tuple[Sequence[Condition], np.ndarray, np.ndarray]]:
    """The runs from the (B, D) start states ``x0`` in batches: ``(conditions, block, steps)``.

    ``block`` is one allocation, (b, width, D), a contiguous row of ``width``
    vectors per run: as separate arrays, large runs were faulted in from the
    OS again on every run under some heap layouts. ``steps`` is its step-major
    view with the starts in row 0. Its rows are (b, D), or (D,) for a single
    run, which the oracle then takes as an unbatched call.
    """
    size = max(1, _BATCH_BYTES // (8 * width * x0.shape[1]))
    for start in range(0, len(conditions), size):
        batch = conditions[start : start + size]
        block = np.empty((len(batch), width, x0.shape[1]))
        steps = block[0] if len(batch) == 1 else block.swapaxes(0, 1)
        steps[0] = x0[start : start + size]
        yield batch, block, steps


def _evaluate(
    field: VelocityField, states: np.ndarray, t: float, conditions: Sequence[Condition], n: int
) -> np.ndarray:
    """One oracle call on a row of a batch's ``steps`` (see ``_batches``), its output checked for finiteness once."""
    v = field.evaluate(states, t, conditions[0] if states.ndim == 1 else conditions)
    flat = v if v.ndim == 1 else v.ravel()
    # a finite sum of squares implies finite entries; the full test runs only when it is not, e.g. on overflow
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(v).all():
        raise NumericDomainError(f"the oracle returned a non-finite velocity at step {n} (t={t})")
    return v


def _check_end(states: np.ndarray) -> None:
    """Reject a batch whose states overflowed; a non-finite entry persists to the final states."""
    if not np.isfinite(states[-1]).all():
        raise NumericDomainError("the trajectory left the finite range")


def sample_full(field: VelocityField, grid: TimeGrid, x0: np.ndarray, condition: Condition) -> TrajectoryRecord:
    """Reference run: evaluate the oracle at every step of the grid."""
    return next(_full_kernel(field, grid, _check_start(field, x0)[None], (condition,)))


def _full_kernel(
    field: VelocityField, grid: TimeGrid, x0: np.ndarray, conditions: Sequence[Condition]
) -> Iterator[TrajectoryRecord]:
    """Full runs from the checked (B, D) start states ``x0``, one per condition, yielded in order.

    Per step and batch (``_batches``), one oracle call, its output checked
    once, and the Euler update on the batch's rows. Each record's arrays are
    one contiguous run of its batch's block.
    """
    n = grid.n_steps
    times, dt = grid.times.tolist(), grid.dt.tolist()
    evaluated = np.ones(n, dtype=bool)
    for batch, block, steps in _batches(x0, conditions, 2 * n + 1):
        states, velocities = steps[: n + 1], steps[n + 1 :]
        for i in range(n):
            velocities[i] = _evaluate(field, states[i], times[i], batch, i)
            _euler(states[i], velocities[i], dt[i], out=states[i + 1])
        _check_end(states)
        for run in block:
            yield TrajectoryRecord(grid, run[: n + 1], run[n + 1 :], evaluated)


def write_trajectory_csv(record: TrajectoryRecord, path: str | Path) -> None:
    """One row per step: n, t_n, evaluated flag, state norm, velocity norm."""
    rows = []
    for i in range(record.grid.n_steps):
        rows.append(
            (
                i,
                float(record.grid.times[i]),
                bool(record.evaluated[i]),
                float(np.linalg.norm(record.states[i])),
                float(np.linalg.norm(record.velocities[i])),
            )
        )
    write_csv(path, ("n", "t", "evaluated", "state_norm", "velocity_norm"), rows)
