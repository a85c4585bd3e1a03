"""Time grids, first-order Euler integration and the one sampling walk.

Sampling runs from t=1 (noise) down to t=0 (data) on a strictly decreasing
grid; each step advances the state by ``state - dt * velocity``. Every run,
full or cached, is a walk over skip intervals: each interval opens with an
oracle evaluation, and a cached run rebuilds the velocities of the
interval's remaining steps. A full-step run is the walk over intervals of
length 1; it evaluates the oracle at every step and serves as the reference
for every cached-sampling comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import FieldError, InvalidArgumentError, NumericDomainError
from .fields import Condition, VelocityField
from .ioutil import write_csv


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly decreasing times t_0 = 1 > t_1 > ... > t_N = 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise FieldError("times", "a time grid needs at least two nodes")
        if times[0] != 1.0 or times[-1] != 0.0:
            raise FieldError("times", "grid endpoints must be exactly 1 and 0")
        if not np.all(np.diff(times) < 0.0):
            raise FieldError("times", "grid times must be strictly decreasing")
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


def _check_start(field: VelocityField, x0: np.ndarray) -> np.ndarray:
    """``x0`` as a float array, checked to be a finite state of ``field``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dimension,):
        raise InvalidArgumentError(f"x0 shape {x0.shape} does not match field dimension {field.dimension}")
    if not np.isfinite(x0).all():
        raise NumericDomainError("the start state must be finite")
    return x0


# Residual-norm fraction below which a direction anchor counts as parallel.
EPS_DIR = 1e-12


def _project_off(a: np.ndarray, v: np.ndarray, vv: float) -> np.ndarray:
    """``a`` minus its projection on ``v``, given ``vv = v @ v`` (nonzero)."""
    return a - (float(a.dot(v)) / vv) * v


def _parallel_tol(anchor: np.ndarray) -> float:
    """Residual norm below which ``anchor`` counts as parallel to a velocity."""
    return EPS_DIR * math.sqrt(anchor.dot(anchor))


def _unit_residual(
    anchor: np.ndarray, v_hat: np.ndarray, vv: float, tol: float, out: np.ndarray | None = None
) -> np.ndarray | None:
    """Unit ``anchor`` residual off ``v_hat`` (written into ``out``), or None where it is degenerate."""
    residual = _project_off(anchor, v_hat, vv)
    norm = math.sqrt(residual.dot(residual))
    if norm == 0.0 or norm < tol:
        return None
    return np.divide(residual, norm, out=out)


def _reconstruct(
    v_hat: np.ndarray,
    growth: float,
    d_t: float,
    v_norm: float,
    u_perp: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``growth * v_hat + d_t * v_norm * u_perp``, without the turning term where ``u_perp`` is None or ``d_t`` is 0."""
    out = np.multiply(growth, v_hat, out=out)
    if u_perp is not None and d_t != 0.0:
        out += d_t * v_norm * u_perp
    return out


# Most bytes one batch's block of run arrays takes. A larger set of runs goes
# in consecutive batches, so memory stays bounded whatever the seed count.
_BATCH_BYTES = 1 << 20


def _walk(
    field: VelocityField,
    grid: TimeGrid,
    x0: np.ndarray,
    conditions: Sequence[Condition],
    intervals: Sequence[tuple[int, int]],
    factors: Sequence[tuple[Sequence[float], Sequence[float]]] | None = None,
) -> Iterator[TrajectoryRecord]:
    """Runs from the checked (B, D) start states ``x0``, one per condition, yielded in order.

    Every run walks the ``(start, length)`` ``intervals``. The runs go in
    batches whose block of run arrays fits in ``_BATCH_BYTES`` (at least one
    run each). A block is one allocation, (b, width, D), a contiguous row of
    ``width`` vectors per run: the states, the velocities and, for cached
    runs, the directions. As separate arrays, large runs were faulted in from
    the OS again on every run under some heap layouts. The block's
    step-major rows are (b, D), or (D,) for a single run, which the oracle
    then takes as an unbatched call.

    The field is told the walk's interval opening times first
    (``VelocityField.prepare``). Each interval opens with one oracle call
    per batch, its output checked once. With its own per-step ``factors``
    ``(growth, turn)`` = (exp(k_tilde * dt), d_tilde), indexed by absolute
    run, each run then rebuilds the interval's skipped velocities. An
    interval opening at step n takes the turning anchor
    p = (v_n - v_p) - ((v_n - v_p).v_p / v_p.v_p) v_p from the run's previous
    evaluated velocity v_p, and has none where v_p = 0. At each step m of the
    interval, ``directions[m]`` is u_hat, the residual of p off the velocity
    v_m divided by its norm; the row stays NaN where the direction is
    degenerate: no anchor, v_m = 0, or a residual norm of 0 or below
    ``EPS_DIR`` |p|. The next velocity is
    v_{m+1} = growth_m v_m + turn_m |v_m| u_hat, without the turning term
    where u_hat is degenerate or turn_m = 0. The reconstruction after an
    interval's last step is not computed, since the next interval opens with
    an evaluation. A full run is the walk over length-1 intervals without
    factors; its records carry no directions. The Euler updates
    state_{m+1} = state_m - dt_m v_m run on the whole batch. A run that
    leaves the finite range fails naming its first non-finite state's step;
    numpy's overflow and invalid-value warnings are silenced while a batch
    is walked, as that error says more.
    """
    n_steps = grid.n_steps
    times, dt = grid.times.tolist(), grid.dt.tolist()
    evaluated = np.zeros(n_steps, dtype=bool)
    evaluated[[n for n, _ in intervals]] = True
    width = 2 * n_steps + 1 if factors is None else 3 * n_steps + 1
    size = max(1, _BATCH_BYTES // (8 * width * x0.shape[1]))
    field.prepare([times[n] for n, _ in intervals])
    for first in range(0, len(conditions), size):
        batch = conditions[first : first + size]
        block = np.empty((len(batch), width, x0.shape[1]))
        block[:, 2 * n_steps + 1 :] = np.nan  # directions: a step without one keeps its NaN row
        steps = block[0] if len(batch) == 1 else block.swapaxes(0, 1)
        steps[0] = x0[first : first + size]
        states, velocities = steps[: n_steps + 1], steps[n_steps + 1 : 2 * n_steps + 1]
        # velocities, directions and factors; a full run's are never read, as its intervals have length 1
        run_factors = factors[first : first + size] if factors is not None else [(None, None)] * len(batch)
        runs = [(run[n_steps + 1 : 2 * n_steps + 1], run[2 * n_steps + 1 :], *f) for run, f in zip(block, run_factors)]
        batch_conditions = batch[0] if len(batch) == 1 else batch
        last = -1  # step of the most recent evaluation; step 0 always opens a length-1 interval
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite run is raised below, naming its step
            for n, h in intervals:
                v = field.evaluate(states[n], times[n], batch_conditions)
                flat = v if v.ndim == 1 else v.ravel()
                # a finite sum of squares implies finite entries; the full test runs only if not, e.g. on overflow
                if not math.isfinite(flat.dot(flat)) and not np.isfinite(v).all():
                    raise NumericDomainError(f"the oracle returned a non-finite velocity at step {n} (t={times[n]})")
                velocities[n] = v
                for vel, dirs, growth, turn in runs if h > 1 else ():  # a length-1 interval reconstructs nothing
                    # interval opening: the turning anchor comes from the run's most recent
                    # evaluated velocity, which may predate t_{n-1} after a prior skip
                    v_prev = vel[last]
                    vv_prev = float(v_prev.dot(v_prev))
                    if vv_prev == 0.0:
                        anchor = None
                    else:
                        anchor = _project_off(vel[n] - v_prev, v_prev, vv_prev)
                        tol = _parallel_tol(anchor)
                    for m in range(n, n + h):
                        v_hat = vel[m]
                        u_hat = None
                        vv = 0.0
                        if anchor is not None:
                            vv = float(v_hat.dot(v_hat))
                            if vv != 0.0:
                                u_hat = _unit_residual(anchor, v_hat, vv, tol, out=dirs[m])
                        if m + 1 < n + h:
                            _reconstruct(v_hat, growth[m], turn[m], math.sqrt(vv), u_hat, out=vel[m + 1])
                # the reconstruction reads no state, so the interval's Euler steps run after it, over the batch
                for m in range(n, n + h):
                    np.subtract(states[m], dt[m] * velocities[m], out=states[m + 1])
                last = n
        # a non-finite entry persists to the final states
        if not np.isfinite(states[-1]).all():
            n = int(np.argmin(np.isfinite(states).reshape(n_steps + 1, -1).all(axis=1)))
            raise NumericDomainError(f"the trajectory left the finite range at step {n} (t={times[n]})")
        for run, (vel, dirs, *_) in zip(block, runs):
            yield TrajectoryRecord(grid, run[: n_steps + 1], vel, evaluated, None if factors is None else dirs)


def sample_full(field: VelocityField, grid: TimeGrid, x0: np.ndarray, condition: Condition) -> TrajectoryRecord:
    """Reference run: evaluate the oracle at every step of the grid."""
    return next(_full_kernel(field, grid, _check_start(field, x0)[None], (condition,)))


def _full_kernel(
    field: VelocityField, grid: TimeGrid, x0: np.ndarray, conditions: Sequence[Condition]
) -> Iterator[TrajectoryRecord]:
    """Full runs from the checked (B, D) start states ``x0``, one per condition: the walk over length-1 intervals."""
    return _walk(field, grid, x0, conditions, [(n, 1) for n in range(grid.n_steps)])


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
