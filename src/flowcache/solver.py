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

from .decomposition import _shrunk
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
    record makes the float arrays it is given read-only; it does not copy them,
    so a walk's records are views of its one block, which any of them keeps.
    """

    grid: TimeGrid
    states: np.ndarray
    velocities: np.ndarray
    evaluated: np.ndarray
    directions: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        # the (N, D) arrays are frozen in place, not copied: the samplers hand over views of a
        # walk's fresh block, and each copy would be one more large allocation per run
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


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite; a finite sum of squares implies it, so the full test runs only if not."""
    flat = a if a.ndim == 1 else a.ravel()
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(a).all())


def _walk(
    field: VelocityField,
    grid: TimeGrid,
    x0: np.ndarray,
    conditions: Sequence[Condition],
    intervals: Sequence[tuple[int, int]],
    factors: Sequence[tuple[Sequence[float], Sequence[float]]] | None = None,
    records: bool = True,
    references: Sequence[TrajectoryRecord] = (),
) -> Iterator:
    """Runs from the checked (B, D) start states ``x0``, one per condition, over the ``(start, length)`` ``intervals``.

    All runs ride one batch. With ``records``, they share one (B, width, D)
    block of run arrays (states, velocities and, for cached runs, directions),
    and each run is yielded as a ``TrajectoryRecord`` once all are walked.
    Without, the batch holds one running (B, D) row each of states,
    velocities and directions, and each interval's last step is yielded as
    ``(velocities, states)``, overwritten by the next interval.

    Each interval opens with one oracle call for the batch, its output checked
    once (step 0 always opens a length-1 interval). Run i, which starts where
    full-step run i mod R of ``references`` does, takes that run's velocities
    up to the first longer interval's anchor (all, if none is). With per-run ``factors``
    ``(growth, turn)`` = (exp(k_tilde * dt), d_tilde), a longer interval
    opening at n takes each run's turning anchor p, the residual of
    v_n - v_p off the run's previous evaluated velocity v_p (none where
    v_p = 0). Each step m then runs, in order: each run's direction u_m, the
    unit residual of p off v_m, degenerate (its ``directions`` row stays
    NaN) where there is no p, v_m = 0, or the residual norm is 0 or below
    ``EPS_DIR`` |p|; the batch's Euler step state_{m+1} = state_m - dt_m v_m;
    and, inside the interval, each run's
    v_{m+1} = growth_m v_m + turn_m |v_m| u_m, without the turning term where
    u_m is degenerate or turn_m = 0; at huge speeds p and u_m are found, bit for
    bit, at a power-of-two scale (``_shrunk``). A run that leaves the finite range
    fails once the batch is walked, naming its first non-finite state's
    step; a record-free walk checks its state row at interval ends and names
    that end. numpy's overflow and invalid-value warnings are silenced while
    the walk steps the batch (an interval, without records), not while a
    caller holds a yielded step.
    """
    n_steps, dim, B = grid.n_steps, x0.shape[1], len(conditions)
    seeded = next((n for n, h in intervals if h > 1), n_steps - 1) + 1 if references else 0
    times, dt = grid.times.tolist(), grid.dt.tolist()
    evaluated = np.zeros(n_steps, dtype=bool)
    evaluated[[n for n, _ in intervals]] = True
    width = 2 * n_steps + 1 if factors is None else 3 * n_steps + 1
    # the intervals one errstate spans: all, or one where the walk hands its caller each interval's end outside it
    groups = [intervals] if records else [[interval] for interval in intervals]
    field.prepare([times[n] for n, _ in intervals if n >= seeded])
    if records:
        # one allocation: as separate arrays, large runs were faulted in again on every run under some heap layouts
        block = np.empty((B, width, dim))
        block[:, 2 * n_steps + 1 :] = np.nan  # directions: a step without one keeps its NaN row
        states, velocities, directions = np.split(block, [n_steps + 1, 2 * n_steps + 1], axis=1)
    else:
        # every step of a run indexes the one running row of its states, of its velocities, of its directions
        states, velocities, directions = (
            np.lib.stride_tricks.as_strided(rows, (B, n_steps + 1, dim), (8 * dim, 0, 8))
            for rows in np.empty((3, B, dim))
        )
    # step-major rows: (B, D), or (D,) for a single run's record, which the oracle takes as an unbatched call
    S, V = (a[0] if records and B == 1 else a.swapaxes(0, 1) for a in (states, velocities))
    S[0] = x0
    batch_conditions = conditions if S.ndim == 3 else conditions[0]
    if seeded:  # the runs' reference velocities, step-major: (B, D) rows, or (D,) for a single record
        cycle = [references[i % len(references)].velocities[:seeded] for i in range(B)]
        known = np.stack(cycle, axis=1) if S.ndim == 3 else cycle[0]
    runs = [(vel, dirs, *f) for vel, dirs, f in zip(velocities, directions, factors or [(None, None)] * B)]
    bad = None  # the first step whose state is not finite; a non-finite entry persists to later states
    for group in groups:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite run is raised below, naming its step
            for n, h in group:
                v = known[n] if n < seeded else field.evaluate(S[n], times[n], batch_conditions)
                if not _finite(v):
                    raise NumericDomainError(f"the oracle returned a non-finite velocity at step {n} (t={times[n]})")
                V[n] = v
                if h > 1:
                    # per run: velocities, directions, growth, turn, anchor p, its tolerance, u_m and |v_m|
                    live = []
                    for run, v_p, v_n in zip(runs, last.reshape(B, -1), v.reshape(B, -1)):
                        pp = float(v_p.dot(v_p))
                        if not pp + float(v_n.dot(v_n)) < 2.0**1020:  # a huge speed: p is found at 2**-e
                            v_p, v_n = _shrunk(v_p, v_n)[1]
                            pp = float(v_p.dot(v_p))
                        a, tol = None, 0.0
                        if pp != 0.0:
                            a = v_n - v_p
                            a -= (float(a.dot(v_p)) / pp) * v_p
                            tol = EPS_DIR * math.sqrt(a.dot(a))
                        live.append([*run, a, tol, None, 0.0])
                last = v
                for m in range(n, n + h):
                    if h > 1:
                        for st in live:
                            vel, dirs, growth, turn, p, tol, u, norm = st
                            v_m = vel[m]
                            if m > n:  # v_m rebuilt from v_{m-1} and its direction
                                np.multiply(growth[m - 1], vel[m - 1], out=v_m)
                                if u is not None and turn[m - 1] != 0.0:
                                    v_m += turn[m - 1] * norm * u
                            u, w, norm = None, v_m, 0.0
                            if p is not None:
                                vv = float(v_m.dot(v_m))
                                norm = math.sqrt(vv)
                                if vv == math.inf:  # a huge speed: u is scale-free, so it is found at 2**-e
                                    e, (w,) = _shrunk(v_m)
                                    vv = float(w.dot(w))
                                    norm = math.ldexp(math.sqrt(vv), int(e))
                                if vv != 0.0:
                                    r = p - (float(p.dot(w)) / vv) * w
                                    r_norm = math.sqrt(r.dot(r))
                                    if not (r_norm == 0.0 or r_norm < tol):
                                        u = np.divide(r, r_norm, out=dirs[m])
                            st[6], st[7] = u, norm
                    np.subtract(S[m], dt[m] * V[m], out=S[m + 1])
            # a record-free walk holds one state row, so it names the end of the group's one interval
            if bad is None and not _finite(S[m + 1]):
                bad = next(k for k in range(1 if records else m + 1, m + 2) if not _finite(S[k]))
        if not records:
            yield V[m], S[m + 1]
    if bad is not None:
        raise NumericDomainError(f"the trajectory left the finite range at step {bad} (t={times[bad]})")
    if records:
        for run, (vel, dirs, *_) in zip(states, runs):
            yield TrajectoryRecord(grid, run, vel, evaluated, None if factors is None else dirs)


def sample_full(field: VelocityField, grid: TimeGrid, x0: np.ndarray, condition: Condition) -> TrajectoryRecord:
    """Reference run: evaluate the oracle at every step of the grid."""
    return next(_full_kernel(field, grid, _check_start(field, x0)[None], (condition,)))


def _full_kernel(
    field: VelocityField, grid: TimeGrid, x0: np.ndarray, conditions: Sequence[Condition], records: bool = True
) -> Iterator:
    """Full runs from the checked (B, D) start states ``x0``, one per condition: the walk over length-1 intervals.

    With ``records`` it yields each run's record; without, each step's ``(velocities, states)`` rows (``_walk``).
    """
    return _walk(field, grid, x0, conditions, [(n, 1) for n in range(grid.n_steps)], records=records)


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
