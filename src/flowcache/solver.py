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
from itertools import compress
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .decomposition import _row_dots, _shrunk
from .errors import FieldError, InvalidArgumentError, NumericDomainError
from .fields import Condition, VelocityField
from .ioutil import _check_count, write_csv


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
    _check_count("n_steps", n_steps, lambda key, reason: InvalidArgumentError(f"{key} {reason}"))
    try:
        return TimeGrid(np.linspace(1.0, 0.0, n_steps + 1))
    except (MemoryError, ValueError):  # numpy's own error names no key
        raise InvalidArgumentError(f"n_steps {n_steps} is too large: its grid cannot be allocated") from None


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


def _left_range(times: list, node: int, states: np.ndarray) -> NumericDomainError:
    """The error of a run found non-finite at ``node``, named at any earlier non-finite node of its ``states``."""
    node = next((k for k in range(1, node) if not _finite(states[..., k, :])), node)
    return NumericDomainError(f"the trajectory left the finite range at step {node} (t={times[node]})")


def _oracle(field: VelocityField, states: np.ndarray, times: list, conditions, step: int, recorded) -> np.ndarray:
    """``field.evaluate`` at node ``step``, checked to be finite (a reference's rows were, in its own walk). A
    non-finite output at a non-finite state is blamed on the run (``_left_range`` on its ``recorded`` states)."""
    v = field.evaluate(states, times[step], conditions)
    if not _finite(v):
        if not _finite(states):
            raise _left_range(times, step, recorded)
        raise NumericDomainError(f"the oracle returned a non-finite velocity at step {step} (t={times[step]})")
    return v


def _record_block(runs: int, n_steps: int, dim: int, cached: bool) -> list[np.ndarray]:
    """The (runs, N+1, D) states, (runs, N, D) velocities and, for cached runs, NaN directions of one block."""
    # one allocation: as separate arrays, large runs were faulted in again on every run under some heap layouts
    block = np.empty((runs, 3 * n_steps + 1 if cached else 2 * n_steps + 1, dim))
    block[:, 2 * n_steps + 1 :] = np.nan  # directions: a step without one keeps its NaN row
    return np.split(block, [n_steps + 1, 2 * n_steps + 1], axis=1)


def _one_run(
    field: VelocityField, grid: TimeGrid, x0: np.ndarray, condition: Condition, opening, factors, references
) -> TrajectoryRecord:
    """The record of one run from the (D,) state ``x0``, an interval at a time: the row walk's bits, at less
    cost a step, with 1-d arithmetic and unbatched oracle calls."""
    n_steps, intervals = grid.n_steps, [(n, int(h)) for n, h in enumerate(opening.tolist()) if h]
    seeded = next((n for n, h in intervals if h > 1), n_steps - 1) + 1 if references else 0
    times, dt = grid.times.tolist(), grid.dt.tolist()
    evaluated = np.zeros(n_steps, dtype=bool)
    evaluated[[n for n, _ in intervals]] = True
    field.prepare([times[n] for n, _ in intervals if n >= seeded])
    states, velocities, directions = (a[0] for a in _record_block(1, n_steps, x0.size, factors is not None))
    states[0] = x0
    growth, turn = (f[0].tolist() for f in factors) if factors is not None else ((), ())
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite run is raised below, naming its step
        for n, h in intervals:
            v = references[0].velocities[n] if n < seeded else _oracle(field, states[n], times, condition, n, states)
            velocities[n] = v
            if h > 1:  # the turning anchor p and its tolerance
                v_p, v_n = last, v
                pp = float(v_p.dot(v_p))
                if not pp + float(v_n.dot(v_n)) < 2.0**1020:  # a huge speed: p is found at 2**-e
                    v_p, v_n = _shrunk(v_p, v_n)[1]
                    pp = float(v_p.dot(v_p))
                p, tol = None, 0.0
                if pp != 0.0:
                    p = v_n - v_p
                    p -= (float(p.dot(v_p)) / pp) * v_p
                    tol = EPS_DIR * math.sqrt(p.dot(p))
            last = v
            for m in range(n, n + h):
                if h > 1:
                    v_m = velocities[m]
                    if m > n:  # v_m rebuilt from v_{m-1} and its direction
                        np.multiply(growth[m - 1], velocities[m - 1], out=v_m)
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
                                u = np.divide(r, r_norm, out=directions[m])
                np.subtract(states[m], dt[m] * velocities[m], out=states[m + 1])
        if not _finite(states[-1]):  # a non-finite entry persists to later states
            raise _left_range(times, n_steps, states)
    return TrajectoryRecord(grid, states, velocities, evaluated, None if factors is None else directions)


_ALL = slice(None)  # a step's rows where a rule applies to every run


def _per_step(mask: np.ndarray) -> list:
    """Each step's runs of a (B, N) ``mask``: ``_ALL``, None for none, or else the step's (B,) column."""
    return [_ALL if a else c if s else None for a, s, c in zip(mask.all(0).tolist(), mask.any(0).tolist(), mask.T)]


def _turning_anchors(v_p: np.ndarray, v_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's turning anchor p (NaN where v_p = 0: no direction passes) and its tolerance, at least 5e-324."""
    pp = _row_dots(v_p, v_p)
    huge = ~(pp + _row_dots(v_n, v_n) < 2.0**1020)
    if huge.any():  # a huge speed: p is found at 2**-e
        v_p, v_n = v_p.copy(), v_n.copy()
        v_p[huge], v_n[huge] = _shrunk(v_p[huge], v_n[huge])[1]
        pp[huge] = _row_dots(v_p[huge], v_p[huge])
    p = v_n - v_p
    p -= (_row_dots(p, v_p) / pp)[:, None] * v_p
    tol = EPS_DIR * np.sqrt(_row_dots(p, p))
    tol[tol == 0.0] = 5e-324  # so a zero residual never passes ``r_norm >= tol``
    return p, tol


def _turning_directions(v: np.ndarray, p: np.ndarray, tol: np.ndarray, rows, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(u, has_u, |v|)``: each row's unit residual of p off v, written to ``u``, and where in ``rows`` it passes."""
    vv = _row_dots(v, v)
    norm, w = np.sqrt(vv), v
    huge = vv == np.inf
    if huge.any():  # a huge speed: u is scale-free, so it is found at 2**-e, and |v| from that scale
        e, (scaled,) = _shrunk(v[huge])
        w = v.copy()
        w[huge] = scaled
        vv[huge] = _row_dots(scaled, scaled)
        norm[huge] = np.ldexp(np.sqrt(vv[huge]), e)
    r = np.multiply((_row_dots(p, w) / vv)[:, None], w, out=u)
    np.subtract(p, r, out=r)
    r_norm = np.sqrt(_row_dots(r, r))
    has_u = r_norm >= tol if rows is _ALL else (r_norm >= tol) & rows
    return np.divide(r, r_norm[:, None], out=r), has_u, norm


def _walk(
    field: VelocityField,
    grid: TimeGrid,
    x0: np.ndarray,
    conditions: Sequence[Condition],
    opening: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
    records: int | None = None,
    references: Sequence[TrajectoryRecord] = (),
) -> Iterator:
    """Runs from the checked (B, D) start states ``x0``, one per condition, each over its own skip intervals.

    ``opening`` (B, N) holds each run's interval lengths at their starts, 0
    elsewhere. Each interval opens with an oracle evaluation (step 0 opens a
    length-1 one). Run i, which starts where full-step run i mod R of
    ``references`` does, takes that run's velocities up to its first longer
    interval's anchor (all, if none is). With the (B, N) per-run ``factors``
    ``(growth, turn)`` = (exp(k_tilde * dt), d_tilde), a longer interval
    opening at n takes the turning anchor p, the residual of v_n - v_p off the
    run's previous evaluated velocity v_p (none where v_p = 0). Each step m
    then runs, in order: the direction u_m, the unit residual of p off v_m,
    degenerate (its ``directions`` row stays NaN) where there is no p,
    v_m = 0, or the residual norm is 0 or below ``EPS_DIR`` |p|; the Euler step
    state_{m+1} = state_m - dt_m v_m; and, inside the interval,
    v_{m+1} = growth_m v_m + turn_m |v_m| u_m, without the turning term where
    u_m is degenerate or turn_m = 0. At huge speeds p and u_m are found, bit
    for bit, at a power-of-two scale (``_shrunk``).

    ``records`` is the number of leading runs (all, if None) that keep a
    ``TrajectoryRecord``, yielded once all are walked. One run with a
    record takes ``_one_run``. Any other batch steps all runs at once, each
    rule a (B, D) row operation kept where it applies, with at most one oracle
    call a step, on the anchoring rows no reference serves. Where some run
    keeps no record, each step after which every run ends an interval first
    yields every run's ``(velocities, states)``, overwritten by the next. A run
    leaving the finite range fails at the first check to find it (a hand-over's
    state, the last state, or an oracle output at a non-finite state), named at
    its first non-finite state if recorded, else at the node checked. numpy's
    warnings are off while the walk steps, not while a caller holds a step.
    """
    batch, kept = len(conditions), len(conditions) if records is None else int(records)
    if kept == batch == 1:
        yield _one_run(field, grid, x0[0], conditions[0], opening[0], factors, references)
        return
    n_steps, dim = grid.n_steps, x0.shape[1]
    times, dt = grid.times.tolist(), grid.dt.tolist()
    start = opening > 0
    held = np.maximum.accumulate(np.where(start, np.arange(n_steps), 0), axis=1)  # the start of each step's interval
    skip = np.take_along_axis(opening, held, axis=1) > 1  # a step of a longer interval: it takes a direction
    opens, served = start & skip, np.zeros_like(start)
    if references:  # up to the anchor of a run's first longer interval (all, if none is)
        served = start & (np.arange(n_steps) <= np.where(opens.any(axis=1), opens.argmax(axis=1), n_steps - 1)[:, None])
        cycle = np.arange(batch) % len(references)
    asked, turning = start & ~served, skip & ~start  # turning: a rebuilt step whose turning factor is not 0
    if factors is not None:
        growth, turn = factors[0].T[:, :, None], factors[1].T  # step-major
        turning[:, 1:] &= factors[1][:, :-1] != 0.0
    field.prepare([times[m] for m in np.flatnonzero(asked.any(axis=0)).tolist()])
    plan = zip(*(_per_step(mask) for mask in (start, asked, served, opens, skip, turning)))
    # where some run keeps no record, the walk checks and hands over after each step at which every run ends an interval
    cuts = [] if kept == batch else (np.flatnonzero(start[:, 1:].all(axis=0)) + 1).tolist()
    segments = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n_steps])]
    states, velocities, directions = _record_block(kept, n_steps, dim, factors is not None)  # empty if none is kept
    states[:, 0] = x0[:kept]
    # the running rows: states, turning anchors p (NaN: none yet) and their tolerances, directions, an Euler term
    x, p, tol, u, step = x0.copy(), np.full_like(x0, np.nan), np.full(batch, np.inf), *np.empty((2, *x0.shape))
    del x0  # a caller's temporary start rows are freed while the walk runs
    for segment in segments:
        with np.errstate(all="ignore"):  # masked rows compute too; a non-finite run is raised below
            for m, (anchor, ask, serve, open_, walk, turns) in zip(segment, plan):
                if anchor is not _ALL:  # v_m rebuilt from v_{m-1} and its direction
                    v = growth[m - 1] * v
                    if turns is not None:
                        u *= (turn[m - 1] * norm)[:, None]  # u_{m-1} is spent: it takes the turning term in place
                        np.add(v, u, out=v, where=(has_u if turns is _ALL else has_u & turns)[:, None])
                else:  # v_{m-1} is spent: dropped before the oracle call, it is freed unless it is the last anchor
                    v = None if ask is _ALL else np.empty_like(x)
                if ask is _ALL:
                    v = _oracle(field, x, times, conditions, m, states)
                elif ask is not None:
                    v[ask] = _oracle(field, x[ask], times, list(compress(conditions, ask)), m, states)
                if serve is not None:  # each run's reference row
                    v[serve] = np.stack([full.velocities[m] for full in references])[cycle[serve]]
                if open_ is not None:  # the turning anchors p and their tolerances
                    p[open_], tol[open_] = (a[open_] for a in _turning_anchors(last, v))
                if anchor is _ALL:
                    last = v
                elif anchor is not None:  # last is not v here: v is fresh at every step
                    np.copyto(last, v, where=anchor[:, None])
                if walk is not None:
                    u, has_u, norm = _turning_directions(v, p, tol, walk, u)
                    if kept:
                        np.copyto(directions[:, m], u[:kept], where=has_u[:kept, None])
                np.subtract(x, np.multiply(v, dt[m], out=step), out=x)
                if kept:
                    velocities[:, m], states[:, m + 1] = v[:kept], x[:kept]
            if not _finite(x):  # a non-finite entry persists to later states
                raise _left_range(times, m + 1, states)
        if kept < batch:
            yield v, x
    for i in range(kept):
        yield TrajectoryRecord(grid, states[i], velocities[i], start[i], None if factors is None else directions[i])


def sample_full(field: VelocityField, grid: TimeGrid, x0: np.ndarray, condition: Condition) -> TrajectoryRecord:
    """Reference run: evaluate the oracle at every step of the grid."""
    return next(_full_kernel(field, grid, _check_start(field, x0)[None], (condition,)))


def _full_kernel(
    field: VelocityField, grid: TimeGrid, x0: np.ndarray, conditions: Sequence[Condition], records: int | None = None
) -> Iterator:
    """Full runs from the checked (B, D) start states ``x0``, one per condition: ``_walk`` over length-1 intervals."""
    return _walk(field, grid, x0, conditions, np.ones((len(conditions), grid.n_steps), dtype=int), None, records)


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
