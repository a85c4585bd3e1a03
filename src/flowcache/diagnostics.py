"""Trajectory-level comparison of cached versus full-step sampling runs.

A drift report lines up a cached run against the full-step reference from
the same noise initialization: per-step relative state and velocity drift,
the cached/evaluated split of velocity drift, terminal drift, and the
cosine alignment between the turning direction ``u_hat`` the cached sampler
recorded (``TrajectoryRecord.directions``) and the oracle direction
recovered from the full record's consecutive velocities. The experiment
runner wires the whole pipeline together (calibrate, schedule, sample both
ways, compare) deterministically from a config; the ablation, sweep and
truncation experiments reuse its calibration, its references and, where
they would repeat them, its cached runs. The ablation's and the sweep's own
runs ride the cached runs' walk and yield terminal drift only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .cached_sampler import CompensationToggles, _cached_kernel
from .calibration import IndicatorTable, ScheduleBundle, _indicators, calibrate
from .decomposition import _accel_rows, _decompose_rows, _row_dots
from .errors import InvalidArgumentError
from .fields import Condition, FieldSpec, VelocityField, _check_seeds, field_digest, initial_state
from .ioutil import _check_count, _defaults, _json_value, _read_json, _write_json, write_csv
from .schedule import (
    DEFAULT_H_MAX, DEFAULT_TAU_D, DEFAULT_TAU_K, _check_thresholds, build_schedule, opening_coverage, skip_intervals
)
from .solver import TimeGrid, TrajectoryRecord, _full_kernel, make_uniform_grid

# Reference norms below this are skipped when averaging relative drifts.
NORM_GUARD = 1e-12


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Per-step and terminal drift statistics for one cached/full pair."""

    state_drift: np.ndarray  # one entry per grid node
    velocity_drift: np.ndarray  # one entry per step
    final_state_drift: float
    cached_vel_drift_mean: float
    evaluated_vel_drift_mean: float
    cos_theta: np.ndarray
    cos_theta_steps: tuple[int, ...]
    degenerate_direction_count: int


def _relative_norms(diff: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise |diff| / |ref| with a mask of rows where ref is usable."""
    diff_norm = np.linalg.norm(diff, axis=1)
    ref_norm = np.linalg.norm(ref, axis=1)
    usable = ref_norm > NORM_GUARD
    out = np.zeros_like(diff_norm)
    out[usable] = diff_norm[usable] / ref_norm[usable]
    return out, usable


def _cos_theta(full: TrajectoryRecord, cached: TrajectoryRecord) -> tuple[np.ndarray, np.ndarray, int]:
    """Alignment of the recorded ``u_hat`` with the oracle direction on cached steps.

    The oracle direction at step m is the unit orthogonal residual of the full
    record's acceleration, all steps in one pass of the row kernel. A step
    with a look-ahead velocity counts as degenerate where either direction is
    missing: a near-zero velocity, a residual below 1e-12 of the acceleration
    (or of 1), or an all-NaN ``u_hat`` row. Returns the cosines, their steps
    and the degenerate count.
    """
    steps = np.flatnonzero(~cached.evaluated[:-1])
    if not steps.size:
        return np.empty(0), steps, 0
    v = full.velocities[steps]
    dt = full.grid.dt[steps]
    accel = _accel_rows(v, full.velocities[steps + 1], dt)
    accel_norm = np.sqrt(_row_dots(accel, accel))
    _, r_perp, _ = _decompose_rows(v, accel, dt)
    r_norm = np.sqrt(_row_dots(r_perp, r_perp))
    u_hat = cached.directions[steps]
    usable = (
        (np.sqrt(_row_dots(v, v)) > NORM_GUARD)
        & (r_norm != 0.0)
        & (r_norm >= 1e-12 * np.maximum(accel_norm, 1.0))
        & ~np.isnan(u_hat).all(axis=1)
    )
    oracle_dir = r_perp[usable] / r_norm[usable, None]
    return _row_dots(u_hat[usable], oracle_dir), steps[usable], int(steps.size - np.count_nonzero(usable))


def compare_trajectories(full: TrajectoryRecord, cached: TrajectoryRecord) -> DriftReport:
    """Drift profile of a cached run against its full-step reference."""
    if not np.array_equal(full.grid.times, cached.grid.times):
        raise InvalidArgumentError("records use different time grids")
    if not np.array_equal(full.states[0], cached.states[0]):
        raise InvalidArgumentError("records start from different initial states")
    if not bool(full.evaluated.all()):
        raise InvalidArgumentError("the reference record must be fully evaluated")
    if cached.directions is None and not bool(cached.evaluated.all()):
        raise InvalidArgumentError("the cached record has cached steps but no recorded directions")

    state_drift, _ = _relative_norms(cached.states - full.states, full.states)
    velocity_drift, vel_usable = _relative_norms(cached.velocities - full.velocities, full.velocities)

    flags = cached.evaluated
    cached_mask = ~flags & vel_usable
    eval_mask = flags & vel_usable
    cached_mean = float(velocity_drift[cached_mask].mean()) if cached_mask.any() else math.nan
    eval_mean = float(velocity_drift[eval_mask].mean()) if eval_mask.any() else math.nan

    cos_arr, cos_steps, degenerate = _cos_theta(full, cached)

    return DriftReport(
        state_drift=state_drift,
        velocity_drift=velocity_drift,
        final_state_drift=float(state_drift[-1]),
        cached_vel_drift_mean=cached_mean,
        evaluated_vel_drift_mean=eval_mean,
        cos_theta=cos_arr,
        cos_theta_steps=tuple(cos_steps.tolist()),
        degenerate_direction_count=degenerate,
    )


def count_speedup(full_nfe: int, cached_nfe: int) -> float:
    """The NFE ratio (full over cached oracle calls), not the wall-clock speedup, which is measured separately:
    on perfbench's sample-d1024 at seed 1 (dim 1024, 100 steps, 15 anchors) a cached run is 1.9x faster, 6.7x in NFE."""
    if cached_nfe < 1:
        raise InvalidArgumentError(f"cached_nfe must be >= 1, got {cached_nfe}")
    return full_nfe / cached_nfe


# The experiment config document's keys in write order, each with its JSON kind; a key with a default may be left out.
CONFIG_KEYS = {
    "field": "object", "n_steps": "int", "calibration_seeds": "ints", "evaluation_seeds": "ints",
    "tau_k": "float", "tau_d": "float", "h_max": "int", "use_mi": "bool", "use_di": "bool",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one end-to-end experiment needs, fully seeded."""

    field: FieldSpec
    n_steps: int
    calibration_seeds: tuple[int, ...]
    evaluation_seeds: tuple[int, ...]
    tau_k: float = DEFAULT_TAU_K
    tau_d: float = DEFAULT_TAU_D
    h_max: int = DEFAULT_H_MAX
    use_mi: bool = True
    use_di: bool = True

    def __post_init__(self) -> None:
        _check_count("n_steps", self.n_steps, _config_error)
        for key in ("use_mi", "use_di"):  # the JSON reader's bool rule
            _json_value(vars(self), key, "bool", error=_config_error)
        _check_thresholds(_config_error, tau_k=self.tau_k, tau_d=self.tau_d, h_max=self.h_max)
        for key in ("calibration_seeds", "evaluation_seeds"):
            if not getattr(self, key):
                raise _config_error(key, "the seed list must be non-empty")
            _check_seeds(key, getattr(self, key), _config_error)
            object.__setattr__(self, key, tuple(int(s) for s in getattr(self, key)))
        overlap = set(self.calibration_seeds) & set(self.evaluation_seeds)
        if overlap:
            reason = f"must be disjoint from calibration_seeds, both contain {sorted(overlap)}"
            raise _config_error("evaluation_seeds", reason)

    @property
    def toggles(self) -> CompensationToggles:
        return CompensationToggles(use_mi=self.use_mi, use_di=self.use_di)

    def to_dict(self) -> dict:
        return _write_json(CONFIG_KEYS, dict(vars(self), field=self.field.to_dict()))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        values = _read_json(data, CONFIG_KEYS, _config_error, _defaults(cls))
        return cls(**dict(values, field=FieldSpec.from_dict(values["field"])))


def _config_error(key: str, reason: str) -> InvalidArgumentError:
    return InvalidArgumentError(f"experiment config key {key!r}: {reason}")


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, stderr


def _nanmean(values: list[float]) -> float:
    arr = np.array(values)
    return float(np.nanmean(arr)) if not np.isnan(arr).all() else math.nan


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """The offline stage of one experiment and its cached runs.

    ``references`` holds the full-step run of every evaluation seed, in seed
    order. Follow-up experiments compare their cached runs against these
    rather than sampling them again. The summary figures are derived from
    the bundle's schedule and the per-seed ``reports``; ``ablation`` and
    ``sweep`` hold the follow-ups' rows where ``run_experiment`` ran them.
    """

    config: ExperimentConfig
    velocity_field: VelocityField
    bundle: ScheduleBundle
    references: tuple[TrajectoryRecord, ...]
    reports: tuple[DriftReport, ...] = ()
    ablation: tuple[dict, ...] = ()
    sweep: tuple[dict, ...] = ()

    @property
    def cached_nfe(self) -> int:
        return len(opening_coverage(self.bundle.opening)[1])

    @property
    def skip_ratio(self) -> float:
        return opening_coverage(self.bundle.opening)[0]

    @property
    def speedup(self) -> float:
        return count_speedup(self.bundle.grid.n_steps, self.cached_nfe)

    @property
    def final_drifts(self) -> np.ndarray:
        return np.array([r.final_state_drift for r in self.reports])

    @property
    def mean_final_drift(self) -> float:
        return _mean_stderr(self.final_drifts)[0]

    @property
    def stderr_final_drift(self) -> float:
        return _mean_stderr(self.final_drifts)[1]

    @property
    def mean_cached_vel_drift(self) -> float:
        return _nanmean([r.cached_vel_drift_mean for r in self.reports])

    @property
    def mean_evaluated_vel_drift(self) -> float:
        return _nanmean([r.evaluated_vel_drift_mean for r in self.reports])


def make_bundle(config: ExperimentConfig) -> tuple[VelocityField, TimeGrid, ScheduleBundle]:
    """Calibrate and schedule per the config; the offline stage in one call."""
    velocity_field, grid = VelocityField(config.field), make_uniform_grid(config.n_steps)
    indicators = calibrate(velocity_field, grid, [Condition(seed) for seed in config.calibration_seeds])
    return velocity_field, grid, _bundle(config, grid, indicators)


def _bundle(config: ExperimentConfig, grid: TimeGrid, indicators: IndicatorTable) -> ScheduleBundle:
    """The config's bundle on its calibration's ``indicators``: the schedule, thresholds and provenance."""
    return ScheduleBundle(
        grid=grid,
        indicators=indicators,
        schedule=build_schedule(indicators, grid, config.tau_k, config.tau_d, config.h_max),
        tau_k=config.tau_k,
        tau_d=config.tau_d,
        h_max=config.h_max,
        field_digest=field_digest(config.field),
        seeds=config.calibration_seeds,
    )


def run_experiment(config: ExperimentConfig, ablation: bool = False, sweep_taus: Sequence = ()) -> ExperimentResult:
    """Calibrate, sample the full-step references, then run and compare cached sampling.

    This is the experiment's only calibration and its only set of reference
    runs, which ride one full-step walk: the evaluation seeds lead it and keep
    its records (the references), and each step's calibration rows go to
    ``calibrate``'s window. The cached runs, and with ``ablation`` or
    ``sweep_taus`` their follow-ups, then ride one walk (``_cached_runs``).
    """
    velocity_field, grid = VelocityField(config.field), make_uniform_grid(config.n_steps)
    e, dim = len(config.evaluation_seeds), velocity_field.dimension
    conditions = [Condition(seed) for seed in config.evaluation_seeds + config.calibration_seeds]
    x0 = np.array([initial_state(condition, dim) for condition in conditions])
    walk = _full_kernel(velocity_field, grid, x0, conditions, records=e)  # N steps' rows, then the records
    indicators = _indicators(grid, (len(conditions) - e, dim), (v[e:] for v, _ in islice(walk, grid.n_steps)))
    result = ExperimentResult(config, velocity_field, _bundle(config, grid, indicators), tuple(walk))
    return _cached_runs(result, ablation, sweep_taus)


def _evaluation_batch(result: ExperimentResult) -> tuple[np.ndarray, list[Condition]]:
    """The reference runs' start states, one row per evaluation seed, and the seeds' conditions."""
    conditions = [Condition(seed) for seed in result.config.evaluation_seeds]
    return np.array([full.states[0] for full in result.references]), conditions


def _final_drifts(result: ExperimentResult, final: np.ndarray) -> np.ndarray:
    """Terminal drift of the (k·B, D) ``final`` states, rows cycling through the B evaluation seeds.

    Each drift is bit for bit ``final_state_drift``.
    """
    reference = np.tile([full.final_state for full in result.references], (len(final) // len(result.references), 1))
    return _relative_norms(final - reference, reference)[0]  # compare_trajectories' arithmetic, on the final rows


def truncation_drifts(result: ExperimentResult, n_truncated: int) -> np.ndarray:
    """Terminal drift of plain step truncation against the full-step references."""
    grid = make_uniform_grid(n_truncated)
    (_, final), = deque(_full_kernel(result.velocity_field, grid, *_evaluation_batch(result), records=False), maxlen=1)
    return _final_drifts(result, final)


# (use_mi, use_di) rows of the toggle ablation, schedule-only baseline first.
ABLATION_ORDER = ((False, False), (True, False), (False, True), (True, True))


def _cached_runs(result: ExperimentResult, ablation: bool, sweep_taus: Sequence) -> ExperimentResult:
    """``result`` with its reports, ablation rows and sweep rows, all from one walk.

    Each (schedule, toggles) setting is one group of a row per evaluation
    seed: the evaluation runs, the ablation's other three toggle settings, and
    each swept (tau_k, tau_d) schedule unlike the bundle's, under the config's
    toggles. A repeated setting walks once, and one that repeats the
    evaluation runs takes the reports' drifts. Only the evaluation rows keep
    records; the others yield terminal drift only.
    """
    config, bundle, n = result.config, result.bundle, result.bundle.grid.n_steps
    own, key = (config.use_mi, config.use_di), bundle.schedule.tobytes()
    swept = [build_schedule(bundle.indicators, bundle.grid, *taus, config.h_max) for taus in sweep_taus]
    openings = {key: bundle.opening}  # each distinct schedule's skip_intervals row, by its bytes
    for schedule in swept:
        if schedule.tobytes() not in openings:
            openings[schedule.tobytes()] = skip_intervals(schedule, n)
    settings = [(key, own)] + [(key, t) for t in ABLATION_ORDER if ablation] + [(s.tobytes(), own) for s in swept]
    groups: dict = dict.fromkeys(settings)  # (schedule bytes, toggles), in walk order, the evaluation runs' first
    x0, conditions = _evaluation_batch(result)  # a row per evaluation seed for each group
    kept = len(conditions)
    opening = np.repeat([openings[schedule] for schedule, _ in groups], kept, axis=0)
    toggles = [CompensationToggles(*setting) for _, setting in groups for _ in conditions]
    x0, conditions = np.tile(x0, (len(groups), 1)), conditions * len(groups)
    walk = _cached_kernel(result.velocity_field, bundle, x0, conditions, toggles, kept, result.references, opening)
    records, final, x0 = [], None, None  # the walk keeps its own copy of the start rows
    for run in walk:  # the record-free rows' steps, then the records
        if isinstance(run, TrajectoryRecord):
            records.append(run)
        else:
            final = run[1][kept:]
    if final is not None:  # the other groups' terminal drifts; their rows are freed before the comparisons
        groups.update(zip(list(groups)[1:], _final_drifts(result, final).reshape(-1, kept)))
        final = None
    result = replace(result, reports=tuple(map(compare_trajectories, result.references, records)))
    groups[key, own] = result.final_drifts  # now each group's terminal drifts
    ablation_rows, sweep_rows = [], []
    for use_mi, use_di in ABLATION_ORDER if ablation else ():
        mean, stderr = _mean_stderr(groups[key, (use_mi, use_di)])
        row = dict(use_mi=use_mi, use_di=use_di, nfe=result.cached_nfe, speedup=result.speedup)
        ablation_rows.append(dict(row, mean_final_drift=mean, stderr_final_drift=stderr))
    for (tau_k, tau_d), schedule in zip(sweep_taus, swept):
        skip_ratio, anchors = opening_coverage(openings[schedule.tobytes()])
        row = dict(tau_k=tau_k, tau_d=tau_d, cached_nfe=len(anchors), skip_ratio=skip_ratio)
        sweep_rows.append(dict(row, final_drift=float(groups[schedule.tobytes(), own].mean())))
    return replace(result, ablation=tuple(ablation_rows), sweep=tuple(sweep_rows))



def write_drift_profile_csv(result: ExperimentResult, path: str | Path) -> None:
    """Mean drift profile across evaluation seeds, one row per grid node.

    The terminal node has no step attached, so its velocity and anchor cells
    are left empty.
    """
    grid = result.bundle.grid
    state = np.stack([r.state_drift for r in result.reports]).mean(axis=0)
    vel = np.stack([r.velocity_drift for r in result.reports]).mean(axis=0)
    rows: list[tuple] = []
    for n, anchor in enumerate((result.bundle.opening > 0).tolist()):
        rows.append((n, float(grid.times[n]), float(state[n]), float(vel[n]), anchor))
    rows.append((grid.n_steps, float(grid.times[-1]), float(state[-1]), None, None))
    write_csv(path, ("n", "t", "state_drift", "vel_drift", "is_anchor"), rows)


def write_seed_summary_csv(result: ExperimentResult, path: str | Path) -> None:
    rows = [
        (seed, result.skip_ratio, r.final_state_drift, result.cached_nfe, result.speedup)
        for seed, r in zip(result.config.evaluation_seeds, result.reports)
    ]
    write_csv(path, ("seed", "skip_ratio", "final_drift", "nfe", "speedup"), rows)


def write_cos_theta_csv(result: ExperimentResult, path: str | Path) -> None:
    rows: list[tuple] = []
    for seed, report in zip(result.config.evaluation_seeds, result.reports):
        for step, value in zip(report.cos_theta_steps, report.cos_theta):
            rows.append((seed, step, float(value)))
    write_csv(path, ("seed", "n", "cos_theta"), rows)


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(
        path,
        ("tau_k", "tau_d", "cached_nfe", "final_drift"),
        [(r["tau_k"], r["tau_d"], r["cached_nfe"], r["final_drift"]) for r in rows],
    )


def write_ablation_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(
        path,
        ("use_mi", "use_di", "nfe", "speedup", "mean_final_drift", "stderr_final_drift"),
        [
            (r["use_mi"], r["use_di"], r["nfe"], r["speedup"], r["mean_final_drift"], r["stderr_final_drift"])
            for r in rows
        ],
    )
