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
they would repeat them, its cached runs; their own runs yield terminal drift only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .cached_sampler import CompensationToggles, _cached_kernel
from .calibration import ScheduleBundle, _check_thresholds, calibrate
from .decomposition import _accel_rows, _decompose_rows, _row_dots
from .errors import InvalidArgumentError
from .fields import Condition, FieldSpec, VelocityField, field_digest, initial_state
from .ioutil import _json_value, _known_keys, write_csv
from .schedule import DEFAULT_H_MAX, DEFAULT_TAU_D, DEFAULT_TAU_K, build_schedule, schedule_coverage
from .solver import TimeGrid, TrajectoryRecord, _full_kernel, make_uniform_grid

# Reference norms below this are skipped when averaging relative drifts.
NORM_GUARD = 1e-12


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Per-step and terminal drift statistics for one cached/full pair."""

    state_drift: np.ndarray  # one entry per grid node
    velocity_drift: np.ndarray  # one entry per step
    anchors: tuple[int, ...]
    skip_ratio: float
    final_state_drift: float
    cached_vel_drift_mean: float
    evaluated_vel_drift_mean: float
    cos_theta: np.ndarray
    cos_theta_steps: tuple[int, ...]
    cos_theta_mean: float
    cos_theta_positive_fraction: float
    cos_theta_p90: float
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

    n_steps = full.grid.n_steps
    state_drift, _ = _relative_norms(cached.states - full.states, full.states)
    velocity_drift, vel_usable = _relative_norms(cached.velocities - full.velocities, full.velocities)

    flags = cached.evaluated
    cached_mask = ~flags & vel_usable
    eval_mask = flags & vel_usable
    cached_mean = float(velocity_drift[cached_mask].mean()) if cached_mask.any() else math.nan
    eval_mean = float(velocity_drift[eval_mask].mean()) if eval_mask.any() else math.nan

    cos_arr, cos_steps, degenerate = _cos_theta(full, cached)
    if cos_arr.size:
        cos_mean = float(cos_arr.mean())
        cos_pos = float((cos_arr > 0).mean())
        cos_p90 = float(np.percentile(cos_arr, 90))
    else:
        cos_mean = cos_pos = cos_p90 = math.nan

    return DriftReport(
        state_drift=state_drift,
        velocity_drift=velocity_drift,
        anchors=tuple(np.flatnonzero(flags).tolist()),
        skip_ratio=1.0 - cached.nfe / n_steps,
        final_state_drift=float(state_drift[-1]),
        cached_vel_drift_mean=cached_mean,
        evaluated_vel_drift_mean=eval_mean,
        cos_theta=cos_arr,
        cos_theta_steps=tuple(cos_steps.tolist()),
        cos_theta_mean=cos_mean,
        cos_theta_positive_fraction=cos_pos,
        cos_theta_p90=cos_p90,
        degenerate_direction_count=degenerate,
    )


def count_speedup(full_nfe: int, cached_nfe: int) -> float:
    """Oracle-evaluation ratio; the desk-scale stand-in for wall-clock speedup."""
    if cached_nfe < 1:
        raise InvalidArgumentError(f"cached_nfe must be >= 1, got {cached_nfe}")
    return full_nfe / cached_nfe


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
        if self.n_steps < 1:
            raise _config_error("n_steps", f"must be positive, got {self.n_steps}")
        _check_thresholds(_config_error, tau_k=self.tau_k, tau_d=self.tau_d, h_max=self.h_max)
        for key in ("calibration_seeds", "evaluation_seeds"):
            if not getattr(self, key):
                raise _config_error(key, "the seed list must be non-empty")
        overlap = set(self.calibration_seeds) & set(self.evaluation_seeds)
        if overlap:
            reason = f"must be disjoint from calibration_seeds, both contain {sorted(overlap)}"
            raise _config_error("evaluation_seeds", reason)
        object.__setattr__(self, "calibration_seeds", tuple(int(s) for s in self.calibration_seeds))
        object.__setattr__(self, "evaluation_seeds", tuple(int(s) for s in self.evaluation_seeds))

    @property
    def toggles(self) -> CompensationToggles:
        return CompensationToggles(use_mi=self.use_mi, use_di=self.use_di)

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n_steps": self.n_steps,
            "calibration_seeds": list(self.calibration_seeds),
            "evaluation_seeds": list(self.evaluation_seeds),
            "tau_k": float(self.tau_k),
            "tau_d": float(self.tau_d),
            "h_max": int(self.h_max),
            "use_mi": self.use_mi,
            "use_di": self.use_di,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        def value(key: str, kind: str, *default: object):
            return _json_value(data, key, kind, *default, error=_config_error)

        _known_keys(data, [f.name for f in dataclass_fields(cls)], _config_error)
        return cls(
            field=FieldSpec.from_dict(value("field", "object")),
            n_steps=value("n_steps", "int"),
            calibration_seeds=value("calibration_seeds", "ints"),
            evaluation_seeds=value("evaluation_seeds", "ints"),
            tau_k=value("tau_k", "float", DEFAULT_TAU_K),
            tau_d=value("tau_d", "float", DEFAULT_TAU_D),
            h_max=value("h_max", "int", DEFAULT_H_MAX),
            use_mi=value("use_mi", "bool", True),
            use_di=value("use_di", "bool", True),
        )


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
    the bundle's schedule and the per-seed ``reports``.
    """

    config: ExperimentConfig
    velocity_field: VelocityField
    bundle: ScheduleBundle
    references: tuple[TrajectoryRecord, ...]
    reports: tuple[DriftReport, ...] = ()

    @property
    def cached_nfe(self) -> int:
        return len(schedule_coverage(self.bundle.schedule, self.bundle.grid.n_steps)[1])

    @property
    def skip_ratio(self) -> float:
        return 1.0 - self.cached_nfe / self.bundle.grid.n_steps

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
    velocity_field = VelocityField(config.field)
    grid = make_uniform_grid(config.n_steps)
    conditions = [Condition(seed) for seed in config.calibration_seeds]
    indicators = calibrate(velocity_field, grid, conditions)
    schedule = build_schedule(indicators, grid, config.tau_k, config.tau_d, config.h_max)
    bundle = ScheduleBundle(
        grid=grid,
        indicators=indicators,
        schedule=schedule,
        tau_k=config.tau_k,
        tau_d=config.tau_d,
        h_max=config.h_max,
        field_digest=field_digest(config.field),
        seeds=config.calibration_seeds,
    )
    return velocity_field, grid, bundle


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Calibrate, sample the full-step references, then run and compare cached sampling.

    This is the experiment's only calibration and its only set of reference
    runs; the follow-up experiments take the returned result.
    """
    velocity_field, grid, bundle = make_bundle(config)
    conditions = _conditions(config)
    x0 = np.array([initial_state(condition, velocity_field.dimension) for condition in conditions])
    offline = ExperimentResult(config, velocity_field, bundle, tuple(_full_kernel(velocity_field, grid, x0, conditions)))
    return replace(offline, reports=tuple(evaluate_bundle(offline, bundle, config.toggles)))


def _evaluation_batch(result: ExperimentResult) -> tuple[np.ndarray, list[Condition]]:
    """The reference runs' start states, one row per evaluation seed, and the seeds' conditions."""
    return np.array([full.states[0] for full in result.references]), _conditions(result.config)


def _conditions(config: ExperimentConfig) -> list[Condition]:
    return [Condition(seed) for seed in config.evaluation_seeds]


def evaluate_bundle(result: ExperimentResult, bundle: ScheduleBundle, toggles: CompensationToggles) -> list[DriftReport]:
    """One cached run per evaluation seed, batched, each compared against its stored reference."""
    runs = _cached_kernel(result.velocity_field, bundle, *_evaluation_batch(result), toggles)
    return [compare_trajectories(full, cached) for full, cached in zip(result.references, runs)]


def _final_drifts(result: ExperimentResult, runs: Iterable[TrajectoryRecord]) -> np.ndarray:
    """Terminal drift of ``runs`` cycling through the evaluation seeds, bit for bit a report's ``final_state_drift``."""
    final = np.array([run.final_state for run in runs])
    reference = np.tile([full.final_state for full in result.references], (len(final) // len(result.references), 1))
    return _relative_norms(final - reference, reference)[0]  # compare_trajectories' arithmetic, on the final rows


def truncation_drifts(result: ExperimentResult, n_truncated: int) -> np.ndarray:
    """Terminal drift of plain step truncation against the full-step references."""
    if n_truncated < 1:
        raise InvalidArgumentError("truncated step count must be positive")
    runs = _full_kernel(result.velocity_field, make_uniform_grid(n_truncated), *_evaluation_batch(result))
    return _final_drifts(result, runs)


# (use_mi, use_di) rows of the toggle ablation, schedule-only baseline first.
ABLATION_ORDER = ((False, False), (True, False), (False, True), (True, True))


def run_toggle_ablation(result: ExperimentResult) -> list[dict]:
    """Four-way toggle experiment on the experiment's bundle.

    The config's own toggles take the drifts of ``result.reports``; the other
    three run as one walk of 3×B rows (B evaluation seeds), terminal drift only.
    """
    others = [setting for setting in ABLATION_ORDER if setting != (result.config.use_mi, result.config.use_di)]
    x0, conditions = _evaluation_batch(result)
    toggles = [CompensationToggles(*setting) for setting in others for _ in conditions]
    runs = _cached_kernel(result.velocity_field, result.bundle, np.tile(x0, (3, 1)), conditions * 3, toggles)
    finals = dict(zip(others, _final_drifts(result, runs).reshape(3, -1)))
    rows: list[dict] = []
    for use_mi, use_di in ABLATION_ORDER:
        mean_final, stderr_final = _mean_stderr(finals.get((use_mi, use_di), result.final_drifts))
        rows.append(
            {
                "use_mi": use_mi,
                "use_di": use_di,
                "nfe": result.cached_nfe,
                "speedup": result.speedup,
                "mean_final_drift": mean_final,
                "stderr_final_drift": stderr_final,
            }
        )
    return rows


def run_threshold_sweep(result: ExperimentResult, taus: list[tuple[float, float]]) -> list[dict]:
    """One summary row per (tau_k, tau_d) pair, rescheduling the experiment's indicators.

    A pair that rebuilds the experiment's schedule takes the drifts of
    ``result.reports``; any other pair runs its walk, terminal drift only.
    """
    bundle = result.bundle
    rows: list[dict] = []
    for tau_k, tau_d in taus:
        schedule = build_schedule(bundle.indicators, bundle.grid, tau_k, tau_d, result.config.h_max)
        skip_ratio, anchors = schedule_coverage(schedule, bundle.grid.n_steps)
        if np.array_equal(schedule, bundle.schedule):
            finals = result.final_drifts
        else:
            sweep_bundle = replace(bundle, schedule=schedule, tau_k=tau_k, tau_d=tau_d)
            runs = _cached_kernel(result.velocity_field, sweep_bundle, *_evaluation_batch(result), result.config.toggles)
            finals = _final_drifts(result, runs)
        rows.append(
            {
                "tau_k": tau_k,
                "tau_d": tau_d,
                "cached_nfe": len(anchors),
                "skip_ratio": skip_ratio,
                "final_drift": float(finals.mean()),
            }
        )
    return rows


def write_drift_profile_csv(result: ExperimentResult, path: str | Path) -> None:
    """Mean drift profile across evaluation seeds, one row per grid node.

    The terminal node has no step attached, so its velocity and anchor cells
    are left empty.
    """
    grid = result.bundle.grid
    state = np.stack([r.state_drift for r in result.reports]).mean(axis=0)
    vel = np.stack([r.velocity_drift for r in result.reports]).mean(axis=0)
    anchor_set = set(result.reports[0].anchors)
    rows: list[tuple] = []
    for n in range(grid.n_steps):
        rows.append((n, float(grid.times[n]), float(state[n]), float(vel[n]), n in anchor_set))
    rows.append((grid.n_steps, float(grid.times[-1]), float(state[-1]), None, None))
    write_csv(path, ("n", "t", "state_drift", "vel_drift", "is_anchor"), rows)


def write_seed_summary_csv(result: ExperimentResult, path: str | Path) -> None:
    rows = [
        (seed, r.skip_ratio, r.final_state_drift, len(r.anchors), count_speedup(full.nfe, len(r.anchors)))
        for seed, full, r in zip(result.config.evaluation_seeds, result.references, result.reports)
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
