from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from flowcache import (
    CompensationToggles,
    Condition,
    ExperimentConfig,
    FieldSpec,
    InvalidArgumentError,
    TrajectoryRecord,
    VelocityField,
    compare_trajectories,
    count_speedup,
    initial_state,
    make_uniform_grid,
    run_experiment,
    sample_cached,
    sample_full,
)
from flowcache import solver
from flowcache.diagnostics import (
    ABLATION_ORDER,
    _mean_stderr,
    evaluate_bundle,
    make_bundle,
    run_threshold_sweep,
    run_toggle_ablation,
    truncation_drifts,
    write_ablation_csv,
    write_cos_theta_csv,
    write_drift_profile_csv,
    write_seed_summary_csv,
    write_sweep_csv,
)
from flowcache.schedule import build_schedule

from test_kernels import _mixture, ref_anchor, ref_direction, ref_split


def _gmm_config(gmm_spec, **kwargs):
    defaults = dict(
        field=gmm_spec,
        n_steps=50,
        calibration_seeds=tuple(range(1000, 1040)),
        evaluation_seeds=tuple(range(2000, 2020)),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestCompareTrajectories:
    def test_identical_records_have_zero_drift(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        grid = make_uniform_grid(12)
        c = Condition(5)
        x0 = initial_state(c, 3)
        full = sample_full(vf, grid, x0, c)
        report = compare_trajectories(full, full)
        np.testing.assert_array_equal(report.state_drift, np.zeros(13))
        np.testing.assert_array_equal(report.velocity_drift, np.zeros(12))
        assert report.skip_ratio == 0.0
        assert math.isnan(report.cached_vel_drift_mean)  # cached-step set is empty
        assert report.cos_theta.size == 0

    def test_constant_field_exact_under_max_skipping(self, constant_spec):
        config = ExperimentConfig(
            field=constant_spec, n_steps=50, calibration_seeds=(1, 2), evaluation_seeds=(9,)
        )
        vf, grid, bundle = make_bundle(config)
        c = Condition(9)
        x0 = initial_state(c, 2)
        full = sample_full(vf, grid, x0, c)
        cached = sample_cached(vf, bundle, x0, c)
        report = compare_trajectories(full, cached)
        assert report.skip_ratio > 0.8
        np.testing.assert_array_equal(report.state_drift, np.zeros(51))
        assert report.final_state_drift == 0.0

    def test_headline_pair_exposed(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000,)))
        report = result.reports[0]
        pair = (report.skip_ratio, report.final_state_drift)
        assert 0.0 <= pair[0] < 1.0
        assert pair[1] >= 0.0

    def test_grid_mismatch_rejected(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        c = Condition(1)
        x0 = initial_state(c, 3)
        a = sample_full(vf, make_uniform_grid(10), x0, c)
        b = sample_full(vf, make_uniform_grid(12), x0, c)
        with pytest.raises(InvalidArgumentError):
            compare_trajectories(a, b)

    def test_initial_state_mismatch_rejected(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        grid = make_uniform_grid(10)
        c = Condition(1)
        a = sample_full(vf, grid, initial_state(c, 3), c)
        b = sample_full(vf, grid, initial_state(Condition(2), 3), c)
        with pytest.raises(InvalidArgumentError):
            compare_trajectories(a, b)

    def test_reference_must_be_fully_evaluated(self, gmm_spec):
        config = _gmm_config(gmm_spec, evaluation_seeds=(2000,), tau_k=0.3, tau_d=3.0)
        vf, grid, bundle = make_bundle(config)
        c = Condition(2000)
        x0 = initial_state(c, 3)
        cached = sample_cached(vf, bundle, x0, c)
        with pytest.raises(InvalidArgumentError):
            compare_trajectories(cached, cached)


def _oracle_direction(full, m):
    """Unit orthogonal residual direction at step m of the full record, or None where degenerate."""
    v = full.velocities[m]
    if float(np.linalg.norm(v)) <= 1e-12:
        return None
    dt = full.grid.dt[m]
    accel = (full.velocities[m + 1] - v) / dt
    _, r_perp, _ = ref_split(v, accel, dt)
    r_norm = float(np.linalg.norm(r_perp))
    if r_norm == 0.0 or r_norm < 1e-12 * max(float(np.linalg.norm(accel)), 1.0):
        return None
    return r_perp / r_norm


def _rederived_cos_theta(full, cached):
    """cos_theta, its steps and the degenerate count, re-deriving each ``u_hat`` from the cached run.

    The reference for the sampler's direction record: it walks the anchors
    of ``cached.evaluated``, takes each interval's turning anchor from the two
    most recent evaluated velocities and re-orthogonalises it against every
    cached velocity, as the sampler does.
    """
    n_steps = full.grid.n_steps
    cos_values, cos_steps, degenerate = [], [], 0
    eval_idx = np.flatnonzero(cached.evaluated)
    for pos, a in enumerate(eval_idx):
        end = int(eval_idx[pos + 1]) if pos + 1 < eval_idx.size else n_steps
        if end - a <= 1:
            continue
        anchor = None
        if pos > 0:
            anchor = ref_anchor(cached.velocities[int(eval_idx[pos - 1])], cached.velocities[int(a)])
        for m in range(int(a) + 1, end):
            if m > n_steps - 2:
                continue
            oracle_dir = _oracle_direction(full, m)
            u_hat = ref_direction(anchor, cached.velocities[m])
            if oracle_dir is None or u_hat is None:
                degenerate += 1
                continue
            cos_values.append(float(u_hat @ oracle_dir))
            cos_steps.append(m)
    return np.array(cos_values, dtype=float), tuple(cos_steps), degenerate


# The README config and the configs of the acceptance criteria, plus a rotation field.
EQUIVALENCE_CONFIGS = {
    "readme": dict(
        n_steps=50,
        calibration_seeds=range(1000, 1006),
        evaluation_seeds=range(2000, 2004),
        tau_k=0.06,
        tau_d=0.6,
        h_max=12,
    ),
    "comparison": dict(n_steps=50, calibration_seeds=range(1000, 1040), evaluation_seeds=range(2000, 2020)),
    "threshold": dict(n_steps=50, calibration_seeds=range(1000, 1040), evaluation_seeds=range(2000, 2008)),
    "manifest": dict(n_steps=30, calibration_seeds=range(1000, 1010), evaluation_seeds=range(2000, 2006)),
    "constant": dict(
        field=FieldSpec(kind="constant", dimension=3, target=(0.8, -1.1, 0.4)),
        n_steps=50,
        calibration_seeds=(1, 2, 3),
        evaluation_seeds=(100,),
        h_max=12,
    ),
    "decay": dict(
        field=FieldSpec(kind="magnitude-decay", dimension=2, target=(1.0, -0.5), rate=0.03),
        n_steps=100,
        calibration_seeds=(1, 2),
        evaluation_seeds=(200,),
    ),
    "rotation": dict(
        field=FieldSpec(kind="rotation", dimension=2, target=(1.0, 0.0), rate=2.0, plane=(0, 1)),
        n_steps=50,
        calibration_seeds=(1, 2, 3),
        evaluation_seeds=(300, 301),
    ),
}


class TestDirectionRecordEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
    def test_matches_rederived_directions(self, gmm_spec, name):
        result = run_experiment(ExperimentConfig(**{"field": gmm_spec, **EQUIVALENCE_CONFIGS[name]}))
        cached_steps = 0
        for use_mi, use_di in ABLATION_ORDER:
            toggles = CompensationToggles(use_mi=use_mi, use_di=use_di)
            for seed, full in zip(result.config.evaluation_seeds, result.references):
                cached = sample_cached(result.velocity_field, result.bundle, full.states[0], Condition(seed), toggles)
                report = compare_trajectories(full, cached)
                cos_theta, steps, degenerate = _rederived_cos_theta(full, cached)
                assert np.array_equal(report.cos_theta, cos_theta)
                assert report.cos_theta_steps == steps
                assert report.degenerate_direction_count == degenerate
                cached_steps += len(steps) + degenerate
        assert cached_steps > 0

    def test_cached_record_without_directions_rejected(self, gmm_spec):
        config = _gmm_config(gmm_spec, evaluation_seeds=(2000,), tau_k=0.3, tau_d=3.0)
        vf, grid, bundle = make_bundle(config)
        c = Condition(2000)
        x0 = initial_state(c, 3)
        full = sample_full(vf, grid, x0, c)
        cached = sample_cached(vf, bundle, x0, c)
        assert cached.nfe < grid.n_steps
        bare = TrajectoryRecord(cached.grid, cached.states, cached.velocities, cached.evaluated)
        with pytest.raises(InvalidArgumentError, match="directions"):
            compare_trajectories(full, bare)


class TestCountSpeedup:
    def test_examples(self):
        assert count_speedup(50, 6) == pytest.approx(8.3333333, rel=1e-6)
        assert count_speedup(50, 50) == 1.0
        assert count_speedup(50, 13) == pytest.approx(3.846153846, rel=1e-9)

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            count_speedup(50, 0)


class TestExperimentConfig:
    def test_seed_overlap_rejected(self, gmm_spec):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(
                field=gmm_spec, n_steps=10, calibration_seeds=(1, 2), evaluation_seeds=(2, 3)
            )

    def test_dict_roundtrip(self, gmm_spec):
        config = _gmm_config(gmm_spec, tau_k=0.04, use_di=False)
        assert ExperimentConfig.from_dict(config.to_dict()) == config


class TestRunExperiment:
    def test_zero_thresholds_mean_no_skipping(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000, 2001), tau_k=0.0, tau_d=0.0))
        assert result.skip_ratio == 0.0
        assert result.mean_final_drift == 0.0
        assert result.speedup == 1.0

    def test_cached_beats_truncation_at_matched_nfe(self, gmm_spec):
        config = _gmm_config(gmm_spec)
        result = run_experiment(config)
        assert result.skip_ratio > 0.0
        trunc = truncation_drifts(result, result.cached_nfe)
        assert trunc.size == len(config.evaluation_seeds)
        assert result.mean_final_drift < float(trunc.mean())

    def test_evaluated_steps_drift_less_than_cached(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec))
        assert result.mean_evaluated_vel_drift < result.mean_cached_vel_drift
        for report in result.reports:
            assert report.evaluated_vel_drift_mean < report.cached_vel_drift_mean

    def test_cos_theta_statistics_reported(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000, 2001)))
        report = result.reports[0]
        assert report.cos_theta.size > 0
        assert -1.0 <= report.cos_theta_mean <= 1.0
        assert 0.0 <= report.cos_theta_positive_fraction <= 1.0
        assert report.degenerate_direction_count >= 0

    def test_determinism(self, gmm_spec):
        config = _gmm_config(gmm_spec, evaluation_seeds=(2000, 2001))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.mean_final_drift == b.mean_final_drift
        np.testing.assert_array_equal(a.bundle.schedule, b.bundle.schedule)


class TestAblationAndSweep:
    def test_ablation_has_four_ordered_rows(self, gmm_spec):
        rows = run_toggle_ablation(run_experiment(_gmm_config(gmm_spec, evaluation_seeds=tuple(range(2000, 2008)))))
        assert [(r["use_mi"], r["use_di"]) for r in rows] == [
            (False, False),
            (True, False),
            (False, True),
            (True, True),
        ]
        assert len({r["nfe"] for r in rows}) == 1  # same schedule for every row

    def test_full_toggles_not_worse_than_schedule_only(self, gmm_spec):
        rows = run_toggle_ablation(run_experiment(_gmm_config(gmm_spec)))
        schedule_only = rows[0]
        full = rows[-1]
        assert full["mean_final_drift"] <= schedule_only["mean_final_drift"] + schedule_only["stderr_final_drift"]

    def test_skip_ratio_monotone_in_thresholds(self, gmm_spec):
        config = _gmm_config(gmm_spec, evaluation_seeds=(2000, 2001))
        tks = (0.0, 0.03, 0.06, 0.12)
        tds = (0.0, 0.3, 0.6, 1.2)
        rows = run_threshold_sweep(run_experiment(config), [(tk, td) for tk in tks for td in tds])
        ratio = {(r["tau_k"], r["tau_d"]): r["skip_ratio"] for r in rows}
        for i, tk in enumerate(tks):
            for j, td in enumerate(tds):
                if i + 1 < len(tks):
                    assert ratio[(tks[i + 1], td)] >= ratio[(tk, td)]
                if j + 1 < len(tds):
                    assert ratio[(tk, tds[j + 1])] >= ratio[(tk, td)]


def _readme_config(spec, **kwargs):
    """The README's experiment config, on ``spec``."""
    thresholds = dict(tau_k=0.06, tau_d=0.6, h_max=12)
    thresholds.update(kwargs)
    return _gmm_config(
        spec, calibration_seeds=tuple(range(1000, 1006)), evaluation_seeds=tuple(range(2000, 2004)), **thresholds
    )


def _reference_finals(result, bundle, toggles):
    """Terminal drifts the way the follow-ups once found them: a full report per run."""
    return np.array([r.final_state_drift for r in evaluate_bundle(result, bundle, toggles)])


def _batches(result, runs):
    """Batches a cached walk of ``runs`` runs takes under the byte budget (one run each at dim 1024)."""
    per_batch = solver._BATCH_BYTES // (8 * (3 * result.config.n_steps + 1) * result.velocity_field.dimension)
    return math.ceil(runs / max(1, per_batch))


# the README field, and larger mixtures whose terminal-drift norms sum more than a few entries
_FOLLOW_UP_FIELDS = {
    "readme-d3": (None, {}),
    "mixture-d64": (_mixture(64, 8, 2), dict(tau_k=0.3, tau_d=3.0)),
    "mixture-d1024": (_mixture(1024, 4, 3), dict(tau_k=0.3, tau_d=3.0)),
}


class TestFollowUps:
    """The ablation and sweep reuse the experiment's runs and compute terminal drift only; rows stay exact."""

    @pytest.mark.parametrize("own", ABLATION_ORDER, ids=lambda t: f"mi{int(t[0])}-di{int(t[1])}")
    @pytest.mark.parametrize("name", sorted(_FOLLOW_UP_FIELDS))
    def test_ablation_rows_equal_per_toggle_reports(self, gmm_spec, name, own):
        spec, thresholds = _FOLLOW_UP_FIELDS[name]
        result = run_experiment(_readme_config(spec or gmm_spec, use_mi=own[0], use_di=own[1], **thresholds))
        assert result.cached_nfe < result.bundle.grid.n_steps
        result.velocity_field.reset_evaluations()
        rows = run_toggle_ablation(result)
        # the config's own row reuses the experiment's runs; one walk serves the other three settings
        calls = result.velocity_field.evaluations
        assert calls == _batches(result, 3 * len(result.references)) * result.cached_nfe
        if name == "readme-d3":
            assert calls == result.cached_nfe
        for row, toggles in zip(rows, ABLATION_ORDER, strict=True):
            reference = _reference_finals(result, result.bundle, CompensationToggles(*toggles))
            assert (row["use_mi"], row["use_di"]) == toggles
            assert (row["mean_final_drift"], row["stderr_final_drift"]) == _mean_stderr(reference)
        assert len({row["mean_final_drift"] for row in rows}) == 4

    @pytest.mark.parametrize("name", sorted(_FOLLOW_UP_FIELDS))
    def test_sweep_rows_equal_per_pair_reports(self, gmm_spec, name):
        spec, thresholds = _FOLLOW_UP_FIELDS[name]
        config = _readme_config(spec or gmm_spec, **thresholds)
        result = run_experiment(config)
        taus = [(0.03, 0.3), (config.tau_k, config.tau_d), (0.0, 0.0), (0.5, 5.0), (0.04, 0.4)]
        result.velocity_field.reset_evaluations()
        rows = run_threshold_sweep(result, taus)
        sweep_calls = result.velocity_field.evaluations
        calls = 0
        for row, (tau_k, tau_d) in zip(rows, taus, strict=True):
            schedule = build_schedule(result.bundle.indicators, result.bundle.grid, tau_k, tau_d, config.h_max)
            bundle = replace(result.bundle, schedule=schedule, tau_k=tau_k, tau_d=tau_d)
            assert row["final_drift"] == float(_reference_finals(result, bundle, config.toggles).mean())
            if not np.array_equal(schedule, result.bundle.schedule):
                calls += row["cached_nfe"]
        # a pair that rebuilds the experiment's schedule runs nothing; any other pair runs one walk
        assert calls > 0 and sweep_calls == _batches(result, len(result.references)) * calls

    def test_sweep_of_the_configs_own_pair_calls_no_oracle(self, gmm_spec):
        result = run_experiment(_readme_config(gmm_spec))
        result.velocity_field.reset_evaluations()
        (row,) = run_threshold_sweep(result, [(0.06, 0.6)])
        assert result.velocity_field.evaluations == 0
        assert row["cached_nfe"] == result.cached_nfe and row["final_drift"] == result.mean_final_drift


class TestCsvWriters:
    def test_output_shapes(self, tmp_path, gmm_spec):
        config = _gmm_config(gmm_spec, n_steps=20, evaluation_seeds=(2000, 2001))
        result = run_experiment(config)

        write_drift_profile_csv(result, tmp_path / "profile.csv")
        with open(tmp_path / "profile.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21  # grid nodes, terminal row included
        assert list(rows[0].keys()) == ["n", "t", "state_drift", "vel_drift", "is_anchor"]
        assert rows[-1]["vel_drift"] == "" and rows[-1]["is_anchor"] == ""

        write_seed_summary_csv(result, tmp_path / "seeds.csv")
        with open(tmp_path / "seeds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["2000", "2001"]

        write_cos_theta_csv(result, tmp_path / "cos.csv")
        with open(tmp_path / "cos.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(set(r.keys()) == {"seed", "n", "cos_theta"} for r in rows)

        sweep_rows = run_threshold_sweep(result, [(0.0, 0.0), (0.06, 0.6)])
        write_sweep_csv(sweep_rows, tmp_path / "sweep.csv")
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["tau_k", "tau_d", "cached_nfe", "final_drift"]

        ablation_rows = run_toggle_ablation(result)
        write_ablation_csv(ablation_rows, tmp_path / "ablation.csv")
        with open(tmp_path / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
