from __future__ import annotations

import csv
import json
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
    NumericDomainError,
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
from flowcache.diagnostics import (
    ABLATION_ORDER,
    CONFIG_KEYS,
    _mean_stderr,
    make_bundle,
    truncation_drifts,
    write_ablation_csv,
    write_cos_theta_csv,
    write_drift_profile_csv,
    write_seed_summary_csv,
    write_sweep_csv,
)
from flowcache import calibration, diagnostics
from flowcache.calibration import bundles_equal, calibrate
from flowcache.cli import main
from flowcache.schedule import build_schedule, schedule_coverage, skip_intervals

from test_kernels import KERNEL_FIELDS, _intervals, _mixture, ref_anchor, ref_direction, ref_split


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
        assert full.nfe == grid.n_steps  # nothing skipped
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
        assert 1.0 - cached.nfe / grid.n_steps > 0.8
        np.testing.assert_array_equal(report.state_drift, np.zeros(51))
        assert report.final_state_drift == 0.0

    def test_headline_pair_exposed(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000,)))
        report = result.reports[0]
        pair = (result.skip_ratio, report.final_state_drift)
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

    @pytest.mark.parametrize("key", ["calibration_seeds", "evaluation_seeds"])
    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_seed_outside_the_condition_range_named(self, gmm_spec, key, bad):
        seeds = {"calibration_seeds": (1, 2), "evaluation_seeds": (3,), key: (5, bad)}
        with pytest.raises(InvalidArgumentError, match=rf"key {key!r}: entry 1: condition seed must be"):
            ExperimentConfig(field=gmm_spec, n_steps=10, **seeds)

    @pytest.mark.parametrize("key", ["calibration_seeds", "evaluation_seeds"])
    @pytest.mark.parametrize("bad", [1.5, 7.0, True, "7"])
    def test_a_seed_that_is_not_an_integer_is_named_not_truncated(self, gmm_spec, key, bad):
        seeds = {"calibration_seeds": (1, 2), "evaluation_seeds": (3,), key: (bad,)}
        with pytest.raises(InvalidArgumentError, match=rf"key {key!r}: entry 0: condition seed must be"):
            ExperimentConfig(field=gmm_spec, n_steps=10, **seeds)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_steps": 5.5}, "'n_steps': must be an integer, got 5.5"),
            ({"n_steps": True}, "'n_steps': must be an integer, got True"),
            ({"n_steps": 0}, "'n_steps': must be positive, got 0"),
            ({"use_mi": 0}, "'use_mi': expected true or false, got 0"),
            ({"use_di": "no"}, "'use_di': expected true or false, got 'no'"),
        ],
        ids=["n_steps-float", "n_steps-bool", "n_steps-zero", "use_mi-int", "use_di-str"],
    )
    def test_a_python_built_count_or_toggle_is_named(self, gmm_spec, change, message):
        values = dict(field=gmm_spec, n_steps=10, calibration_seeds=(1,), evaluation_seeds=(2,))
        with pytest.raises(InvalidArgumentError, match=f"^experiment config key {message}$"):
            ExperimentConfig(**{**values, **change})

    def test_numpy_integers_are_integers(self, gmm_spec):
        seeds = {"calibration_seeds": (np.uint64(1),), "evaluation_seeds": (2,)}
        config = ExperimentConfig(field=gmm_spec, n_steps=np.int64(10), **seeds)
        assert config.calibration_seeds == (1,) and type(config.calibration_seeds[0]) is int

    @pytest.mark.parametrize("key", ["calibration_seeds", "evaluation_seeds"])
    def test_an_empty_seed_list_is_named(self, gmm_spec, key):
        seeds = {"calibration_seeds": (1, 2), "evaluation_seeds": (3,), key: ()}
        with pytest.raises(InvalidArgumentError, match=rf"key {key!r}: the seed list must be non-empty"):
            ExperimentConfig(field=gmm_spec, n_steps=10, **seeds)

    def test_dict_roundtrip(self, gmm_spec):
        config = _gmm_config(gmm_spec, tau_k=0.04, use_di=False)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_the_writer_emits_the_table_keys_in_order(self, gmm_spec):
        assert list(_gmm_config(gmm_spec).to_dict()) == list(CONFIG_KEYS) and len(CONFIG_KEYS) == 9


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

    @pytest.mark.parametrize("far", [2, 5], ids=["calibration", "evaluation"])
    def test_an_overflowing_row_is_named(self, monkeypatch, far):
        # one start far out on the first axis overflows at node 8 of 10, with finite velocities all along; a
        # calibration row keeps no record and an evaluation row keeps one, and either is named at that node
        def start(condition, dimension):
            return np.array([1e308, 0.0]) if condition.seed == far else initial_state(condition, dimension)

        monkeypatch.setattr(diagnostics, "initial_state", start)
        spec = FieldSpec(kind="constant", dimension=2, target=(-1e308, 0.0))
        config = ExperimentConfig(field=spec, n_steps=10, calibration_seeds=(1, 2, 3), evaluation_seeds=(4, 5))
        with pytest.raises(NumericDomainError, match=r"^the trajectory left the finite range at step 8 \(t="):
            run_experiment(config)

    def test_a_bench_works_out_each_distinct_schedule_once(self, gmm_spec, tmp_path, monkeypatch):
        # the README-config bench with the ablation and three swept pairs, one of them the config's own, walks three
        # distinct schedules; each is worked out into intervals once, and the bundle's row serves the NFE, the
        # skip ratio, the drift profile's anchors and the walk
        calls = []

        def counted(schedule, n_steps):
            calls.append(np.asarray(schedule).tobytes())
            return skip_intervals(schedule, n_steps)

        for module in (diagnostics, calibration):  # the sweep's rows and the bundle's row
            monkeypatch.setattr(module, "skip_intervals", counted)
        config = _gmm_config(gmm_spec, calibration_seeds=tuple(range(1000, 1006)), evaluation_seeds=(2000, 2001, 2002, 2003))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        argv = ["bench", "--config", str(config_path), "--out", str(tmp_path / "bench"), "--ablation"]
        assert main([*argv, "--sweep-taus", "0.03:0.3,0.04:0.4,0.06:0.6"]) == 0
        assert len(calls) == len(set(calls)) == 3
        with open(tmp_path / "bench" / "drift_profile.csv", newline="") as fh:
            anchors = [int(row["n"]) for row in csv.DictReader(fh) if row["is_anchor"] == "1"]
        schedule_h = json.loads((tmp_path / "bench" / "bundle.json").read_text())["h"]
        assert anchors == schedule_coverage(np.array(schedule_h), config.n_steps)[1]

        calls.clear()  # one cached sample works its bundle's schedule out once, as the walk reads it
        _, _, bundle = make_bundle(config)
        sample_cached(VelocityField(gmm_spec), bundle, initial_state(Condition(2000), 3), Condition(2000))
        assert calls == [bundle.schedule.tobytes()]

    def test_the_summary_figures_read_the_bundle_row(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000, 2001)))
        skip_ratio, anchors = schedule_coverage(result.bundle.schedule, result.bundle.grid.n_steps)
        assert np.flatnonzero(result.bundle.opening).tolist() == anchors
        assert (result.cached_nfe, result.skip_ratio, result.speedup) == (len(anchors), skip_ratio, 50 / len(anchors))
        assert result.bundle.opening is result.bundle.opening and not result.bundle.opening.flags.writeable
        # the row belongs to the bundle, so a result given another bundle reads that bundle's row
        moved = replace(result, bundle=replace(result.bundle, schedule=np.ones(50, dtype=int)))
        assert (moved.cached_nfe, moved.skip_ratio, moved.speedup) == (50, 0.0, 1.0)

    def test_a_non_positive_truncated_step_count_is_rejected_by_the_grid_rule(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000,)))
        with pytest.raises(InvalidArgumentError, match=r"^n_steps must be positive, got 0$"):
            truncation_drifts(result, 0)

    def test_evaluated_steps_drift_less_than_cached(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec))
        assert result.mean_evaluated_vel_drift < result.mean_cached_vel_drift
        for report in result.reports:
            assert report.evaluated_vel_drift_mean < report.cached_vel_drift_mean

    def test_cos_theta_statistics_reported(self, gmm_spec):
        result = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=(2000, 2001)))
        report = result.reports[0]
        assert report.cos_theta.size > 0
        assert report.degenerate_direction_count >= 0

    @pytest.mark.parametrize("window_steps", [None, 3])
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_one_walk_gives_calibrate_and_sample_full(self, monkeypatch, name, window_steps):
        # the calibration and evaluation seeds ride one full-step walk; its indicators are calibrate's and its
        # references sample_full's, bit for bit, with the window spanning the run or three steps
        spec, thresholds = KERNEL_FIELDS[name]
        config = ExperimentConfig(spec, 50, (1, 2, 3, 4), (100, 101, 102), h_max=12, **thresholds)
        if window_steps:
            monkeypatch.setattr(calibration, "_WINDOW_BYTES", 8 * 4 * spec.dimension * window_steps)
        result = run_experiment(config)
        field, grid, bundle = make_bundle(config)
        assert bundles_equal(result.bundle, bundle)
        indicators = calibrate(field, grid, [Condition(seed) for seed in config.calibration_seeds])
        for key in ("k_tilde", "d_tilde"):
            assert np.array_equal(getattr(result.bundle.indicators, key), getattr(indicators, key))
        for seed, full in zip(config.evaluation_seeds, result.references, strict=True):
            single = sample_full(field, grid, initial_state(Condition(seed), spec.dimension), Condition(seed))
            assert np.array_equal(full.states, single.states) and np.array_equal(full.velocities, single.velocities)
            assert full.evaluated.all() and full.directions is None
        # one call per step for both seed sets, then the cached runs past the references' steps
        served = _served_by_references(bundle.schedule, grid.n_steps)
        assert result.velocity_field.evaluations == grid.n_steps + result.cached_nfe - served

    def test_determinism(self, gmm_spec):
        config = _gmm_config(gmm_spec, evaluation_seeds=(2000, 2001))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.mean_final_drift == b.mean_final_drift
        np.testing.assert_array_equal(a.bundle.schedule, b.bundle.schedule)


class TestAblationAndSweep:
    def test_ablation_has_four_ordered_rows(self, gmm_spec):
        rows = run_experiment(_gmm_config(gmm_spec, evaluation_seeds=tuple(range(2000, 2008))), ablation=True).ablation
        assert [(r["use_mi"], r["use_di"]) for r in rows] == [
            (False, False),
            (True, False),
            (False, True),
            (True, True),
        ]
        assert len({r["nfe"] for r in rows}) == 1  # same schedule for every row

    def test_full_toggles_not_worse_than_schedule_only(self, gmm_spec):
        rows = run_experiment(_gmm_config(gmm_spec), ablation=True).ablation
        schedule_only = rows[0]
        full = rows[-1]
        assert full["mean_final_drift"] <= schedule_only["mean_final_drift"] + schedule_only["stderr_final_drift"]

    def test_skip_ratio_monotone_in_thresholds(self, gmm_spec):
        config = _gmm_config(gmm_spec, evaluation_seeds=(2000, 2001))
        tks = (0.0, 0.03, 0.06, 0.12)
        tds = (0.0, 0.3, 0.6, 1.2)
        rows = run_experiment(config, sweep_taus=[(tk, td) for tk in tks for td in tds]).sweep
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
    """Terminal drifts the way the follow-ups once found them: a full report per run, each run on its own.

    The runs take no reference rows, so the rows are checked against a path that shares nothing with them.
    """
    runs = [
        sample_cached(result.velocity_field, bundle, full.states[0], Condition(seed), toggles)
        for seed, full in zip(result.config.evaluation_seeds, result.references)
    ]
    return np.array([compare_trajectories(full, run).final_state_drift for full, run in zip(result.references, runs)])


def _asked_past_references(schedule, n_steps):
    """The anchors past n1, the anchor of the schedule's first interval longer than 1: the ones the oracle serves."""
    intervals = _intervals(schedule, n_steps)
    n1 = next((n for n, h in intervals if h > 1), n_steps - 1)
    return {n for n, _ in intervals if n > n1}


def _served_by_references(schedule, n_steps):
    """The anchors at or before n1, the anchor of the schedule's first interval longer than 1 (all, if none is)."""
    intervals = _intervals(schedule, n_steps)
    n1 = next((n for n, h in intervals if h > 1), n_steps - 1)
    return sum(n <= n1 for n, _ in intervals)


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
        config = _readme_config(spec or gmm_spec, use_mi=own[0], use_di=own[1], **thresholds)
        result = run_experiment(config, ablation=True)
        rows = result.ablation
        assert result.cached_nfe < result.bundle.grid.n_steps
        # the config's own row is the experiment's runs; the other three settings' 3×B record-free rows ride their
        # walk, which calls the oracle once per anchor past the references' steps (after the calibration and
        # reference walk's n calls), whatever the dimension: the ablation adds no call
        served = _served_by_references(result.bundle.schedule, config.n_steps)
        assert 0 < served < result.cached_nfe
        assert result.velocity_field.evaluations == config.n_steps + result.cached_nfe - served
        for row, toggles in zip(rows, ABLATION_ORDER, strict=True):
            reference = _reference_finals(result, result.bundle, CompensationToggles(*toggles))
            assert (row["use_mi"], row["use_di"]) == toggles
            assert (row["mean_final_drift"], row["stderr_final_drift"]) == _mean_stderr(reference)
        assert len({row["mean_final_drift"] for row in rows}) == 4

    @pytest.mark.parametrize("name", sorted(_FOLLOW_UP_FIELDS))
    def test_sweep_rows_equal_per_pair_reports(self, gmm_spec, name):
        spec, thresholds = _FOLLOW_UP_FIELDS[name]
        config = _readme_config(spec or gmm_spec, **thresholds)
        taus = [(0.03, 0.3), (config.tau_k, config.tau_d), (0.0, 0.0), (0.5, 5.0), (0.04, 0.4)]
        result = run_experiment(config, sweep_taus=taus)
        rows, calls = result.sweep, result.velocity_field.evaluations
        asked = set()
        for row, (tau_k, tau_d) in zip(rows, taus, strict=True):
            schedule = build_schedule(result.bundle.indicators, result.bundle.grid, tau_k, tau_d, config.h_max)
            bundle = replace(result.bundle, schedule=schedule, tau_k=tau_k, tau_d=tau_d)
            assert row["final_drift"] == float(_reference_finals(result, bundle, config.toggles).mean())
            if not np.array_equal(schedule, result.bundle.schedule):
                asked |= _asked_past_references(schedule, config.n_steps)
        # a pair that rebuilds the experiment's schedule runs nothing; the other pairs' record-free rows ride the
        # experiment's walk, each run taking its steps up to its first skip's anchor from the references (all of
        # them, for 0:0), with one oracle call at each step at which some run anchors past them
        # (after the calibration and reference walk's n calls)
        evaluated = _asked_past_references(result.bundle.schedule, config.n_steps)
        assert asked and calls == config.n_steps + len(asked | evaluated)

    def test_an_all_ones_sweep_pair_calls_no_oracle(self, gmm_spec):
        # a 0:0 schedule never skips, so every step of its walk comes from the references
        config = _readme_config(gmm_spec)
        alone = run_experiment(config).velocity_field.evaluations
        result = run_experiment(config, sweep_taus=[(0.0, 0.0)])
        (row,) = result.sweep
        assert result.velocity_field.evaluations == alone
        assert row["cached_nfe"] == result.bundle.grid.n_steps and row["final_drift"] == 0.0

    def test_a_bundle_on_another_grid_is_rejected(self, gmm_spec):
        # a cached run on another grid than its reference's is not compared
        result = run_experiment(_readme_config(gmm_spec))
        field, _, other = make_bundle(replace(result.config, n_steps=40))
        full, seed = result.references[0], result.config.evaluation_seeds[0]
        with pytest.raises(InvalidArgumentError, match="different time grids"):
            compare_trajectories(full, sample_cached(field, other, full.states[0], Condition(seed)))

    def test_sweep_of_the_configs_own_pair_calls_no_oracle(self, gmm_spec):
        config = _readme_config(gmm_spec)
        alone = run_experiment(config).velocity_field.evaluations
        result = run_experiment(config, sweep_taus=[(0.06, 0.6)])
        (row,) = result.sweep
        assert result.velocity_field.evaluations == alone
        assert row["cached_nfe"] == result.cached_nfe and row["final_drift"] == result.mean_final_drift


class TestCsvWriters:
    def test_output_shapes(self, tmp_path, gmm_spec):
        config = _gmm_config(gmm_spec, n_steps=20, evaluation_seeds=(2000, 2001))
        result = run_experiment(config, ablation=True, sweep_taus=[(0.0, 0.0), (0.06, 0.6)])

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

        write_sweep_csv(result.sweep, tmp_path / "sweep.csv")
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["tau_k", "tau_d", "cached_nfe", "final_drift"]

        write_ablation_csv(result.ablation, tmp_path / "ablation.csv")
        with open(tmp_path / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
