"""Acceptance suite: one test per criterion, each at a fixed scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time

import numpy as np

from flowcache import (
    Condition,
    ExperimentConfig,
    FieldSpec,
    IndicatorTable,
    ScheduleBundle,
    TimeGrid,
    build_schedule,
    initial_state,
    make_uniform_grid,
    read_bundle,
    run_experiment,
    sample_cached,
    sample_full,
    write_bundle,
)
from flowcache.cli import EXIT_OK, main
from flowcache.diagnostics import make_bundle, truncation_drifts
from flowcache.verify import suite_bound, suite_povd, suite_ssc

from conftest import GMM_COMPONENTS

GMM_SPEC = FieldSpec(kind="gaussian-mixture", dimension=3, components=GMM_COMPONENTS)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_01_decomposition_correctness():
    result, elapsed = _timed(suite_povd, cases=10_000, seed=101)
    assert result.passed, result.failures[:3]
    assert elapsed < 1.0, f"decomposition sweep took {elapsed:.2f}s"
    print(
        f"PASS criterion 1 (decomposition): 10^4 draws, worst orthogonality "
        f"{result.stats['worst_orthogonality']:.2e}, worst reconstruction "
        f"{result.stats['worst_reconstruction']:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_interval_rule_oracle_equivalence():
    result, elapsed = _timed(suite_ssc, cases=10_000, seed=202)
    assert result.passed, result.failures[:3]
    assert elapsed < 1.0, f"interval sweep took {elapsed:.2f}s"
    print(f"PASS criterion 2 (skip intervals): 10^4 cases match brute force exactly, {elapsed:.2f}s")


def test_criterion_03_error_bound_validity():
    result, elapsed = _timed(suite_bound, cases=100_000, seed=303)
    assert result.passed, result.failures[:3]
    assert result.stats["max_bound_violation"] <= 1e-9
    assert result.stats["max_split_error"] <= 1e-10
    assert result.stats["max_q_identity_error"] <= 1e-12
    assert result.stats["min_envelope_violations"] > 0
    assert elapsed < 30.0, f"bound sweep took {elapsed:.2f}s"
    print(
        f"PASS criterion 3 (error bound): 10^5 draws, max violation "
        f"{result.stats['max_bound_violation']:.2e}, split {result.stats['max_split_error']:.2e}, "
        f"identity {result.stats['max_q_identity_error']:.2e}, {elapsed:.2f}s"
    )


def test_criterion_04_constant_field_exactness():
    config = ExperimentConfig(
        field=FieldSpec(kind="constant", dimension=3, target=(0.8, -1.1, 0.4)),
        n_steps=50,
        calibration_seeds=(1, 2, 3),
        evaluation_seeds=(100,),
        h_max=12,
    )
    vf, grid, bundle = make_bundle(config)
    condition = Condition(100)
    x0 = initial_state(condition, 3)
    full = sample_full(vf, grid, x0, condition)
    cached = sample_cached(vf, bundle, x0, condition)
    drift = float(np.linalg.norm(cached.final_state - full.final_state) / np.linalg.norm(full.final_state))
    speedup = grid.n_steps / cached.nfe
    assert drift <= 1e-12
    assert speedup >= 4.0
    print(f"PASS criterion 4 (zero-acceleration exactness): drift {drift:.1e}, speedup {speedup:.2f}x")


def test_criterion_05_pure_magnitude_fidelity():
    config = ExperimentConfig(
        field=FieldSpec(kind="magnitude-decay", dimension=2, target=(1.0, -0.5), rate=0.03),
        n_steps=100,
        calibration_seeds=(1, 2),
        evaluation_seeds=(200,),
    )
    vf, grid, bundle = make_bundle(config)
    condition = Condition(200)
    x0 = initial_state(condition, 2)
    full = sample_full(vf, grid, x0, condition)
    cached = sample_cached(vf, bundle, x0, condition)
    drift = float(np.linalg.norm(cached.final_state - full.final_state) / np.linalg.norm(full.final_state))
    assert drift <= 1e-6
    assert cached.nfe < 100 / 3
    print(f"PASS criterion 5 (pure magnitude): drift {drift:.2e} <= 1e-6, nfe {cached.nfe} < 33")


def _comparison_config() -> ExperimentConfig:
    return ExperimentConfig(
        field=GMM_SPEC,
        n_steps=50,
        calibration_seeds=tuple(range(1000, 1040)),
        evaluation_seeds=tuple(range(2000, 2020)),  # 20 seeds, disjoint from calibration
    )


def test_criterion_06_comparative_fidelity():
    config = _comparison_config()
    (result, elapsed_a) = _timed(run_experiment, config)
    trunc, elapsed_b = _timed(truncation_drifts, result, result.cached_nfe)
    elapsed = elapsed_a + elapsed_b
    assert result.skip_ratio > 0.0
    assert result.mean_final_drift < float(trunc.mean()), "cached sampling must beat step truncation"
    assert result.mean_evaluated_vel_drift < result.mean_cached_vel_drift
    assert elapsed < 60.0, f"comparison took {elapsed:.1f}s"
    print(
        f"PASS criterion 6 (comparative fidelity): cached {result.mean_final_drift:.4f} < "
        f"truncated {float(trunc.mean()):.4f} at nfe {result.cached_nfe}; velocity drift "
        f"evaluated {result.mean_evaluated_vel_drift:.4f} < cached {result.mean_cached_vel_drift:.4f}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_07_toggle_ablation_structure(tmp_path):
    rows = run_experiment(_comparison_config(), ablation=True).ablation
    assert len(rows) == 4
    schedule_only = rows[0]
    full = rows[-1]
    # report the ordering; fail only if the full configuration is worse than
    # the schedule-only baseline by more than one standard error
    assert full["mean_final_drift"] <= schedule_only["mean_final_drift"] + schedule_only["stderr_final_drift"]
    from flowcache.diagnostics import write_ablation_csv

    write_ablation_csv(rows, tmp_path / "ablation.csv")
    with open(tmp_path / "ablation.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 4
    print(
        "PASS criterion 7 (ablation): drifts "
        + ", ".join(f"(mi={r['use_mi']}, di={r['use_di']}): {r['mean_final_drift']:.4f}" for r in rows)
    )


def test_criterion_08_threshold_monotonicity(tmp_path):
    config = ExperimentConfig(
        field=GMM_SPEC,
        n_steps=50,
        calibration_seeds=tuple(range(1000, 1040)),
        evaluation_seeds=tuple(range(2000, 2008)),
    )
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

    from flowcache.diagnostics import write_sweep_csv

    write_sweep_csv(rows, tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0].keys()) == ["tau_k", "tau_d", "cached_nfe", "final_drift"]
    print(f"PASS criterion 8 (threshold monotonicity): {len(rows)} sweep rows, skip ratio monotone in both axes")


def test_criterion_09_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(909)
    for case in range(100):
        n = int(rng.integers(5, 61))
        if rng.random() < 0.5:
            grid = make_uniform_grid(n)
        else:
            interior = np.unique(rng.uniform(0.0, 1.0, size=n - 1))[::-1]
            while interior.size != n - 1:  # redraw on the rare duplicate
                interior = np.unique(rng.uniform(0.0, 1.0, size=n - 1))[::-1]
            grid = TimeGrid(np.concatenate(([1.0], interior, [0.0])))
        scale = 10.0 ** rng.uniform(-3, 2)
        k_tilde = rng.normal(0.0, scale, size=n)
        d_tilde = np.abs(rng.normal(0.0, scale, size=n))
        rng.normal(0.0, scale, size=2 * n)  # drawn and dropped, so the 100 bundles stay the ones drawn before
        indicators = IndicatorTable(k_tilde, d_tilde, sample_count=int(rng.integers(1, 50)))
        tau_k = float(rng.uniform(0.0, scale))
        tau_d = float(rng.uniform(0.0, scale))
        h_max = int(rng.integers(1, 16))
        schedule = build_schedule(indicators, grid, tau_k, tau_d, h_max)
        bundle = ScheduleBundle(
            grid=grid,
            indicators=indicators,
            schedule=schedule,
            tau_k=tau_k,
            tau_d=tau_d,
            h_max=h_max,
            field_digest=hashlib.sha256(f"digest-{case}".encode()).hexdigest(),  # the form read_bundle accepts
            seeds=tuple(int(s) for s in rng.integers(0, 2**63, size=3)),
        )
        path = tmp_path / f"bundle_{case}.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        rebuilt = build_schedule(loaded.indicators, loaded.grid, loaded.tau_k, loaded.tau_d, loaded.h_max)
        np.testing.assert_array_equal(rebuilt, loaded.schedule)
        np.testing.assert_array_equal(rebuilt, bundle.schedule)
    print("PASS criterion 9 (bundle round-trip): 100 random bundles re-schedule bit-exactly")


def test_criterion_10_manifest_reproducibility(tmp_path):
    config_payload = {
        "field": GMM_SPEC.to_dict(),
        "n_steps": 30,
        "calibration_seeds": list(range(1000, 1010)),
        "evaluation_seeds": list(range(2000, 2006)),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_payload))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args = ["bench", "--config", str(config_path), "--out", str(out1), "--ablation", "--sweep-taus", "0.0:0.0,0.06:0.6"]
    assert main(args) == EXIT_OK
    assert main(["bench", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
    names = ["summary.csv", "per_seed.csv", "drift_profile.csv", "cos_theta.csv", "ablation.csv", "sweep.csv", "bundle.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), f"{name} differs between runs"
    print(f"PASS criterion 10 (reproducibility): manifest re-run byte-reproduces {len(names)} output files")
