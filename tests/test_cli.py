from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcache import VelocityField, read_bundle
from flowcache.calibration import BUNDLE_KEYS, write_indicator_csv
from flowcache.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, FLAGS, build_parser, main
from flowcache.errors import InvalidArgumentError
from flowcache.verify import SuiteResult, run_suite

from conftest import GMM_COMPONENTS
from test_calibration import version_1

CONSTANT_CONFIG = {
    "field": {"kind": "constant", "dimension": 2, "target": [1.0, -1.0]},
    "n_steps": 50,
    "calibration_seeds": [1, 2, 3],
    "evaluation_seeds": [100],
}

GMM_CONFIG = {
    "field": {
        "kind": "gaussian-mixture",
        "dimension": 3,
        "components": [
            {"weight": c.weight, "mean": list(c.mean), "scale": c.scale} for c in GMM_COMPONENTS
        ],
    },
    "n_steps": 30,
    "calibration_seeds": list(range(1000, 1010)),
    "evaluation_seeds": list(range(2000, 2004)),
}

GMM_COMPONENT = GMM_CONFIG["field"]["components"][0]

# the experiment config shown in the README
README_CONFIG = dict(
    GMM_CONFIG,
    n_steps=50,
    calibration_seeds=list(range(1000, 1006)),
    tau_k=0.06,
    tau_d=0.6,
    h_max=12,
)


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCalibrate:
    def test_constant_field_bundle(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        bundle = read_bundle(out / "bundle.json")
        np.testing.assert_array_equal(bundle.indicators.k_tilde, np.zeros(50))
        np.testing.assert_array_equal(bundle.schedule, [min(12, 50 - n) for n in range(50)])
        rows = _read_rows(out / "curves.csv")
        assert len(rows) == 50
        assert all(r["k_tilde"] == "0.0" for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "calibrate"
        assert manifest["config"]["n_steps"] == 50

    def test_reread_reproduces_schedule(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        from flowcache import build_schedule

        bundle = read_bundle(out / "bundle.json")
        rebuilt = build_schedule(bundle.indicators, bundle.grid, bundle.tau_k, bundle.tau_d, bundle.h_max)
        np.testing.assert_array_equal(rebuilt, bundle.schedule)

    def test_threshold_overrides_apply(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(config), "--out", str(out), "--tau-k", "0", "--tau-d", "0"]) == EXIT_OK
        bundle = read_bundle(out / "bundle.json")
        assert bundle.tau_k == 0.0
        np.testing.assert_array_equal(bundle.schedule, np.ones(30, dtype=int))


class TestSample:
    def test_full_mode_nfe(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "full"
        assert main(["sample", "--config", str(config), "--out", str(out), "--mode", "full"]) == EXIT_OK
        rows = _read_rows(out / "trajectory.csv")
        assert len(rows) == 50
        assert all(r["evaluated"] == "1" for r in rows)

    def test_a_truncated_run_is_a_steps_override(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "trunc"
        assert main(["sample", "--config", str(config), "--out", str(out), "--steps", "13"]) == EXIT_OK
        rows = _read_rows(out / "trajectory.csv")
        assert len(rows) == 13
        assert all(r["evaluated"] == "1" for r in rows)

    def test_cached_all_single_steps_byte_identical_to_full(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        cal_out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(cal_out), "--tau-k", "0", "--tau-d", "0"]) == EXIT_OK

        full_out = tmp_path / "full"
        cached_out = tmp_path / "cached"
        assert main(["sample", "--config", str(config), "--out", str(full_out), "--mode", "full"]) == EXIT_OK
        code = main(
            [
                "sample",
                "--config",
                str(config),
                "--out",
                str(cached_out),
                "--mode",
                "cached",
                "--bundle",
                str(cal_out / "bundle.json"),
            ]
        )
        assert code == EXIT_OK
        assert (full_out / "trajectory.csv").read_bytes() == (cached_out / "trajectory.csv").read_bytes()

    def test_cached_manifest_rerun_keeps_mode(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        cal_out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(cal_out)]) == EXIT_OK
        out1 = tmp_path / "s1"
        code = main(
            [
                "sample",
                "--config",
                str(config),
                "--out",
                str(out1),
                "--mode",
                "cached",
                "--bundle",
                str(cal_out / "bundle.json"),
            ]
        )
        assert code == EXIT_OK
        out2 = tmp_path / "s2"
        assert main(["sample", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "cached"
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_a_relative_bundle_reruns_from_another_directory(self, tmp_path, monkeypatch):
        # the manifest records the bundle's absolute path, so the re-run does not depend on its working directory
        config = _write_config(tmp_path, GMM_CONFIG)
        monkeypatch.chdir(tmp_path)
        argv = ["sample", "--config", str(config), "--out", "s1", "--mode", "cached", "--bundle", "cal/bundle.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["calibrate", "--config", str(config), "--out", "cal"]) == EXIT_OK
            assert main(argv) == EXIT_OK
            (tmp_path / "elsewhere").mkdir()
            monkeypatch.chdir(tmp_path / "elsewhere")
            assert main(["sample", "--config", str(tmp_path / "s1" / "manifest.json"), "--out", "s2"]) == EXIT_OK
        recorded = json.loads((tmp_path / "s1" / "manifest.json").read_text())["config"]["bundle"]
        assert os.path.isabs(recorded) and os.path.samefile(recorded, tmp_path / "cal" / "bundle.json")
        rerun = tmp_path / "elsewhere" / "s2" / "trajectory.csv"
        assert (tmp_path / "s1" / "trajectory.csv").read_bytes() == rerun.read_bytes()

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_an_unreadable_bundle_is_named(self, tmp_path, capsys, from_file):
        cached = {"mode": "cached", "bundle": str(tmp_path / "missing.json")}
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, **cached) if from_file else CONSTANT_CONFIG)
        flags = [] if from_file else ["--mode", "cached", "--bundle", cached["bundle"]]
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "o"), *flags]) == EXIT_CONFIG
        named = "experiment config key 'bundle'" if from_file else "--bundle"
        err = capsys.readouterr().err
        assert err == f"error: {named}: no bundle file at {cached['bundle']}\n"

    def test_cached_mode_requires_bundle(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "x"), "--mode", "cached"]) == EXIT_CONFIG

    def test_a_flag_outside_its_mode_is_named(self, tmp_path, capsys):
        # the bundle is valid, so the flag outside its mode is the only fault
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal")]) == EXIT_OK
        bundle = str(tmp_path / "cal" / "bundle.json")
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "o"), "--bundle", bundle]) == EXIT_CONFIG
        assert "error: --bundle applies only to --mode cached; this run is full" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_a_bad_flag_outside_its_mode_is_named_first(self, tmp_path, capsys):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        argv = ["sample", "--config", str(config), "--out", str(tmp_path / "o"), "--mode", "full"]
        assert main(argv + ["--bundle", "/nonexistent"]) == EXIT_CONFIG
        assert "error: --bundle applies only to --mode cached; this run is full" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_a_file_key_outside_its_mode_is_ignored(self, tmp_path):
        # a manifest of one mode may be re-run in another
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, bundle="b.json"))
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_OK
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "full" and "bundle" not in manifest["config"]
        assert len(_read_rows(tmp_path / "o" / "trajectory.csv")) == 50

    def test_bundle_grid_mismatch_rejected(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        cal_out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(cal_out)]) == EXIT_OK
        bad = dict(GMM_CONFIG, n_steps=40)
        bad_config = _write_config(tmp_path, bad, name="bad.json")
        code = main(
            [
                "sample",
                "--config",
                str(bad_config),
                "--out",
                str(tmp_path / "x"),
                "--mode",
                "cached",
                "--bundle",
                str(cal_out / "bundle.json"),
            ]
        )
        assert code == EXIT_CONFIG


class TestVerify:
    def test_small_suites_pass(self, capsys):
        assert main(["verify", "--suite", "povd", "--cases", "500"]) == EXIT_OK
        assert main(["verify", "--suite", "ssc", "--cases", "500"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS povd" in out

    def test_exactness_suite(self):
        assert main(["verify", "--suite", "exactness"]) == EXIT_OK

    def test_bound_suite_writes_audit(self, tmp_path):
        out = tmp_path / "audit"
        assert main(["verify", "--suite", "bound", "--cases", "300", "--out", str(out)]) == EXIT_OK
        rows = _read_rows(out / "bound_audit.csv")
        assert len(rows) == 300

    @pytest.mark.parametrize("cases", ["0", "-5"])
    @pytest.mark.parametrize("suite", ["povd", "ssc", "bound"])
    def test_non_positive_cases_rejected(self, capsys, suite, cases):
        assert main(["verify", "--suite", suite, "--cases", cases]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--cases" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("flags, cases, seed", [([], 100_000, 303), (["--cases", "300", "--seed", "7"], 300, 7)])
    def test_manifest_records_the_cases_and_seed_the_suite_ran(self, tmp_path, flags, cases, seed):
        assert main(["verify", "--suite", "bound", "--out", str(tmp_path / "o"), *flags]) == EXIT_OK
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"] == {"suite": "bound", "cases": cases, "seed": seed}

    @pytest.mark.parametrize("audit", [False, True], ids=["no-audit", "audit"])
    def test_a_huge_case_count_reaches_its_first_draw(self, tmp_path, monkeypatch, audit):
        # the suite holds one block of draws at a time, so no allocation sized by the case count comes first
        import flowcache.verify as verify_module

        class FirstDraw(Exception):
            pass

        def first_draw(rng, n):
            raise FirstDraw(n)

        monkeypatch.setattr(verify_module, "_draw_block", first_draw)
        with pytest.raises(FirstDraw):
            verify_module.suite_bound(cases=10**12, audit_path=str(tmp_path / "audit.csv") if audit else None)

    def test_omitted_cases_take_the_suite_default(self, monkeypatch):
        import flowcache.verify as verify_module

        seen = []

        def fake_povd(**kwargs):
            seen.append(kwargs)
            return SuiteResult("povd", 1, 0)

        monkeypatch.setitem(verify_module.SUITES, "povd", fake_povd)
        verify_module.run_suite("povd")
        verify_module.run_suite("povd", cases=7)
        assert seen == [{}, {"cases": 7}]

    def test_cases_rejected_for_the_exactness_suite(self, capsys):
        assert main(["verify", "--suite", "exactness", "--cases", "50"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--cases" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("suite", ["povd", "ssc", "exactness"])
    def test_out_rejected_for_a_suite_that_writes_no_audit(self, tmp_path, capsys, suite):
        assert main(["verify", "--suite", suite, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"--out does not apply to the {suite} suite" in captured.err
        assert "PASS" not in captured.out and not (tmp_path / "o").exists()

    def test_out_with_all_writes_the_bound_audit(self, tmp_path):
        assert main(["verify", "--suite", "all", "--cases", "40", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert sorted(path.name for path in (tmp_path / "o").iterdir()) == ["bound_audit.csv", "manifest.json"]
        assert len(_read_rows(tmp_path / "o" / "bound_audit.csv")) == 40

    def test_cases_with_all_sizes_the_randomized_suites(self, capsys, monkeypatch):
        import flowcache.cli as cli_module
        import flowcache.verify as verify_module

        seen = {}

        def recorded(name, cases=None, **kwargs):
            seen[name] = cases
            return verify_module.run_suite(name, cases=cases, **kwargs)

        monkeypatch.setattr(cli_module, "run_suite", recorded)
        assert main(["verify", "--suite", "all", "--cases", "40"]) == EXIT_OK
        assert seen == {"povd": 40, "ssc": 40, "bound": 40, "exactness": None}
        out = capsys.readouterr().out
        assert "PASS povd: 40 cases" in out
        assert "PASS exactness: 3 fixed checks" in out

    @pytest.mark.parametrize("suite", ["povd", "ssc", "bound", "exactness"])
    def test_negative_seed_named(self, capsys, suite):
        assert main(["verify", "--suite", suite, "--seed", "-1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--seed must be a non-negative integer, got -1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("suite", ["exactness", "all"])
    def test_seed_past_the_exactness_range_named(self, capsys, suite):
        # the exactness suite's condition seeds reach seed + 200, which must stay below 2**64
        assert main(["verify", "--suite", suite, "--seed", str(2**64 - 200)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"--seed must be an integer from 0 to {2**64 - 201} (2**64 - 201), got {2**64 - 200}" in captured.err
        assert "evaluation_seeds" not in captured.err
        assert "PASS" not in captured.out

    def test_largest_seed_runs(self, capsys):
        assert main(["verify", "--suite", "exactness", "--seed", str(2**64 - 201)]) == EXIT_OK
        assert "PASS exactness: 3 fixed checks" in capsys.readouterr().out

    def test_an_unknown_suite_is_named(self):
        with pytest.raises(InvalidArgumentError, match="^unknown suite 'x'; expected one of "):
            run_suite("x")

    def test_an_audit_path_is_rejected_for_a_suite_that_writes_no_audit(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="^--out does not apply to the povd suite; "):
            run_suite("povd", audit_path=str(tmp_path / "audit.csv"))
        assert not (tmp_path / "audit.csv").exists()

    def test_failure_exit_code(self, monkeypatch):
        import flowcache.cli as cli_module

        def fake_suite(name, cases=None, seed=None, audit_path=None):
            return SuiteResult(name=name, cases=1, seed=1, failures=["draw 0 (seed 1): synthetic failure"])

        monkeypatch.setattr(cli_module, "run_suite", fake_suite)
        assert main(["verify", "--suite", "povd"]) == EXIT_VERIFY


class TestBench:
    def test_summary_and_reproducibility(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        out1 = tmp_path / "bench1"
        code = main(
            [
                "bench",
                "--config",
                str(config),
                "--out",
                str(out1),
                "--ablation",
                "--sweep-taus",
                "0.0:0.0,0.06:0.6",
            ]
        )
        assert code == EXIT_OK
        summary = _read_rows(out1 / "summary.csv")
        assert [r["mode"] for r in summary] == ["full", "cached", "truncated"]
        assert float(summary[1]["mean_final_drift"]) < float(summary[2]["mean_final_drift"])
        assert len(_read_rows(out1 / "ablation.csv")) == 4
        assert len(_read_rows(out1 / "sweep.csv")) == 2

        # re-running from the manifest must reproduce every CSV byte for byte
        out2 = tmp_path / "bench2"
        assert main(["bench", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
        for name in ("summary.csv", "per_seed.csv", "drift_profile.csv", "cos_theta.csv", "ablation.csv", "sweep.csv", "bundle.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_one_calibration_and_one_reference_set(self, tmp_path, monkeypatch):
        runs, walks, calibrations = [], [], []
        originals = {"_full_kernel": sys.modules["flowcache.solver"]._full_kernel}
        originals["_indicators"] = sys.modules["flowcache.calibration"]._indicators

        def full_kernel(field, grid, x0, conditions, records=True):
            # one entry per trajectory: the grid it runs on, its start state and whether it keeps a record
            runs.extend((grid.times.tobytes(), row.tobytes(), records) for row in x0)
            walks.append(len(x0))
            return originals["_full_kernel"](field, grid, x0, conditions, records=records)

        def indicators(*args, **kwargs):
            calibrations.append(1)
            return originals["_indicators"](*args, **kwargs)

        # patch every flowcache module that imported the function by name
        for attr, counted in (("_full_kernel", full_kernel), ("_indicators", indicators)):
            for name, module in list(sys.modules.items()):
                if name == "flowcache" or name.startswith("flowcache."):
                    for held, value in list(vars(module).items()):
                        if value is originals[attr]:
                            monkeypatch.setattr(module, held, counted)
        config = _write_config(tmp_path, README_CONFIG)
        argv = ["bench", "--config", str(config), "--out", str(tmp_path / "bench"), "--ablation"]
        assert main(argv + ["--sweep-taus", "0.03:0.3,0.04:0.4,0.06:0.6"]) == EXIT_OK
        # 6 calibration runs, 4 references and 4 truncated runs, none of them run twice
        assert len(runs) == 14
        assert len({(times, start) for times, start, _ in runs}) == 14
        # two full-step walks, the calibration with the references and then the truncation; the first keeps records
        # for its 4 leading rows, the evaluation seeds' (the truncation's starts), and the truncation keeps none
        assert walks == [10, 4]
        assert [records for *_, records in runs] == [4] * 10 + [0] * 4
        assert [start for _, start, _ in runs[:4]] == [start for _, start, _ in runs[10:]]
        assert len(calibrations) == 1

    def test_readme_bench_oracle_calls(self, tmp_path, monkeypatch):
        # calibration and references 50 (one walk), truncation 33, and 29 for the one walk of the cached runs, the
        # ablation's other three settings and the two swept schedules that differ from the config's: each run takes
        # its steps up to its first skip's anchor from the references, and the walk calls the oracle once at each
        # later step at which some run anchors (18, 25 and 21 steps for the three schedules, 29 in all)
        calls = []
        evaluate = VelocityField.evaluate
        monkeypatch.setattr(VelocityField, "evaluate", lambda *args: calls.append(1) or evaluate(*args))
        config = _write_config(tmp_path, README_CONFIG)
        argv = ["bench", "--config", str(config), "--out", str(tmp_path / "bench"), "--ablation"]
        assert main(argv + ["--sweep-taus", "0.03:0.3,0.04:0.4,0.06:0.6"]) == EXIT_OK
        assert len(calls) == 112

    @pytest.mark.parametrize("taus", ["nan:0.3", "-1:0.3", "x:0.3", "0.3:inf"])
    def test_bad_sweep_taus_rejected(self, tmp_path, capsys, taus):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(config), "--out", str(out), f"--sweep-taus={taus}"]) == EXIT_CONFIG
        assert "--sweep-taus" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_constant_field_rows(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == EXIT_OK
        rows = {r["mode"]: r for r in _read_rows(out / "summary.csv")}
        assert float(rows["cached"]["mean_final_drift"]) == 0.0
        assert float(rows["cached"]["speedup"]) > 4.0


class TestCurves:
    def test_rows_match_grid(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        cal_out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(cal_out)]) == EXIT_OK
        rows = _read_rows(cal_out / "curves.csv")
        assert len(rows) == 30
        assert list(rows[0].keys()) == ["n", "t", "k_tilde", "d_tilde"]

    def test_calibrate_on_a_bench_manifest_rewrites_its_bundle(self, tmp_path):
        # curves.csv of a bench's bundle comes from calibrate on the bench's manifest; the bench-only keys
        # (ablation, sweep_taus) are ignored
        config = _write_config(tmp_path, GMM_CONFIG)
        bench, cal = tmp_path / "bench", tmp_path / "cal"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["bench", "--config", str(config), "--out", str(bench), "--ablation", "--sweep-taus", "0.03:0.3"]) == EXIT_OK
            assert main(["calibrate", "--config", str(bench / "manifest.json"), "--out", str(cal)]) == EXIT_OK
        assert (cal / "bundle.json").read_bytes() == (bench / "bundle.json").read_bytes()
        bundle = read_bundle(bench / "bundle.json")
        write_indicator_csv(bundle.grid, bundle.indicators, tmp_path / "curves.csv")
        assert (cal / "curves.csv").read_bytes() == (tmp_path / "curves.csv").read_bytes()

    def test_decay_bundle_curves(self, tmp_path):
        decay_config = {
            "field": {"kind": "magnitude-decay", "dimension": 2, "target": [1.0, -0.5], "rate": 0.03},
            "n_steps": 20,
            "calibration_seeds": [1, 2],
            "evaluation_seeds": [50],
        }
        config = _write_config(tmp_path, decay_config)
        cal_out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(config), "--out", str(cal_out)]) == EXIT_OK
        rows = _read_rows(cal_out / "curves.csv")
        k_values = np.array([float(r["k_tilde"]) for r in rows])
        np.testing.assert_allclose(k_values, k_values[0], rtol=1e-12)  # constant nonzero column
        assert np.all(k_values > 0.0)
        assert all(float(r["d_tilde"]) <= 1e-10 for r in rows)


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_overlapping_seeds_rejected(self, tmp_path):
        bad = dict(CONSTANT_CONFIG, evaluation_seeds=[1])
        config = _write_config(tmp_path, bad)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, seeds", [("evaluation_seeds", [-3]), ("calibration_seeds", [-1]), ("evaluation_seeds", [100, 2**64])]
    )
    def test_seed_outside_the_condition_range_named(self, tmp_path, capsys, key, seeds):
        # the condition's seed rule, applied when the config is read: nothing is written
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, **{key: seeds}))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"key {key!r}: entry {len(seeds) - 1}: condition seed must be a 64-bit unsigned integer" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_non_integer_seeds_flag_named(self, tmp_path, capsys):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o"), "--seeds", "5,x"]) == EXIT_CONFIG
        assert "--seeds: expected comma-separated integers, got '5,x'" in capsys.readouterr().err

    def test_empty_seeds_flag_named(self, tmp_path, capsys):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o"), "--seeds="]) == EXIT_CONFIG
        assert "--seeds: expected comma-separated integers, got ''" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_empty_sweep_taus_flag_named(self, tmp_path, capsys):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o"), "--sweep-taus="]) == EXIT_CONFIG
        assert "--sweep-taus: bad threshold pair ['']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.csv").exists()

    @pytest.mark.parametrize("key", ["use_mi", "use_di"])
    def test_non_boolean_toggle_rejected(self, tmp_path, capsys, key):
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, **{key: "false"}))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @staticmethod
    def _calibrate_constant(tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal")]) == EXIT_OK
        return config, tmp_path / "cal" / "bundle.json"

    @staticmethod
    def _sample_cached(tmp_path, config, bundle):
        return main(["sample", "--config", str(config), "--out", str(tmp_path / "o"), "--mode", "cached", "--bundle", str(bundle)])

    def test_bundle_from_another_field_rejected(self, tmp_path, capsys):
        _, bundle = self._calibrate_constant(tmp_path)
        other = dict(CONSTANT_CONFIG, field={"kind": "constant", "dimension": 2, "target": [1.0, -2.0]})
        config = _write_config(tmp_path, other, name="other.json")
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert "field_digest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, bad", [("times", 5), ("k_tilde", [float("nan")] * 50)], ids=["times-int", "k_tilde-nan"]
    )
    def test_malformed_bundle_column_rejected(self, tmp_path, capsys, column, bad):
        config, bundle = self._calibrate_constant(tmp_path)
        data = json.loads(bundle.read_text())
        data[column] = bad
        bundle.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert column in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [1e308, 10**30])
    def test_schedule_entry_beyond_64_bits_rejected(self, tmp_path, capsys, bad):
        config, bundle = self._calibrate_constant(tmp_path)
        data = json.loads(bundle.read_text())
        data["h"][0] = bad
        bundle.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert f"h: schedule entry out of range at step 0: h={int(bad)}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [-7, 2**64, 2**70])
    def test_bundle_seed_outside_the_condition_rule_rejected(self, tmp_path, capsys, bad):
        config, bundle = self._calibrate_constant(tmp_path)
        data = json.loads(bundle.read_text())
        data["seeds"][1] = bad
        bundle.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert "seeds: entry 1: condition seed must be a 64-bit unsigned integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [("n_steps", None), ("seeds", 5), ("sample_count", [1]), ("tau_k", "x")])
    def test_malformed_bundle_scalar_rejected(self, tmp_path, capsys, key, bad):
        config, bundle = self._calibrate_constant(tmp_path)
        bundle.write_text(json.dumps(dict(json.loads(bundle.read_text()), **{key: bad})))
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert f"{key}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("n_steps", None),
            ("h_max", None),
            ("evaluation_seeds", 5),
            ("field", 5),
            ("tau_k", "x"),
            ("calibration_seeds", [1.5, 2]),
        ],
    )
    def test_malformed_config_value_rejected(self, tmp_path, capsys, key, bad):
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, **{key: bad}))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        reason = "entry 0 is not an integer: 1.5\n" if bad == [1.5, 2] else "expected"
        assert f"key {key!r}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, key, reason",
        [
            ({"kind": "constant", "dimension": None, "target": [1.0, -1.0]}, "field.dimension", "expected"),
            ({"kind": "constant", "dimension": 2, "target": 5}, "field.target", "expected"),
            ({"kind": "constant", "dimension": 2, "target": [1.0, "x"]}, "field.target", "entry 1 is not a finite number: 'x'"),
            ({"kind": 5, "dimension": 2, "target": [1.0, -1.0]}, "field.kind", "expected"),
            ({"kind": "magnitude-decay", "dimension": 2, "target": [1.0, -1.0], "rate": "0.1"}, "field.rate", "expected"),
            (
                {"kind": "rotation", "dimension": 2, "target": [1.0, -1.0], "rate": 0.1, "plane": [0]},
                "field.plane",
                "expected",
            ),
            (dict(GMM_CONFIG["field"], components=[5]), "field.components[0]", "expected"),
            (
                dict(GMM_CONFIG["field"], components=[dict(GMM_CONFIG["field"]["components"][0], mean=[None, 0.0, 0.0])]),
                "field.components[0].mean",
                "entry 0 is not a finite number: None",
            ),
            (
                dict(GMM_CONFIG["field"], components=[GMM_CONFIG["field"]["components"][0], {"weight": "0.4"}]),
                "field.components[1].weight",
                "expected",
            ),
        ],
        ids=["dimension", "target", "target-entry", "kind", "rate", "plane", "component", "mean", "weight"],
    )
    def test_malformed_field_value_rejected(self, tmp_path, capsys, field, key, reason):
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, field=field))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"key {key!r}: {reason}" in capsys.readouterr().err

    def test_manifest_config_not_an_object_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"config": 5, "subcommand": "calibrate"})
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("content", [b"{", b"\xff{}"], ids=["json", "utf-8"])
    def test_undecodable_config_names_the_file(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"error: config file {path} is not valid JSON: " in capsys.readouterr().err

    def test_non_utf8_bundle_names_the_document(self, tmp_path, capsys):
        config, bundle = _write_config(tmp_path, CONSTANT_CONFIG), tmp_path / "bundle.json"
        bundle.write_bytes(b"\xff{}")
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert "error: document: not valid JSON: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            (dict(CONSTANT_CONFIG, colour=1), "experiment config key 'colour'"),
            (dict(CONSTANT_CONFIG, field=dict(CONSTANT_CONFIG["field"], colour=1)), "config key 'field.colour'"),
            (
                dict(GMM_CONFIG, field=dict(GMM_CONFIG["field"], components=[GMM_COMPONENT, dict(GMM_COMPONENT, colour=1)])),
                "config key 'field.components[1].colour'",
            ),
        ],
        ids=["top-level", "field", "component"],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, payload, key):
        config = _write_config(tmp_path, payload)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, key",
        [
            ({"kind": "constant", "dimension": 2, "target": [1.0, -1.0], "rate": 0.7, "plane": [0, 1]}, "rate"),
            ({"kind": "magnitude-decay", "dimension": 2, "target": [1.0, -1.0], "rate": 0.1, "plane": [0, 1]}, "plane"),
            ({"kind": "rotation", "dimension": 2, "target": [1.0, 0.0], "components": [GMM_COMPONENT]}, "components"),
            (dict(GMM_CONFIG["field"], target=[1.0, 0.0, 0.0], rate=0.7), "target"),
        ],
        ids=["constant", "magnitude-decay", "rotation", "gaussian-mixture"],
    )
    def test_a_key_its_field_kind_does_not_read_is_rejected(self, tmp_path, capsys, field, key):
        # the manifest writes only the keys the kind reads, so any other would be dropped without a word
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, field=field))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config key 'field.{key}': unknown key" in capsys.readouterr().err
        # an unknown kind keeps its own error
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, field=dict(field, kind="spline")))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config key 'field.kind': unknown field kind 'spline'" in capsys.readouterr().err

    def test_unknown_bundle_key_rejected(self, tmp_path, capsys):
        config, bundle = self._calibrate_constant(tmp_path)
        bundle.write_text(json.dumps(dict(json.loads(bundle.read_text()), colour=1)))
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert "colour: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, key",
        [
            ("bench", {"sweep_taus": 5}, "sweep_taus"),
            ("bench", {"sweep_taus": [[-1, 0.3]]}, "sweep_taus"),
            ("bench", {"sweep_taus": [[0.1]]}, "sweep_taus"),
            ("bench", {"sweep_taus": [["a", 0.3]]}, "sweep_taus"),
            ("bench", {"ablation": "no"}, "ablation"),
            ("sample", {"mode": 5}, "mode"),
            ("sample", {"mode": "x"}, "mode"),
            ("sample", {"mode": "truncated"}, "mode"),
            ("sample", {"mode": "cached", "bundle": 5}, "bundle"),
        ],
        ids=[
            "sweep-int", "sweep-negative", "sweep-half-pair", "sweep-string", "ablation", "mode", "mode-unknown",
            "mode-truncated", "bundle",
        ],
    )
    def test_bad_subcommand_key_named(self, tmp_path, capsys, command, extra, key):
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, **extra))
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"key {key!r}: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "flags, extra, key",
        [(["--tau-k", "-1"], {}, "tau_k"), ([], {"tau_d": -1}, "tau_d"), (["--h-max", "0"], {}, "h_max")],
        ids=["flag-tau_k", "config-tau_d", "flag-h_max"],
    )
    def test_bad_threshold_named(self, tmp_path, capsys, flags, extra, key):
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, **extra))
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")] + flags) == EXIT_CONFIG
        assert f"key {key!r}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "slot, change, key",
        [
            (0, {"weight": -1.0}, "field.components[0].weight"),
            (1, {"scale": -1.0}, "field.components[1].scale"),
            (1, {"mean": [1.0]}, "field.components[1].mean"),
            (1, {"weight": 0.5}, "field.components"),
        ],
        ids=["weight", "scale", "mean", "weight-sum"],
    )
    def test_mixture_range_error_named(self, tmp_path, capsys, slot, change, key):
        components = [dict(c) for c in GMM_CONFIG["field"]["components"]]
        components[slot].update(change)
        config = _write_config(tmp_path, dict(GMM_CONFIG, field=dict(GMM_CONFIG["field"], components=components)))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config key {key!r}: " in capsys.readouterr().err


class TestUsageErrors:
    """Every rejection, argparse's included, makes ``main`` return 2 and print one ``error:`` line."""

    @staticmethod
    def _rejected(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_CONFIG and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return lines[0]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "{config}", "--out", "{out}", "--bogus"], "unrecognized arguments: --bogus"),
            (["bench", "{config}"], "the following arguments are required: --out"),
            ([], "the following arguments are required: command"),
            (["verify", "--cases", "x"], "argument --cases: invalid int value: 'x'"),
            (["verify", "--suite", "x"], "argument --suite: invalid choice: 'x'"),
            (["sample", "{config}", "--out", "{out}", "--truncate-to", "13"], "unrecognized arguments: --truncate-to 13"),
            (["curves", "--bundle", "bundle.json", "--out", "{out}"], "argument command: invalid choice: 'curves'"),
        ],
        ids=["unknown-flag", "missing-out", "missing-subcommand", "verify-cases", "verify-suite", "truncate-to", "curves"],
    )
    def test_an_argparse_rejection_returns_2(self, tmp_path, argv, message):
        config = str(_write_config(tmp_path, CONSTANT_CONFIG))
        argv = [{"{config}": f"--config={config}", "{out}": str(tmp_path / "o")}.get(part, part) for part in argv]
        assert self._rejected(argv).startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["bench", "--steps", "x"], "experiment config key 'n_steps': expected an integer, got 'x'"),
            (["bench", "--h-max", "1.5"], "experiment config key 'h_max': expected an integer, got 1.5"),
            (["bench", "--tau-k", "nan"], "experiment config key 'tau_k': expected a finite number, got nan"),
            (["sample", "--mode", "x"], "--mode: unknown mode 'x'; expected one of full, cached"),
            (["sample", "--mode", "truncated"], "--mode: unknown mode 'truncated'; expected one of full, cached"),
        ],
        ids=["steps", "h_max", "tau_k", "mode", "mode-truncated"],
    )
    def test_a_bad_number_or_mode_flag_is_named_by_its_rule(self, tmp_path, flags, message):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        command, *rest = flags
        assert self._rejected([command, "--config", str(config), "--out", str(tmp_path / "o"), *rest]) == f"error: {message}"
        assert not (tmp_path / "o").exists()

    def test_number_text_is_read_as_its_key_reads_a_number(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            for out, steps in (("a", "5"), ("b", "5.0")):
                assert main(["bench", "--config", str(config), "--out", str(tmp_path / out), "--steps", steps]) == EXIT_OK
        written = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]["n_steps"] == 5

    def test_an_integer_flag_keeps_every_digit(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o"), "--h-max", str(2**53 + 1)]) == EXIT_OK
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["h_max"] == 2**53 + 1
        assert read_bundle(tmp_path / "o" / "bundle.json").h_max == 2**53 + 1

    def test_a_bad_list_entry_is_named_by_its_index_alone(self, tmp_path):
        # the line names the key and the entry, not the 1024-entry list
        mean = [0.0] * 1023 + [math.nan]
        field = {"kind": "gaussian-mixture", "dimension": 1024, "components": [{"weight": 1.0, "mean": mean, "scale": 1.0}]}
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, field=field))
        line = self._rejected(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert line == "error: config key 'field.components[0].mean': entry 1023 is not a finite number: nan"
        assert len(line) < 200

    def test_a_rejected_run_leaves_the_next_run_working(self, tmp_path):
        # main parses every call with one parser, so a rejection must leave nothing behind in it
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        argv = ["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]
        self._rejected([*argv, "--steps", "x"])
        self._rejected([*argv, "--bogus"])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["n_steps"] == 50

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_still_exit_0(self, flag):
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0


# Each flag of the CLI's table: a command line that sets it, the config key it lands under and the value there.
# "{bundle}" stands for a bundle calibrated on CONSTANT_CONFIG.
_FLAG_RUNS = {
    "steps": (["bench", "--steps", "20"], "n_steps", 20),
    "tau_k": (["bench", "--tau-k", "0.1"], "tau_k", 0.1),
    "tau_d": (["bench", "--tau-d", "0.9"], "tau_d", 0.9),
    "h_max": (["bench", "--h-max", "5"], "h_max", 5),
    "seeds": (["bench", "--seeds", "7,8"], "evaluation_seeds", [7, 8]),
    "no_mi": (["bench", "--no-mi"], "use_mi", False),
    "no_di": (["bench", "--no-di"], "use_di", False),
    "mode": (["sample", "--mode", "full"], "mode", "full"),
    "bundle": (["sample", "--mode", "cached", "--bundle", "{bundle}"], "bundle", "{bundle}"),
    "ablation": (["bench", "--ablation"], "ablation", True),
    "sweep_taus": (["bench", "--sweep-taus", "0:0,0.1:1"], "sweep_taus", [[0.0, 0.0], [0.1, 1.0]]),
}


class TestFlagTable:
    def test_every_flag_is_covered(self):
        assert set(_FLAG_RUNS) == set(FLAGS)

    @pytest.mark.parametrize(
        "command, own", [("calibrate", []), ("sample", ["mode", "bundle"]), ("bench", ["ablation", "sweep_taus"])]
    )
    def test_an_experiment_subcommand_accepts_exactly_its_flag_rows(self, command, own):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
        common = [dest for dest, (_, _, where, _) in FLAGS.items() if where is None]
        expected = {"--config", "--out", *("--" + dest.replace("_", "-") for dest in common + own)}
        assert accepted - {"-h", "--help"} == expected

    @pytest.mark.parametrize("dest", list(_FLAG_RUNS))
    def test_a_set_flag_lands_in_the_manifest_and_reruns_byte_identical(self, tmp_path, dest):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        bundle = str(tmp_path / "cal" / "bundle.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "cal")]) == EXIT_OK
            argv, key, value = _FLAG_RUNS[dest]
            argv = [part.replace("{bundle}", bundle) for part in argv]
            assert main([argv[0], "--config", str(config), "--out", str(tmp_path / "a"), *argv[1:]]) == EXIT_OK
            manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
            assert manifest["config"][key] == (bundle if value == "{bundle}" else value)
            # the manifest alone, with no flags, reproduces every output
            assert main([argv[0], "--config", str(tmp_path / "a" / "manifest.json"), "--out", str(tmp_path / "b")]) == EXIT_OK
        written = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


# A value that stands for "drop the key" among the mutations below.
_DROP = object()
# The keys the property test mutates: the top level (experiment and subcommand keys) and the field's.
_BOUNDARY_CONFIG = dict(
    README_CONFIG,
    n_steps=5,
    mode="full",
    bundle="bundle.json",
    ablation=True,
    sweep_taus=[[0.03, 0.3]],
)
_BOUNDARY_KEYS = [(key,) for key in _BOUNDARY_CONFIG] + [("field", key) for key in _BOUNDARY_CONFIG["field"]]


class TestConfigBoundary:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        path=st.sampled_from(_BOUNDARY_KEYS),
        value=st.sampled_from([_DROP, math.nan, -1, -0.5, "x", [1], None, True]),
    )
    def test_a_mutated_key_runs_or_is_named(self, tmp_path_factory, path, value):
        payload = json.loads(json.dumps(_BOUNDARY_CONFIG))
        holder = payload["field"] if len(path) == 2 else payload
        if value is _DROP:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
        out = tmp_path_factory.mktemp("boundary")
        config = _write_config(out, payload)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bench", "--config", str(config), "--out", str(out / "o")])
        assert code == EXIT_OK or (code == EXIT_CONFIG and path[-1] in err.getvalue()), (code, err.getvalue())


# The bundle half of the boundary: a valid bundle of a 5-step README-field calibration.
_BUNDLE_CONFIG = dict(README_CONFIG, n_steps=5, calibration_seeds=[1000, 1001], evaluation_seeds=[2000])


@pytest.fixture(scope="module")
def boundary_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    config = _write_config(out, _BUNDLE_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calibrate", "--config", str(config), "--out", str(out / "cal")]) == EXIT_OK
    return config, json.loads((out / "cal" / "bundle.json").read_text())


class TestBundleBoundary:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        key=st.sampled_from(BUNDLE_KEYS),
        value=st.sampled_from([_DROP, math.nan, -1, "x", [1], None, True, 1e308]),
    )
    def test_a_mutated_key_runs_or_is_named(self, tmp_path_factory, boundary_bundle, key, value):
        config, valid = boundary_bundle
        payload = json.loads(json.dumps(valid))
        if value is _DROP:
            del payload[key]
        else:
            payload[key] = value
        out = tmp_path_factory.mktemp("boundary")
        bundle = _write_config(out, payload, name="bundle.json")
        argv = ["sample", "--config", str(config), "--out", str(out / "s"), "--mode", "cached", "--bundle", str(bundle)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_OK or (code == EXIT_CONFIG and key in err.getvalue()), (code, err.getvalue())

    @pytest.mark.parametrize(
        "key, named",
        [("k_tilde", "k_tilde: exp(k_tilde * dt) overflows at step 1"), ("d_tilde", "left the finite range at step 4")],
    )
    def test_a_huge_indicator_entry_is_named(self, tmp_path, boundary_bundle, key, named):
        # finite entries of 1e308 on two reconstructed steps; k_tilde has a range rule, d_tilde has none, as
        # d_tilde * |v| overflows only together with |v|: v_2 is near 1e308 and finite, v_3 overflows, and the
        # walk names the step where the state leaves the range
        config, valid = boundary_bundle
        huge = [1e308 if i in (1, 2) else v for i, v in enumerate(valid[key])]
        payload = dict(valid, h=[5, 4, 3, 2, 1], **{key: huge})
        bundle = _write_config(tmp_path, payload, name="bundle.json")
        argv = ["sample", "--config", str(config), "--out", str(tmp_path / "s"), "--mode", "cached", "--bundle", str(bundle)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code == EXIT_CONFIG and named in err.getvalue(), err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err.getvalue()


    def test_a_version_1_bundle_samples_and_exports_as_its_version_2_bundle(self, tmp_path, boundary_bundle):
        config, valid = boundary_bundle
        for version, document in (("2", valid), ("1", version_1(valid, k_std=[0.25] * 5))):
            bundle = _write_config(tmp_path, document, name=f"bundle-{version}.json")
            argv = ["sample", "--config", str(config), "--out", str(tmp_path / f"s{version}"), "--mode", "cached"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--bundle", str(bundle)]) == EXIT_OK
            read = read_bundle(bundle)
            write_indicator_csv(read.grid, read.indicators, tmp_path / f"curves-{version}.csv")
        for name in ("s1/trajectory.csv", "curves-1.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("1", "2", 1)).read_bytes(), name

    @pytest.mark.parametrize("key", ["k_std", "d_std"])
    @pytest.mark.parametrize("bad", [_DROP, [0.0] * 4, ["x"] * 5], ids=["missing", "short", "non-numeric"])
    def test_a_bad_version_1_spread_is_named(self, tmp_path, boundary_bundle, key, bad):
        config, valid = boundary_bundle
        document = version_1(valid)
        if bad is _DROP:
            del document[key]
        else:
            document[key] = bad
        bundle = _write_config(tmp_path, document, name="bundle.json")
        argv = ["sample", "--config", str(config), "--out", str(tmp_path / "s"), "--mode", "cached", "--bundle", str(bundle)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == EXIT_CONFIG
        assert f"{key}: " in err.getvalue() and len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert not (tmp_path / "s" / "trajectory.csv").exists()

    def test_a_malformed_field_digest_is_named(self, tmp_path, boundary_bundle):
        # read_bundle checks the digest's form before sample compares it with the config field's
        config, valid = boundary_bundle
        bundle = _write_config(tmp_path, dict(valid, field_digest="stub"), name="bundle.json")
        argv = ["sample", "--config", str(config), "--out", str(tmp_path / "s"), "--mode", "cached", "--bundle", str(bundle)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_CONFIG and "field_digest: expected 64 lowercase hex characters" in err.getvalue()


class TestOutputFiles:
    def test_an_output_hard_linked_to_another_file_leaves_that_file(self, tmp_path):
        config = _write_config(tmp_path, README_CONFIG)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        out.mkdir()
        names = ("bundle.json", "curves.csv", "manifest.json")  # write_bundle, write_csv and the manifest
        for name in names:
            (tmp_path / f"other-{name}").write_text("kept\n")
            os.link(tmp_path / f"other-{name}", out / name)
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert main(["calibrate", "--config", str(config), "--out", str(fresh)]) == EXIT_OK
        for name in names:
            assert (tmp_path / f"other-{name}").read_text() == "kept\n", name
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
