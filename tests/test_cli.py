from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcache import read_bundle
from flowcache.calibration import BUNDLE_KEYS
from flowcache.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from flowcache.verify import SuiteResult

from conftest import GMM_COMPONENTS

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

    def test_truncated_mode(self, tmp_path):
        config = _write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "trunc"
        code = main(["sample", "--config", str(config), "--out", str(out), "--mode", "truncated", "--truncate-to", "13"])
        assert code == EXIT_OK
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

    def test_cached_mode_requires_bundle(self, tmp_path):
        config = _write_config(tmp_path, GMM_CONFIG)
        assert main(["sample", "--config", str(config), "--out", str(tmp_path / "x"), "--mode", "cached"]) == EXIT_CONFIG

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

    def test_omitted_cases_take_the_suite_default(self, monkeypatch):
        import flowcache.verify as verify_module

        seen = []
        monkeypatch.setattr(verify_module, "suite_povd", lambda **kwargs: seen.append(kwargs) or SuiteResult("povd", 1))
        verify_module.run_suite("povd")
        verify_module.run_suite("povd", cases=7)
        assert seen == [{}, {"cases": 7}]

    def test_cases_rejected_for_the_exactness_suite(self, capsys):
        assert main(["verify", "--suite", "exactness", "--cases", "50"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--cases" in captured.err
        assert "PASS" not in captured.out

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

    def test_failure_exit_code(self, monkeypatch):
        import flowcache.cli as cli_module

        def fake_suite(name, cases=None, seed=None, audit_path=None):
            return SuiteResult(name=name, cases=1, failures=["draw 0 (seed 1): synthetic failure"])

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
        runs, calibrations = [], []
        originals = {"_full_kernel": sys.modules["flowcache.solver"]._full_kernel}
        originals["calibrate"] = sys.modules["flowcache.calibration"].calibrate

        def full_kernel(field, grid, x0, conditions):
            # one entry per trajectory: the grid it runs on and its start state
            runs.extend((grid.times.tobytes(), row.tobytes()) for row in x0)
            return originals["_full_kernel"](field, grid, x0, conditions)

        def calibrate(*args, **kwargs):
            calibrations.append(1)
            return originals["calibrate"](*args, **kwargs)

        # patch every flowcache module that imported the function by name
        for attr, counted in (("_full_kernel", full_kernel), ("calibrate", calibrate)):
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
        assert len(set(runs)) == 14
        assert len(calibrations) == 1

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
        out = tmp_path / "curves"
        assert main(["curves", "--bundle", str(cal_out / "bundle.json"), "--out", str(out)]) == EXIT_OK
        rows = _read_rows(out / "curves.csv")
        assert len(rows) == 30
        assert list(rows[0].keys()) == ["n", "t", "k_tilde", "d_tilde", "k_std", "d_std"]

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
        out = tmp_path / "curves"
        assert main(["curves", "--bundle", str(cal_out / "bundle.json"), "--out", str(out)]) == EXIT_OK
        rows = _read_rows(out / "curves.csv")
        k_values = np.array([float(r["k_tilde"]) for r in rows])
        np.testing.assert_allclose(k_values, k_values[0], rtol=1e-12)  # constant nonzero column
        assert np.all(k_values > 0.0)
        assert all(float(r["d_tilde"]) <= 1e-10 for r in rows)

    def test_unreadable_bundle_errors(self, tmp_path):
        assert main(["curves", "--bundle", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_overlapping_seeds_rejected(self, tmp_path):
        bad = dict(CONSTANT_CONFIG, evaluation_seeds=[1])
        config = _write_config(tmp_path, bad)
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

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
        assert "h: schedule entry at step 0 is not an integer" in capsys.readouterr().err
        assert main(["curves", "--bundle", str(bundle), "--out", str(tmp_path / "c")]) == EXIT_CONFIG

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
        assert f"key {key!r}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, key",
        [
            ({"kind": "constant", "dimension": None, "target": [1.0, -1.0]}, "field.dimension"),
            ({"kind": "constant", "dimension": 2, "target": 5}, "field.target"),
            ({"kind": "constant", "dimension": 2, "target": [1.0, "x"]}, "field.target"),
            ({"kind": 5, "dimension": 2, "target": [1.0, -1.0]}, "field.kind"),
            ({"kind": "magnitude-decay", "dimension": 2, "target": [1.0, -1.0], "rate": "0.1"}, "field.rate"),
            ({"kind": "rotation", "dimension": 2, "target": [1.0, -1.0], "rate": 0.1, "plane": [0]}, "field.plane"),
            (dict(GMM_CONFIG["field"], components=[5]), "field.components[0]"),
            (
                dict(GMM_CONFIG["field"], components=[dict(GMM_CONFIG["field"]["components"][0], mean=[None, 0.0, 0.0])]),
                "field.components[0].mean",
            ),
            (
                dict(GMM_CONFIG["field"], components=[GMM_CONFIG["field"]["components"][0], {"weight": "0.4"}]),
                "field.components[1].weight",
            ),
        ],
        ids=["dimension", "target", "target-entry", "kind", "rate", "plane", "component", "mean", "weight"],
    )
    def test_malformed_field_value_rejected(self, tmp_path, capsys, field, key):
        config = _write_config(tmp_path, dict(CONSTANT_CONFIG, field=field))
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"key {key!r}: expected" in capsys.readouterr().err

    def test_manifest_config_not_an_object_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"config": 5, "subcommand": "calibrate"})
        assert main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

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

    def test_unknown_bundle_key_rejected(self, tmp_path, capsys):
        config, bundle = self._calibrate_constant(tmp_path)
        bundle.write_text(json.dumps(dict(json.loads(bundle.read_text()), colour=1)))
        capsys.readouterr()
        assert self._sample_cached(tmp_path, config, bundle) == EXIT_CONFIG
        assert "colour: unknown key" in capsys.readouterr().err
        assert main(["curves", "--bundle", str(bundle), "--out", str(tmp_path / "c")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, extra, key",
        [
            ("bench", {"sweep_taus": 5}, "sweep_taus"),
            ("bench", {"sweep_taus": [[-1, 0.3]]}, "sweep_taus"),
            ("bench", {"sweep_taus": [[0.1]]}, "sweep_taus"),
            ("bench", {"sweep_taus": [["a", 0.3]]}, "sweep_taus"),
            ("bench", {"ablation": "no"}, "ablation"),
            ("sample", {"mode": "truncated", "truncate_to": "x"}, "truncate_to"),
            ("sample", {"mode": "truncated", "truncate_to": 0}, "truncate_to"),
            ("sample", {"mode": 5}, "mode"),
            ("sample", {"mode": "cached", "bundle": 5}, "bundle"),
        ],
        ids=[
            "sweep-int", "sweep-negative", "sweep-half-pair", "sweep-string", "ablation", "truncate_to", "truncate_to-0",
            "mode", "bundle",
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


# A value that stands for "drop the key" among the mutations below.
_DROP = object()
# The keys the property test mutates: the top level (experiment and subcommand keys) and the field's.
_BOUNDARY_CONFIG = dict(
    README_CONFIG,
    n_steps=5,
    mode="full",
    truncate_to=3,
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
        for argv in (
            ["sample", "--config", str(config), "--out", str(out / "s"), "--mode", "cached", "--bundle", str(bundle)],
            ["curves", "--bundle", str(bundle), "--out", str(out / "c")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == EXIT_OK or (code == EXIT_CONFIG and key in err.getvalue()), (argv[0], code, err.getvalue())

    @pytest.mark.parametrize(
        "key, named",
        [("k_tilde", "k_tilde: exp(k_tilde * dt) overflows at step 1"), ("d_tilde", "left the finite range at step 4")],
    )
    def test_a_huge_indicator_entry_is_named(self, tmp_path, boundary_bundle, key, named):
        # one finite entry of 1e308 on a reconstructed step; k_tilde has a range rule, d_tilde has none, as
        # d_tilde * |v| overflows only together with |v|, so the walk names the step where the state leaves the range
        config, valid = boundary_bundle
        payload = dict(valid, h=[5, 4, 3, 2, 1], **{key: [1e308 if i == 1 else v for i, v in enumerate(valid[key])]})
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
