from __future__ import annotations

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from flowcache import (
    BundleFormatError,
    Condition,
    IndicatorTable,
    InvalidArgumentError,
    ScheduleBundle,
    VelocityField,
    build_schedule,
    calibrate,
    field_digest,
    make_uniform_grid,
    read_bundle,
    write_bundle,
)
from flowcache.calibration import bundles_equal, write_indicator_csv
from flowcache.errors import FieldError
from flowcache.fields import initial_state
from flowcache.solver import sample_full

from test_kernels import ref_split


BUNDLE_COLUMNS = ("times", "k_tilde", "d_tilde", "k_std", "d_std", "h")


def _gmm_bundle(gmm_spec, n_steps=20, seeds=(1, 2, 3), tau_k=0.06, tau_d=0.6, h_max=12):
    vf = VelocityField(gmm_spec)
    grid = make_uniform_grid(n_steps)
    indicators = calibrate(vf, grid, [Condition(s) for s in seeds])
    schedule = build_schedule(indicators, grid, tau_k, tau_d, h_max)
    return ScheduleBundle(
        grid=grid,
        indicators=indicators,
        schedule=schedule,
        tau_k=tau_k,
        tau_d=tau_d,
        h_max=h_max,
        field_digest=field_digest(gmm_spec),
        seeds=tuple(seeds),
    )


def _own_splits(record):
    """``(k, r_perp, d)`` of each step of a full record with its look-ahead velocity, by the reference split."""
    v, dt = record.velocities, record.grid.dt
    return [ref_split(v[i], (v[i + 1] - v[i]) / dt[i], dt[i]) for i in range(len(v) - 1)]


class TestCalibrate:
    def test_constant_field_all_zero(self, constant_spec):
        vf = VelocityField(constant_spec)
        ind = calibrate(vf, make_uniform_grid(10), [Condition(s) for s in range(5)])
        np.testing.assert_array_equal(ind.k_tilde, np.zeros(10))
        np.testing.assert_array_equal(ind.d_tilde, np.zeros(10))
        np.testing.assert_array_equal(ind.k_std, np.zeros(10))
        assert ind.sample_count == 5

    def test_decay_field_matches_per_sample(self, decay_spec):
        vf = VelocityField(decay_spec)
        grid = make_uniform_grid(25)
        conditions = [Condition(s) for s in range(4)]
        ind = calibrate(vf, grid, conditions)
        record = sample_full(vf, grid, initial_state(conditions[0], 2), conditions[0])
        per_sample_k = [k for k, _, _ in _own_splits(record)]
        np.testing.assert_allclose(ind.k_tilde[:-1], per_sample_k, atol=1e-12)
        np.testing.assert_allclose(ind.k_tilde, ind.k_tilde[0], rtol=1e-12)  # constant across steps
        np.testing.assert_allclose(ind.d_tilde, np.zeros(25), atol=1e-10)

    def test_single_condition_equals_own_scalars(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        grid = make_uniform_grid(12)
        condition = Condition(77)
        ind = calibrate(vf, grid, [condition])
        record = sample_full(vf, grid, initial_state(condition, 3), condition)
        splits = _own_splits(record)
        np.testing.assert_array_equal(ind.k_tilde[:-1], [k for k, _, _ in splits])
        np.testing.assert_array_equal(ind.d_tilde[:-1], [d for _, _, d in splits])
        np.testing.assert_array_equal(ind.k_std, np.zeros(12))

    def test_hold_last_boundary_entry(self, gmm_spec):
        ind = calibrate(VelocityField(gmm_spec), make_uniform_grid(8), [Condition(3)])
        assert ind.k_tilde[-1] == ind.k_tilde[-2]
        assert ind.d_tilde[-1] == ind.d_tilde[-2]

    def test_empty_conditions_rejected(self, gmm_spec):
        with pytest.raises(InvalidArgumentError):
            calibrate(VelocityField(gmm_spec), make_uniform_grid(5), [])

    def test_cross_sample_stability_probe(self, gmm_spec):
        # coefficient of variation finite, and steps never jump by more than
        # a multiple of the curve's typical level
        vf = VelocityField(gmm_spec)
        ind = calibrate(vf, make_uniform_grid(50), [Condition(s) for s in range(1000, 1030)])
        d = ind.d_tilde[:-1]  # estimated region, boundary entry excluded
        assert np.all(d > 0)
        cov = ind.d_std[:-1] / d
        assert np.isfinite(cov).all()
        second = np.abs(np.diff(d, 2))
        assert second.max() <= 5.0 * np.median(d)

    def test_indicator_tables_stabilize_with_set_size(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        grid = make_uniform_grid(50)
        small = calibrate(vf, grid, [Condition(s) for s in range(1000, 1006)])
        large = calibrate(vf, grid, [Condition(s) for s in range(3000, 3060)])
        se_k = small.k_std / np.sqrt(small.sample_count)
        se_d = small.d_std / np.sqrt(small.sample_count)
        assert np.all(np.abs(small.k_tilde - large.k_tilde) < 4.0 * se_k)
        assert np.all(np.abs(small.d_tilde - large.d_tilde) < 4.0 * se_d)


class TestIndicatorTable:
    def test_negative_direction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IndicatorTable(np.zeros(3), np.array([0.0, -0.1, 0.0]), np.zeros(3), np.zeros(3), 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IndicatorTable(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3), 1)


class TestBundleRoundTrip:
    def test_roundtrip_identity(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert bundles_equal(bundle, loaded)

    def test_reschedule_reproduces_stored_schedule(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        rebuilt = build_schedule(loaded.indicators, loaded.grid, loaded.tau_k, loaded.tau_d, loaded.h_max)
        np.testing.assert_array_equal(rebuilt, loaded.schedule)

    def test_schedule_out_of_range_rejected(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        data = json.loads(path.read_text())
        data["h"][0] = 0
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match="schedule entry out of range"):
            read_bundle(path)

    def test_length_mismatch_names_field(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        data = json.loads(path.read_text())
        data["k_tilde"] = data["k_tilde"][:-1]
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match="k_tilde"):
            read_bundle(path)

    @pytest.mark.parametrize("column", BUNDLE_COLUMNS)
    def test_column_not_a_list_named(self, tmp_path, gmm_spec, column):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        data = json.loads(path.read_text())
        data[column] = 5
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match=f"^{column}: expected a list"):
            read_bundle(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.5", True, None])
    @pytest.mark.parametrize("column", BUNDLE_COLUMNS)
    def test_non_finite_entry_named(self, tmp_path, gmm_spec, column, bad):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        data = json.loads(path.read_text())
        data[column][1] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match=f"^{column}: entry 1 is not a finite number"):
            read_bundle(path)

    def test_fractional_schedule_entry_rejected(self, tmp_path, gmm_spec):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        data = json.loads(path.read_text())
        data["h"][0] = 1.5
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match="^h: schedule entry at step 0 is not an integer"):
            read_bundle(path)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("n_steps", None),
            ("n_steps", 20.5),
            ("tau_k", "x"),
            ("tau_d", True),
            ("h_max", "3"),
            ("sample_count", [1]),
            ("seeds", 5),
            ("seeds", [1.5]),
            ("field_digest", 5),
            ("created_by", None),
        ],
    )
    def test_malformed_scalar_named(self, tmp_path, gmm_spec, key, bad):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        data = json.loads(path.read_text())
        data[key] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match=f"^{key}: expected "):
            read_bundle(path)

    def test_version_mismatch_rejected(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        data = json.loads(path.read_text())
        data["format_version"] = "tacache-bundle/2"
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match="format_version"):
            read_bundle(path)

    def test_missing_field_named(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        data = json.loads(path.read_text())
        del data["tau_k"]
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match="tau_k"):
            read_bundle(path)

    def test_floats_preserved_exactly(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec, n_steps=30, seeds=(5, 6, 7, 8))
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        np.testing.assert_array_equal(loaded.indicators.k_tilde, bundle.indicators.k_tilde)
        np.testing.assert_array_equal(loaded.indicators.d_tilde, bundle.indicators.d_tilde)
        np.testing.assert_array_equal(loaded.grid.times, bundle.grid.times)


class TestScheduleBundleValidation:
    def test_out_of_range_schedule_rejected(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        grid = make_uniform_grid(6)
        ind = calibrate(vf, grid, [Condition(0)])
        with pytest.raises(InvalidArgumentError, match="out of range"):
            ScheduleBundle(
                grid=grid,
                indicators=ind,
                schedule=np.full(6, 13, dtype=int),
                tau_k=0.1,
                tau_d=0.1,
                h_max=12,
                field_digest="x",
                seeds=(0,),
            )

    @pytest.mark.parametrize("taus", [(math.nan, 0.1), (0.1, math.nan), (-0.1, 0.1)], ids=["nan-k", "nan-d", "negative-k"])
    def test_bad_thresholds_rejected(self, gmm_spec, taus):
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        with pytest.raises(InvalidArgumentError, match="thresholds must be non-negative"):
            replace(bundle, tau_k=taus[0], tau_d=taus[1])

    def test_growth_factor_overflow_rejected_at_its_edge(self, gmm_spec):
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        dt, log_max = float(bundle.grid.dt[3]), math.log(np.finfo(float).max)
        accepted = log_max / dt  # the largest step-3 entry whose growth factor is finite, then the next float up
        while accepted * dt > log_max:
            accepted = np.nextafter(accepted, 0.0)
        rejected = np.nextafter(accepted, np.inf)
        with np.errstate(over="ignore"):
            assert np.isfinite(np.exp(accepted * dt)) and np.isinf(np.exp(rejected * dt))

        def with_entry(k):
            return replace(bundle, indicators=replace(bundle.indicators, k_tilde=np.where(np.arange(6) == 3, k, 0.0)))

        with_entry(accepted)
        for k in (rejected, 1e308, np.inf):
            with pytest.raises(FieldError, match=r"^k_tilde: exp\(k_tilde \* dt\) overflows at step 3"):
                with_entry(k)

def test_indicator_csv_shape(tmp_path, gmm_spec):
    bundle = _gmm_bundle(gmm_spec, n_steps=15)
    path = tmp_path / "curves.csv"
    write_indicator_csv(bundle.grid, bundle.indicators, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    assert list(rows[0].keys()) == ["n", "t", "k_tilde", "d_tilde", "k_std", "d_std"]
    assert float(rows[0]["t"]) == 1.0
