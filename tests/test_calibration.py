from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcache import (
    BundleFormatError,
    Condition,
    FieldSpec,
    IndicatorTable,
    InvalidArgumentError,
    NumericDomainError,
    ScheduleBundle,
    VelocityField,
    build_schedule,
    calibrate,
    field_digest,
    make_uniform_grid,
    read_bundle,
    sample_cached,
    write_bundle,
)
from flowcache import calibration
from flowcache.calibration import BUNDLE_FORMAT, BUNDLE_KEYS, bundles_equal, write_indicator_csv
from flowcache.decomposition import _accel_rows, _decompose_rows
from flowcache.errors import FieldError
from flowcache.fields import initial_state
from flowcache.solver import sample_full

from test_kernels import KERNEL_FIELDS, _mixture, ref_split


BUNDLE_COLUMNS = ("times", "k_tilde", "d_tilde", "h")
# The per-step spreads a tacache-bundle/1 document also holds, after d_tilde.
SPREADS = ("k_std", "d_std")


def version_1(document, k_std=None, d_std=None):
    """The tacache-bundle/1 form of the /2 bundle ``document``: ``k_std`` and ``d_std`` columns (zeros where not
    given) after ``d_tilde``, in the /1 writer's key order."""
    columns = [[0.0] * document["n_steps"] if column is None else list(column) for column in (k_std, d_std)]
    items = list(document.items())
    at = list(document).index("d_tilde") + 1
    spreads = list(zip(SPREADS, columns))
    return dict(items[:at] + spreads + items[at:], format_version="tacache-bundle/1")


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

    def test_hold_last_boundary_entry(self, gmm_spec):
        ind = calibrate(VelocityField(gmm_spec), make_uniform_grid(8), [Condition(3)])
        assert ind.k_tilde[-1] == ind.k_tilde[-2]
        assert ind.d_tilde[-1] == ind.d_tilde[-2]

    def test_empty_conditions_rejected(self, gmm_spec):
        with pytest.raises(InvalidArgumentError):
            calibrate(VelocityField(gmm_spec), make_uniform_grid(5), [])

    def test_cross_sample_stability_probe(self, gmm_spec):
        # coefficient of variation finite, and steps never jump by more than
        # a multiple of the curve's typical level; the spread is that of the
        # per-seed decomposition rows the table averages
        vf = VelocityField(gmm_spec)
        grid, conditions = make_uniform_grid(50), [Condition(s) for s in range(1000, 1030)]
        ind = calibrate(vf, grid, conditions)
        rows = _per_seed_rows(vf, grid, conditions)
        _assert_curves(ind, _reference_curves(vf, grid, conditions))
        d = ind.d_tilde[:-1]  # estimated region, boundary entry excluded
        assert np.all(d > 0)
        cov = rows[1].std(axis=0, ddof=1) / d
        assert np.isfinite(cov).all()
        second = np.abs(np.diff(d, 2))
        assert second.max() <= 5.0 * np.median(d)

    def test_indicator_tables_stabilize_with_set_size(self, gmm_spec):
        vf = VelocityField(gmm_spec)
        grid = make_uniform_grid(50)
        small_seeds = [Condition(s) for s in range(1000, 1006)]
        small = calibrate(vf, grid, small_seeds)
        large = calibrate(vf, grid, [Condition(s) for s in range(3000, 3060)])
        _assert_curves(small, _reference_curves(vf, grid, small_seeds))
        # the standard error of each step's mean, from the spread of the per-seed rows the table averages
        se_k, se_d = _per_seed_rows(vf, grid, small_seeds).std(axis=1, ddof=1) / np.sqrt(small.sample_count)
        assert np.all(np.abs(small.k_tilde[:-1] - large.k_tilde[:-1]) < 4.0 * se_k)
        assert np.all(np.abs(small.d_tilde[:-1] - large.d_tilde[:-1]) < 4.0 * se_d)


def _per_seed_rows(field, grid, conditions):
    """The (2, B, N - 1) per-seed ``k`` and ``d`` of each step with a look-ahead velocity, from per-seed
    ``sample_full`` records, each decomposed on its own."""
    n = grid.n_steps
    dt = grid.dt[:-1]
    rows = np.empty((2, len(conditions), max(n - 1, 0)))
    for i, condition in enumerate(conditions):
        v = sample_full(field, grid, initial_state(condition, field.dimension), condition).velocities
        rows[0, i], _, rows[1, i] = _decompose_rows(v[:-1], _accel_rows(v[:-1], v[1:], dt), dt)
    return rows


def _reference_curves(field, grid, conditions):
    """``(k_tilde, d_tilde)``: the means of ``_per_seed_rows``, the final step holding the last."""
    n = grid.n_steps
    curves = np.zeros((2, n))
    if n > 1:
        curves[:, : n - 1] = _per_seed_rows(field, grid, conditions).mean(axis=1)
        curves[:, n - 1] = curves[:, n - 2]
    return curves


def _assert_curves(table, curves):
    for name, want in zip(("k_tilde", "d_tilde"), curves, strict=True):
        assert np.array_equal(getattr(table, name), want), name


# Steps a test window holds. A window of 4 steps decomposes the pairs of steps
# 0-3, and its last step opens the next one: 4 and 7 steps fill one and two
# windows exactly, while 3, 5 and 8 end a step short of or past an edge.
WINDOW_STEPS = 4


class TestStreamedCalibration:
    """One record-free walk for every seed; its velocity pairs are decomposed window by window."""

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_indicators_equal_per_run_decomposition(self, monkeypatch, name, batch, n_steps):
        field = VelocityField(KERNEL_FIELDS[name][0])
        monkeypatch.setattr(calibration, "_WINDOW_BYTES", WINDOW_STEPS * 8 * batch * field.dimension)
        grid = make_uniform_grid(n_steps)
        conditions = [Condition(seed) for seed in range(500, 500 + batch)]
        table = calibrate(field, grid, conditions)
        assert field.evaluations == n_steps  # one oracle call per step for every seed
        _assert_curves(table, _reference_curves(field, grid, conditions))

    def test_default_window_at_dim_1024(self):
        # 16 seeds of dim 1024 fill the default window in two steps, so each pass decomposes one pair
        field = VelocityField(_mixture(1024, 4, 3))
        conditions = [Condition(seed) for seed in range(600, 616)]
        assert calibration._WINDOW_BYTES // (8 * len(conditions) * field.dimension) == 2
        grid = make_uniform_grid(12)
        table = calibrate(field, grid, conditions)
        assert field.evaluations == grid.n_steps
        _assert_curves(table, _reference_curves(field, grid, conditions))

    def test_non_finite_oracle_row_named(self, monkeypatch):
        # rows right of the origin get a NaN velocity from step 5 on; the others stay finite
        field = VelocityField(FieldSpec(kind="constant", dimension=2, target=(0.0, 1.0)))
        grid = make_uniform_grid(10)
        bad_t = float(grid.times[5])

        def velocity(state, t):
            return np.where((state[..., :1] > 0.0) & (t <= bad_t), np.nan, 0.0) + np.array([0.0, 1.0])

        monkeypatch.setattr(field, "_velocity", velocity)
        conditions = [Condition(seed) for seed in range(700, 708)]
        starts = [initial_state(c, 2) for c in conditions]
        bad = next(i for i, x in enumerate(starts) if x[0] > 0.0)
        assert any(x[0] <= 0.0 for x in starts)
        with pytest.raises(NumericDomainError) as single:
            sample_full(field, grid, starts[bad], conditions[bad])
        assert "oracle returned a non-finite velocity at step 5 (" in str(single.value)
        with pytest.raises(NumericDomainError) as batched:
            calibrate(field, grid, conditions)
        assert str(batched.value) == str(single.value)

    def test_overflowing_row_named(self, monkeypatch):
        # one start far out on the first axis overflows at step 8 of 10, with finite velocities all along
        field = VelocityField(FieldSpec(kind="constant", dimension=2, target=(-1e308, 0.0)))
        grid = make_uniform_grid(10)
        far = Condition(2)

        def start(condition, dimension):
            return np.array([1e308, 0.0]) if condition == far else initial_state(condition, dimension)

        monkeypatch.setattr(calibration, "initial_state", start)
        conditions = [Condition(1), far, Condition(3)]
        with pytest.raises(NumericDomainError) as single:
            sample_full(field, grid, np.array([1e308, 0.0]), far)
        assert "the trajectory left the finite range at step 8 (" in str(single.value)
        # windows of the run's huge velocities are decomposed before the walk ends, with no warning and no
        # floating-point error, whatever the caller's floating-point state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                with pytest.raises(NumericDomainError) as batched:
                    calibrate(field, grid, conditions)
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("target, tolerance", [(2.0**600, 0.0), (1e200, 1e-12)], ids=["2**600", "1e200"])
    def test_huge_speeds_calibrate_as_unit_speed(self, target, tolerance):
        # k and d are scale-invariant; v.v overflows past about 1.3e154, and the overflowing rows are split
        # again scaled by a power of two, so a power-of-two speed changes no bit
        grid = make_uniform_grid(10)
        conditions = [Condition(seed) for seed in (1, 2, 3)]

        def table(speed):
            spec = FieldSpec(kind="rotation", dimension=2, target=(speed, 0.0), rate=2.0, plane=(0, 1))
            return calibrate(VelocityField(spec), grid, conditions)

        unit = table(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                huge = table(target)
        for name in ("k_tilde", "d_tilde"):
            np.testing.assert_allclose(getattr(huge, name), getattr(unit, name), rtol=0.0, atol=tolerance)


class TestIndicatorTable:
    def test_negative_direction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IndicatorTable(np.zeros(3), np.array([0.0, -0.1, 0.0]), 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IndicatorTable(np.zeros(3), np.zeros(2), 1)

    def test_a_column_of_another_length_is_named(self):
        with pytest.raises(FieldError, match=r"^d_tilde: must be 1-d and as long as k_tilde, got shape \(3,\)$"):
            IndicatorTable(np.zeros(4), np.zeros(3), sample_count=1)

    def test_a_column_that_is_not_1d_is_named(self):
        with pytest.raises(FieldError, match=r"^k_tilde: must be 1-d and as long as k_tilde, got shape \(2, 2\)$"):
            IndicatorTable(np.zeros((2, 2)), np.zeros(4), 1)

    @pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
    def test_a_sample_count_that_is_not_an_integer_is_named(self, bad):
        with pytest.raises(FieldError, match=rf"^sample_count: must be an integer, got {bad!r}$"):
            IndicatorTable(np.zeros(3), np.zeros(3), bad)

    @pytest.mark.parametrize("column", ["k_tilde", "d_tilde"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_named(self, column, bad):
        columns = {name: np.zeros(4) for name in ("k_tilde", "d_tilde")}
        columns[column][2] = bad
        with pytest.raises(FieldError, match=rf"^{column}: entry 2 is not finite: {bad!r}$"):
            IndicatorTable(**columns, sample_count=1)


class TestBundleRoundTrip:
    def test_roundtrip_identity(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert bundles_equal(bundle, loaded)

    def test_the_writer_emits_the_table_keys_in_order(self, tmp_path, gmm_spec):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        document = json.loads(path.read_text())
        assert list(document) == list(BUNDLE_KEYS) and len(BUNDLE_KEYS) == 13
        assert document["format_version"] == BUNDLE_FORMAT == "tacache-bundle/2"

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
        entry_kind = "an integer" if column == "h" else "a finite number"
        with pytest.raises(BundleFormatError, match=f"^{column}: entry 1 is not {entry_kind}: "):
            read_bundle(path)

    def test_fractional_schedule_entry_rejected(self, tmp_path, gmm_spec):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        data = json.loads(path.read_text())
        data["h"][0] = 1.5
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match=r"^h: entry 0 is not an integer: 1\.5$"):
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
        reason = r"entry 0 is not an integer: 1\.5$" if bad == [1.5] else "expected "
        with pytest.raises(BundleFormatError, match=f"^{key}: {reason}"):
            read_bundle(path)

    @pytest.mark.parametrize("version", ["tacache-bundle/3", "tacache-bundle/0", "", None, ["tacache-bundle/2"], 2])
    def test_an_unknown_version_is_named(self, tmp_path, gmm_spec, version):
        bundle = _gmm_bundle(gmm_spec)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        data = json.loads(path.read_text())
        data["format_version"] = version
        path.write_text(json.dumps(data))
        reason = f"expected one of 'tacache-bundle/2', 'tacache-bundle/1', got {version!r}"
        with pytest.raises(BundleFormatError, match=f"^format_version: {re.escape(reason)}$"):
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

    @pytest.mark.parametrize("bad", ["stub", "A" * 64, "0" * 63, "0" * 65, "0" * 63 + "g", "0" * 64 + "\n"])
    def test_field_digest_form_named(self, tmp_path, gmm_spec, bad):
        path = tmp_path / "bundle.json"
        write_bundle(_gmm_bundle(gmm_spec), path)
        data = json.loads(path.read_text())
        data["field_digest"] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(BundleFormatError, match="^field_digest: expected 64 lowercase hex characters"):
            read_bundle(path)

    def test_a_document_that_is_not_an_object_is_named(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("[1, 2]")
        with pytest.raises(BundleFormatError, match="^document: expected a JSON object$"):
            read_bundle(path)

    @pytest.mark.parametrize("digest", ["0" * 64, "0123456789abcdef" * 4])
    def test_a_bundle_built_in_python_round_trips(self, tmp_path, gmm_spec, digest):
        # the constructor holds the digest rule, so every bundle it builds is one read_bundle accepts
        bundle = replace(_gmm_bundle(gmm_spec, n_steps=6), field_digest=digest)
        write_bundle(bundle, tmp_path / "bundle.json")
        assert bundles_equal(read_bundle(tmp_path / "bundle.json"), bundle)

    def test_floats_preserved_exactly(self, tmp_path, gmm_spec):
        bundle = _gmm_bundle(gmm_spec, n_steps=30, seeds=(5, 6, 7, 8))
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        np.testing.assert_array_equal(loaded.indicators.k_tilde, bundle.indicators.k_tilde)
        np.testing.assert_array_equal(loaded.indicators.d_tilde, bundle.indicators.d_tilde)
        np.testing.assert_array_equal(loaded.grid.times, bundle.grid.times)


class TestVersion1Reader:
    """A tacache-bundle/1 document: its ``k_std`` and ``d_std`` columns pass the column rule and are then ignored."""

    def _documents(self, tmp_path, gmm_spec, **spreads):
        """The bundle, its written /2 document and the /1 form of that document."""
        bundle = _gmm_bundle(gmm_spec)
        write_bundle(bundle, tmp_path / "bundle.json")
        document = json.loads((tmp_path / "bundle.json").read_text())
        return bundle, document, version_1(document, **spreads)

    def _read(self, tmp_path, document):
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        return read_bundle(path)

    def test_a_version_1_bundle_reads_and_samples_as_its_version_2_bundle(self, tmp_path, gmm_spec):
        rng = np.random.default_rng(5)
        bundle, _, document = self._documents(tmp_path, gmm_spec, k_std=rng.uniform(0, 2, 20), d_std=[0.5] * 20)
        assert list(document)[5:7] == list(SPREADS) and len(document) == len(BUNDLE_KEYS) + 2
        loaded = self._read(tmp_path, document)
        assert bundles_equal(loaded, bundle) and bundles_equal(loaded, read_bundle(tmp_path / "bundle.json"))
        field = VelocityField(gmm_spec)
        for seed in (7, 8):
            condition = Condition(seed)
            x0 = initial_state(condition, 3)
            want, got = (sample_cached(field, b, x0, condition) for b in (bundle, loaded))
            assert np.array_equal(got.states, want.states) and np.array_equal(got.velocities, want.velocities)
            assert np.array_equal(got.evaluated, want.evaluated)

    def test_a_rewritten_version_1_bundle_is_version_2(self, tmp_path, gmm_spec):
        _, written, document = self._documents(tmp_path, gmm_spec)
        write_bundle(self._read(tmp_path, document), tmp_path / "rewritten.json")
        assert json.loads((tmp_path / "rewritten.json").read_text()) == written

    @pytest.mark.parametrize("column", SPREADS)
    @pytest.mark.parametrize(
        "fault, reason",
        [
            ("missing", "missing field"),
            ("short", "length mismatch: expected 20 entries to match n_steps, got 19"),
            ("long", "length mismatch: expected 20 entries to match n_steps, got 21"),
            ("not a list", "expected a list of finite numbers, got 5"),
            ("string entry", "entry 1 is not a finite number: '0.5'"),
            ("bool entry", "entry 1 is not a finite number: True"),
            ("null entry", "entry 1 is not a finite number: None"),
            ("nan entry", "entry 1 is not a finite number: nan"),
            ("inf entry", "entry 1 is not a finite number: inf"),
        ],
    )
    def test_a_bad_spread_column_is_named(self, tmp_path, gmm_spec, column, fault, reason):
        _, _, document = self._documents(tmp_path, gmm_spec)
        values = document[column]
        if fault == "missing":
            del document[column]
        elif fault in ("short", "long"):
            document[column] = values[:-1] if fault == "short" else values + [0.0]
        elif fault == "not a list":
            document[column] = 5
        else:
            values[1] = {"string": "0.5", "bool": True, "null": None, "nan": math.nan, "inf": math.inf}[fault.split()[0]]
        with pytest.raises(BundleFormatError, match=f"^{column}: {re.escape(reason)}$"):
            self._read(tmp_path, document)

    def test_negative_spreads_are_read(self, tmp_path, gmm_spec):
        # the /1 reader held no range rule on the spreads beyond finiteness
        bundle, _, document = self._documents(tmp_path, gmm_spec, k_std=[-1.0] * 20, d_std=[-2.5] * 20)
        assert bundles_equal(self._read(tmp_path, document), bundle)

    @pytest.mark.parametrize("column", SPREADS)
    def test_a_version_2_bundle_with_a_spread_is_an_unknown_key(self, tmp_path, gmm_spec, column):
        _, written, document = self._documents(tmp_path, gmm_spec)
        with pytest.raises(BundleFormatError, match=f"^{column}: unknown key; expected one of "):
            self._read(tmp_path, dict(written, **{column: document[column]}))

    def test_a_version_1_bundle_keeps_the_other_rules(self, tmp_path, gmm_spec):
        _, _, document = self._documents(tmp_path, gmm_spec)
        with pytest.raises(BundleFormatError, match="^d_tilde: entries must be non-negative$"):
            self._read(tmp_path, dict(document, d_tilde=[-1.0] * 20))
        with pytest.raises(BundleFormatError, match="^extra: unknown key; expected one of "):
            self._read(tmp_path, dict(document, extra=1))


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
                field_digest="0" * 64,  # a well-formed digest, so the schedule is the only fault
                seeds=(0,),
            )

    def test_a_schedule_entry_past_64_bits_is_named(self, gmm_spec):
        # the range rule runs before the int conversion, so it names the entry rather than overflowing
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        with pytest.raises(FieldError, match=rf"^schedule: schedule entry out of range at step 0: h={2**70}$"):
            replace(bundle, schedule=[2**70, *bundle.schedule[1:]])

    @pytest.mark.parametrize("entry", [1.5, True, np.True_], ids=repr)
    def test_a_schedule_entry_that_is_not_an_integer_is_named(self, gmm_spec, entry):
        # the constructor keeps read_bundle's integer rule rather than truncating 1.5 to 1
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        with pytest.raises(FieldError, match=rf"^schedule: entry 0 is not an integer: {re.escape(repr(entry))}$"):
            replace(bundle, schedule=[entry, 1.9, 1, 1, 1, 1], h_max=3)

    def test_numpy_integer_and_integral_float_entries_are_kept(self, gmm_spec):
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        for schedule in (bundle.schedule, np.ones(6, dtype=np.int32), [1.0, 2, 1, 1, 1, 1]):
            np.testing.assert_array_equal(replace(bundle, schedule=schedule).schedule, schedule)

    @pytest.mark.parametrize("bad", ["stub", "A" * 64, "0" * 63, "0" * 65, "0" * 63 + "g", "0" * 64 + "\n"])
    def test_a_malformed_digest_is_named(self, gmm_spec, bad):
        with pytest.raises(FieldError, match="^field_digest: expected 64 lowercase hex characters, got "):
            replace(_gmm_bundle(gmm_spec, n_steps=6), field_digest=bad)

    def test_indicators_of_another_length_are_named(self, gmm_spec):
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        with pytest.raises(FieldError, match=r"^indicators: cover 5 steps, grid has 6$"):
            replace(bundle, indicators=_gmm_bundle(gmm_spec, n_steps=5).indicators)

    def test_a_schedule_of_another_length_is_named(self, gmm_spec):
        bundle = _gmm_bundle(gmm_spec, n_steps=6)
        with pytest.raises(FieldError, match=r"^schedule: must have 6 entries, got shape \(5,\)$"):
            replace(bundle, schedule=bundle.schedule[:-1])

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
        for k in (rejected, 1e308):
            with pytest.raises(FieldError, match=r"^k_tilde: exp\(k_tilde \* dt\) overflows at step 3"):
                with_entry(k)
        with pytest.raises(FieldError, match=r"^k_tilde: entry 3 is not finite: inf$"):  # the table's own rule
            with_entry(np.inf)

def test_indicator_csv_shape(tmp_path, gmm_spec):
    bundle = _gmm_bundle(gmm_spec, n_steps=15)
    path = tmp_path / "curves.csv"
    write_indicator_csv(bundle.grid, bundle.indicators, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    assert list(rows[0].keys()) == ["n", "t", "k_tilde", "d_tilde"]
    assert float(rows[0]["t"]) == 1.0
