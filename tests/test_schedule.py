from __future__ import annotations

import ast
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from flowcache import (
    DEFAULT_H_MAX,
    DEFAULT_TAU_D,
    DEFAULT_TAU_K,
    ExperimentConfig,
    InvalidArgumentError,
    build_schedule,
    calibrate,
    schedule_coverage,
)
from flowcache import calibration, schedule
from flowcache.calibration import IndicatorTable
from flowcache.diagnostics import make_bundle
from flowcache.fields import Condition, VelocityField
from flowcache.schedule import _stable_intervals, skip_intervals
from flowcache.solver import make_uniform_grid
from flowcache.verify import _brute_force_interval, suite_ssc

from test_kernels import KERNEL_FIELDS, _setup


class TestMaxStableInterval:
    def test_prefix_sum_example(self):
        assert _stable_intervals(np.array([0.1, 0.2, 0.3, 0.4]), 0.35, 12)[0] == 2

    def test_fallback_to_one(self):
        assert _stable_intervals(np.array([0.1, 0.2, 0.3, 0.4]), 0.05, 12)[0] == 1

    def test_h_max_cap_binds(self):
        assert _stable_intervals(np.zeros(10), 0.0, 4)[0] == 4

    def test_end_of_grid_cap(self):
        assert _stable_intervals(np.zeros(10), 1.0, 12)[8] == 2

    def test_tie_at_threshold_admits(self):
        assert _stable_intervals(np.array([0.2, 0.2, 0.2]), 0.4, 12)[0] == 2

    def test_sums_run_left_to_right_from_each_start(self):
        # from n = 1 the sums are 1, 2, 3; differences of prefix sums from
        # step 0 lose the ones against 1e16 and would admit h = 3
        z = np.array([1e16, 1.0, 1.0, 1.0])
        prefix = np.concatenate([[0.0], np.cumsum(z)])
        assert [h for h in (1, 2, 3) if prefix[1 + h] - prefix[1] <= 2.5] == [1, 2, 3]
        assert _stable_intervals(z, 2.5, 12)[1] == 2

    def test_exact_tie_thresholds_equal_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            size = int(rng.integers(1, 60))
            z = rng.uniform(0.0, 1.0, size=size)
            z[rng.random(size) < 0.2] = 0.0
            start = int(rng.integers(0, size))
            tau = 0.0
            for value in z[start : start + int(rng.integers(1, size - start + 1))]:
                tau += float(value)  # the threshold is an exact left-to-right sum
            h_max = int(rng.integers(1, 20))
            got = _stable_intervals(z, tau, h_max)
            assert got.tolist() == [_brute_force_interval(z, n, tau, h_max) for n in range(size)]

    def test_brute_force_equivalence(self):
        result = suite_ssc(cases=2000, seed=13)
        assert result.passed, result.failures[:3]

    def test_blocks_of_starts_equal_one_block(self, monkeypatch):
        rng = np.random.default_rng(43)
        cases = [(rng.uniform(0.0, 0.2, size=int(rng.integers(1, 60))), int(rng.integers(1, 20))) for _ in range(50)]
        whole = [_stable_intervals(z, 1.0, h_max) for z, h_max in cases]
        monkeypatch.setattr(schedule, "_WINDOW_ENTRIES", 7)
        for (z, h_max), want in zip(cases, whole):
            np.testing.assert_array_equal(_stable_intervals(z, 1.0, h_max), want)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            z = rng.uniform(0.0, 1.0, size=size)
            h_max = int(rng.integers(1, 14))
            tau_lo = float(rng.uniform(0.0, 2.0))
            tau_hi = tau_lo + float(rng.uniform(0.0, 2.0))
            assert (_stable_intervals(z, tau_lo, h_max) <= _stable_intervals(z, tau_hi, h_max)).all()

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            z = rng.uniform(0.0, 1.0, size=size)
            z_small = z * rng.uniform(0.0, 1.0, size=size)
            h_max = int(rng.integers(1, 14))
            tau = float(rng.uniform(0.0, 3.0))
            assert (_stable_intervals(z_small, tau, h_max) >= _stable_intervals(z, tau, h_max)).all()

    def test_never_runs_past_grid(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            z = rng.uniform(0.0, 0.1, size=size)
            h = _stable_intervals(z, float(rng.uniform(0, 5)), int(rng.integers(1, 20)))
            assert (np.arange(size) + h <= size).all()


class TestBuildSchedule:
    def _indicators(self, k, d):
        k = np.asarray(k, dtype=float)
        return IndicatorTable(k, np.asarray(d, dtype=float), 1)

    def test_zero_thresholds_force_single_steps(self):
        grid = make_uniform_grid(6)
        ind = self._indicators(np.full(6, 0.5), np.full(6, 0.2))
        np.testing.assert_array_equal(build_schedule(ind, grid, 0.0, 0.0, 12), np.ones(6, dtype=int))

    def test_zero_indicators_hit_caps(self):
        grid = make_uniform_grid(50)
        ind = self._indicators(np.zeros(50), np.zeros(50))
        h = build_schedule(ind, grid, 0.0, 0.0, 12)
        np.testing.assert_array_equal(h, [min(12, 50 - n) for n in range(50)])

    def test_min_rule(self):
        grid = make_uniform_grid(10)
        # magnitude admits 5 steps from n=0, direction only 2
        k = np.full(10, 1.0)  # K_m = 0.1 per step
        d = np.full(10, 0.3)
        ind = self._indicators(k, d)
        h = build_schedule(ind, grid, 0.5, 0.6, 12)
        assert h[0] == 2
        assert _stable_intervals(np.abs(k) * grid.dt, 0.5, 12)[0] == 5

    def test_negative_threshold_rejected(self):
        grid = make_uniform_grid(4)
        ind = self._indicators(np.zeros(4), np.zeros(4))
        with pytest.raises(InvalidArgumentError):
            build_schedule(ind, grid, -0.1, 0.0, 12)

    @pytest.mark.parametrize(
        "tau_k, tau_d, h_max, key",
        [(math.nan, 0.3, 12, "tau_k"), (0.3, math.nan, 12, "tau_d"), (0.3, math.inf, 12, "tau_d"), (0.3, 0.3, 0, "h_max")],
        ids=["nan-k", "nan-d", "inf-d", "h_max-0"],
    )
    def test_threshold_rule_names_the_key(self, tau_k, tau_d, h_max, key):
        grid = make_uniform_grid(4)
        ind = self._indicators(np.zeros(4), np.zeros(4))
        with pytest.raises(InvalidArgumentError, match=f"^{key}: "):
            build_schedule(ind, grid, tau_k, tau_d, h_max)

    @pytest.mark.parametrize("h_max", [3.0, 2.5, True], ids=repr)
    def test_h_max_must_be_an_integer(self, h_max, constant_spec):
        grid = make_uniform_grid(4)
        ind = self._indicators(np.zeros(4), np.zeros(4))
        with pytest.raises(InvalidArgumentError, match="^h_max: must be an integer"):
            build_schedule(ind, grid, 0.3, 0.3, h_max)
        bundle = make_bundle(ExperimentConfig(constant_spec, 4, (1,), (2,), h_max=np.int64(3)))[2]
        with pytest.raises(InvalidArgumentError, match="^h_max: must be an integer"):
            replace(bundle, h_max=h_max)
        with pytest.raises(InvalidArgumentError, match="'h_max': must be an integer"):
            ExperimentConfig(constant_spec, 4, (1,), (2,), h_max=h_max)

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_calibrated_schedule_equals_brute_force(self, name):
        _, grid, bundle = _setup(name)
        magnitude = np.abs(bundle.indicators.k_tilde) * grid.dt
        want = [
            min(
                _brute_force_interval(magnitude, n, bundle.tau_k, bundle.h_max),
                _brute_force_interval(bundle.indicators.d_tilde, n, bundle.tau_d, bundle.h_max),
            )
            for n in range(grid.n_steps)
        ]
        got = build_schedule(bundle.indicators, grid, bundle.tau_k, bundle.tau_d, bundle.h_max)
        assert got.tolist() == want
        assert (got > 1).any()

    def test_length_mismatch_rejected(self):
        grid = make_uniform_grid(5)
        ind = self._indicators(np.zeros(4), np.zeros(4))
        with pytest.raises(InvalidArgumentError):
            build_schedule(ind, grid, 0.1, 0.1, 12)

    def test_constant_field_schedule(self, constant_spec):
        vf = VelocityField(constant_spec)
        grid = make_uniform_grid(50)
        ind = calibrate(vf, grid, [Condition(s) for s in range(5)])
        h = build_schedule(ind, grid, DEFAULT_TAU_K, DEFAULT_TAU_D, DEFAULT_H_MAX)
        np.testing.assert_array_equal(h, [min(12, 50 - n) for n in range(50)])


class TestSkipIntervals:
    def test_the_row_holds_each_interval_length_at_its_start(self):
        row = skip_intervals(np.array([min(12, 50 - n) for n in range(50)]), 50)
        assert row.shape == (50,) and row.dtype.kind == "i" and row.sum() == 50
        assert np.flatnonzero(row).tolist() == [0, 1, 13, 25, 37, 49]
        assert row[[0, 1, 13, 25, 37, 49]].tolist() == [1, 12, 12, 12, 12, 1]

    def test_random_schedules_match_a_step_by_step_walk(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n, h_max = int(rng.integers(1, 40)), int(rng.integers(1, 15))
            schedule = np.array([rng.integers(1, min(h_max, n - i) + 1) for i in range(n)])
            want, m = np.zeros(n, dtype=int), 0
            while m < n:  # step 0 a standard update, then each schedule entry in turn
                want[m] = 1 if m == 0 else schedule[m]
                m += want[m]
            assert np.array_equal(skip_intervals(schedule, n), want)


class TestScheduleCoverage:
    def test_no_skipping(self):
        ratio, anchors = schedule_coverage(np.ones(8, dtype=int), 8)
        assert ratio == 0.0
        assert anchors == list(range(8))

    def test_constant_field_walk(self):
        schedule = np.array([min(12, 50 - n) for n in range(50)])
        ratio, anchors = schedule_coverage(schedule, 50)
        assert anchors == [0, 1, 13, 25, 37, 49]
        assert ratio == pytest.approx(1.0 - 6 / 50)

    def test_skip_ratio_reported_exactly(self):
        # 49 anchors out of 200 steps: the ratio comes out of the anchor
        # count itself, with no rounding
        schedule = np.ones(200, dtype=int)
        schedule[48] = 152
        ratio, anchors = schedule_coverage(schedule, 200)
        assert len(anchors) == 49
        assert ratio == 0.755

    def test_first_step_forced_single(self):
        schedule = np.full(10, 5, dtype=int)
        schedule[np.arange(10) + 5 > 10] = 1  # keep entries in range
        _, anchors = schedule_coverage(np.minimum(schedule, 10 - np.arange(10)), 10)
        assert anchors[0] == 0 and anchors[1] == 1


def test_default_hyperparameters():
    assert DEFAULT_H_MAX == 12
    assert (DEFAULT_TAU_K, DEFAULT_TAU_D) == (0.06, 0.6)


def test_schedule_imports_no_calibration():
    # calibration builds on schedule (the threshold rule, the interval row), not the other way round; schedule
    # names IndicatorTable in annotations alone
    def imported(module):
        return {node.module for node in ast.parse(inspect.getsource(module)).body if isinstance(node, ast.ImportFrom)}

    assert "calibration" not in imported(schedule) and "schedule" in imported(calibration)
