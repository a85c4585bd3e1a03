from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcache import (
    CompensationToggles,
    Condition,
    FieldSpec,
    InvalidArgumentError,
    NumericDomainError,
    TimeGrid,
    VelocityField,
    initial_state,
    sample_cached,
    sample_full,
    schedule_coverage,
)
from flowcache.diagnostics import ExperimentConfig, make_bundle
from flowcache.errors import FieldError

from test_kernels import KERNEL_FIELDS, _intervals, _reference_cached, _setup, ref_anchor, ref_direction, ref_reconstruct


# The rules below are stated on the test-local reference, which the samplers'
# records equal bit for bit (test_kernels); the boundary cases go through
# sample_cached and the bundle.


class TestInitDirection:
    def test_removes_parallel_component(self):
        np.testing.assert_allclose(ref_anchor(np.array([1.0, 0.0]), np.array([1.0, 1.0])), [0.0, 1.0])

    def test_parallel_change_gives_zero(self):
        out = ref_anchor(np.array([2.0, 0.0]), np.array([5.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)

    def test_axis_projection(self):
        np.testing.assert_allclose(ref_anchor(np.array([0.0, 2.0]), np.array([1.0, 2.0])), [1.0, 0.0])

    def test_zero_previous_velocity(self):
        # the oracle returns a zero velocity at one anchor: that interval and the next have no direction
        field, grid, bundle = _setup("rotation")
        intervals = _intervals(bundle.schedule, grid.n_steps)
        j = next(j for j in range(1, len(intervals) - 1) if intervals[j][1] > 1 and intervals[j + 1][1] > 1)
        zero_t = float(grid.times[intervals[j][0]])
        field = VelocityField(KERNEL_FIELDS["rotation"][0])
        clean = field._velocity
        field._velocity = lambda state, t: 0.0 * clean(state, t) if t == zero_t else clean(state, t)
        condition = Condition(100)
        x0 = initial_state(condition, field.dimension)
        record = sample_cached(field, bundle, x0, condition)
        assert ref_anchor(np.zeros(2), np.ones(2)) is None
        states, velocities, directions, _ = _reference_cached(field, bundle, x0, condition, CompensationToggles())
        assert np.array_equal(record.states, states) and np.array_equal(record.velocities, velocities)
        assert np.array_equal(record.directions, directions, equal_nan=True)
        (n, h), (n_next, h_next) = intervals[j], intervals[j + 1]
        assert np.isnan(record.directions[n : n_next + h_next]).all()
        assert not np.isnan(record.directions[intervals[j + 2][0] :]).all()  # turning again afterwards
        assert np.isfinite(record.states).all()

    def test_output_orthogonal_to_previous(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v_prev = rng.standard_normal(6)
            v_curr = rng.standard_normal(6)
            p = ref_anchor(v_prev, v_curr)
            assert abs(p @ v_prev) <= 1e-10 * np.linalg.norm(p) * np.linalg.norm(v_prev) + 1e-300


class TestReorthogonalize:
    def test_already_orthogonal(self):
        np.testing.assert_allclose(ref_direction(np.array([0.0, 1.0]), np.array([1.0, 0.0])), [0.0, 1.0])

    def test_projection_removed_and_normalized(self):
        np.testing.assert_allclose(ref_direction(np.array([1.0, 1.0]), np.array([1.0, 0.0])), [0.0, 1.0])

    def test_parallel_anchor_signals_degenerate(self):
        assert ref_direction(np.array([2.0, 0.0]), np.array([1.0, 0.0])) is None

    def test_zero_anchor_signals_degenerate(self):
        assert ref_direction(np.zeros(2), np.array([1.0, 0.0])) is None

    def test_unit_norm_and_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            anchor = rng.standard_normal(8)
            v = rng.standard_normal(8)
            u = ref_direction(anchor, v)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(u @ v) <= 1e-10 * np.linalg.norm(v)


class TestSkipUpdate:
    def test_identity_when_no_statistics(self):
        v = np.array([0.4, -0.7])
        np.testing.assert_array_equal(ref_reconstruct(v, np.array([0.0, 1.0]), 0.0, 0.0, 0.3), v)

    def test_pure_direction_update(self):
        out = ref_reconstruct(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.3, 0.8)
        np.testing.assert_allclose(out, [1.0, 0.3])

    def test_pure_magnitude_update(self):
        out = ref_reconstruct(np.array([1.0, 0.0]), None, math.log(2.0), 0.0, 1.0)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_toggles_zero_terms(self):
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        np.testing.assert_allclose(ref_reconstruct(v, u, 0.0, 0.3, 1.0), [1.0, 0.3])  # use_mi off: k = 0
        np.testing.assert_allclose(ref_reconstruct(v, u, math.log(2.0), 0.0, 1.0), [2.0, 0.0])  # use_di off: d = 0
        # a disabled correction is the run whose bundle holds k_tilde = 0 or d_tilde = 0 there
        field, _, bundle = _setup("mixture-d3")
        condition = Condition(100)
        x0 = initial_state(condition, field.dimension)
        zeros = np.zeros(bundle.grid.n_steps)
        settings = ((CompensationToggles(use_mi=False), "k_tilde"), (CompensationToggles(use_di=False), "d_tilde"))
        for toggles, column in settings:
            neutral = replace(bundle, indicators=replace(bundle.indicators, **{column: zeros}))
            off = sample_cached(field, bundle, x0, condition, toggles)
            on = sample_cached(field, neutral, x0, condition)
            assert np.array_equal(off.states, on.states) and np.array_equal(off.velocities, on.velocities)
            assert not np.array_equal(off.states, sample_cached(field, bundle, x0, condition).states)

    def test_degenerate_direction_downgrades(self):
        v = np.array([1.0, 0.0])
        out = ref_reconstruct(v, None, 0.0, 0.5, 1.0)
        np.testing.assert_array_equal(out, v)

    def test_non_finite_rejected(self):
        # the indicator table owns finite entries: a NaN or infinite entry is rejected where the table is
        # built, naming its column and step, so no bundle that sample_cached could run holds one
        field, _, bundle = _setup("mixture-d3")
        condition = Condition(100)
        for column, value in (("k_tilde", np.nan), ("d_tilde", np.inf)):
            entries = getattr(bundle.indicators, column).copy()
            entries[3] = value
            with pytest.raises(FieldError, match=rf"^{column}: entry 3 is not finite: {value!r}$"):
                replace(bundle.indicators, **{column: entries})
        with pytest.raises(NumericDomainError):
            sample_cached(field, bundle, np.full(field.dimension, np.nan), condition)

    def test_bad_dt(self):
        # the time grid owns dt > 0: a grid whose times rise has a negative step and is rejected
        with pytest.raises(FieldError, match="times"):
            TimeGrid(np.array([1.0, 0.4, 0.6, 0.0]))


def _experiment(spec, n_steps, cal_seeds, eval_seed, **kwargs):
    config = ExperimentConfig(
        field=spec,
        n_steps=n_steps,
        calibration_seeds=tuple(cal_seeds),
        evaluation_seeds=(eval_seed,),
        **kwargs,
    )
    velocity_field, grid, bundle = make_bundle(config)
    condition = Condition(eval_seed)
    x0 = initial_state(condition, velocity_field.dimension)
    return velocity_field, grid, bundle, condition, x0


class TestCompensationToggles:
    @pytest.mark.parametrize("key, bad", [("use_mi", 0), ("use_di", "no"), ("use_mi", np.bool_(True)), ("use_di", None)])
    def test_a_toggle_that_is_not_a_bool_is_named(self, key, bad):
        # the config's bool rule: a toggle picks each run's factors inside a shared batch, so no truth value stands in
        with pytest.raises(InvalidArgumentError, match=rf"^{key}: expected true or false, got {bad!r}$"):
            CompensationToggles(**{key: bad})

    def test_bools_build(self):
        assert (CompensationToggles(use_mi=False).use_mi, CompensationToggles(use_di=False).use_di) == (False, False)


class TestSampleCached:
    def test_constant_field_bit_exact(self, constant_spec):
        vf, grid, bundle, condition, x0 = _experiment(constant_spec, 50, range(3), 100)
        full = sample_full(vf, grid, x0, condition)
        cached = sample_cached(vf, bundle, x0, condition)
        np.testing.assert_array_equal(cached.states, full.states)
        np.testing.assert_array_equal(cached.velocities, full.velocities)
        assert cached.nfe == 6  # anchors 0, 1, 13, 25, 37, 49

    def test_decay_field_fidelity(self, decay_spec):
        vf, grid, bundle, condition, x0 = _experiment(decay_spec, 100, range(2), 200)
        full = sample_full(vf, grid, x0, condition)
        cached = sample_cached(vf, bundle, x0, condition)
        drift = np.linalg.norm(cached.final_state - full.final_state) / np.linalg.norm(full.final_state)
        assert drift <= 1e-6
        assert cached.nfe < 100 / 3

    def test_all_single_step_schedule_equals_full(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 30, range(3), 300, tau_k=0.0, tau_d=0.0)
        assert np.all(bundle.schedule == 1)
        full = sample_full(vf, grid, x0, condition)
        cached = sample_cached(vf, bundle, x0, condition)
        np.testing.assert_array_equal(cached.states, full.states)
        assert cached.nfe == 30

    def test_oracle_calls_match_anchor_count(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 50, range(20), 400, tau_k=0.3, tau_d=3.0)
        _, anchors = schedule_coverage(bundle.schedule, grid.n_steps)
        assert len(anchors) < grid.n_steps  # the schedule actually skips
        vf.reset_evaluations()
        cached = sample_cached(vf, bundle, x0, condition)
        assert vf.evaluations == cached.nfe == len(anchors)
        np.testing.assert_array_equal(np.flatnonzero(cached.evaluated), anchors)

    def test_huge_speeds_run_as_unit_speed(self):
        # v.v overflows past about 1.3e154; the walk then finds each anchor and direction from the velocities
        # scaled by a power of two, so a run at 2**600 times the speed is the unit-speed run times 2**600
        spec = FieldSpec(kind="rotation", dimension=2, target=(1.0, 0.0), rate=2.0, plane=(0, 1))
        unit_run = _experiment(spec, 50, range(1, 5), 100)
        huge_run = _experiment(replace(spec, target=(2.0**600, 0.0)), 50, range(1, 5), 100)
        runs = []
        for vf, grid, bundle, condition, x0 in (unit_run, huge_run):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="raise"):
                    runs.append(sample_cached(vf, bundle, x0, condition))
        unit, huge = runs
        assert np.array_equal(huge_run[2].schedule, unit_run[2].schedule) and unit.nfe < 50
        assert np.array_equal(huge.velocities, np.ldexp(unit.velocities, 600))
        assert np.array_equal(huge.directions, unit.directions, equal_nan=True)

    def test_norm_law_with_direction_off(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 50, range(20), 500, tau_k=0.3, tau_d=3.0)
        toggles = CompensationToggles(use_mi=True, use_di=False)
        cached = sample_cached(vf, bundle, x0, condition, toggles)
        k_tilde = bundle.indicators.k_tilde
        dt = grid.dt
        eval_idx = list(np.flatnonzero(cached.evaluated)) + [grid.n_steps]
        checked = 0
        for a, end in zip(eval_idx[:-1], eval_idx[1:]):
            base = np.linalg.norm(cached.velocities[a])
            for m in range(a + 1, end):
                expected = base * math.exp(float(np.sum(k_tilde[a:m] * dt[a:m])))
                got = np.linalg.norm(cached.velocities[m])
                assert got == pytest.approx(expected, rel=1e-12)
                checked += 1
        assert checked > 0

    def test_orthogonal_increment_law(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 50, range(20), 600, tau_k=0.3, tau_d=3.0)
        cached = sample_cached(vf, bundle, x0, condition)
        k_tilde = bundle.indicators.k_tilde
        d_tilde = bundle.indicators.d_tilde
        dt = grid.dt
        eval_idx = list(np.flatnonzero(cached.evaluated)) + [grid.n_steps]
        checked = 0
        for a, end in zip(eval_idx[:-1], eval_idx[1:]):
            for m in range(a, end - 1):
                v_m = cached.velocities[m]
                increment = cached.velocities[m + 1] - np.exp(k_tilde[m] * dt[m]) * v_m
                inc_norm = np.linalg.norm(increment)
                if inc_norm == 0.0:
                    continue  # degenerate direction at this step
                assert abs(increment @ v_m) <= 1e-10 * inc_norm * np.linalg.norm(v_m)
                expected = d_tilde[m] * np.linalg.norm(v_m)
                assert inc_norm == pytest.approx(expected, rel=1e-12)
                checked += 1
        assert checked > 0

    def test_dimension_mismatch_rejected(self, gmm_spec):
        vf, grid, bundle, condition, _ = _experiment(gmm_spec, 10, range(2), 700)
        with pytest.raises(InvalidArgumentError):
            sample_cached(vf, bundle, np.zeros(2), condition)

    def test_degenerate_anchor_never_aborts(self, constant_spec):
        # constant field: velocity increments vanish, so every interval has a
        # degenerate turning anchor; the run must still complete
        vf, grid, bundle, condition, x0 = _experiment(constant_spec, 20, range(2), 800)
        cached = sample_cached(vf, bundle, x0, condition)
        assert np.isfinite(cached.states).all()


class TestDirectionRecord:
    """``directions[m]`` is the unit ``u_hat`` the reconstruction used at step m."""

    def test_unit_and_orthogonal_to_velocity(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 50, range(20), 600, tau_k=0.3, tau_d=3.0)
        cached = sample_cached(vf, bundle, x0, condition)
        recorded = np.flatnonzero(~np.isnan(cached.directions).all(axis=1))
        assert recorded.size > 0
        for m in recorded:
            u, v = cached.directions[m], cached.velocities[m]
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
            assert abs(u @ v) <= 1e-10 * np.linalg.norm(v)

    def test_length_one_intervals_have_no_entry(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 50, range(20), 600, tau_k=0.3, tau_d=3.0)
        cached = sample_cached(vf, bundle, x0, condition)
        single = [n for n, h in enumerate(bundle.schedule) if cached.evaluated[n] and h == 1]
        assert single  # step 0 at least
        assert np.isnan(cached.directions[single]).all()

    def test_direction_term_of_reconstruction(self, gmm_spec):
        vf, grid, bundle, condition, x0 = _experiment(gmm_spec, 50, range(20), 600, tau_k=0.3, tau_d=3.0)
        cached = sample_cached(vf, bundle, x0, condition, CompensationToggles(use_mi=True, use_di=True))
        k_tilde = bundle.indicators.k_tilde
        d_tilde = bundle.indicators.d_tilde
        dt = grid.dt
        checked = 0
        for m in range(grid.n_steps - 1):
            u = cached.directions[m]
            if cached.evaluated[m + 1] or np.isnan(u).all():
                continue  # the next velocity is not rebuilt from step m, or no direction term
            v_m = cached.velocities[m]
            increment = cached.velocities[m + 1] - np.exp(k_tilde[m] * dt[m]) * v_m
            expected = d_tilde[m] * np.linalg.norm(v_m) * u
            np.testing.assert_allclose(increment, expected, rtol=0, atol=1e-12 * np.linalg.norm(v_m))
            checked += 1
        assert checked > 0

    def test_constant_field_records_none(self, constant_spec):
        vf, grid, bundle, condition, x0 = _experiment(constant_spec, 50, range(3), 100)
        cached = sample_cached(vf, bundle, x0, condition)
        assert cached.nfe < grid.n_steps
        assert cached.directions.shape == cached.velocities.shape
        assert np.isnan(cached.directions).all()

    def test_full_record_carries_none(self, gmm_spec):
        vf, grid, _, condition, x0 = _experiment(gmm_spec, 10, range(2), 700)
        assert sample_full(vf, grid, x0, condition).directions is None
