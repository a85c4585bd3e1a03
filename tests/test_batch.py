"""Batched sampling against the single-run samplers.

The samplers' kernels run a (B, D) batch of runs that share a grid and a
schedule, with one oracle call per step for the whole batch. Every record of
a batch must equal, bit for bit, the record ``sample_full`` or
``sample_cached`` gives for that run alone (the B=1 case).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from flowcache import (
    CompensationToggles,
    Condition,
    ExperimentConfig,
    FieldSpec,
    IndicatorTable,
    InvalidArgumentError,
    NumericDomainError,
    ScheduleBundle,
    VelocityField,
    calibrate,
    initial_state,
    make_uniform_grid,
    run_experiment,
    sample_cached,
    sample_full,
)
from flowcache.cached_sampler import _cached_kernel
from flowcache.diagnostics import ABLATION_ORDER, compare_trajectories
from flowcache.fields import _Mixture
from flowcache.solver import _full_kernel

from test_kernels import KERNEL_FIELDS, _intervals, _mixture, _setup


def _starts(field, seeds):
    conditions = [Condition(seed) for seed in seeds]
    return np.array([initial_state(c, field.dimension) for c in conditions]), conditions


def _assert_same_run(batched, single):
    assert np.array_equal(batched.states, single.states)
    assert np.array_equal(batched.velocities, single.velocities)
    assert np.array_equal(batched.evaluated, single.evaluated)
    if single.directions is None:
        assert batched.directions is None
    else:
        assert np.array_equal(batched.directions, single.directions, equal_nan=True)


class TestBatchedOracle:
    @pytest.mark.parametrize("t", [0.0, 1.0, 0.37])
    @pytest.mark.parametrize("batch", [1, 4, 6, 16])
    @pytest.mark.parametrize("components, dimension", [(2, 3), (8, 64), (16, 1024), (3, 2), (1, 5)])
    def test_mixture_rows_match_single_calls(self, components, dimension, batch, t):
        rng = np.random.default_rng(components * 1000 + dimension)
        weights = rng.dirichlet(np.ones(components))
        means = rng.normal(0.0, 1.5, (components, dimension))
        scales_sq = rng.uniform(0.5, 1.5, components) ** 2
        x = 3.0 * rng.standard_normal((batch, dimension))
        out = _Mixture(np.log(weights), means, scales_sq)(x, t)
        assert out.shape == x.shape
        for row in range(batch):
            assert np.array_equal(out[row], _Mixture(np.log(weights), means, scales_sq)(x[row], t))

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_every_kind_returns_fresh_rows_of_single_calls(self, name):
        field = VelocityField(KERNEL_FIELDS[name][0])
        x, conditions = _starts(field, range(5))
        view = np.repeat(x, 2, axis=0)[::2]  # a strided batch, as the samplers pass
        for t in (0.0, 0.5, 1.0):
            out = field.evaluate(view, t, conditions)
            assert out.shape == x.shape and out.flags.c_contiguous
            for row, condition in enumerate(conditions):
                assert np.array_equal(out[row], field.evaluate(x[row], t, condition))
            out[:] = 0.0  # the result is the caller's; the next call must not see this
            assert np.array_equal(field.evaluate(x, t, conditions), field.evaluate(view, t, conditions))

    def test_a_batched_call_counts_once(self):
        field = VelocityField(KERNEL_FIELDS["mixture-d3"][0])
        x, conditions = _starts(field, range(4))
        field.evaluate(x, 0.5, conditions)
        assert field.evaluations == 1

    @pytest.mark.parametrize(
        "shape, count",
        [((3, 3), 2), ((3, 3), 4), ((2, 4), 2), ((0, 3), 0), ((2, 2, 3), 2)],
        ids=["too-few-conditions", "too-many-conditions", "wrong-dimension", "empty", "3-d"],
    )
    def test_bad_batch_rejected(self, shape, count):
        field = VelocityField(KERNEL_FIELDS["mixture-d3"][0])
        with pytest.raises(InvalidArgumentError):
            field.evaluate(np.zeros(shape), 0.5, [Condition(i) for i in range(count)])
        assert field.evaluations == 0

    def test_batch_with_one_condition_rejected(self):
        field = VelocityField(KERNEL_FIELDS["mixture-d3"][0])
        with pytest.raises(InvalidArgumentError, match="one condition per row"):
            field.evaluate(np.zeros((2, 3)), 0.5, Condition(1))


class TestBatchedSamplers:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_full_rows_match_single_runs(self, name, batch):
        field, grid, bundle = _setup(name)
        x0, conditions = _starts(field, range(100, 100 + batch))
        field.reset_evaluations()
        records = list(_full_kernel(field, grid, x0, conditions))
        assert field.evaluations == grid.n_steps  # one call per step for the whole batch
        assert len(records) == batch
        for record, start, condition in zip(records, x0, conditions):
            assert record.nfe == grid.n_steps
            assert record.states.flags.c_contiguous and record.velocities.flags.c_contiguous
            _assert_same_run(record, sample_full(field, grid, start, condition))
        # a full run is the cached walk over an all-ones schedule
        all_ones = replace(bundle, schedule=np.ones(grid.n_steps, dtype=int), h_max=1)
        field.reset_evaluations()
        cached = list(_cached_kernel(field, all_ones, x0, conditions, CompensationToggles()))
        assert field.evaluations == grid.n_steps
        for record, full in zip(cached, records, strict=True):
            assert np.array_equal(record.states, full.states)
            assert np.array_equal(record.velocities, full.velocities)
            assert np.array_equal(record.evaluated, full.evaluated)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("toggles", ABLATION_ORDER, ids=lambda t: f"mi{int(t[0])}-di{int(t[1])}")
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_cached_rows_match_single_runs(self, name, toggles, batch):
        field, _, bundle = _setup(name)
        toggles = CompensationToggles(*toggles)
        x0, conditions = _starts(field, range(100, 100 + batch))
        field.reset_evaluations()
        records = list(_cached_kernel(field, bundle, x0, conditions, toggles))
        assert len(records) == batch
        assert field.evaluations == records[0].nfe < bundle.grid.n_steps
        for record, start, condition in zip(records, x0, conditions):
            assert record.directions.flags.c_contiguous
            _assert_same_run(record, sample_cached(field, bundle, start, condition, toggles))

    @pytest.mark.parametrize("kernel", ["full", "cached"])
    def test_many_runs_share_one_block_and_one_oracle_call_per_anchor(self, kernel):
        # 24 dim-64 runs of 50 steps: about 1.2 MiB of full records, 1.8 MiB of cached ones
        field, grid, bundle = _setup("mixture-d64")
        x0, conditions = _starts(field, range(200, 224))
        field.reset_evaluations()
        if kernel == "full":
            records = list(_full_kernel(field, grid, x0, conditions))
            singles = [sample_full(field, grid, x, c) for x, c in zip(x0, conditions)]
        else:
            records = list(_cached_kernel(field, bundle, x0, conditions, CompensationToggles()))
            singles = [sample_cached(field, bundle, x, c) for x, c in zip(x0, conditions)]
        assert all(record.states.base is records[0].states.base for record in records)
        assert field.evaluations == records[0].nfe + sum(s.nfe for s in singles)
        for record, single in zip(records, singles, strict=True):
            _assert_same_run(record, single)

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_per_row_toggles_match_single_runs(self, name):
        field, _, bundle = _setup(name)
        # every setting on every seed, in an order where neighbouring rows differ
        x0, conditions = _starts(field, [100, 101, 102] * 4)
        toggles = [CompensationToggles(*ABLATION_ORDER[i % 4]) for i in range(len(conditions))]
        field.reset_evaluations()
        records = list(_cached_kernel(field, bundle, x0, conditions, toggles))
        assert field.evaluations == records[0].nfe  # one oracle call per anchor for every setting
        assert len(records) == len(conditions)
        for record, start, condition, setting in zip(records, x0, conditions, toggles):
            _assert_same_run(record, sample_cached(field, bundle, start, condition, setting))

    def test_dim_1024_runs_ride_one_oracle_call_per_step(self):
        # 16 seeds, with or without records, make one oracle call per step for all of them
        field, grid = VelocityField(_mixture(1024, 2, 5)), make_uniform_grid(100)
        calibrate(field, grid, [Condition(seed) for seed in range(16)])
        assert field.evaluations == 100
        field.reset_evaluations()
        x0, conditions = _starts(field, range(16))
        assert sum(1 for _ in _full_kernel(field, grid, x0, conditions)) == 16
        assert field.evaluations == 100

    def test_the_cached_runs_call_the_oracle_once_per_anchor_past_the_references(self):
        # the cached runs of six dim-1024 seeds ride one batch after the calibration and reference walk, and the
        # references serve the anchors up to and including the first skip's
        config = ExperimentConfig(_mixture(1024, 2, 5), 100, (1, 2, 3, 4), tuple(range(100, 106)), tau_k=0.3, tau_d=3.0)
        result = run_experiment(config)
        intervals = _intervals(result.bundle.schedule, config.n_steps)
        served = sum(n <= next(n for n, h in intervals if h > 1) for n, _ in intervals)
        assert result.cached_nfe - served > 1
        assert result.velocity_field.evaluations == config.n_steps + result.cached_nfe - served
        for report, full, seed in zip(result.reports, result.references, config.evaluation_seeds, strict=True):
            single = sample_cached(result.velocity_field, result.bundle, full.states[0], Condition(seed))
            assert report.final_state_drift == compare_trajectories(full, single).final_state_drift

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_record_free_steps_equal_the_records(self, name, batch):
        field, grid, _ = _setup(name)
        x0, conditions = _starts(field, range(100, 100 + batch))
        records = list(_full_kernel(field, grid, x0, conditions))
        field.reset_evaluations()
        steps = _full_kernel(field, grid, x0, conditions, records=False)
        _assert_steps_equal_the_records(steps, records, x0, [(n, 1) for n in range(grid.n_steps)])
        assert field.evaluations == grid.n_steps

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("toggles", ABLATION_ORDER, ids=lambda t: f"mi{int(t[0])}-di{int(t[1])}")
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_record_free_cached_steps_equal_the_records(self, name, toggles, batch):
        field, _, bundle = _setup(name)
        toggles = CompensationToggles(*toggles)
        x0, conditions = _starts(field, range(100, 100 + batch))
        records = list(_cached_kernel(field, bundle, x0, conditions, toggles))
        field.reset_evaluations()
        steps = _cached_kernel(field, bundle, x0, conditions, toggles, False)
        _assert_steps_equal_the_records(steps, records, x0, _intervals(bundle.schedule, bundle.grid.n_steps))
        assert field.evaluations == records[0].nfe < bundle.grid.n_steps  # one oracle call per anchor

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_a_record_free_cached_walk_yields_once_per_interval(self, name):
        field, _, bundle = _setup(name)
        x0, conditions = _starts(field, (100, 101))
        intervals = _intervals(bundle.schedule, bundle.grid.n_steps)
        assert len(intervals) < bundle.grid.n_steps
        steps = _cached_kernel(field, bundle, x0, conditions, CompensationToggles(), records=False)
        assert sum(1 for _ in steps) == len(intervals)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("toggles", ABLATION_ORDER, ids=lambda t: f"mi{int(t[0])}-di{int(t[1])}")
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_walks_seeded_from_the_references_equal_unseeded_walks(self, name, toggles, batch):
        field, grid, bundle = _setup(name)
        toggles = CompensationToggles(*toggles)
        x0, conditions = _starts(field, range(100, 100 + batch))
        references = list(_full_kernel(field, grid, x0, conditions))
        records = list(_cached_kernel(field, bundle, x0, conditions, toggles))
        intervals = _intervals(bundle.schedule, grid.n_steps)
        n1 = next(n for n, h in intervals if h > 1)
        calls = records[0].nfe - sum(n <= n1 for n, _ in intervals)  # no oracle call up to the first skip's anchor
        field.reset_evaluations()
        seeded = list(_cached_kernel(field, bundle, x0, conditions, toggles, references=references))
        assert field.evaluations == calls
        for record, unseeded in zip(seeded, records, strict=True):
            _assert_same_run(record, unseeded)
        field.reset_evaluations()
        steps = _cached_kernel(field, bundle, x0, conditions, toggles, False, references)
        _assert_steps_equal_the_records(steps, records, x0, intervals)
        assert field.evaluations == calls

    def test_seeded_rows_cycle_through_the_references(self):
        field, grid, bundle = _setup("mixture-d64")
        x0, conditions = _starts(field, (300, 301, 302))
        references = list(_full_kernel(field, grid, x0, conditions))
        cycle = np.arange(11) % 3  # the last cycle stops short
        toggles = [CompensationToggles(*ABLATION_ORDER[row % 4]) for row in range(len(cycle))]
        rows = (x0[cycle], [conditions[i] for i in cycle], toggles)
        seeded = list(_cached_kernel(field, bundle, *rows, references=references))
        for record, unseeded in zip(seeded, _cached_kernel(field, bundle, *rows), strict=True):
            _assert_same_run(record, unseeded)


def _assert_steps_equal_the_records(steps, records, x0, intervals):
    """Each interval a record-free walk yields holds every run's last velocity and next state, bit for bit."""
    starts = x0.copy()
    yielded = 0
    with np.errstate(over="raise", invalid="warn"):
        for (n, h), (velocities, states) in zip(intervals, steps):
            # the caller's floating-point state holds while it holds a step
            assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "warn"
            assert velocities.shape == states.shape == x0.shape
            for row, record in enumerate(records):
                assert np.array_equal(velocities[row], record.velocities[n + h - 1])
                assert np.array_equal(states[row], record.states[n + h])
            yielded += 1
    assert yielded == len(intervals) and next(steps, None) is None
    assert np.array_equal(x0, starts)  # the walk steps its own copy of the start states


def _row_dependent_field(monkeypatch, fault_step=None, grid=None):
    """A 2-d field whose rows far out on the first axis move straight, the others turn.

    Straight rows have no turning direction, so their reconstruction is
    degenerate. With ``fault_step``, straight rows return NaN from that
    step's time on.
    """
    field = VelocityField(FieldSpec(kind="constant", dimension=2, target=(1.0, 0.0)))

    def velocity(state, t):
        angle = 2.0 * (1.0 - t)
        turning = np.array([math.cos(angle), math.sin(angle)])
        straight = np.array([1.0, 0.0])
        if fault_step is not None and t <= grid.times[fault_step]:
            straight = np.array([math.nan, 0.0])
        return np.where(state[..., :1] > 100.0, straight, turning)

    monkeypatch.setattr(field, "_velocity", velocity)
    return field


def _skipping_bundle(n_steps=20, h=4):
    grid = make_uniform_grid(n_steps)
    indicators = IndicatorTable(np.full(n_steps, 0.1), np.full(n_steps, 0.5), sample_count=1)
    schedule = [1] + [min(h, n_steps - i) for i in range(1, n_steps)]
    return ScheduleBundle(grid, indicators, schedule, 1.0, 1.0, h, "0" * 64, (1,))  # any digest of the form a bundle holds


class TestMixedRows:
    def test_degenerate_and_turning_rows_in_one_batch(self, monkeypatch):
        field = _row_dependent_field(monkeypatch)
        bundle = _skipping_bundle()
        x0 = np.array([[1000.0, 0.0], [0.0, 0.0], [2000.0, 5.0]])
        conditions = [Condition(1), Condition(2), Condition(3)]
        records = list(_cached_kernel(field, bundle, x0, conditions, CompensationToggles()))
        for record, start, condition in zip(records, x0, conditions):
            _assert_same_run(record, sample_cached(field, bundle, start, condition))
        recorded = [~np.isnan(r.directions).all(axis=1) for r in records]
        assert not recorded[0].any() and not recorded[2].any()  # degenerate: all-NaN rows
        assert recorded[1].any()  # turning

    @pytest.mark.parametrize("kernel", ["full", "cached", "cached-record-free"])
    def test_non_finite_row_names_the_step(self, monkeypatch, kernel):
        bundle = _skipping_bundle()
        field = _row_dependent_field(monkeypatch, fault_step=5, grid=bundle.grid)
        x0 = np.array([[0.0, 0.0], [1000.0, 0.0]])
        conditions = [Condition(1), Condition(2)]
        with pytest.raises(NumericDomainError, match=r"at step 5 \(") as batched:
            if kernel == "full":
                list(_full_kernel(field, bundle.grid, x0, conditions))
            else:
                records = None if kernel == "cached" else 0
                list(_cached_kernel(field, bundle, x0, conditions, CompensationToggles(), records))
        # the same fault, and message, on its own row, and none on the other
        with pytest.raises(NumericDomainError) as single:
            sample_full(field, bundle.grid, x0[1], conditions[1])
        assert str(batched.value) == str(single.value)
        sample_full(field, bundle.grid, x0[0], conditions[0])
