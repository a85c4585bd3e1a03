"""The row walk: a batch of cached runs, each on its own schedule and toggles, in one step loop.

``_cached_kernel`` takes one skip schedule and one toggle setting per run,
and its rows keep a record or not. Every row must equal, bit for bit, the
record ``sample_cached`` gives for that run alone (and, on a schedule that
never skips, ``sample_full``'s), whatever the other rows of the batch do,
and the walk calls the oracle at most once per step.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcache import CompensationToggles, Condition, FieldSpec, VelocityField, diagnostics, initial_state
from flowcache import sample_cached, sample_full
from flowcache.cached_sampler import _cached_kernel
from flowcache.diagnostics import ABLATION_ORDER, ExperimentConfig, make_bundle, run_experiment
from flowcache.schedule import build_schedule, skip_intervals
from flowcache.solver import _full_kernel

from test_batch import _assert_same_run, _starts
from test_kernels import KERNEL_FIELDS, _intervals, _mixture, _setup

# the seeds of a batch of B rows cycle with this period, so rows that share a start state ride beside each other
PERIODS = {2: 1, 3: 2, 64: 4}


def _swept(bundle):
    """The bundle on a schedule that differs from its own: half its thresholds, and skips of at most 5 steps."""
    tau_k, tau_d = bundle.tau_k / 2, bundle.tau_d / 2
    schedule = build_schedule(bundle.indicators, bundle.grid, tau_k, tau_d, 5)
    return replace(bundle, schedule=schedule, tau_k=tau_k, tau_d=tau_d, h_max=5)


def _batch(field, bundle, batch, phase):
    """Row i: seed 100 + i mod the period, the bundle's, a swept or an all-ones schedule in turn, toggles in turn."""
    bundles = [bundle, _swept(bundle), replace(bundle, schedule=np.ones(bundle.grid.n_steps, dtype=int))]
    x0, conditions = _starts(field, [100 + i % PERIODS[batch] for i in range(batch)])
    rows = [bundles[i % 3] for i in range(batch)]
    toggles = [CompensationToggles(*ABLATION_ORDER[(phase + i) % 4]) for i in range(batch)]
    return x0, conditions, rows, toggles


def _asked(schedules, n_steps, references):
    """The steps at which some run anchors, past those its references serve (up to its first skip's anchor)."""
    steps = set()
    for schedule in schedules:
        intervals = _intervals(schedule, n_steps)
        served = next((n for n, h in intervals if h > 1), n_steps - 1) if references else -1
        steps |= {n for n, _ in intervals if n > served}
    return steps


def _opening(schedules, n_steps):
    """The (B, N) ``skip_intervals`` rows of the runs' ``schedules``: the walk's input."""
    return np.array([skip_intervals(schedule, n_steps) for schedule in schedules])


def _common_ends(schedules, n_steps):
    """The steps after which every run ends an interval, where a walk with record-free rows hands its rows over."""
    starts = [{n for n, _ in _intervals(schedule, n_steps)} for schedule in schedules]
    return [m for m in range(n_steps) if m == n_steps - 1 or all(m + 1 in s for s in starts)]


class TestRowsEqualSingleRuns:
    @pytest.mark.parametrize("with_references", [False, True], ids=["unseeded", "seeded"])
    @pytest.mark.parametrize("batch", sorted(PERIODS))
    @pytest.mark.parametrize("phase", range(4), ids=lambda i: "mi{:d}-di{:d}".format(*ABLATION_ORDER[i]))
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_records_record_free_and_mixed_walks(self, name, phase, batch, with_references):
        field, grid, bundle = _setup(name)
        x0, conditions, bundles, toggles = _batch(field, bundle, batch, phase)
        schedules = [b.schedule for b in bundles]
        assert not np.array_equal(schedules[0], schedules[1])
        singles = [sample_cached(field, *run) for run in zip(bundles, x0, conditions, toggles)]
        for single, b, start, condition in zip(singles, bundles, x0, conditions):
            if (b.schedule == 1).all():  # a run that never skips is the full run
                full = sample_full(field, grid, start, condition)
                assert np.array_equal(single.states, full.states) and np.array_equal(single.velocities, full.velocities)
        period = PERIODS[batch]
        references = list(_full_kernel(field, grid, x0[:period], conditions[:period])) if with_references else []
        calls = len(_asked(schedules, grid.n_steps, with_references))
        ends = _common_ends(schedules, grid.n_steps)

        opening = _opening(schedules, grid.n_steps)
        field.reset_evaluations()
        records = list(_cached_kernel(field, bundle, x0, conditions, toggles, None, references, opening))
        assert field.evaluations == calls  # one oracle call per step at which some run anchors
        for record, single in zip(records, singles, strict=True):
            _assert_same_run(record, single)

        for kept in (0, batch // 2):  # record-free, then the first half of the rows with records
            field.reset_evaluations()
            walk = _cached_kernel(field, bundle, x0, conditions, toggles, kept, references, opening)
            for m, (velocities, states) in zip(ends, itertools.islice(walk, len(ends))):
                for row, single in enumerate(singles):
                    assert np.array_equal(velocities[row], single.velocities[m])
                    assert np.array_equal(states[row], single.states[m + 1])
            rest = list(walk)
            assert len(rest) == kept and field.evaluations == calls
            for record, single in zip(rest, singles):
                _assert_same_run(record, single)


def _huge_rows_field(monkeypatch):
    """A 2-d rotation field that moves rows far out on the first axis 2**600 times as fast."""
    field = VelocityField(FieldSpec(kind="rotation", dimension=2, target=(1.0, 0.0), rate=2.0, plane=(0, 1)))
    unit = field._velocity
    speed = lambda state: np.where(abs(state[..., :1]) > 2.0**300, 2.0**600, 1.0)  # noqa: E731
    monkeypatch.setattr(field, "_velocity", lambda state, t: speed(state) * unit(state, t))
    return field


class TestHugeRow:
    def test_a_huge_row_is_the_unit_row_scaled_beside_ordinary_rows(self, monkeypatch):
        field = _huge_rows_field(monkeypatch)
        config = ExperimentConfig(field=field.spec, n_steps=50, calibration_seeds=(1, 2, 3, 4), evaluation_seeds=(100,))
        _, grid, bundle = make_bundle(config)
        swept = _swept(bundle)
        conditions = [Condition(100), Condition(100), Condition(101), Condition(100)]
        x0 = np.array([initial_state(c, 2) for c in conditions])
        x0[1] = np.ldexp(x0[1], 600)  # the huge row: the first row's start, 2**600 times as far out
        opening = _opening([bundle.schedule, bundle.schedule, swept.schedule, swept.schedule], grid.n_steps)
        toggles = CompensationToggles()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                records = list(_cached_kernel(field, bundle, x0, conditions, toggles, None, (), opening))
                *_, (_, final) = _cached_kernel(field, bundle, x0, conditions, toggles, 0, (), opening)
        unit, huge = records[:2]
        assert unit.nfe < 50 and np.isfinite(huge.velocities).all()
        assert np.array_equal(huge.velocities, np.ldexp(unit.velocities, 600))
        assert np.array_equal(huge.states, np.ldexp(unit.states, 600))
        assert np.array_equal(huge.directions, unit.directions, equal_nan=True)
        assert not np.isnan(unit.directions).all()  # the rows turn
        for record, b, start, condition in zip(records, [bundle, bundle, swept, swept], x0, conditions):
            _assert_same_run(record, sample_cached(field, b, start, condition, toggles))
        assert np.array_equal(final, [record.final_state for record in records])


class TestOneWalkPerExperiment:
    def test_the_cached_runs_and_follow_ups_ride_one_walk(self, monkeypatch):
        config = ExperimentConfig(
            field=_mixture(3, 2, 1), n_steps=50, calibration_seeds=(1, 2, 3, 4), evaluation_seeds=(100, 101, 102)
        )
        walks = []
        kernel = diagnostics._cached_kernel

        def counted(field, bundle, x0, conditions, toggles, records, references, opening):
            before = field.evaluations
            yield from kernel(field, bundle, x0, conditions, toggles, records, references, opening)
            walks.append((len(x0), records, field.evaluations - before, {row.tobytes() for row in opening}))

        monkeypatch.setattr(diagnostics, "_cached_kernel", counted)
        taus = [(0.03, 0.3), (0.0, 0.0), (0.06, 0.6), (0.03, 0.3)]  # the config's own pair, and one pair twice
        result = run_experiment(config, ablation=True, sweep_taus=taus)
        ((rows, records, calls, schedules),) = walks
        # the evaluation runs, the three other toggle settings and two distinct swept schedules, 3 rows each
        assert (rows, records) == (3 * 6, 3) and len(schedules) == 3
        assert calls <= config.n_steps
        assert [row["final_drift"] for row in result.sweep][1] == 0.0
        assert result.sweep[0] == result.sweep[3] and result.sweep[2]["final_drift"] == result.mean_final_drift
        assert [(r["use_mi"], r["use_di"]) for r in result.ablation] == list(ABLATION_ORDER)
        assert result.ablation[3]["mean_final_drift"] == result.mean_final_drift
