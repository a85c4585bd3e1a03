"""The samplers' and the decomposition's private kernels against a plain-numpy reference.

The reference below takes one sample one step at a time and uses no
flowcache helper. It states each rule once, in the kernels' operation
order, so records and rows equal it bit for bit:

* Euler step: ``x_{m+1} = x_m - dt_m v_m``.
* Turning anchor of an interval opening at step n, from the previous
  evaluated velocity ``v_p``: ``p = a - (a.v_p / v_p.v_p) v_p`` with
  ``a = v_n - v_p``; none where ``v_p = 0``.
* Direction at each step m of the interval: ``u = r / |r|`` with
  ``r = p - (p.v_m / v_m.v_m) v_m``; none (an all-NaN ``directions`` row)
  where there is no anchor, ``v_m = 0``, or ``|r|`` is 0 or below
  ``1e-12 |p|``.
* Reconstruction: ``v_{m+1} = exp(k dt_m) v_m + d |v_m| u`` with
  ``(k, d) = (k_tilde_m, d_tilde_m)``, without the turning term where ``u``
  is none or ``d = 0``; a disabled correction takes ``k = 0`` or ``d = 0``.
* Split of an acceleration ``a`` along ``v``: ``k = a.v / v.v``,
  ``r_perp = a - k v`` and ``d = |r_perp| dt / |v|``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import GMM_COMPONENTS
from flowcache import (
    CompensationToggles,
    Condition,
    FieldSpec,
    MixtureComponent,
    NumericDomainError,
    VelocityField,
    initial_state,
    sample_cached,
    sample_full,
)
from flowcache.cached_sampler import _cached_kernel
from flowcache.decomposition import _decompose_rows
from flowcache.diagnostics import ABLATION_ORDER, ExperimentConfig, make_bundle
from flowcache.schedule import skip_intervals
from flowcache.solver import _full_kernel


def _intervals(schedule, n_steps):
    """The ``(start, length)`` intervals of a schedule's ``skip_intervals`` row, in order."""
    return [(n, h) for n, h in enumerate(skip_intervals(schedule, n_steps).tolist()) if h]


def ref_euler(state, velocity, dt):
    return state - dt * velocity


def ref_anchor(v_prev, v_curr):
    """The interval's turning anchor ``p``, or None where ``v_prev`` is zero."""
    vv = float(v_prev.dot(v_prev))
    if vv == 0.0:
        return None
    a = v_curr - v_prev
    return a - (float(a.dot(v_prev)) / vv) * v_prev


def ref_direction(anchor, v):
    """Unit residual ``u`` of ``anchor`` off ``v``, or None where it is degenerate."""
    vv = float(v.dot(v))
    if anchor is None or vv == 0.0:
        return None
    r = anchor - (float(anchor.dot(v)) / vv) * v
    norm = math.sqrt(r.dot(r))
    if norm == 0.0 or norm < 1e-12 * math.sqrt(anchor.dot(anchor)):
        return None
    return r / norm


def ref_reconstruct(v, u, k, d, dt):
    """The next skipped velocity after ``v`` with direction ``u`` (or None) and the step's ``k``, ``d``, ``dt``."""
    out = np.exp(k * dt) * v
    if u is not None and d != 0.0:
        out += d * math.sqrt(v.dot(v)) * u
    return out


def ref_split(v, accel, dt):
    """``(k, r_perp, d)`` of ``accel`` along a nonzero ``v``."""
    vv = float(v.dot(v))
    k = float(accel.dot(v)) / vv
    r_perp = accel - k * v
    return k, r_perp, math.sqrt(r_perp.dot(r_perp)) * dt / math.sqrt(vv)


def _reference_full(field, grid, x0, condition):
    n = grid.n_steps
    states = np.empty((n + 1, field.dimension))
    velocities = np.empty((n, field.dimension))
    states[0] = x0
    for i in range(n):
        velocities[i] = field.evaluate(states[i], float(grid.times[i]), condition)
        states[i + 1] = ref_euler(states[i], velocities[i], grid.dt[i])
    return states, velocities


def _reference_cached(field, bundle, x0, condition, toggles):
    """The cached run, one rule and one step at a time."""
    grid = bundle.grid
    n_steps = grid.n_steps
    dt = grid.dt
    k_tilde = bundle.indicators.k_tilde if toggles.use_mi else np.zeros(n_steps)
    d_tilde = bundle.indicators.d_tilde if toggles.use_di else np.zeros(n_steps)
    states = np.empty((n_steps + 1, field.dimension))
    velocities = np.empty((n_steps, field.dimension))
    evaluated = np.zeros(n_steps, dtype=bool)
    directions = np.full((n_steps, field.dimension), np.nan)
    states[0] = x0
    last = None
    for n, h in _intervals(bundle.schedule, n_steps):
        v = field.evaluate(states[n], float(grid.times[n]), condition)
        evaluated[n] = True
        anchor = ref_anchor(last, v) if h > 1 else None
        v_hat = v
        for m in range(n, n + h):
            u_hat = ref_direction(anchor, v_hat)
            if u_hat is not None:
                directions[m] = u_hat
            velocities[m] = v_hat
            states[m + 1] = ref_euler(states[m], v_hat, dt[m])
            v_hat = ref_reconstruct(v_hat, u_hat, k_tilde[m], d_tilde[m], dt[m])
        last = v
    return states, velocities, directions, evaluated


def _mixture(dimension, components, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(components))
    weights[-1] = 1.0 - weights[:-1].sum()
    return FieldSpec(
        kind="gaussian-mixture",
        dimension=dimension,
        components=tuple(
            MixtureComponent(float(w), tuple(rng.normal(0.0, 1.5, dimension).tolist()), float(rng.uniform(0.5, 1.5)))
            for w in weights
        ),
    )


# Mixtures skip and turn; rotation turns at constant speed; magnitude-decay and
# constant have parallel-only increments, so their directions rows are all NaN.
KERNEL_FIELDS = {
    "mixture-d3": (_mixture(3, 2, 1), dict(tau_k=0.3, tau_d=3.0)),
    "mixture-d64": (_mixture(64, 8, 2), dict(tau_k=0.3, tau_d=3.0)),
    "rotation": (FieldSpec(kind="rotation", dimension=2, target=(1.0, 0.0), rate=2.0, plane=(0, 1)), {}),
    "magnitude-decay": (FieldSpec(kind="magnitude-decay", dimension=2, target=(1.0, -0.5), rate=0.03), {}),
    "constant": (FieldSpec(kind="constant", dimension=3, target=(0.8, -1.1, 0.4)), {}),
}


def _setup(name):
    spec, thresholds = KERNEL_FIELDS[name]
    config = ExperimentConfig(
        field=spec, n_steps=50, calibration_seeds=(1, 2, 3, 4), evaluation_seeds=(100,), h_max=12, **thresholds
    )
    return make_bundle(config)


class TestSamplerKernels:
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_full_matches_reference(self, name):
        field, grid, _ = _setup(name)
        for seed in (100, 101):
            condition = Condition(seed)
            x0 = initial_state(condition, field.dimension)
            record = sample_full(field, grid, x0, condition)
            states, velocities = _reference_full(field, grid, x0, condition)
            assert np.array_equal(record.states, states)
            assert np.array_equal(record.velocities, velocities)
            assert record.evaluated.all()

    @pytest.mark.parametrize("toggles", ABLATION_ORDER, ids=lambda t: f"mi{int(t[0])}-di{int(t[1])}")
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_cached_matches_reference(self, name, toggles):
        field, grid, bundle = _setup(name)
        toggles = CompensationToggles(*toggles)
        assert (bundle.schedule > 1).any()  # the schedule skips
        for seed in (100, 101):
            condition = Condition(seed)
            x0 = initial_state(condition, field.dimension)
            field.reset_evaluations()
            record = sample_cached(field, bundle, x0, condition, toggles)
            assert field.evaluations == record.nfe
            states, velocities, directions, evaluated = _reference_cached(field, bundle, x0, condition, toggles)
            assert np.array_equal(record.states, states)
            assert np.array_equal(record.velocities, velocities)
            assert np.array_equal(record.directions, directions, equal_nan=True)
            assert np.array_equal(record.evaluated, evaluated)
            recorded = ~np.isnan(record.directions).all(axis=1)
            if name in ("magnitude-decay", "constant"):
                assert not recorded.any()
            else:
                assert recorded.any()

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_batches_match_reference(self, name):
        field, grid, bundle = _setup(name)
        conditions = [Condition(seed) for seed in (100, 101, 102)]
        x0 = np.array([initial_state(c, field.dimension) for c in conditions])
        toggles = CompensationToggles()
        cached = list(_cached_kernel(field, bundle, x0, conditions, toggles))
        full = list(_full_kernel(field, grid, x0, conditions))
        for records in (cached, full):  # the three runs share one block
            assert records[1].states.base is records[0].states.base is records[2].states.base
        for start, condition, cached_run, full_run in zip(x0, conditions, cached, full, strict=True):
            states, velocities, directions, evaluated = _reference_cached(field, bundle, start, condition, toggles)
            assert np.array_equal(cached_run.states, states)
            assert np.array_equal(cached_run.velocities, velocities)
            assert np.array_equal(cached_run.directions, directions, equal_nan=True)
            assert np.array_equal(cached_run.evaluated, evaluated)
            states, velocities = _reference_full(field, grid, start, condition)
            assert np.array_equal(full_run.states, states)
            assert np.array_equal(full_run.velocities, velocities)
            assert full_run.evaluated.all() and full_run.directions is None


class _PoisonedField(VelocityField):
    """A field whose oracle returns ``value`` in one entry at time ``bad_t``."""

    def __init__(self, spec, bad_t, value):
        super().__init__(spec)
        clean = self._velocity

        def poisoned(state, t):
            v = clean(state, t)
            if t == bad_t:
                v[-1] = value
            return v

        self._velocity = poisoned


class TestNonFiniteOracle:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("sampler", ["full", "cached"])
    def test_raises_numeric_domain_error(self, sampler, value):
        _, grid, bundle = _setup("mixture-d3")
        anchors = [n for n, _ in _intervals(bundle.schedule, grid.n_steps)]
        bad_step = anchors[len(anchors) // 2]  # an anchor, so both samplers evaluate it
        assert bad_step > 0
        field = _PoisonedField(KERNEL_FIELDS["mixture-d3"][0], float(grid.times[bad_step]), value)
        condition = Condition(100)
        x0 = initial_state(condition, field.dimension)
        with pytest.raises(NumericDomainError):
            if sampler == "full":
                sample_full(field, grid, x0, condition)
            else:
                sample_cached(field, bundle, x0, condition)

    @pytest.mark.parametrize("sampler", ["full", "cached"])
    def test_non_finite_start_state_raises(self, sampler):
        field, grid, bundle = _setup("constant")
        x0 = np.array([0.0, np.nan, 1.0])
        with pytest.raises(NumericDomainError):
            if sampler == "full":
                sample_full(field, grid, x0, Condition(100))
            else:
                sample_cached(field, bundle, x0, Condition(100))


class TestFloatingPointState:
    def test_overflow_is_named_not_warned(self):
        # huge d_tilde entries: the rebuilt velocity overflows only with |v|, and the walk names the run's first
        # non-finite state instead, as the plain-numpy reference finds it
        field, grid, bundle = _setup("mixture-d3")
        d_tilde = bundle.indicators.d_tilde.copy()
        d_tilde[bundle.schedule > 1] = 1e308
        huge = replace(bundle, indicators=replace(bundle.indicators, d_tilde=d_tilde))
        condition = Condition(100)
        x0 = initial_state(condition, field.dimension)
        with np.errstate(all="ignore"):
            states = _reference_cached(field, huge, x0, condition, CompensationToggles())[0]
        first = next(k for k, state in enumerate(states) if not np.isfinite(state).all())
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(NumericDomainError, match=rf"^the trajectory left the finite range at step {first} \(t="):
                sample_cached(field, huge, x0, condition)

    def test_a_huge_d_tilde_is_the_runs_fault_not_the_oracles(self):
        # the README config's bundle with every d_tilde entry 1e308: the run's state is NaN from node 17, and the
        # mixture oracle, handed that row at the next anchor (node 18), returns NaN for it. A run with a record names
        # node 17, alone or in a batch; a record-free row is checked at its interval's end, node 18
        config = ExperimentConfig(
            field=FieldSpec(kind="gaussian-mixture", dimension=3, components=GMM_COMPONENTS),
            n_steps=50,
            calibration_seeds=tuple(range(1000, 1006)),
            evaluation_seeds=(2000, 2001),
            tau_k=0.06,
            tau_d=0.6,
            h_max=12,
        )
        field, grid, bundle = make_bundle(config)
        huge = replace(bundle, indicators=replace(bundle.indicators, d_tilde=np.full(grid.n_steps, 1e308)))
        assert bundle.opening[17] == 0 and bundle.opening[18] > 0  # node 17 is a rebuilt step, node 18 an anchor
        conditions = [Condition(seed) for seed in config.evaluation_seeds]
        x0 = np.array([initial_state(c, field.dimension) for c in conditions])
        named = {17: "at step 17 (t=0.6599999999999999)", 18: "at step 18 (t=0.64)"}
        with pytest.raises(NumericDomainError) as single:
            sample_cached(field, huge, x0[0], conditions[0])
        assert str(single.value) == f"the trajectory left the finite range {named[17]}"
        for records, node in ((None, 17), (0, 18)):
            with pytest.raises(NumericDomainError) as batched:
                list(_cached_kernel(field, huge, x0, conditions, CompensationToggles(), records))
            assert str(batched.value) == f"the trajectory left the finite range {named[node]}"

    def test_a_record_free_walk_names_the_end_of_the_interval(self):
        # the records walk searches back to the first non-finite state; a record-free walk holds one state row,
        # checked at each interval's end, so it names the end of the interval in which the state left the range.
        # (An oracle handed a non-finite state is not blamed for its output, so a state-dependent field names the
        # same steps.)
        field, grid, bundle = _setup("rotation")
        n, h = max(_intervals(bundle.schedule, grid.n_steps), key=lambda interval: interval[1])
        assert h > 3
        d_tilde = bundle.indicators.d_tilde.copy()
        d_tilde[n : n + 2] = 1e308  # |v_{n+1}| is near 1e308, finite; v_{n+2} overflows, so state n + 3 does
        huge = replace(bundle, indicators=replace(bundle.indicators, d_tilde=d_tilde))
        conditions = [Condition(100), Condition(101)]
        x0 = np.array([initial_state(c, field.dimension) for c in conditions])
        named = []
        for records in (None, 0):  # every run with a record, then none
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(NumericDomainError, match=r"at step \d+ \(t=") as caught:
                    for _ in _cached_kernel(field, huge, x0, conditions, CompensationToggles(), records):
                        pass
            named.append(int(str(caught.value).split("at step ")[1].split(" ")[0]))
        first, end = named
        assert n < first < end == n + h

    def test_the_callers_state_holds_while_it_holds_a_record(self):
        field, grid, _ = _setup("mixture-d3")
        conditions = [Condition(seed) for seed in (100, 101)]
        x0 = np.array([initial_state(c, field.dimension) for c in conditions])
        with np.errstate(over="raise", invalid="warn"):
            for _ in _full_kernel(field, grid, x0, conditions):
                assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "warn"


class TestDecomposeRows:
    @pytest.mark.parametrize("dim", [2, 3, 64, 1024])
    def test_rows_equal_decompose_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        n = 40
        v = rng.standard_normal((n, dim)) * rng.uniform(0.01, 10.0, size=(n, 1))
        v[7] = 0.0  # a zero-velocity row
        v[11] = 3.0 * v[10]
        accel = rng.standard_normal((n, dim))
        accel[10] = -2.0 * v[10]  # parallel: r_perp cancels
        accel[12] = 0.0
        dt = rng.uniform(0.01, 1.0, size=n)
        k, r_perp, d = _decompose_rows(v, accel.copy(), dt)
        for i in range(n):
            if i == 7:
                assert k[i] == 0.0 and d[i] == 0.0
                assert not r_perp[i].any()
                continue
            ref_k, ref_r_perp, ref_d = ref_split(v[i], accel[i], dt[i])
            assert k[i] == ref_k
            assert d[i] == ref_d
            assert np.array_equal(r_perp[i], ref_r_perp)

    def test_overflowing_rows_split_exactly_and_alone(self):
        rng = np.random.default_rng(5)
        v, accel, dt = rng.standard_normal((6, 8)), rng.standard_normal((6, 8)), rng.uniform(0.01, 1.0, size=6)
        k0, r0, d0 = _decompose_rows(v, accel, dt)
        big_v, big_a = v.copy(), accel.copy()
        big_v[1] *= 2.0**600  # v.v overflows: the split is the unscaled row's, r_perp scaled with the row
        big_a[1] *= 2.0**600
        big_v[2] *= 2.0**560  # accel 2**40 times larger than v, relative to row 2: k and d scale by 2**40
        big_a[2] *= 2.0**600
        big_v[3, 0] = np.inf  # a non-finite entry is not rescaled
        with np.errstate(all="raise"):
            k, r_perp, d = _decompose_rows(big_v, big_a, dt)
        for i in (0, 4, 5):  # the ordinary rows keep their bits
            assert k[i] == k0[i] and d[i] == d0[i] and np.array_equal(r_perp[i], r0[i])
        assert k[1] == k0[1] and d[1] == d0[1] and np.array_equal(r_perp[1], r0[1] * 2.0**600)
        assert k[2] == k0[2] * 2.0**40 and d[2] == d0[2] * 2.0**40 and np.array_equal(r_perp[2], r0[2] * 2.0**600)
        assert not (math.isfinite(k[3]) and math.isfinite(d[3]))
        assert np.array_equal(big_a[1], accel[1] * 2.0**600)  # accel is left as it was
