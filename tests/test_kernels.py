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
from flowcache import solver
from flowcache.cached_sampler import _cached_kernel
from flowcache.decomposition import _decompose_rows
from flowcache.diagnostics import ABLATION_ORDER, ExperimentConfig, make_bundle
from flowcache.schedule import skip_intervals
from flowcache.solver import _full_kernel


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
    for n, h in skip_intervals(bundle.schedule, n_steps):
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
    def test_batches_match_reference(self, name, monkeypatch):
        field, grid, bundle = _setup(name)
        # two runs per batch for either kernel, so three seeds span two batches
        monkeypatch.setattr(solver, "_BATCH_BYTES", 2 * 8 * (3 * grid.n_steps + 1) * field.dimension)
        conditions = [Condition(seed) for seed in (100, 101, 102)]
        x0 = np.array([initial_state(c, field.dimension) for c in conditions])
        toggles = CompensationToggles()
        cached = list(_cached_kernel(field, bundle, x0, conditions, toggles))
        full = list(_full_kernel(field, grid, x0, conditions))
        for records in (cached, full):
            assert records[1].states.base is records[0].states.base
            assert records[2].states.base is not records[0].states.base
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
        anchors = [n for n, _ in skip_intervals(bundle.schedule, grid.n_steps)]
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
        # huge d_tilde entries: the rebuilt velocity overflows only with |v|, and the walk names a step instead
        field, grid, bundle = _setup("mixture-d3")
        d_tilde = bundle.indicators.d_tilde.copy()
        d_tilde[bundle.schedule > 1] = 1e308
        huge = replace(bundle, indicators=replace(bundle.indicators, d_tilde=d_tilde))
        condition = Condition(100)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(NumericDomainError, match=r"at step \d+ \(t="):
                sample_cached(field, huge, initial_state(condition, field.dimension), condition)

    def test_the_callers_state_holds_between_batches(self, monkeypatch):
        field, grid, _ = _setup("mixture-d3")
        monkeypatch.setattr(solver, "_BATCH_BYTES", 8 * (2 * grid.n_steps + 1) * field.dimension)  # one run per batch
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
