"""The samplers' and the decomposition's private kernels against their public one-step wrappers.

Each reference below is built only from the validated public functions
(``init_direction``, ``reorthogonalize``, ``skip_update``, ``euler_step``,
``decompose``), one step at a time, so equality here pins the kernels to
the rules those functions state.
"""

from __future__ import annotations

import numpy as np
import pytest

from flowcache import (
    CompensationToggles,
    Condition,
    DegenerateDirectionError,
    DegenerateVelocityError,
    FieldSpec,
    MixtureComponent,
    NumericDomainError,
    VelocityField,
    decompose,
    euler_step,
    init_direction,
    initial_state,
    reorthogonalize,
    sample_cached,
    sample_full,
    skip_update,
)
from flowcache.decomposition import _decompose_rows
from flowcache.diagnostics import ABLATION_ORDER, ExperimentConfig, make_bundle
from flowcache.schedule import skip_intervals


def _reference_full(field, grid, x0, condition):
    n = grid.n_steps
    states = np.empty((n + 1, field.dimension))
    velocities = np.empty((n, field.dimension))
    states[0] = x0
    for i in range(n):
        velocities[i] = field.evaluate(states[i], float(grid.times[i]), condition)
        states[i + 1] = euler_step(states[i], velocities[i], float(grid.dt[i]))
    return states, velocities


def _reference_cached(field, bundle, x0, condition, toggles):
    """The cached walk, one validated public call per rule and per step."""
    grid = bundle.grid
    n_steps = grid.n_steps
    dt = grid.dt
    k_tilde = bundle.indicators.k_tilde
    d_tilde = bundle.indicators.d_tilde
    states = np.empty((n_steps + 1, field.dimension))
    velocities = np.empty((n_steps, field.dimension))
    evaluated = np.zeros(n_steps, dtype=bool)
    directions = np.full((n_steps, field.dimension), np.nan)
    states[0] = x0
    last = None
    for n, h in skip_intervals(bundle.schedule, n_steps):
        v = field.evaluate(states[n], float(grid.times[n]), condition)
        evaluated[n] = True
        anchor = None
        if h > 1:
            try:
                anchor = init_direction(last, v)
            except DegenerateVelocityError:
                pass
        v_hat = v
        for m in range(n, n + h):
            u_hat = None
            if anchor is not None:
                try:
                    u_hat = directions[m] = reorthogonalize(anchor, v_hat)
                except (DegenerateDirectionError, DegenerateVelocityError):
                    pass
            velocities[m] = v_hat
            states[m + 1] = euler_step(states[m], v_hat, float(dt[m]))
            v_hat = skip_update(v_hat, u_hat, float(k_tilde[m]), float(d_tilde[m]), float(dt[m]), toggles)
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
            dec = decompose(v[i], accel[i], float(dt[i]))
            assert k[i] == dec.k
            assert d[i] == dec.d
            assert np.array_equal(r_perp[i], dec.r_perp)
