from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from flowcache import (
    Condition,
    FieldSpec,
    InvalidArgumentError,
    MixtureComponent,
    VelocityField,
    field_digest,
    initial_state,
    sample_cached,
    sample_full,
)
from mc_oracle import mc_mixture_velocity
from test_kernels import KERNEL_FIELDS, _setup

STD_NORMAL = [(1.0, np.zeros(2), 1.0)]


def _mixture_velocity(x, t, components):
    """The velocity at ``(x, t)`` of a fresh gaussian-mixture field of ``(weight, mean, scale)`` components."""
    x = np.asarray(x, dtype=float)
    components = tuple(MixtureComponent(float(w), tuple(np.asarray(m, dtype=float).tolist()), float(s)) for w, m, s in components)
    spec = FieldSpec(kind="gaussian-mixture", dimension=x.size, components=components)
    return VelocityField(spec).evaluate(x, t, Condition(0))


class TestFieldSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(kind="spline", dimension=2, target=(1.0, 0.0))

    def test_dimension_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(kind="constant", dimension=0, target=())

    def test_target_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(kind="constant", dimension=3, target=(1.0, 2.0))

    def test_mixture_weights_must_normalize(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(
                kind="gaussian-mixture",
                dimension=1,
                components=(MixtureComponent(0.6, (0.0,), 1.0), MixtureComponent(0.6, (1.0,), 1.0)),
            )

    def test_mixture_scales_positive(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(kind="gaussian-mixture", dimension=1, components=(MixtureComponent(1.0, (0.0,), 0.0),))

    def test_mixture_needs_components(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(kind="gaussian-mixture", dimension=1)

    def test_rotation_plane_checked(self):
        with pytest.raises(InvalidArgumentError):
            FieldSpec(kind="rotation", dimension=2, target=(1.0, 0.0), rate=1.0, plane=(0, 0))

    def test_roundtrip_through_dict(self, gmm_spec):
        assert FieldSpec.from_dict(gmm_spec.to_dict()) == gmm_spec


def test_constant_field_returns_target(constant_spec):
    vf = VelocityField(constant_spec)
    c = Condition(0)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_array_equal(vf.evaluate(np.array([5.0, -2.0]), t, c), [1.0, -1.0])


def test_zero_rate_decay_is_constant():
    spec = FieldSpec(kind="magnitude-decay", dimension=2, target=(2.0, 3.0), rate=0.0)
    vf = VelocityField(spec)
    for t in (0.0, 0.5, 1.0):
        np.testing.assert_array_equal(vf.evaluate(np.zeros(2), t, Condition(1)), [2.0, 3.0])


def test_single_standard_component_closed_form():
    # one component with mean 0 and unit scale: v = (2t - 1) x / (t^2 + (1-t)^2)
    rng = np.random.default_rng(5)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = rng.standard_normal(2)
        s2 = t * t + (1.0 - t) ** 2
        expected = (2.0 * t - 1.0) * x / s2
        got = _mixture_velocity(x, t, STD_NORMAL)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


def test_single_standard_component_at_noise_end():
    x = np.array([0.7, -1.2])
    np.testing.assert_allclose(_mixture_velocity(x, 1.0, STD_NORMAL), x, rtol=1e-14)


def test_symmetric_pair_cancels_at_origin():
    comps = [(0.5, np.array([1.5, 0.0]), 1.0), (0.5, np.array([-1.5, 0.0]), 1.0)]
    v = _mixture_velocity(np.zeros(2), 0.5, comps)
    np.testing.assert_allclose(v, 0.0, atol=1e-14)


def test_mixture_weights_validated_in_velocity():
    # the spec owns the weights: a field whose weights sum to 0.7 is never built
    with pytest.raises(InvalidArgumentError):
        _mixture_velocity(np.zeros(1), 0.5, [(0.7, np.zeros(1), 1.0)])


def test_log_space_responsibilities_survive_extreme_states():
    comps = [(0.5, np.zeros(2), 1.0), (0.5, np.full(2, 3.0), 0.5)]
    v = _mixture_velocity(np.full(2, 60.0), 0.4, comps)
    assert np.isfinite(v).all()


def test_matches_mc_oracle_at_million_samples():
    # standard-normal data distribution, 1e6 samples, 3 standard errors
    rng = np.random.default_rng(42)
    x = np.array([0.9, -0.4])
    t = 0.7
    closed = _mixture_velocity(x, t, STD_NORMAL)
    estimate, stderr = mc_mixture_velocity(x, t, STD_NORMAL, 1_000_000, rng)
    assert np.all(np.abs(closed - estimate) <= 3.0 * np.maximum(stderr, 1e-12))


def test_mc_oracle_agreement_over_random_specs():
    # 200 random (x, t, spec) triples in dimension <= 4, 4 standard errors
    rng = np.random.default_rng(2024)
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        n_comp = int(rng.integers(1, 4))
        raw = rng.uniform(0.5, 2.0, size=n_comp)
        weights = raw / raw.sum()
        comps = [
            (float(weights[i]), rng.normal(0.0, 1.5, size=dim), float(rng.uniform(0.6, 1.6)))
            for i in range(n_comp)
        ]
        t = float(rng.uniform(0.2, 1.0))
        # draw the state from the actual interpolation marginal so the
        # importance weights stay well conditioned
        i = int(rng.choice(n_comp, p=weights))
        x0 = comps[i][1] + comps[i][2] * rng.standard_normal(dim)
        x = t * rng.standard_normal(dim) + (1.0 - t) * x0

        closed = _mixture_velocity(x, t, comps)
        estimate, stderr = mc_mixture_velocity(x, t, comps, 100_000, rng)
        assert np.all(np.abs(closed - estimate) <= 4.0 * np.maximum(stderr, 1e-12))


def test_evaluate_is_deterministic(gmm_spec):
    vf = VelocityField(gmm_spec)
    c = Condition(7, params=(0.5,))
    x = np.array([0.3, -0.2, 1.1])
    a = vf.evaluate(x, 0.42, c)
    b = vf.evaluate(x, 0.42, c)
    np.testing.assert_array_equal(a, b)


def _random_mixture_spec(dim, n_comp, rng):
    raw = rng.uniform(0.5, 2.0, size=n_comp)
    means = rng.normal(0.0, 1.5, size=(n_comp, dim))
    scales = rng.uniform(0.5, 1.5, size=n_comp)
    components = tuple(
        MixtureComponent(float(w), tuple(float(m) for m in mean), float(s))
        for w, mean, s in zip(raw / raw.sum(), means, scales)
    )
    return FieldSpec(kind="gaussian-mixture", dimension=dim, components=components)


@pytest.mark.parametrize("spec_name", ["constant_spec", "decay_spec", "rotation_spec"])
def test_returned_velocity_is_not_field_state(spec_name, request):
    vf = VelocityField(request.getfixturevalue(spec_name))
    x = np.array([0.4, -0.3])
    first = vf.evaluate(x, 0.6, Condition(0))
    expected = first.copy()
    first[:] = 99.0
    np.testing.assert_array_equal(vf.evaluate(x, 0.6, Condition(0)), expected)


def test_spec_is_read_only(constant_spec, gmm_spec):
    vf = VelocityField(constant_spec)
    with pytest.raises(AttributeError):
        vf.spec = gmm_spec
    assert vf.spec is constant_spec


def test_counter_counts_and_resets(constant_spec):
    vf = VelocityField(constant_spec)
    c = Condition(0)
    assert vf.evaluations == 0
    for _ in range(5):
        vf.evaluate(np.zeros(2), 0.5, c)
    assert vf.evaluations == 5
    vf.reset_evaluations()
    assert vf.evaluations == 0


def test_counter_is_thread_safe(constant_spec):
    vf = VelocityField(constant_spec)
    c = Condition(0)

    def worker():
        for _ in range(500):
            vf.evaluate(np.zeros(2), 0.5, c)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert vf.evaluations == 8 * 500


def test_failed_calls_do_not_count(constant_spec):
    vf = VelocityField(constant_spec)
    with pytest.raises(InvalidArgumentError):
        vf.evaluate(np.zeros(3), 0.5, Condition(0))
    with pytest.raises(InvalidArgumentError):
        vf.evaluate(np.zeros(2), 1.5, Condition(0))
    assert vf.evaluations == 0


def test_initial_state_is_seed_deterministic():
    a = initial_state(Condition(123), 4)
    b = initial_state(Condition(123), 4)
    c = initial_state(Condition(124), 4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_field_digest_separates_specs(constant_spec, gmm_spec):
    assert field_digest(constant_spec) == field_digest(constant_spec)
    assert field_digest(constant_spec) != field_digest(gmm_spec)


def test_condition_seed_range_validated():
    with pytest.raises(InvalidArgumentError):
        Condition(-1)
    with pytest.raises(InvalidArgumentError):
        Condition(2**64)


def _longdouble_mixture_velocity(x, t, weights, means, scales):
    """The direct formula (z_i = x - (1 - t) mu_i formed per component) in np.longdouble."""
    ld = np.longdouble
    x, means, scales_sq = x.astype(ld), means.astype(ld), scales.astype(ld) ** 2
    t = ld(t)
    one_t = 1 - t
    s2 = t * t + one_t * one_t * scales_sq
    z = x - one_t * means
    log_resp = np.log(weights.astype(ld)) - (z * z).sum(axis=1) / (2 * s2) - x.size * np.log(s2) / 2
    resp = np.exp(log_resp - log_resp.max())
    resp /= resp.sum()
    coef = (t - one_t * scales_sq) / s2
    return (resp[:, None] * (coef[:, None] * z - means)).sum(axis=0), resp


class TestMixtureArithmetic:
    """The matrix-vector form of the mixture velocity and its per-time constants."""

    @pytest.mark.parametrize("dim", [3, 64, 1024])
    @pytest.mark.parametrize("width", ["wide", "narrow", "mixed"])
    def test_matches_a_longdouble_reference(self, dim, width):
        rng = np.random.default_rng(dim)
        n = 8
        weights = rng.dirichlet(np.ones(n))
        if width == "wide":
            means, scales = rng.normal(0.0, 1.5, (n, dim)), rng.uniform(0.5, 3.0, n)
        elif width == "narrow":
            means, scales = rng.normal(0.0, 50.0, (n, dim)), 10.0 ** rng.uniform(-4.0, -2.0, n)
        else:
            means = rng.normal(0.0, 20.0, (n, dim))
            scales = np.concatenate([10.0 ** rng.uniform(-4.0, -1.0, n // 2), rng.uniform(0.5, 3.0, n // 2)])
        components = list(zip(weights, means, scales))
        field = VelocityField(
            FieldSpec(
                kind="gaussian-mixture",
                dimension=dim,
                components=tuple(MixtureComponent(float(w), tuple(m), float(s)) for w, m, s in components),
            )
        )
        # the grid ends, interior times, and each component's s^2 minimum t = sigma^2 / (1 + sigma^2)
        times = [0.0, 1e-6, 1e-3, 0.25, 0.5, 0.9, 1.0] + list(scales**2 / (1.0 + scales**2))
        worst = 0.0
        for t in times:
            # a broad state, and states drawn from the marginal of X_t near one component each
            states = [3.0 * rng.standard_normal(dim)]
            for i in rng.integers(0, n, size=3):
                spread = np.sqrt(t * t + (1.0 - t) ** 2 * scales[i] ** 2)
                states.append((1.0 - t) * means[i] + spread * rng.standard_normal(dim))
            batch = field.evaluate(np.array(states), t, [Condition(k) for k in range(len(states))])
            for x, row in zip(states, batch):
                reference, _ = _longdouble_mixture_velocity(x, t, weights, means, scales)
                single = _mixture_velocity(x, t, components)
                assert np.array_equal(single, row)
                worst = max(worst, float(np.linalg.norm(single - reference) / np.linalg.norm(reference)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("dim", [3, 64, 1024])
    def test_overlapping_components_off_the_origin(self, dim):
        # narrow components about 1e-3 apart at 100 in every coordinate, so states share
        # the posterior; expanding |x - (1 - t) mu_i|^2 about the origin rather than the
        # means' weighted mean would lose digits in proportion to |x|^2 / s^2
        rng = np.random.default_rng(dim + 7)
        weights = rng.dirichlet(np.ones(4))
        scales = np.array([1e-3, 1e-3, 2e-3, 5e-4])
        means = 100.0 + 1e-3 / np.sqrt(dim) * rng.standard_normal((4, dim))
        components = list(zip(weights, means, scales))
        worst, shared = 0.0, 0.0
        for t in (0.0, 1e-4, 5e-4, 1e-3, 0.01):
            for i in range(4):
                spread = np.sqrt(t * t + (1.0 - t) ** 2 * scales[i] ** 2)
                x = (1.0 - t) * means[i] + spread * rng.standard_normal(dim)
                reference, resp = _longdouble_mixture_velocity(x, t, weights, means, scales)
                got = _mixture_velocity(x, t, components)
                worst = max(worst, float(np.linalg.norm(got - reference) / np.linalg.norm(reference)))
                shared = max(shared, float(np.sort(resp)[-2]))
        assert shared > 0.05  # the case is not one-hot
        assert worst <= 1e-12

    @staticmethod
    def _velocities(field, x, times):
        return [field.evaluate(x, t, Condition(0)) for t in times]

    def test_kept_constants_change_no_result(self, monkeypatch):
        from flowcache import fields

        monkeypatch.setattr(fields, "_TIMES_KEPT", 4)
        rng = np.random.default_rng(5)
        spec = _random_mixture_spec(16, 5, rng)
        x = rng.standard_normal(16)
        times = [0.5, 0.1, 1.0, 0.0, 0.73, 0.5, 0.1]
        fresh = [self._velocities(VelocityField(spec), x, [t])[0] for t in times]
        field = VelocityField(spec)
        kept = field._velocity._by_time
        # out of order, repeated, and past the cap, so the dict clears and refills
        for order in (times, times[::-1], times):
            for t, got in zip(order, self._velocities(field, x, order)):
                assert np.array_equal(got, fresh[times.index(t)])
                assert 1 <= len(kept) <= 4

    def test_constants_are_kept_once_per_time(self):
        rng = np.random.default_rng(6)
        field = VelocityField(_random_mixture_spec(3, 2, rng))
        times = np.linspace(1.0, 0.0, 11)
        for _ in range(3):
            self._velocities(field, rng.standard_normal(3), times)
        assert sorted(field._velocity._by_time) == sorted(times.tolist())

    def test_prepared_constants_equal_one_time_builds(self):
        rng = np.random.default_rng(8)
        spec = _random_mixture_spec(64, 6, rng)
        times = np.linspace(1.0, 0.0, 101).tolist() + rng.uniform(0.0, 1.0, 50).tolist() + [5e-324, 0.5]
        field = VelocityField(spec)
        field.prepare(times)
        kept = field._velocity._by_time
        assert len(kept) == len(set(times))
        x = rng.standard_normal(64)
        for t in times:
            alone = VelocityField(spec)
            alone.evaluate(x, t, Condition(0))  # builds the constants of t alone
            assert all(np.array_equal(a, b) for a, b in zip(kept[t], alone._velocity._by_time[t], strict=True))

    def test_prepare_past_the_cap_keeps_a_bounded_dict(self, monkeypatch):
        from flowcache import fields

        monkeypatch.setattr(fields, "_TIMES_KEPT", 4)
        rng = np.random.default_rng(9)
        spec = _random_mixture_spec(3, 2, rng)
        x = rng.standard_normal(3)
        times = np.linspace(1.0, 0.0, 11).tolist()
        field = VelocityField(spec)
        field.prepare(times)
        assert list(field._velocity._by_time) == times[:4]
        for t, got in zip(times, self._velocities(field, x, times)):
            assert np.array_equal(got, self._velocities(VelocityField(spec), x, [t])[0])
            assert len(field._velocity._by_time) <= 4

    def test_a_walk_builds_its_times_in_one_pass(self, monkeypatch):
        _, grid, bundle = _setup("mixture-d3")
        spec = KERNEL_FIELDS["mixture-d3"][0]
        assert (bundle.schedule > 1).any()
        x0 = initial_state(Condition(100), spec.dimension)
        for run in (
            lambda field: sample_full(field, grid, x0, Condition(100)),
            lambda field: sample_cached(field, bundle, x0, Condition(100)),
        ):
            field = VelocityField(spec)
            build, passes = field._velocity._constants, []
            monkeypatch.setattr(field._velocity, "_constants", lambda t: passes.append(np.ravel(t).tolist()) or build(t))
            record = run(field)
            # one pass over the times the walk opens at, and no oracle call builds its own
            assert passes == [grid.times[:-1][record.evaluated].tolist()]

    def test_threads_sharing_the_kept_constants_get_fresh_results(self, monkeypatch):
        from flowcache import fields

        monkeypatch.setattr(fields, "_TIMES_KEPT", 4)
        rng = np.random.default_rng(11)
        spec = _random_mixture_spec(16, 5, rng)
        x = rng.standard_normal(16)
        times = np.linspace(1.0, 0.0, 13).tolist()
        expected = {t: self._velocities(VelocityField(spec), x, [t])[0] for t in times}
        field = VelocityField(spec)
        wrong, done = [], []

        def worker(k):
            for t in (times[k:] + times[:k]) * 20:
                if not np.array_equal(field.evaluate(x, t, Condition(k)), expected[t]):
                    wrong.append(t)
            done.append(k)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(done) == list(range(8)) and not wrong
        assert len(field._velocity._by_time) <= 4 + 8  # a clear and a build may interleave once per thread
        assert field.evaluations == 8 * 20 * len(times)
