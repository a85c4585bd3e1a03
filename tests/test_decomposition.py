"""The parallel/orthogonal split, through the row kernel that calibration runs."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from flowcache import (
    BundleFormatError,
    Condition,
    FieldSpec,
    VelocityField,
    initial_state,
    make_uniform_grid,
    read_bundle,
    sample_full,
    write_bundle,
)
from flowcache.decomposition import _accel_rows, _decompose_rows
from flowcache.diagnostics import ExperimentConfig, make_bundle
from flowcache import verify
from flowcache.verify import _povd_rows, suite_povd


def _split(v, accel, dt):
    """``(k, r_perp, d)`` of one step, as a one-row pass of the kernel."""
    k, r_perp, d = _decompose_rows(np.array([v], dtype=float), np.array([accel], dtype=float), np.array([dt]))
    return float(k[0]), r_perp[0], float(d[0])


def _split_record(velocities, dt):
    """Per-step ``(k, r_perp, d)`` rows of a record's velocities, as calibration splits them."""
    v = np.asarray(velocities, dtype=float)
    return _decompose_rows(v[:-1], _accel_rows(v[:-1], v[1:], dt[: len(v) - 1]), dt[: len(v) - 1])


class TestDiscreteAccel:
    def test_constant_velocity_gives_zero(self):
        v = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(_accel_rows(v, v, np.array([0.5])), [[0.0, 0.0]])

    def test_hand_computed(self):
        a = _accel_rows(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([0.5]))
        np.testing.assert_array_equal(a, [[0.0, 2.0]])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        v1, v2 = rng.standard_normal((2, 1, 4))
        dt = np.array([0.3])
        np.testing.assert_allclose(_accel_rows(2 * v1, 2 * v2, dt), 2 * _accel_rows(v1, v2, dt))

    def test_bad_dt(self, tmp_path, constant_spec):
        # the bundle's time grid owns dt > 0: a bundle file whose times repeat is rejected naming them
        config = ExperimentConfig(field=constant_spec, n_steps=4, calibration_seeds=(1,), evaluation_seeds=(2,))
        path = tmp_path / "bundle.json"
        write_bundle(make_bundle(config)[2], path)
        payload = json.loads(path.read_text())
        payload["times"][2] = payload["times"][1]
        path.write_text(json.dumps(payload))
        with pytest.raises(BundleFormatError, match="times"):
            read_bundle(path)


class TestDecompose:
    def test_orthogonal_accel(self):
        k, r_perp, d = _split([1.0, 0.0], [0.0, 2.0], 0.5)
        assert k == 0.0
        np.testing.assert_array_equal(r_perp, [0.0, 2.0])
        assert d == pytest.approx(1.0)

    def test_parallel_accel(self):
        k, r_perp, d = _split([2.0, 0.0], [1.0, 0.0], 1.0)
        assert k == pytest.approx(0.5)
        np.testing.assert_allclose(r_perp, [0.0, 0.0], atol=1e-15)
        assert d == 0.0

    def test_zero_accel(self):
        k, r_perp, d = _split([1.0, 1.0], [0.0, 0.0], 0.5)
        assert k == 0.0 and d == 0.0
        np.testing.assert_array_equal(r_perp, [0.0, 0.0])

    def test_rotation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            v = rng.standard_normal(dim)
            a = rng.standard_normal(dim)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            base_k, base_r, base_d = _split(v, a, 0.3)
            k, r_perp, d = _split(q @ v, q @ a, 0.3)
            assert k == pytest.approx(base_k, abs=1e-10)
            assert d == pytest.approx(base_d, abs=1e-10)
            np.testing.assert_allclose(r_perp, q @ base_r, atol=1e-10)

    def test_scale_covariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = rng.standard_normal(5)
            a = rng.standard_normal(5)
            lam = float(rng.uniform(0.1, 10.0))
            base_k, base_r, base_d = _split(v, a, 0.7)
            k, r_perp, d = _split(lam * v, lam * a, 0.7)
            assert k == pytest.approx(base_k, rel=1e-12)
            assert d == pytest.approx(base_d, rel=1e-12)
            np.testing.assert_allclose(r_perp, lam * base_r, rtol=1e-12)

    def test_random_sweep_property(self):
        result = suite_povd(cases=2000, seed=11)
        assert result.passed, result.failures[:3]


class TestDecomposeTrajectory:
    def test_constant_field_all_zero(self, constant_spec):
        vf = VelocityField(constant_spec)
        grid = make_uniform_grid(10)
        record = sample_full(vf, grid, np.array([0.5, 0.5]), Condition(0))
        k, _, d = _split_record(record.velocities, grid.dt)
        assert k.size == 9
        assert not k.any() and not d.any()

    def test_decay_field_constant_k(self, decay_spec):
        vf = VelocityField(decay_spec)
        grid = make_uniform_grid(50)
        record = sample_full(vf, grid, initial_state(Condition(1), 2), Condition(1))
        k, _, d = _split_record(record.velocities, grid.dt)
        dt = 1.0 / 50
        expected_k = (math.exp(decay_spec.rate * dt) - 1.0) / dt
        np.testing.assert_allclose(k, expected_k, rtol=0, atol=1e-12)
        assert (d <= 1e-10).all()

    def test_rotation_field_direction_score(self):
        # at N=800 the per-step turning score approaches rate * dt
        rate = 2.0
        spec = FieldSpec(kind="rotation", dimension=2, target=(1.0, 0.0), rate=rate, plane=(0, 1))
        vf = VelocityField(spec)
        n = 800
        grid = make_uniform_grid(n)
        record = sample_full(vf, grid, np.array([0.1, 0.1]), Condition(0))
        dt = 1.0 / n
        k, _, d = _split_record(record.velocities, grid.dt)
        assert (np.abs(d - rate * dt) < 0.05 * rate * dt).all()
        assert (np.abs(k) < rate**2 * dt).all()  # parallel part vanishes as O(dt)

    def test_zero_velocity_step_maps_to_zero(self):
        grid = make_uniform_grid(3)
        velocities = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 1.0]])
        k, r_perp, d = _split_record(velocities, grid.dt)
        assert k[1] == 0.0 and d[1] == 0.0
        np.testing.assert_array_equal(r_perp[1], [0.0, 0.0])


class TestPovdSuite:
    def test_draws_keep_their_per_draw_order(self):
        # draw i of a seed is the configuration the suite drew one draw at a time
        rng = np.random.default_rng(101)
        v, a, dt = _povd_rows(np.random.default_rng(101), 300)
        for i in range(300):
            dim = int(rng.integers(2, 65))
            v_i = rng.standard_normal(dim)
            while float(np.linalg.norm(v_i)) == 0.0:
                v_i = rng.standard_normal(dim)
            a_i = rng.standard_normal(dim)
            assert np.array_equal(v[i], np.pad(v_i, (0, 64 - dim))) and np.array_equal(a[i], np.pad(a_i, (0, 64 - dim)))
            assert dt[i] == 1.0 - rng.random()

    def test_blocks_continue_one_stream(self, monkeypatch):
        whole = suite_povd(cases=50, seed=3)
        monkeypatch.setattr(verify, "_POVD_BLOCK", 7)
        assert suite_povd(cases=50, seed=3).stats == whole.stats

    def test_a_bad_split_is_named_by_its_draw(self, monkeypatch):
        # the checks take their own norms and dots, so a kernel that breaks a row is caught on that row
        def broken(v, accel, dt):
            k, r_perp, d = _decompose_rows(v, accel, dt)
            r_perp[5] += 1e-3 * v[5]
            d[9] = -1.0
            return k, r_perp, d

        monkeypatch.setattr(verify, "_decompose_rows", broken)
        failures = suite_povd(cases=20, seed=3).failures
        assert [f.split(":")[0] for f in failures] == ["draw 5 (seed 3)"] * 2 + ["draw 9 (seed 3)"]
        assert "not orthogonal" in failures[0] and "reconstruction" in failures[1] and "negative" in failures[2]
