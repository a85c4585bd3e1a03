from __future__ import annotations

import csv

import numpy as np
import pytest

from flowcache import (
    Condition,
    InvalidArgumentError,
    NumericDomainError,
    TimeGrid,
    TrajectoryRecord,
    FieldSpec,
    VelocityField,
    initial_state,
    make_uniform_grid,
    sample_full,
)
from flowcache.errors import FieldError
from flowcache.solver import write_trajectory_csv


class TestTimeGrid:
    def test_single_step(self):
        grid = make_uniform_grid(1)
        np.testing.assert_array_equal(grid.times, [1.0, 0.0])
        np.testing.assert_array_equal(grid.dt, [1.0])

    def test_four_steps(self):
        grid = make_uniform_grid(4)
        np.testing.assert_allclose(grid.times, [1.0, 0.75, 0.5, 0.25, 0.0], atol=1e-15)

    def test_fifty_steps(self):
        grid = make_uniform_grid(50)
        assert grid.times.size == 51
        assert grid.times[0] == 1.0 and grid.times[-1] == 0.0
        np.testing.assert_allclose(grid.dt, 0.02, atol=1e-15)

    def test_zero_steps_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_uniform_grid(0)

    def test_endpoints_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([0.9, 0.0]))
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([1.0, 0.1]))

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(np.array([1.0, 0.5, 0.5, 0.0]))

    def test_telescoping_over_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            interior = np.sort(rng.uniform(0.0, 1.0, size=n - 1))[::-1] if n > 1 else np.empty(0)
            times = np.concatenate(([1.0], interior, [0.0]))
            if np.any(np.diff(times) >= 0):
                continue  # rare duplicate draw, not a valid grid
            grid = TimeGrid(times)
            assert abs(float(grid.dt.sum()) - 1.0) <= 1e-12


def _constant_run(target, x0, n_steps=2):
    """``sample_full`` on a constant field, whose Euler steps are x_{m+1} = x_m - dt * target."""
    field = VelocityField(FieldSpec(kind="constant", dimension=len(target), target=tuple(target)))
    return sample_full(field, make_uniform_grid(n_steps), np.array(x0), Condition(0))


class TestEulerStep:
    def test_zero_velocity_keeps_state(self):
        np.testing.assert_array_equal(_constant_run([0.0, 0.0], [1.0, 1.0]).states, [[1.0, 1.0]] * 3)

    def test_hand_computed_step(self):
        states = _constant_run([2.0, 0.0], [1.0, 0.0]).states  # dt = 0.5
        np.testing.assert_array_equal(states, [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])

    def test_bad_dt(self):
        # the time grid owns dt > 0: a repeated time is a zero step and is rejected
        with pytest.raises(FieldError, match="times"):
            TimeGrid(np.array([1.0, 0.5, 0.5, 0.0]))

    def test_shape_mismatch(self):
        # the walk takes one checked (D,) start state; a (2, D) batch is not one
        with pytest.raises(InvalidArgumentError):
            _constant_run([1.0, 0.0], np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericDomainError):
            _constant_run([1.0, 0.0], [np.inf, 0.0])
        with pytest.raises(NumericDomainError):
            _constant_run([1e308, 0.0], [-1e308, 0.0])  # finite velocities; the second Euler step overflows


class TestSampleFull:
    def test_constant_field_telescopes(self, constant_spec):
        vf = VelocityField(constant_spec)
        x0 = np.array([3.0, 4.0])
        record = sample_full(vf, make_uniform_grid(50), x0, Condition(0))
        np.testing.assert_allclose(record.final_state, x0 - np.array([1.0, -1.0]), atol=1e-12)
        assert record.nfe == 50
        assert record.evaluated.all()
        assert vf.evaluations == 50

    def test_dimension_mismatch(self, constant_spec):
        with pytest.raises(InvalidArgumentError):
            sample_full(VelocityField(constant_spec), make_uniform_grid(4), np.zeros(3), Condition(0))

    def test_determinism(self, gmm_spec):
        grid = make_uniform_grid(20)
        c = Condition(9)
        x0 = initial_state(c, 3)
        a = sample_full(VelocityField(gmm_spec), grid, x0, c)
        b = sample_full(VelocityField(gmm_spec), grid, x0, c)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_first_order_refinement_trend(self, gmm_spec):
        # terminal gap at N=400 vs N=800 must be smaller than at N=50 vs N=100
        c = Condition(11)
        x0 = initial_state(c, 3)

        def final(n):
            return sample_full(VelocityField(gmm_spec), make_uniform_grid(n), x0, c).final_state

        coarse = np.linalg.norm(final(50) - final(100))
        fine = np.linalg.norm(final(400) - final(800))
        assert fine < coarse


class TestTrajectoryRecord:
    def test_length_validation(self):
        grid = make_uniform_grid(3)
        with pytest.raises(InvalidArgumentError):
            TrajectoryRecord(grid, np.zeros((3, 2)), np.zeros((3, 2)), np.ones(3, dtype=bool))
        with pytest.raises(InvalidArgumentError):
            TrajectoryRecord(grid, np.zeros((4, 2)), np.zeros((2, 2)), np.ones(3, dtype=bool))

    def test_directions_shaped_like_velocities(self):
        grid = make_uniform_grid(3)
        flags = np.ones(3, dtype=bool)
        record = TrajectoryRecord(grid, np.zeros((4, 2)), np.zeros((3, 2)), flags, np.full((3, 2), np.nan))
        assert not record.directions.flags.writeable
        with pytest.raises(InvalidArgumentError):
            TrajectoryRecord(grid, np.zeros((4, 2)), np.zeros((3, 2)), flags, np.zeros((3, 3)))

    def test_nfe_counts_flags(self):
        grid = make_uniform_grid(4)
        flags = np.array([True, False, True, False])
        record = TrajectoryRecord(grid, np.zeros((5, 2)), np.zeros((4, 2)), flags)
        assert record.nfe == 2

    def test_csv_export(self, tmp_path, constant_spec):
        vf = VelocityField(constant_spec)
        record = sample_full(vf, make_uniform_grid(5), np.array([1.0, 2.0]), Condition(0))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(record, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5  # one row per step
        assert rows[0]["t"] == "1.0"
        assert rows[0]["evaluated"] == "1"
        assert float(rows[2]["velocity_norm"]) == pytest.approx(np.sqrt(2.0))
