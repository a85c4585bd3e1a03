from __future__ import annotations

import csv
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from flowcache import error_bound, verify
from flowcache.error_bound import _BLOCK, _bound_rows, _draw_block, _unit_orthogonal_rows
from flowcache.verify import suite_bound

TERMS = ("c_n", "mag_err", "strength_err", "cos_theta", "lhs", "rhs")  # _bound_rows' outputs in order


def _unit_orthogonal(rng, v):
    """One random unit vector orthogonal to ``v``, drawn by the sweep's row drawer."""
    return _unit_orthogonal_rows(rng, v[None], np.array([v.size]))[0]


def _audit(path, cases, seed):
    """``suite_bound``'s result and its audit CSV's rows, each ``(draw, lhs, rhs, slack)`` as parsed numbers."""
    result = suite_bound(cases=cases, seed=seed, audit_path=path)
    with open(path, newline="") as fh:
        rows = [(int(r["draw"]), float(r["lhs"]), float(r["rhs"]), float(r["slack"])) for r in csv.DictReader(fh)]
    return result, rows


def _one_row(v, k, d, u_perp, k_t, d_t, u_hat, dt):
    """``_bound_rows`` on one unpadded configuration, its outputs by name."""
    rows = [np.array([a], dtype=float) for a in (v, k, d, u_perp, k_t, d_t, u_hat, dt)]
    return SimpleNamespace(**{name: float(a[0]) for name, a in zip(TERMS, _bound_rows(*rows))})


class TestOracleUpdate:
    """The oracle update v* = exp(k dt) v + d |v| u_perp, seen through lhs = |v_hat - v*| / |v|."""

    def test_identity(self):
        v = np.array([0.3, 0.9])
        u = np.array([-0.9486832980505138, 0.31622776601683794])  # unit, orthogonal to v
        # k = d = 0 leaves v unchanged, and so does the same reconstruction, to the bit
        assert _one_row(v, 0.0, 0.0, u, 0.0, 0.0, u, 0.5).lhs == 0.0

    def test_pure_direction(self):
        # v* = [1, 0.5]; the reconstruction without correction stays at v
        terms = _one_row(np.array([1.0, 0.0]), 0.0, 0.5, np.array([0.0, 1.0]), 0.0, 0.0, np.array([0.0, 1.0]), 0.7)
        assert terms.lhs == pytest.approx(0.5, rel=1e-15)
        assert terms.rhs == pytest.approx(0.5, rel=1e-15)

    def test_exponential_doubling(self):
        # v* = 2 v; the reconstruction at k_t = 0 stays at v, the one at k_t = k doubles too
        v, u = np.array([3.0, 0.0]), np.array([0.0, 1.0])
        kept = _one_row(v, math.log(2.0), 0.0, u, 0.0, 0.0, u, 1.0)
        assert kept.lhs == pytest.approx(1.0, rel=1e-15)
        assert kept.c_n == pytest.approx(2.0, rel=1e-15)
        assert kept.rhs == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        assert _one_row(v, math.log(2.0), 0.0, u, math.log(2.0), 0.0, u, 1.0).lhs == 0.0


class TestBoundTerms:
    def test_perfect_substitution_is_zero(self):
        v = np.array([2.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])
        terms = _one_row(v, 0.4, 0.3, u, 0.4, 0.3, u, 0.5)
        assert terms.lhs == 0.0
        assert terms.rhs == 0.0
        assert terms.cos_theta == 1.0

    def test_scalar_substitution_bound_when_aligned(self):
        # with matching directions, the error reduces to the two scalar gaps
        rng = np.random.default_rng(19)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            v = rng.standard_normal(dim)
            u = _unit_orthogonal(rng, v)
            k, k_t = rng.uniform(-3, 3, size=2)
            d, d_t = rng.uniform(0, 2, size=2)
            dt = 1.0 - rng.random()
            terms = _one_row(v, k, d, u, k_t, d_t, u, dt)
            scalar_rhs = math.sqrt(terms.c_n**2 * (k_t - k) ** 2 + (d_t - d) ** 2)
            assert terms.lhs <= scalar_rhs + 1e-9
            assert terms.rhs == pytest.approx(scalar_rhs, rel=1e-12)

    def test_orthogonal_directions_bound_is_tight(self):
        # equal strengths, perpendicular directions: error is exactly
        # strength * sqrt(2) and the bound matches it
        v = np.array([2.0, 0.0, 0.0])
        u_perp = np.array([0.0, 1.0, 0.0])
        u_hat = np.array([0.0, 0.0, 1.0])
        delta = 0.7
        terms = _one_row(v, 0.3, delta, u_perp, 0.3, delta, u_hat, 0.5)
        assert terms.cos_theta == 0.0
        assert terms.lhs == pytest.approx(delta * math.sqrt(2.0), rel=1e-14)
        assert terms.rhs == pytest.approx(math.sqrt(2.0 * delta**2), rel=1e-14)

    def test_rhs_matches_its_three_terms(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            v = rng.standard_normal(5)
            u_perp = _unit_orthogonal(rng, v)
            u_hat = _unit_orthogonal(rng, v)
            k, k_t = rng.uniform(-4, 4, size=2)
            d, d_t = rng.uniform(0, 2, size=2)
            dt = 1.0 - rng.random()
            terms = _one_row(v, k, d, u_perp, k_t, d_t, u_hat, dt)
            rhs_sq = terms.c_n**2 * terms.mag_err**2 + terms.strength_err**2 + 2 * d_t * d * (1 - terms.cos_theta)
            assert terms.rhs**2 == pytest.approx(rhs_sq, rel=1e-12, abs=1e-300)
            assert terms.lhs <= terms.rhs + 1e-9


class TestUnitOrthogonal:
    def test_unit_and_orthogonal(self):
        rng = np.random.default_rng(29)
        v = rng.standard_normal((200, 6))
        u = _unit_orthogonal_rows(rng, v, np.full(200, 6))
        for u_row, v_row in zip(u, v):
            assert abs(np.linalg.norm(u_row) - 1.0) <= 1e-12
            assert abs(u_row @ v_row) <= 1e-10 * np.linalg.norm(v_row)


class TestBoundSweep:
    def test_small_sweep_passes(self):
        result = suite_bound(cases=2000, seed=41)
        assert result.passed, result.failures[:3]
        assert result.stats["max_bound_violation"] <= 1e-9
        assert result.stats["max_split_error"] <= 1e-10
        assert result.stats["max_q_identity_error"] <= 1e-12
        assert result.stats["min_envelope_violations"] > 0

    def test_audit_csv(self, tmp_path):
        path = tmp_path / "audit.csv"
        suite_bound(cases=50, seed=43, audit_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert list(rows[0].keys()) == ["draw", "lhs", "rhs", "slack"]
        assert all(float(r["slack"]) >= -1e-9 for r in rows)

    def test_the_default_seed_pins_the_first_thousand_draws(self):
        # the first chunk of the default run, which the benchmark's verify-bound op repeats
        result = suite_bound(cases=1000, seed=303)
        assert result.failures == []
        assert result.stats == {
            "max_bound_violation": -9.228173780684301e-13,
            "max_split_error": 6.272809581202691e-15,
            "max_q_identity_error": 6.117831214572494e-16,
            "min_envelope_violations": 996.0,
        }
        assert all(type(value) is float for value in result.stats.values())  # `verify` prints each one's repr


class TestBlockSweep:
    def test_shorter_sweep_is_a_prefix(self, tmp_path):
        # repr floats round-trip, so equal audit rows are equal lhs and rhs bit for bit
        short, short_rows = _audit(tmp_path / "short.csv", 1000, 47)
        _, long_rows = _audit(tmp_path / "long.csv", 2000, 47)
        assert short_rows == long_rows[:1000]
        assert short.stats["max_bound_violation"] == max(lhs - rhs for _, lhs, rhs, _ in long_rows[:1000])

    def test_shorter_sweep_is_a_prefix_draw_by_draw(self, monkeypatch):
        # zero tolerances turn every draw's split and identity error into a
        # failure message carrying its exact value
        for name, value in (("BOUND_SLACK", -1.0), ("SPLIT_TOL", 0.0), ("Q_IDENTITY_TOL", 0.0)):
            monkeypatch.setattr(verify, name, value)
        short = suite_bound(cases=1000, seed=47)
        long = suite_bound(cases=2000, seed=47)
        first = [f for f in long.failures if int(re.match(r"draw (\d+) ", f).group(1)) < 1000]
        assert len(first) > 1000
        assert short.failures == first
        assert short.stats["min_envelope_violations"] <= long.stats["min_envelope_violations"]

    @pytest.mark.parametrize("seed", [53, 59])
    def test_rows_match_scalar_bound_terms(self, tmp_path, seed):
        dims, rows = _draw_block(np.random.default_rng(seed), _BLOCK)
        lhs, rhs = _bound_rows(*rows)[-2:]
        _, audit = _audit(tmp_path / "audit.csv", _BLOCK, seed)
        assert [(i, float(lhs[i]), float(rhs[i])) for i in range(_BLOCK)] == [row[:3] for row in audit]
        v, k, d, u_perp, k_t, d_t, u_hat, dt = rows
        for i, dim in enumerate(dims):
            assert not v[i, dim:].any() and not u_perp[i, dim:].any() and not u_hat[i, dim:].any()
            terms = _one_row(v[i, :dim], k[i], d[i], u_perp[i, :dim], k_t[i], d_t[i], u_hat[i, :dim], dt[i])
            assert terms.lhs == pytest.approx(lhs[i], rel=1e-12)
            assert terms.rhs == pytest.approx(rhs[i], rel=1e-12)

    @pytest.mark.parametrize(
        "tols, message",
        [
            (("Q_IDENTITY_TOL", 0.0), "orthogonal identity off by"),
            (("BOUND_SLACK", -1.0), "exceeds rhs"),
        ],
        ids=["identity", "bound"],
    )
    def test_failures_name_draw_and_seed_in_order(self, monkeypatch, tols, message):
        monkeypatch.setattr(verify, *tols)
        result = suite_bound(cases=300, seed=61)
        assert not result.passed
        draws = []
        for failure in result.failures:
            match = re.match(r"draw (\d+) \(seed 61\): (.*)$", failure)
            assert match, failure
            assert message in match.group(2)
            draws.append(int(match.group(1)))
        assert draws == sorted(set(draws))
        assert max(draws) >= _BLOCK  # failures come from more than one block

    def test_equal_rates_never_confirm_the_envelope(self, monkeypatch):
        monkeypatch.setattr(error_bound, "K_RANGE", (0.0, 0.0))
        result = suite_bound(cases=200, seed=67)
        assert result.stats["min_envelope_violations"] == 0
        assert result.failures == [
            "seed 67: min-envelope bound never violated in 200 draws; max envelope is not confirmed necessary"
        ]

    def test_redrawn_rows_are_unit_and_orthogonal(self, monkeypatch):
        default_rows = _draw_block(np.random.default_rng(71), _BLOCK)[1]
        monkeypatch.setattr(error_bound, "REJECT_TOL", 0.9)
        dims, rows = _draw_block(np.random.default_rng(71), _BLOCK)
        v, u_perp, u_hat = rows[0], rows[3], rows[6]
        np.testing.assert_array_equal(v, default_rows[0])  # v is drawn before any rejection
        assert not np.array_equal(u_perp, default_rows[3])  # so some u_perp rows were redrawn
        v_norm = np.linalg.norm(v, axis=1)
        for u in (u_perp, u_hat):
            assert np.all(np.abs(np.linalg.norm(u, axis=1) - 1.0) <= 1e-12)
            assert np.all(np.abs(np.einsum("ij,ij->i", u, v)) <= 1e-10 * v_norm)
            assert all(not u[i, dim:].any() for i, dim in enumerate(dims))
        assert suite_bound(cases=300, seed=71).passed


class TestOrthogonalIdentity:
    """The |Q|^2 identity check: float64 first, flagged rows again with Q exact."""

    @pytest.mark.parametrize("seed", [1009, 1012, 1023, 1039])
    def test_cancelling_seeds_pass_at_full_size(self, seed):
        # each of these seeds has a dim-2 draw with u_hat = u_perp and d near d_t, where Q
        # cancels in float64; checked in float64 alone, the paper's form fails on all four
        result = suite_bound(cases=100_000, seed=seed)
        assert result.passed, result.failures[:3]
        assert result.stats["max_q_identity_error"] <= 1e-12

    def test_the_flagged_draw_is_rechecked(self, monkeypatch):
        exact, rechecked = error_bound._exact_q_squared, []
        monkeypatch.setattr(verify, "_exact_q_squared", lambda *rows: rechecked.append(rows) or exact(*rows))
        result = suite_bound(cases=30_300, seed=1012)  # draw 30250 cancels in float64
        assert len(rechecked) == 1 and rechecked[0][1].shape == (1,)
        assert result.passed, result.failures[:3]
        assert result.stats["max_q_identity_error"] <= 1e-12

    @pytest.mark.parametrize("seed, draws", [(79, 20), (1012, 30_300)], ids=["random", "cancelling"])
    def test_the_reference_matches_the_exact_square(self, seed, draws):
        _, (v, _, d, u_perp, _, d_t, u_hat, _) = _draw_block(np.random.default_rng(seed), draws)
        rows = (np.linalg.norm(v, axis=1), d, d_t, u_perp, u_hat)
        reference = error_bound._q_reference(*rows)
        worst = int(np.argmax(error_bound._relative_gap(error_bound._q_squared(*rows), reference)))
        picked = [worst, *range(20)]
        exact = error_bound._exact_q_squared(*(a[picked] for a in rows))
        assert (error_bound._relative_gap(exact, reference[picked]) <= 8 * np.finfo(float).eps).all()

    def test_a_planted_reference_error_fails(self, monkeypatch):
        q_reference = error_bound._q_reference
        monkeypatch.setattr(verify, "_q_reference", lambda *rows: q_reference(*rows) * (1 + 1e-11))
        result = suite_bound(cases=_BLOCK, seed=1012)
        assert sum("orthogonal identity off by" in f for f in result.failures) == _BLOCK
        assert result.stats["max_q_identity_error"] == pytest.approx(1e-11, rel=1e-3)

    @pytest.mark.parametrize("name", ["u_perp", "u_hat"])
    def test_a_direction_off_unit_norm_fails(self, monkeypatch, name):
        # the reference holds for any vectors, so only this check sees the premise fail
        draw = error_bound._draw_block
        position = {"u_perp": 3, "u_hat": 6}[name]

        def stretched(*args):
            dims, rows = draw(*args)
            rows = list(rows)
            rows[position] = rows[position] * (1.0 + 1e-13)
            return dims, tuple(rows)

        monkeypatch.setattr(verify, "_draw_block", stretched)
        result = suite_bound(cases=_BLOCK, seed=1012)
        assert sum(f"|{name}|^2 off 1 by" in f for f in result.failures) == _BLOCK
        assert not any("orthogonal identity" in f for f in result.failures)

    @pytest.mark.parametrize("name", ["u_perp", "u_hat"])
    def test_a_direction_off_orthogonal_fails(self, monkeypatch, name):
        # tilted toward v by 1e-9 of a unit: the premise fails on each draw and the sweep runs on
        draw = error_bound._draw_block
        position = {"u_perp": 3, "u_hat": 6}[name]

        def tilted(*args):
            dims, rows = draw(*args)
            rows = list(rows)
            v = rows[0]
            rows[position] = rows[position] + 1e-9 * v / np.linalg.norm(v, axis=1)[:, None]
            return dims, tuple(rows)

        monkeypatch.setattr(verify, "_draw_block", tilted)
        result = suite_bound(cases=_BLOCK, seed=1012)
        off = [f for f in result.failures if f"{name} not orthogonal to v" in f]
        assert len(off) == _BLOCK
        assert all(re.match(r"draw \d+ \(seed 1012\): ", f) for f in off)
        assert not any("off 1 by" in f for f in result.failures)
