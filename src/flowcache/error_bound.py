"""Per-step error decomposition of the cached velocity update.

Comparing the single-step reconstruction against the oracle component-wise
update (same formula fed with the sample's true scalars and true orthogonal
direction) splits the normalized error into three terms: a magnitude term
C^2 * (k_t - k)^2 with C = dt * exp(max(k_t, k) * dt), an orthogonal
strength term (d_t - d)^2, and an alignment term 2 * d_t * d * (1 - cos
theta). The parallel and orthogonal error components are mutually
orthogonal, so their squares add exactly, and the orthogonal part is an
identity rather than a bound. The verification sweep checks all of this on
random configurations and emits a per-draw audit CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomposition import _row_dots
from .errors import DegenerateVelocityError, InvalidArgumentError
from .ioutil import write_csv

# |<u, v>| <= ORTHO_TOL * |u| * |v| qualifies as orthogonal input.
ORTHO_TOL = 1e-10
# Gram-Schmidt draws with residual norm below this fraction are redrawn.
REJECT_TOL = 1e-8
# The sweep's drawn unit vectors have | |u|^2 - 1 | within this; seeds
# 1000-1039 at 10^5 draws reach 3 eps.
UNIT_NORM_TOL = 16 * np.finfo(float).eps
# Draws per block of the bound sweep. Each block is one set of numpy passes
# over (_BLOCK, dim_range[1]) arrays; blocks of 1000 add about 5 MB of peak
# memory for little more speed.
_BLOCK = 100


@dataclass(frozen=True)
class BoundTerms:
    """One configuration's bound evaluation.

    ``lhs`` is the normalized reconstruction error |v_hat - v_star| / |v|;
    ``rhs`` is the bound sqrt(c_n^2 * mag_err^2 + strength_err^2 +
    2 * d_t * d * (1 - cos_theta)).
    """

    c_n: float
    mag_err: float
    strength_err: float
    cos_theta: float
    lhs: float
    rhs: float


def _check_unit_orthogonal(name: str, u: np.ndarray, v: np.ndarray, v_norm: np.ndarray) -> None:
    """Row-wise check that each ``u`` row is a unit vector orthogonal to its ``v`` row."""
    u_norm = np.linalg.norm(u, axis=1)
    off_unit = np.abs(u_norm - 1.0) > 1e-9
    if off_unit.any():
        raise InvalidArgumentError(f"{name} must be a unit vector, norm is {float(u_norm[off_unit][0])!r}")
    if (np.abs(_row_dots(u, v)) > ORTHO_TOL * v_norm * u_norm).any():
        raise InvalidArgumentError(f"{name} is not orthogonal to the velocity")


def _velocity_norms(v: np.ndarray, what: str) -> np.ndarray:
    v_norm = np.linalg.norm(v, axis=1)
    if (v_norm == 0.0).any():
        raise DegenerateVelocityError(f"{what} needs a nonzero velocity")
    return v_norm


def _check_dt(dt: np.ndarray) -> None:
    if (dt <= 0).any():
        raise InvalidArgumentError(f"dt must be positive, got {float(dt[dt <= 0][0])}")


def oracle_update(v_n: np.ndarray, k: float, d: float, u_perp: np.ndarray, dt: float) -> np.ndarray:
    """Component-wise update with exact scalars and exact orthogonal direction."""
    v_n = np.asarray(v_n, dtype=float)
    u_perp = np.asarray(u_perp, dtype=float)
    v_norm = _velocity_norms(v_n[None], "oracle update")
    if d < 0:
        raise InvalidArgumentError(f"orthogonal strength must be non-negative, got {d}")
    _check_dt(np.array([dt]))
    _check_unit_orthogonal("u_perp", u_perp[None], v_n[None], v_norm)
    return math.exp(k * dt) * v_n + d * float(v_norm[0]) * u_perp


def _bound_rows(
    v: np.ndarray,
    k: np.ndarray,
    d: np.ndarray,
    u_perp: np.ndarray,
    k_t: np.ndarray,
    d_t: np.ndarray,
    u_hat: np.ndarray,
    dt: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Both updates and the three-term bound for each row of ``(n, D)`` inputs.

    Returns ``(c_n, mag_err, strength_err, cos_theta, lhs, rhs)``, one
    ``(n,)`` array each, in ``BoundTerms`` field order.
    """
    v_norm = _velocity_norms(v, "bound evaluation")
    if (d < 0).any() or (d_t < 0).any():
        raise InvalidArgumentError("orthogonal strengths must be non-negative")
    _check_dt(dt)
    _check_unit_orthogonal("u_perp", u_perp, v, v_norm)
    _check_unit_orthogonal("u_hat", u_hat, v, v_norm)

    v_star = np.exp(k * dt)[:, None] * v + (d * v_norm)[:, None] * u_perp
    v_hat = np.exp(k_t * dt)[:, None] * v + (d_t * v_norm)[:, None] * u_hat
    lhs = np.linalg.norm(v_hat - v_star, axis=1) / v_norm

    c_n = dt * np.exp(np.maximum(k_t, k) * dt)
    mag_err = np.abs(k_t - k)
    strength_err = np.abs(d_t - d)
    cos_theta = np.clip(_row_dots(u_hat, u_perp), -1.0, 1.0)
    rhs = np.sqrt(c_n**2 * mag_err**2 + strength_err**2 + 2.0 * d_t * d * (1.0 - cos_theta))
    return c_n, mag_err, strength_err, cos_theta, lhs, rhs


def bound_terms(
    v_n: np.ndarray,
    k: float,
    d: float,
    u_perp: np.ndarray,
    k_t: float,
    d_t: float,
    u_hat: np.ndarray,
    dt: float,
) -> BoundTerms:
    """Evaluate both updates and the three-term bound for one configuration."""
    v_n, u_perp, u_hat = (np.asarray(a, dtype=float)[None] for a in (v_n, u_perp, u_hat))
    k, d, k_t, d_t, dt = (np.array([x], dtype=float) for x in (k, d, k_t, d_t, dt))
    return BoundTerms(*(float(a[0]) for a in _bound_rows(v_n, k, d, u_perp, k_t, d_t, u_hat, dt)))


def _relative_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-300)


def _q_squared(
    v_norm: np.ndarray, d: np.ndarray, d_t: np.ndarray, u_perp: np.ndarray, u_hat: np.ndarray
) -> np.ndarray:
    """|Q|^2 for each row, Q = |v| (d_t u_hat - d u_perp), in the inputs' number type."""
    q = v_norm[:, None] * (d_t[:, None] * u_hat - d[:, None] * u_perp)
    return (q * q).sum(axis=1)  # not einsum: numpy before 1.25 has no einsum over Fraction objects


def _q_reference(
    v_norm: np.ndarray, d: np.ndarray, d_t: np.ndarray, u_perp: np.ndarray, u_hat: np.ndarray
) -> np.ndarray:
    """|Q|^2 for each row by a form that float64 evaluates to a few ulps.

    With s = u_hat + u_perp and g = u_hat - u_perp, d_t u_hat - d u_perp is
    ((d_t - d) s + (d_t + d) g) / 2, so for any vectors

        |Q|^2 = |v|^2 (((d_t - d)^2 |s|^2 + (d_t + d)^2 |g|^2) / 4
                       + (d_t - d)(d_t + d) s.g / 2),

    which for unit vectors (s.g = 0, |g|^2 = 2 (1 - cos theta)) is the
    paper's |v|^2 ((d_t - d)^2 + 2 d_t d (1 - cos theta)); the sweep checks
    that premise separately. Where Q cancels (u_hat near u_perp, d near
    d_t), the small factors d_t - d and g are each formed by one subtraction,
    and the s.g term is at most a few ulps of the other two.
    """
    s, g = u_hat + u_perp, u_hat - u_perp
    lo, hi = d_t - d, d_t + d
    return v_norm**2 * ((lo * lo * _row_dots(s, s) + hi * hi * _row_dots(g, g)) / 4 + lo * hi * _row_dots(s, g) / 2)


def _exact_q_squared(*rows: np.ndarray) -> np.ndarray:
    """``_q_squared`` of ``rows`` in exact rationals, rounded once to float64."""
    from fractions import Fraction  # here, not at the top: it imports decimal, about 0.5 MB, for a rare path

    return _q_squared(*(np.vectorize(Fraction, otypes=[object])(a) for a in rows)).astype(float)


@dataclass
class BoundSweepResult:
    """Aggregate of a randomized bound-verification sweep."""

    draws: int
    base_seed: int
    lhs: np.ndarray
    rhs: np.ndarray
    max_bound_violation: float  # max(lhs - rhs), negative when the bound holds strictly
    max_split_error: float  # worst relative error of |P|^2 + |Q|^2 vs the squared error
    max_q_identity_error: float  # worst relative error of the |Q|^2 identity
    min_envelope_violations: int  # draws where the min(k_t, k) envelope fails
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _masked_normal(rng: np.random.Generator, dims: np.ndarray, width: int) -> np.ndarray:
    """Standard normal rows of ``width`` columns, zeroed at and beyond each row's dim."""
    g = rng.standard_normal((dims.size, width))
    g[np.arange(width) >= dims[:, None]] = 0.0
    return g


def _unit_orthogonal_rows(rng: np.random.Generator, v: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """A random unit vector orthogonal to each row of ``v``, zero at and beyond the row's dim.

    Gaussian draws are projected off ``v``. Rows whose residual keeps less
    than REJECT_TOL of their norm are redrawn, all failing rows at once, until
    none is left, so the output is orthogonal to working precision, as the
    bound's preconditions require.
    """
    vv = _row_dots(v, v)
    u = np.empty_like(v)
    todo = np.arange(v.shape[0])
    while todo.size:
        g = _masked_normal(rng, dims[todo], v.shape[1])
        g_norm = np.linalg.norm(g, axis=1)
        against = v[todo]
        g -= (_row_dots(g, against) / vv[todo])[:, None] * against
        norm = np.linalg.norm(g, axis=1)
        kept = norm > REJECT_TOL * np.maximum(g_norm, 1.0)
        u[todo[kept]] = g[kept] / norm[kept, None]
        todo = todo[~kept]
    return u


def _draw_block(
    rng: np.random.Generator,
    n: int,
    dim_range: tuple[int, int],
    k_range: tuple[float, float],
    d_range: tuple[float, float],
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The sweep's next ``n`` configurations as ``(dims, rows)``.

    ``rows`` is ``(v, k, d, u_perp, k_t, d_t, u_hat, dt)`` in ``_bound_rows``
    argument order, vectors ``(n, dim_range[1])`` with zeros at and beyond
    each row's dim. The draw order is fixed, so consecutive blocks continue
    one stream.
    """
    width = dim_range[1]
    dims = rng.integers(dim_range[0], width + 1, size=n)
    v = _masked_normal(rng, dims, width)
    small = np.linalg.norm(v, axis=1) < 1e-6
    while small.any():
        v[small] = _masked_normal(rng, dims[small], width)
        small = np.linalg.norm(v, axis=1) < 1e-6
    u_perp = _unit_orthogonal_rows(rng, v, dims)
    u_hat = _unit_orthogonal_rows(rng, v, dims)
    k, k_t = rng.uniform(k_range[0], k_range[1], size=(n, 2)).T
    d, d_t = rng.uniform(d_range[0], d_range[1], size=(n, 2)).T
    dt = 1.0 - rng.random(n)  # (0, 1]
    return dims, (v, k, d, u_perp, k_t, d_t, u_hat, dt)


def run_bound_sweep(
    draws: int = 100_000,
    seed: int = 20240,
    dim_range: tuple[int, int] = (2, 64),
    k_range: tuple[float, float] = (-5.0, 5.0),
    d_range: tuple[float, float] = (0.0, 2.0),
    bound_slack: float = 1e-9,
    split_tol: float = 1e-10,
    q_identity_tol: float = 1e-12,
) -> BoundSweepResult:
    """Randomized verification of the bound and its exact decompositions.

    Configurations are drawn and checked in blocks of ``_BLOCK`` draws, so
    a sweep whose draw count is a multiple of ``_BLOCK`` is the exact
    prefix of any longer sweep at the same seed. Also checks that the drawn
    directions are unit vectors to within ``UNIT_NORM_TOL``, and that
    weakening the magnitude envelope to min(k_t, k) breaks the bound
    somewhere, confirming the max is necessary.
    """
    if dim_range[0] < 2:
        raise InvalidArgumentError("not enough dimensions for an orthogonal complement")
    rng = np.random.default_rng(seed)
    lhs_all = np.empty(draws)
    rhs_all = np.empty(draws)
    failures: list[str] = []
    max_violation = -math.inf
    max_split = 0.0
    max_qid = 0.0
    envelope_violations = 0

    for start in range(0, draws, _BLOCK):
        stop = min(start + _BLOCK, draws)
        _, rows = _draw_block(rng, stop - start, dim_range, k_range, d_range)
        v, k, d, u_perp, k_t, d_t, u_hat, dt = rows
        _, mag_err, strength_err, cos_theta, lhs, rhs = _bound_rows(*rows)
        lhs_all[start:stop] = lhs
        rhs_all[start:stop] = rhs
        violation = lhs - rhs
        max_violation = max(max_violation, float(violation.max()))

        # parallel/orthogonal split must be additive and the orthogonal
        # part an exact identity
        v_norm = np.linalg.norm(v, axis=1)
        p = (np.exp(k_t * dt) - np.exp(k * dt))[:, None] * v
        err_sq = (lhs * v_norm) ** 2
        q_args = (v_norm, d, d_t, u_perp, u_hat)
        q_sq, q_ref = _q_squared(*q_args), _q_reference(*q_args)
        split_err = _relative_gap(err_sq, _row_dots(p, p) + q_sq)
        max_split = max(max_split, float(split_err.max()))

        q_err = _relative_gap(q_sq, q_ref)
        flagged = np.flatnonzero(q_err > q_identity_tol)
        if flagged.size:
            # near u_hat = u_perp and d = d_t, Q cancels in float64; its exact
            # value leaves only the reference's own rounding in the gap
            exact = _exact_q_squared(*(a[flagged] for a in q_args))
            q_err[flagged] = _relative_gap(exact, q_ref[flagged])
        max_qid = max(max_qid, float(q_err.max()))
        # the bound's rhs uses the paper's cos-theta form of the identity, which needs unit vectors
        norm_err = {name: np.abs(_row_dots(u, u) - 1.0) for name, u in (("u_perp", u_perp), ("u_hat", u_hat))}

        c_min = dt * np.exp(np.minimum(k_t, k) * dt)
        rhs_min = np.sqrt(c_min**2 * mag_err**2 + strength_err**2 + 2.0 * d_t * d * (1.0 - cos_theta))
        envelope_violations += int(np.count_nonzero((k != k_t) & (lhs > rhs_min + bound_slack)))

        over_bound = violation > bound_slack
        split_off = split_err > split_tol
        identity_off = q_err > q_identity_tol
        norm_off = (norm_err["u_perp"] > UNIT_NORM_TOL) | (norm_err["u_hat"] > UNIT_NORM_TOL)
        for row in np.flatnonzero(over_bound | split_off | identity_off | norm_off):
            prefix = f"draw {start + row} (seed {seed}):"
            if over_bound[row]:
                failures.append(f"{prefix} lhs {float(lhs[row])!r} exceeds rhs {float(rhs[row])!r}")
            if split_off[row]:
                failures.append(f"{prefix} additive split off by {float(split_err[row])!r}")
            if identity_off[row]:
                failures.append(f"{prefix} orthogonal identity off by {float(q_err[row])!r}")
            for name, err in norm_err.items():
                if err[row] > UNIT_NORM_TOL:
                    failures.append(f"{prefix} |{name}|^2 off 1 by {float(err[row])!r}")

    if envelope_violations == 0:
        failures.append(
            f"seed {seed}: min-envelope bound never violated in {draws} draws; max envelope is not confirmed necessary"
        )
    return BoundSweepResult(
        draws=draws,
        base_seed=seed,
        lhs=lhs_all,
        rhs=rhs_all,
        max_bound_violation=max_violation,
        max_split_error=max_split,
        max_q_identity_error=max_qid,
        min_envelope_violations=envelope_violations,
        failures=failures,
    )


def write_bound_audit_csv(result: BoundSweepResult, path: str | Path) -> None:
    rows = (
        (i, float(result.lhs[i]), float(result.rhs[i]), float(result.rhs[i] - result.lhs[i]))
        for i in range(result.draws)
    )
    write_csv(path, ("draw", "lhs", "rhs", "slack"), rows)
