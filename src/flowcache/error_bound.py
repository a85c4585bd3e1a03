"""Per-step error decomposition of the cached velocity update.

Comparing the single-step reconstruction against the oracle component-wise
update (same formula fed with the sample's true scalars and true orthogonal
direction) splits the normalized error into three terms: a magnitude term
C^2 * (k_t - k)^2 with C = dt * exp(max(k_t, k) * dt), an orthogonal
strength term (d_t - d)^2, and an alignment term 2 * d_t * d * (1 - cos
theta). The parallel and orthogonal error components are mutually
orthogonal, so their squares add exactly, and the orthogonal part is an
identity rather than a bound. This module holds the math and the random
draws; ``verify.suite_bound``, the bound's one entry point, checks all of
this on random configurations and can write a per-draw audit CSV.
"""

from __future__ import annotations

import numpy as np

from .decomposition import _row_dots

# Gram-Schmidt draws with residual norm below this fraction are redrawn.
REJECT_TOL = 1e-8
# The sweep's draw ranges: dimension (both ends included; 2 leaves an
# orthogonal complement), k and k_t, d and d_t.
DIM_RANGE = (2, 64)
K_RANGE = (-5.0, 5.0)
D_RANGE = (0.0, 2.0)
# Draws per block of the bound sweep. Each block is one set of numpy passes
# over (_BLOCK, DIM_RANGE[1]) arrays; blocks of 1000 add about 5 MB of peak
# memory for little more speed.
_BLOCK = 100


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

    The oracle update is v* = exp(k dt) v + d |v| u_perp and the
    reconstruction v_hat the same with (k_t, d_t, u_hat). Returns
    ``(c_n, mag_err, strength_err, cos_theta, lhs, rhs)``, one ``(n,)``
    array each: ``lhs`` is |v_hat - v*| / |v| and ``rhs`` the bound
    sqrt(c_n^2 mag_err^2 + strength_err^2 + 2 d_t d (1 - cos_theta)). The
    rows are ``_draw_block``'s, so ``v`` is nonzero, ``dt`` in (0, 1] and the
    strengths non-negative; the sweep checks the directions' premises.
    """
    v_norm = np.linalg.norm(v, axis=1)
    v_star = np.exp(k * dt)[:, None] * v + (d * v_norm)[:, None] * u_perp
    v_hat = np.exp(k_t * dt)[:, None] * v + (d_t * v_norm)[:, None] * u_hat
    lhs = np.linalg.norm(v_hat - v_star, axis=1) / v_norm

    c_n = dt * np.exp(np.maximum(k_t, k) * dt)
    mag_err = np.abs(k_t - k)
    strength_err = np.abs(d_t - d)
    cos_theta = np.clip(_row_dots(u_hat, u_perp), -1.0, 1.0)
    rhs = np.sqrt(c_n**2 * mag_err**2 + strength_err**2 + 2.0 * d_t * d * (1.0 - cos_theta))
    return c_n, mag_err, strength_err, cos_theta, lhs, rhs


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


def _draw_block(rng: np.random.Generator, n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The sweep's next ``n`` configurations as ``(dims, rows)``.

    ``rows`` is ``(v, k, d, u_perp, k_t, d_t, u_hat, dt)`` in ``_bound_rows``
    argument order, vectors ``(n, DIM_RANGE[1])`` with zeros at and beyond
    each row's dim. The draw order is fixed, so consecutive blocks continue
    one stream.
    """
    width = DIM_RANGE[1]
    dims = rng.integers(DIM_RANGE[0], width + 1, size=n)
    v = _masked_normal(rng, dims, width)
    small = np.linalg.norm(v, axis=1) < 1e-6
    while small.any():
        v[small] = _masked_normal(rng, dims[small], width)
        small = np.linalg.norm(v, axis=1) < 1e-6
    u_perp = _unit_orthogonal_rows(rng, v, dims)
    u_hat = _unit_orthogonal_rows(rng, v, dims)
    k, k_t = rng.uniform(K_RANGE[0], K_RANGE[1], size=(n, 2)).T
    d, d_t = rng.uniform(D_RANGE[0], D_RANGE[1], size=(n, 2)).T
    dt = 1.0 - rng.random(n)  # (0, 1]
    return dims, (v, k, d, u_perp, k_t, d_t, u_hat, dt)
