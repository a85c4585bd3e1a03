"""Randomized property suites runnable from the CLI and the test harness.

Each suite draws a fixed number of seeded random cases, checks the
corresponding contract against an independent reference (brute-force scan,
closed-form identity, or exactness construction), and reports worst-case
slacks. A failing case is reported with its draw index and base seed so it
can be reproduced exactly. The bound suite is the error bound's one entry
point: it checks ``error_bound``'s draws with the tolerances below and can
write a per-draw audit CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cached_sampler import sample_cached
from .decomposition import _decompose_rows, _row_dots
from .diagnostics import ExperimentConfig, make_bundle
from .error_bound import (
    _BLOCK, DIM_RANGE, _bound_rows, _draw_block, _exact_q_squared, _q_reference, _q_squared, _relative_gap
)
from .errors import InvalidArgumentError
from .fields import Condition, FieldSpec, initial_state
from .ioutil import write_csv
from .schedule import _stable_intervals
from .solver import sample_full


@dataclass
class SuiteResult:
    name: str
    cases: int
    seed: int  # the seed the suite ran at
    stats: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        unit = "fixed checks" if self.name == "exactness" else "cases"
        lines = [f"{status} {self.name}: {self.cases} {unit}"]
        for key, value in self.stats.items():
            lines.append(f"  {key} = {value!r}")
        for failure in self.failures[:10]:
            lines.append(f"  FAILURE {failure}")
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more failures")
        return lines


# Draws per row-kernel pass of the povd suite, each a row zero-padded to the largest drawn
# dimension; a larger count runs in passes over one random stream, so memory stays bounded.
_POVD_BLOCK = 10_000


def _povd_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next ``n`` draws as zero-padded (n, DIM_RANGE[1]) rows ``v`` and ``a`` and their ``dt``.

    Each draw takes its dimension, a nonzero ``v``, ``a`` and ``dt`` from
    ``rng`` in that order, so draw i of a seed is the same configuration
    whatever the block size.
    """
    v, a = np.zeros((2, n, DIM_RANGE[1]))
    dt = np.empty(n)
    for i in range(n):
        dim = int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1))
        row = rng.standard_normal(dim)
        while float(np.linalg.norm(row)) == 0.0:
            row = rng.standard_normal(dim)
        v[i, :dim] = row
        a[i, :dim] = rng.standard_normal(dim)
        dt[i] = 1.0 - rng.random()
    return v, a, dt


def suite_povd(cases: int = 10_000, seed: int = 101) -> SuiteResult:
    """Orthogonality and exact reconstruction of random decompositions.

    The draws are split by the row kernel calibration uses; the checks take
    their own norms and dot products of its output.
    """
    rng = np.random.default_rng(seed)
    worst_ortho = worst_recon = 0.0
    failures: list[str] = []
    for start in range(0, cases, _POVD_BLOCK):
        v, a, dt = _povd_rows(rng, min(_POVD_BLOCK, cases - start))
        k, r_perp, d = _decompose_rows(v, a, dt)

        r_norm = np.linalg.norm(r_perp, axis=1)
        v_norm = np.linalg.norm(v, axis=1)
        ortho = np.abs(np.einsum("ij,ij->i", r_perp, v))
        ortho_rel = np.divide(ortho, r_norm * v_norm, out=np.zeros_like(ortho), where=r_norm > 0)
        worst_ortho = max(worst_ortho, float(ortho_rel.max()))
        ortho_off = ortho > 1e-10 * r_norm * v_norm

        a_norm = np.linalg.norm(a, axis=1)
        recon_norm = np.linalg.norm(k[:, None] * v + r_perp - a, axis=1)
        recon_err = np.divide(recon_norm, a_norm, out=recon_norm.copy(), where=a_norm > 0)
        worst_recon = max(worst_recon, float(recon_err.max()))
        recon_off = recon_err > 1e-10

        for i in np.flatnonzero(ortho_off | recon_off | (d < 0)):
            draw = f"draw {start + i} (seed {seed})"
            if ortho_off[i]:
                failures.append(f"{draw}: residual not orthogonal, <r,v> = {float(ortho[i])!r}")
            if recon_off[i]:
                failures.append(f"{draw}: reconstruction error {float(recon_err[i])!r}")
            if d[i] < 0:
                failures.append(f"{draw}: negative direction score {float(d[i])!r}")
    return SuiteResult(
        name="povd",
        cases=cases,
        seed=seed,
        stats={"worst_orthogonality": worst_ortho, "worst_reconstruction": worst_recon},
        failures=failures,
    )


def _brute_force_interval(values: np.ndarray, n: int, tau: float, h_max: int) -> int:
    """Literal maximal-prefix scan over all admissible interval lengths."""
    cap = min(h_max, values.size - n)
    prefix = np.cumsum(values[n : n + cap])
    admissible = [h for h in range(1, cap + 1) if h == 1 or prefix[h - 1] <= tau]
    return max(admissible)


def suite_ssc(cases: int = 10_000, seed: int = 202) -> SuiteResult:
    """Equivalence of the interval rule with a brute-force prefix scan."""
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for i in range(cases):
        size = int(rng.integers(1, 65))
        scale = 10.0 ** rng.uniform(-3, 1)
        values = rng.uniform(0.0, scale, size=size)
        values[rng.random(size) < 0.1] = 0.0  # exercise exact-zero runs
        n = int(rng.integers(0, size))
        tau = float(rng.uniform(0.0, 1.5 * scale * min(size, 8)))
        if rng.random() < 0.05:
            tau = 0.0
        h_max = int(rng.integers(1, 17))
        got = int(_stable_intervals(values, tau, h_max)[n])
        want = _brute_force_interval(values, n, tau, h_max)
        if got != want:
            failures.append(f"draw {i} (seed {seed}): interval {got} != brute force {want}")
        if not 1 <= got <= min(h_max, size - n):
            failures.append(f"draw {i} (seed {seed}): interval {got} outside admissible range")
    return SuiteResult(name="ssc", cases=cases, failures=failures, seed=seed)


# The bound suite's tolerances: lhs - rhs, the additive split's and the |Q|^2 identity's relative errors.
BOUND_SLACK = 1e-9
SPLIT_TOL = 1e-10
Q_IDENTITY_TOL = 1e-12
# The drawn unit vectors have | |u|^2 - 1 | within this; seeds 1000-1039 at 10^5 draws reach 3 eps.
UNIT_NORM_TOL = 16 * np.finfo(float).eps
# |<u, v>| <= ORTHO_TOL * |u| * |v| qualifies as orthogonal input.
ORTHO_TOL = 1e-10


def suite_bound(cases: int = 100_000, seed: int = 303, audit_path: str | None = None) -> SuiteResult:
    """Bound validity plus the additive split and orthogonal identity.

    Configurations are drawn and checked in blocks of ``_BLOCK`` draws, so
    a run whose case count is a multiple of ``_BLOCK`` is the exact prefix
    of any longer run at the same seed. Also checks the bound's premises on
    every draw: both directions unit vectors to within ``UNIT_NORM_TOL`` and
    orthogonal to ``v`` to within ``ORTHO_TOL``. And it checks that
    weakening the magnitude envelope to min(k_t, k) breaks the bound
    somewhere, confirming the max is necessary. With ``audit_path``, each
    draw's lhs, rhs and slack are written there as a CSV row, block by block,
    so a run holds one block whatever its case count.
    """
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    stats = {"max_bound_violation": -math.inf, "max_split_error": 0.0, "max_q_identity_error": 0.0}
    stats["min_envelope_violations"] = 0.0

    def audit_rows():  # checks each block in turn, then yields its audit rows where an audit is written
        for start in range(0, cases, _BLOCK):
            stop = min(start + _BLOCK, cases)
            _, rows = _draw_block(rng, stop - start)
            v, k, d, u_perp, k_t, d_t, u_hat, dt = rows
            _, mag_err, strength_err, cos_theta, lhs, rhs = _bound_rows(*rows)
            violation = lhs - rhs
            stats["max_bound_violation"] = max(stats["max_bound_violation"], float(violation.max()))

            # parallel/orthogonal split must be additive and the orthogonal
            # part an exact identity
            v_norm = np.linalg.norm(v, axis=1)
            p = (np.exp(k_t * dt) - np.exp(k * dt))[:, None] * v
            err_sq = (lhs * v_norm) ** 2
            q_args = (v_norm, d, d_t, u_perp, u_hat)
            q_sq, q_ref = _q_squared(*q_args), _q_reference(*q_args)
            split_err = _relative_gap(err_sq, _row_dots(p, p) + q_sq)
            stats["max_split_error"] = max(stats["max_split_error"], float(split_err.max()))

            q_err = _relative_gap(q_sq, q_ref)
            flagged = np.flatnonzero(q_err > Q_IDENTITY_TOL)
            if flagged.size:
                # near u_hat = u_perp and d = d_t, Q cancels in float64; its exact
                # value leaves only the reference's own rounding in the gap
                exact = _exact_q_squared(*(a[flagged] for a in q_args))
                q_err[flagged] = _relative_gap(exact, q_ref[flagged])
            stats["max_q_identity_error"] = max(stats["max_q_identity_error"], float(q_err.max()))
            # the bound's rhs uses the paper's cos-theta form of the identity, which needs unit vectors
            # orthogonal to v; the cosine to v is measured against |u| as drawn
            norm_err, cos_v = {}, {}
            for name, u in (("u_perp", u_perp), ("u_hat", u_hat)):
                uu = _row_dots(u, u)
                norm_err[name] = np.abs(uu - 1.0)
                cos_v[name] = np.abs(_row_dots(u, v)) / (v_norm * np.sqrt(uu))

            c_min = dt * np.exp(np.minimum(k_t, k) * dt)
            rhs_min = np.sqrt(c_min**2 * mag_err**2 + strength_err**2 + 2.0 * d_t * d * (1.0 - cos_theta))
            stats["min_envelope_violations"] += int(np.count_nonzero((k != k_t) & (lhs > rhs_min + BOUND_SLACK)))

            over_bound = violation > BOUND_SLACK
            split_off = split_err > SPLIT_TOL
            identity_off = q_err > Q_IDENTITY_TOL
            premise_off = (norm_err["u_perp"] > UNIT_NORM_TOL) | (norm_err["u_hat"] > UNIT_NORM_TOL)
            premise_off |= (cos_v["u_perp"] > ORTHO_TOL) | (cos_v["u_hat"] > ORTHO_TOL)
            for row in np.flatnonzero(over_bound | split_off | identity_off | premise_off):
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
                    if cos_v[name][row] > ORTHO_TOL:
                        failures.append(f"{prefix} {name} not orthogonal to v, cosine {float(cos_v[name][row])!r}")
            if audit_path is not None:
                yield from zip(range(start, stop), lhs.tolist(), rhs.tolist(), (rhs - lhs).tolist())

    if audit_path is None:
        next(audit_rows(), None)  # yields no row, so this runs every block
    else:
        write_csv(audit_path, ("draw", "lhs", "rhs", "slack"), audit_rows())
    if stats["min_envelope_violations"] == 0:
        failures.append(
            f"seed {seed}: min-envelope bound never violated in {cases} draws; max envelope is not confirmed necessary"
        )
    return SuiteResult(name="bound", cases=cases, seed=seed, stats=stats, failures=failures)


# The exactness suite's condition seeds reach ``seed + 200``, and a condition seed must be below 2**64.
_MAX_SEED = 2**64 - 201


def suite_exactness(seed: int = 404) -> SuiteResult:
    """Cached sampling reproduces full-step runs on the zero-residual fields."""
    failures: list[str] = []
    stats: dict[str, float] = {}

    def full_and_cached(spec: FieldSpec, n_steps: int, calibration_seeds: tuple[int, ...], evaluation_seed: int):
        """The full and cached runs of ``evaluation_seed`` on ``spec``'s own bundle, and the cached run's inputs."""
        config = ExperimentConfig(spec, n_steps, calibration_seeds, (evaluation_seed,))
        velocity_field, grid, bundle = make_bundle(config)
        condition = Condition(evaluation_seed)
        x0 = initial_state(condition, velocity_field.dimension)
        full = sample_full(velocity_field, grid, x0, condition)
        return full, sample_cached(velocity_field, bundle, x0, condition), (velocity_field, bundle, x0, condition)

    # constant field: zero acceleration, so cached must equal full to the bit
    constant = FieldSpec(kind="constant", dimension=3, target=(0.8, -1.1, 0.4))
    full, cached, _ = full_and_cached(constant, 50, (seed, seed + 1, seed + 2), seed + 100)
    stats["constant_nfe"] = float(cached.nfe)
    if not np.array_equal(full.states, cached.states):
        failures.append(f"seed {seed}: constant-field cached trajectory differs from full-step")
    if cached.nfe * 4 > full.grid.n_steps:
        failures.append(f"seed {seed}: constant-field speedup below 4x (nfe {cached.nfe})")

    # magnitude-decay field: purely parallel dynamics, exponential update
    decay = FieldSpec(kind="magnitude-decay", dimension=2, target=(1.0, -0.5), rate=0.03)
    full, cached, inputs = full_and_cached(decay, 100, (seed + 10, seed + 11), seed + 200)
    velocity_field, bundle, x0, condition = inputs
    n_steps = full.grid.n_steps
    drift = float(np.linalg.norm(cached.final_state - full.final_state) / np.linalg.norm(full.final_state))
    stats["decay_terminal_drift"] = drift
    stats["decay_nfe"] = float(cached.nfe)
    if drift > 1e-6:
        failures.append(f"seed {seed}: magnitude-decay terminal drift {drift!r} exceeds 1e-6")
    if cached.nfe * 3 >= n_steps:
        failures.append(f"seed {seed}: magnitude-decay nfe {cached.nfe} not below {n_steps}/3")

    # an all-ones schedule must reproduce full-step sampling bit for bit
    flat_bundle = replace(bundle, schedule=np.ones(n_steps, dtype=int), tau_k=0.0, tau_d=0.0, h_max=1)
    flat = sample_cached(velocity_field, flat_bundle, x0, condition)
    if flat.nfe != n_steps or not np.array_equal(flat.states, full.states):
        failures.append(f"seed {seed}: all-h=1 schedule does not reproduce full-step sampling")

    return SuiteResult(name="exactness", cases=3, stats=stats, failures=failures, seed=seed)


# Each suite by name, in the order ``--suite all`` runs them.
SUITES = {"povd": suite_povd, "ssc": suite_ssc, "bound": suite_bound, "exactness": suite_exactness}


def run_suite(
    name: str,
    cases: int | None = None,
    seed: int | None = None,
    audit_path: str | None = None,
) -> SuiteResult:
    """Suite ``name``; a ``cases`` or ``seed`` left as None takes the suite's default."""
    if name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; expected one of {tuple(SUITES)}")
    if cases is not None and cases < 1:
        raise InvalidArgumentError(f"--cases must be a positive integer, got {cases}")
    if seed is not None and seed < 0:
        raise InvalidArgumentError(f"--seed must be a non-negative integer, got {seed}")
    if seed is not None and seed > _MAX_SEED:
        raise InvalidArgumentError(f"--seed must be an integer from 0 to {_MAX_SEED} (2**64 - 201), got {seed}")
    if cases is not None and name == "exactness":
        raise InvalidArgumentError("--cases does not apply to the exactness suite, which runs 3 fixed checks")
    if audit_path is not None and name != "bound":
        raise InvalidArgumentError(f"--out does not apply to the {name} suite; only the bound suite writes an audit")
    given = {"cases": cases, "seed": seed, "audit_path": audit_path}
    return SUITES[name](**{key: value for key, value in given.items() if value is not None})
