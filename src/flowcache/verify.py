"""Randomized property suites runnable from the CLI and the test harness.

Each suite draws a fixed number of seeded random cases, checks the
corresponding contract against an independent reference (brute-force scan,
closed-form identity, or exactness construction), and reports worst-case
slacks. A failing case is reported with its draw index and base seed so it
can be reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cached_sampler import sample_cached
from .decomposition import _decompose_rows
from .diagnostics import ExperimentConfig, make_bundle
from .error_bound import run_bound_sweep, write_bound_audit_csv
from .errors import InvalidArgumentError
from .fields import Condition, FieldSpec, initial_state
from .schedule import _stable_intervals
from .solver import sample_full

SUITES = ("povd", "ssc", "bound", "exactness")


@dataclass
class SuiteResult:
    name: str
    cases: int
    stats: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    seed: int | None = None  # the seed the suite ran at

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
_POVD_BLOCK, _POVD_WIDTH = 10_000, 64


def _povd_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next ``n`` draws as zero-padded (n, 64) rows ``v`` and ``a`` and their ``dt``.

    Each draw takes its dimension, a nonzero ``v``, ``a`` and ``dt`` from
    ``rng`` in that order, so draw i of a seed is the same configuration
    whatever the block size.
    """
    v, a = np.zeros((2, n, _POVD_WIDTH))
    dt = np.empty(n)
    for i in range(n):
        dim = int(rng.integers(2, _POVD_WIDTH + 1))
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


def suite_bound(cases: int = 100_000, seed: int = 303, audit_path: str | None = None) -> SuiteResult:
    """Bound validity plus the additive split and orthogonal identity."""
    sweep = run_bound_sweep(draws=cases, seed=seed)
    if audit_path is not None:
        write_bound_audit_csv(sweep, audit_path)
    return SuiteResult(
        name="bound",
        cases=cases,
        seed=seed,
        stats={
            "max_bound_violation": sweep.max_bound_violation,
            "max_split_error": sweep.max_split_error,
            "max_q_identity_error": sweep.max_q_identity_error,
            "min_envelope_violations": float(sweep.min_envelope_violations),
        },
        failures=list(sweep.failures),
    )


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


def run_suite(
    name: str,
    cases: int | None = None,
    seed: int | None = None,
    audit_path: str | None = None,
) -> SuiteResult:
    if name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; expected one of {SUITES}")
    if cases is not None and cases < 1:
        raise InvalidArgumentError(f"--cases must be a positive integer, got {cases}")
    if seed is not None and seed < 0:
        raise InvalidArgumentError(f"--seed must be a non-negative integer, got {seed}")
    if seed is not None and seed > _MAX_SEED:
        raise InvalidArgumentError(f"--seed must be an integer from 0 to {_MAX_SEED} (2**64 - 201), got {seed}")
    if cases is not None and name == "exactness":
        raise InvalidArgumentError("--cases does not apply to the exactness suite, which runs 3 fixed checks")
    kwargs: dict = {}
    if seed is not None:
        kwargs["seed"] = seed
    if cases is not None:
        kwargs["cases"] = cases
    if name == "povd":
        return suite_povd(**kwargs)
    if name == "ssc":
        return suite_ssc(**kwargs)
    if name == "bound":
        return suite_bound(audit_path=audit_path, **kwargs)
    return suite_exactness(**kwargs)
