"""The three benchmark workloads.

Each workload derives all of its inputs from the workload seed, prepares
them in ``setup`` (which may run several times; every call must give the
same fingerprint) and then runs ops one at a time, closed loop, in one
thread. ``op`` returns the seconds of the timed region and a list of failed
checks; a failed op is counted, never aborted.

flowcache is reached only through module attributes looked up at call time
(``fc.solver.sample_full``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

clock = time.perf_counter


def percentiles(values: list[float], scale: float = 1.0) -> dict[str, float]:
    """Median and p90 of ``values`` times ``scale``."""
    return {
        "p50": scale * statistics.median(values),
        "p90": scale * float(np.percentile(values, 90)),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SampleD1024:
    """Online path in the oracle-dominated regime: full vs cached sampling."""

    name = "sample-d1024"
    dimension = 1024
    components = 16
    n_steps = 100
    calibration_count = 16
    # Evaluation seeds cycle through this pool so drift covers a fixed set.
    pool_size = 32
    trace_ops = 32
    expected_distinct_runs = None

    def __init__(self, fc, seed: int, workdir: Path) -> None:
        self.fc = fc
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.full(self.components, 2.0))
        weights = weights / weights.sum()
        means = rng.standard_normal((self.components, self.dimension))
        scales = rng.uniform(0.5, 1.5, self.components)
        self.spec = fc.FieldSpec(
            kind="gaussian-mixture",
            dimension=self.dimension,
            components=tuple(
                fc.MixtureComponent(float(w), tuple(float(v) for v in mean), float(s))
                for w, mean, s in zip(weights, means, scales)
            ),
        )
        first = int(rng.integers(0, 2**32))
        self.calibration_seeds = tuple(range(first, first + self.calibration_count))
        # 2**20 apart, so the evaluation pool never meets the calibration seeds
        self.pool = tuple(range(first + 2**20, first + 2**20 + self.pool_size))
        self.calibrate_s: list[float] = []
        self.full_s: list[float] = []
        self.cached_s: list[float] = []
        self.drift: dict[int, float] = {}

    @property
    def mixture(self) -> tuple[int, int]:
        return self.components, self.dimension

    def grid(self) -> dict:
        return {
            "dimension": self.dimension,
            "components": self.components,
            "n_steps": self.n_steps,
            "calibration_seeds": self.calibration_count,
            "evaluation_pool": self.pool_size,
        }

    def setup(self) -> tuple[object, list[str]]:
        """Calibrate, write and read back the bundle, then one warm-up pair."""
        fc = self.fc
        config = fc.ExperimentConfig(
            field=self.spec,
            n_steps=self.n_steps,
            calibration_seeds=self.calibration_seeds,
            evaluation_seeds=self.pool,
        )
        path = self.workdir / "bundle.json"
        start = clock()
        self.field, _, written = fc.diagnostics.make_bundle(config)
        fc.calibration.write_bundle(written, path)
        self.bundle = fc.calibration.read_bundle(path)
        self.calibrate_s.append(clock() - start)
        failures = [] if fc.calibration.bundles_equal(written, self.bundle) else ["read-back bundle differs"]
        _, anchors = fc.schedule.schedule_coverage(self.bundle.schedule, self.n_steps)
        self.anchors = len(anchors)
        failures += self._pair(self.pool[0], full_first=True)[3]
        return _sha256(path), failures

    def _pair(self, seed: int, full_first: bool) -> tuple[float, float, float, list[str]]:
        fc = self.fc
        condition = fc.Condition(seed)
        x0 = fc.fields.initial_state(condition, self.dimension)
        runs = {}
        failures = []
        order = ("full", "cached") if full_first else ("cached", "full")
        for mode in order:
            before = self.field.evaluations
            start = clock()
            if mode == "full":
                record = fc.solver.sample_full(self.field, self.bundle.grid, x0, condition)
            else:
                record = fc.cached_sampler.sample_cached(self.field, self.bundle, x0, condition)
            elapsed = clock() - start
            runs[mode] = (record, elapsed)
            calls = self.field.evaluations - before
            if calls != record.nfe:
                failures.append(f"seed {seed} {mode}: oracle counter moved {calls}, record.nfe is {record.nfe}")
        full, cached = runs["full"][0], runs["cached"][0]
        if full.nfe != self.n_steps:
            failures.append(f"seed {seed}: full nfe {full.nfe} != {self.n_steps}")
        if cached.nfe != self.anchors:
            failures.append(f"seed {seed}: cached nfe {cached.nfe} != {self.anchors} anchors")
        drift = float(np.linalg.norm(cached.final_state - full.final_state) / np.linalg.norm(full.final_state))
        if not math.isfinite(drift):
            failures.append(f"seed {seed}: final drift is {drift}")
        return runs["full"][1], runs["cached"][1], drift, failures

    def op(self, index: int) -> tuple[float, list[str]]:
        seed = self.pool[index % self.pool_size]
        full_s, cached_s, drift, failures = self._pair(seed, full_first=index % 2 == 0)
        self.full_s.append(full_s)
        self.cached_s.append(cached_s)
        self.drift.setdefault(seed, drift)
        return full_s + cached_s, failures

    def metrics(self) -> list[tuple[str, float, str, int]]:
        full = percentiles(self.full_s, 1e3)
        cached = percentiles(self.cached_s, 1e3)
        n = len(self.full_s)
        return [
            ("calibrate_s", statistics.median(self.calibrate_s), "s", len(self.calibrate_s)),
            ("sample_full_ms.p50", full["p50"], "ms", n),
            ("sample_full_ms.p90", full["p90"], "ms", n),
            ("sample_cached_ms.p50", cached["p50"], "ms", n),
            ("sample_cached_ms.p90", cached["p90"], "ms", n),
            ("cached_samples_per_s", n / sum(self.cached_s), "1/s", n),
            ("wall_speedup", sum(self.full_s) / sum(self.cached_s), "ratio", n),
            ("nfe_speedup", self.n_steps / self.anchors, "ratio", 1),
            ("mean_final_drift", statistics.fmean(self.drift.values()), "relative", len(self.drift)),
        ]


# The README config's field: dim 3, two components.
README_FIELD = {
    "kind": "gaussian-mixture",
    "dimension": 3,
    "components": [
        {"weight": 0.6, "mean": [1.2, -0.8, 0.5], "scale": 1.1},
        {"weight": 0.4, "mean": [-1.0, 0.9, -0.4], "scale": 1.3},
    ],
}
BENCH_OUTPUTS = (
    "ablation.csv",
    "bundle.json",
    "cos_theta.csv",
    "drift_profile.csv",
    "manifest.json",
    "per_seed.csv",
    "summary.csv",
    "sweep.csv",
)


class BenchD3:
    """The offline pipeline as users run it: one ``flowcache bench`` per op.

    Ops cycle through ``config_pool`` seed sets. The schedule, and with it
    the op's cost, depends on the calibration seeds, so one seed set per
    run would make run-to-run figures depend on which set was drawn.
    """

    name = "bench-d3"
    n_steps = 50
    calibration_count = 6
    evaluation_count = 4
    config_pool = 16
    sweep_taus = "0.03:0.3,0.04:0.4,0.06:0.6"
    trace_ops = 12
    # distinct sample_full runs one bench needs: calibration, reference, truncated
    expected_distinct_runs = calibration_count + 2 * evaluation_count
    mixture = (len(README_FIELD["components"]), README_FIELD["dimension"])

    def __init__(self, fc, seed: int, workdir: Path) -> None:
        self.fc = fc
        self.workdir = workdir
        self.out = workdir / "bench"
        self.configs = []
        for first in np.random.default_rng(seed).integers(0, 2**32, size=self.config_pool):
            first = int(first)
            self.configs.append(
                {
                    "field": README_FIELD,
                    "n_steps": self.n_steps,
                    "calibration_seeds": list(range(first, first + self.calibration_count)),
                    # 2**20 apart, so evaluation and calibration seeds never meet
                    "evaluation_seeds": list(range(first + 2**20, first + 2**20 + self.evaluation_count)),
                    "tau_k": 0.06,
                    "tau_d": 0.6,
                    "h_max": 12,
                }
            )
        self.reference: dict[int, dict[str, str]] = {}
        self.summary: dict[int, tuple[float, float]] = {}

    def grid(self) -> dict:
        return {
            "dimension": README_FIELD["dimension"],
            "components": len(README_FIELD["components"]),
            "n_steps": self.n_steps,
            "calibration_seeds": self.calibration_count,
            "evaluation_seeds": self.evaluation_count,
            "config_pool": self.config_pool,
            "sweep_taus": self.sweep_taus,
            "ablation": True,
        }

    def _config_path(self, slot: int) -> Path:
        return self.workdir / f"config-{slot}.json"

    def setup(self) -> tuple[object, list[str]]:
        """Write the configs, then one warm-up bench on the first."""
        for slot, config in enumerate(self.configs):
            self._config_path(slot).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        _, failures = self.op(0)
        return self.reference[0], failures

    def op(self, index: int) -> tuple[float, list[str]]:
        """One bench; its outputs must match the first bench on the same config."""
        slot = index % self.config_pool
        argv = ["bench", "--config", str(self._config_path(slot)), "--out", str(self.out), "--ablation"]
        argv += ["--sweep-taus", self.sweep_taus]
        shutil.rmtree(self.out, ignore_errors=True)
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.fc.cli.main(argv)
        elapsed = clock() - start
        failures = [] if code == 0 else [f"bench exited with {code}"]
        digests = {p.name: _sha256(p) for p in sorted(self.out.iterdir())} if self.out.is_dir() else {}
        if tuple(digests) != BENCH_OUTPUTS:
            failures.append(f"bench wrote {sorted(digests)}, expected {list(BENCH_OUTPUTS)}")
        reference = self.reference.setdefault(slot, digests)
        changed = sorted(n for n in set(digests) | set(reference) if digests.get(n) != reference.get(n))
        if changed:
            failures.append(f"config {slot}: outputs differ from its first bench: {changed}")
        if slot not in self.summary and not failures:
            with open(self.out / "summary.csv", encoding="utf-8", newline="") as fh:
                cached = next(row for row in csv.DictReader(fh) if row["mode"] == "cached")
            self.summary[slot] = (float(cached["speedup"]), float(cached["mean_final_drift"]))
        return elapsed, failures

    def metrics(self) -> list[tuple[str, float, str, int]]:
        """Means over the pool's configs, each read from its summary.csv."""
        rows = list(self.summary.values())
        return [
            ("nfe_speedup", statistics.fmean(r[0] for r in rows), "ratio", len(rows)),
            ("mean_final_drift", statistics.fmean(r[1] for r in rows), "relative", len(rows)),
        ]


class VerifyBound:
    """The randomized contract suites, one 1000/100/100-draw chunk per op.

    The povd and ssc chunks take per-op seeds from the workload seed. Every
    bound chunk runs the first 1000 draws of ``flowcache verify --suite
    bound`` at its default seed, which the acceptance suite checks in full
    (10^5 draws): on other seeds the bound suite's orthogonal-identity check
    (relative tolerance 1e-12) fails about once in 1500 chunks from rounding
    alone, e.g. ``flowcache verify --suite bound --cases 1000 --seed
    772376139``, and a benchmark op must not fail on the unchanged program.
    Each bound chunk must repeat the set-up's stats exactly.
    """

    name = "verify-bound"
    suites = (("bound", 1000), ("povd", 100), ("ssc", 100))
    bound_seed = 303
    trace_ops = 40
    expected_distinct_runs = None
    mixture = None

    def __init__(self, fc, seed: int, workdir: Path) -> None:
        self.fc = fc
        self.first = int(np.random.default_rng(seed).integers(0, 2**31))
        self.bound_stats = None

    def grid(self) -> dict:
        return {"suites": {name: cases for name, cases in self.suites}, "bound_seed": self.bound_seed}

    def _run(self, index: int) -> tuple[float, list, list[str]]:
        """Suites of chunk ``index``; chunk 0 is the warm-up."""
        results = []
        start = clock()
        for offset, (name, cases) in enumerate(self.suites):
            seed = self.bound_seed if name == "bound" else self.first + len(self.suites) * index + offset
            results.append(self.fc.verify.run_suite(name, cases=cases, seed=seed))
        elapsed = clock() - start
        failures = [f"{r.name}: {failure}" for r in results for failure in r.failures[:3]]
        stats = sorted(results[0].stats.items())
        if self.bound_stats is None:
            self.bound_stats = stats
        elif stats != self.bound_stats:
            failures.append(f"bound chunk stats {stats} differ from the first chunk's {self.bound_stats}")
        return elapsed, results, failures

    def setup(self) -> tuple[object, list[str]]:
        _, results, failures = self._run(0)
        return [sorted(r.stats.items()) for r in results], failures

    def op(self, index: int) -> tuple[float, list[str]]:
        elapsed, _, failures = self._run(index + 1)
        return elapsed, failures

    def metrics(self) -> list[tuple[str, float, str, int]]:
        return []


WORKLOADS = {cls.name: cls for cls in (SampleD1024, BenchD3, VerifyBound)}
