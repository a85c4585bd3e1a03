"""flowcache benchmark: one workload per run, one JSON result on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload sample-d1024 --seed 1 --seconds 35 --trace 0

The workloads are ``sample-d1024``, ``bench-d3`` and ``verify-bound``
(BENCHMARK.json says why each was chosen). The load is a closed loop: one
client, one process, one thread. With ``--trace 0`` the run sets up several
times, then times ops for at least ``--seconds`` seconds and reports the
end-to-end metrics. With ``--trace 1`` a fixed number of ops runs under the
span tracer and again without it, and the per-layer metrics are reported.
Every line before the last names a metric with its unit and sample count,
a failed check, or the environment record; the last line is the JSON
result. The program is imported from ``src/`` of the checkout; without it
the run exits with code 2 and prints no result.
"""

import os

# Pinned before numpy is imported: numpy links a threaded OpenBLAS, and the
# benchmark is single-threaded by design.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, clock, percentiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
# A p90 needs at least 10 samples beyond it.
MIN_OPS = 100
# The timed loop stops at this multiple of --seconds even below MIN_OPS.
MAX_STRETCH = 2.0


def import_flowcache():
    """The flowcache package of this checkout, or None with the reason."""
    sys.path.insert(0, str(SRC))
    try:
        import flowcache
        import flowcache.cli
        import flowcache.verify
    except ImportError as exc:
        return None, f"cannot import flowcache from {SRC}: {exc}"
    if Path(flowcache.__file__).resolve().parent != (SRC / "flowcache").resolve():
        return None, f"flowcache was imported from {flowcache.__file__}, not from {SRC}"
    return flowcache, ""


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "command": [Path(sys.executable).name] + sys.argv,
        "workload": workload.name,
        "workload_seed": seed,
        "grid": workload.grid(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_op(workload, index: int) -> tuple[float | None, list[str]]:
    """One op; an exception is a failed op, reported and counted."""
    try:
        return workload.op(index)
    except Exception:  # the loop must keep running and count the failure
        return None, [traceback.format_exc()]


def set_up(workload, fingerprints: list, problems: list[str]) -> float:
    """One set-up; its fingerprint must match the first one's. Returns seconds."""
    start = clock()
    fingerprint, failures = workload.setup()
    elapsed = clock() - start
    if fingerprints and fingerprint != fingerprints[0]:
        problems.append("repeated set-up gave a different result")
    fingerprints.append(fingerprint)
    problems += failures
    return elapsed


def report_failures(failures: list[str]) -> None:
    for failure in failures:
        print(f"check FAILED {failure}")


def measure(workload, seconds: float) -> tuple[list[tuple], int, int, list[str]]:
    """End-to-end run: ops until ``seconds`` of op time passed and MIN_OPS ran.

    The SETUP_REPEATS set-ups are spread evenly through the loop rather than
    run back to back, so their median does not hinge on one stretch of
    machine speed. Set-up time is not op time.
    """
    setups: list[float] = []
    fingerprints: list = []
    problems: list[str] = []
    times: list[float] = []
    attempted = failed = 0
    busy = 0.0
    while True:
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(set_up(workload, fingerprints, problems))
            continue
        if (busy >= seconds and attempted >= MIN_OPS) or busy >= MAX_STRETCH * seconds:
            break
        start = clock()
        seconds_op, failures = run_op(workload, attempted)
        busy += clock() - start
        attempted += 1
        if failures:
            failed += 1
            report_failures(failures)
        if seconds_op is not None:
            times.append(seconds_op)

    op_ms = percentiles(times, 1e3)
    if sum(1 for t in times if 1e3 * t > op_ms["p90"]) < 10:
        print("warning: op_ms.p90 has fewer than 10 samples beyond it", file=sys.stderr)
    metrics = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("op_ms.p50", op_ms["p50"], "ms", len(times)),
        ("op_ms.p90", op_ms["p90"], "ms", len(times)),
        ("ops_per_s", len(times) / busy, "1/s", len(times)),
        *workload.metrics(),
        ("failed_fraction", failed / attempted, "ratio", attempted),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    ]
    return metrics, attempted, failed, problems


def traced(workload, per_layer: dict[str, str], spans_path: Path) -> tuple[list[tuple], int, int, list[str]]:
    """Per-layer run: traced set-up, then ``trace_ops`` ops each run untraced and traced.

    The order within each pair alternates, and the traced/untraced time
    ratio of the pairs gives the tracing overhead.
    """
    tracer = Tracer()
    not_restored: list[str] = []

    def under_trace(op, fn, *args):
        tracer.op = op
        tracer.install()
        try:
            return fn(*args)
        finally:
            not_restored.extend(tracer.uninstall())

    problems: list[str] = []
    under_trace("setup", set_up, workload, [], problems)
    seconds = {False: 0.0, True: 0.0}
    failed = 0
    for index in range(workload.trace_ops):
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            seconds_op, failures = under_trace(index, run_op, workload, index) if with_trace else run_op(workload, index)
            seconds[with_trace] += seconds_op or 0.0
            failed += bool(failures)
            report_failures(failures)

    if not_restored:
        problems.append(f"tracer left wrapped names behind: {sorted(set(not_restored))}")
    table = tracer.layer_table()
    traced_calls = table["fields.evaluate"]["calls"] if "fields.evaluate" in table else 0
    if traced_calls != tracer.counted_evaluations:
        problems.append(f"traced fields.evaluate.calls {traced_calls} != field counters {tracer.counted_evaluations}")
    if workload.expected_distinct_runs is not None:
        for op, (distinct, total) in tracer.distinct_sample_full().items():
            if distinct != workload.expected_distinct_runs:
                problems.append(
                    f"op {op}: {distinct} distinct sample_full runs of {total}, expected {workload.expected_distinct_runs}"
                )
    tracer.write(spans_path)
    values = tracer.per_layer_metrics(list(per_layer), seconds[True] / seconds[False] - 1.0, workload.mixture)
    metrics = [(name, values[name], unit, workload.trace_ops) for name, unit in per_layer.items()]
    return metrics, 2 * workload.trace_ops, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; every input derives from it")
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    args = parser.parse_args(argv)

    fc, reason = import_flowcache()
    if fc is None:
        print(f"error: {reason}", file=sys.stderr)
        return 2

    # BENCHMARK.json names the metrics the last line carries; every metric
    # line is printed regardless.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](fc, args.seed, workdir)
        print("env " + json.dumps(environment(workload, args.seed)))
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, attempted, failed, problems = traced(workload, per_layer, spans_path)
            print(f"spans {spans_path.relative_to(ROOT)}")
        else:
            metrics, attempted, failed, problems = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(problems)
    for name, value, unit, n in metrics:
        print(f"metric {name} = {value!r} {unit} (n={n})")
    by_name = {name: (value, unit) for name, value, unit, _ in metrics}
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": by_name[name][0], "unit": by_name[name][1]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
