"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --out .perfbench_out/runs.json

Each (workload, seed) pair is one ``perfbench/run.py`` process, run one at a
time, seed by seed. For every metric the summary gives the ten values, their
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread, (Q3 - Q1) / median. With ``--baseline`` it also rewrites the
``measured`` block of ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    parser.add_argument("--baseline", action="store_true", help="store the summary in perfbench/baseline.json")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    units: dict[str, str] = {}
    environments: dict[str, dict] = {}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
            # "metric <name> = <value> <unit> (n=<count>)" lines carry every metric, reported or not
            for line in lines[:-1]:
                if line.startswith("env "):
                    environments[workload] = json.loads(line[len("env ") :])
                if line.startswith("metric "):
                    name, _, rest = line[len("metric ") :].partition(" = ")
                    value, unit, _ = rest.split(" ", 2)
                    results[workload].setdefault(name, []).append(float(value))
                    units[name] = unit
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} {line}", flush=True)

    summary = {}
    for workload in workloads:
        env = {k: v for k, v in environments[workload].items() if k not in ("command", "workload_seed")}
        summary[workload] = {"environment": env, "runs": runs[workload], "metrics": {}}
        for name, values in results[workload].items():
            stats = {"unit": units[name], **summarise(values)}
            summary[workload]["metrics"][name] = stats
            bound = bounds.get(name)
            note = f" bound {bound} ({stats['spread'] / bound:.2f} of it)" if bound and not args.trace else ""
            print(f"{workload:13s} {name:45s} median {stats['median']:.6g} spread {stats['spread']:.4f}{note}")

    command = spec["command"] + ["--workload", "<name>", "--seed", "<n>", "--seconds", str(args.seconds), "--trace", str(args.trace)]
    document = {"command": command, "seeds": args.seeds, "workloads": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    if args.baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        baseline.setdefault("measured", {})["trace" if args.trace else "end_to_end"] = document
        path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
