"""Command-line surface: calibrate, sample, verify, bench, curves.

Every run resolves its configuration (file plus flag overrides), writes the
requested outputs, and records a ``manifest.json`` embedding the resolved
config. Re-running a subcommand with a manifest as ``--config`` reproduces
all numeric outputs byte for byte. Exit codes: 0 on success, 2 for
configuration or I/O problems, 3 for verification failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cached_sampler import sample_cached
from .calibration import _check_thresholds, read_bundle, write_bundle, write_indicator_csv
from .diagnostics import (
    ExperimentConfig,
    _config_error,
    _mean_stderr,
    make_bundle,
    run_experiment,
    run_threshold_sweep,
    run_toggle_ablation,
    truncation_drifts,
    write_ablation_csv,
    write_cos_theta_csv,
    write_drift_profile_csv,
    write_seed_summary_csv,
    write_sweep_csv,
)
from .errors import FieldError, FlowCacheError, InvalidArgumentError
from .fields import Condition, VelocityField, field_digest, initial_state
from .ioutil import _create, _finite, _json_value, write_csv
from .schedule import schedule_coverage
from .solver import make_uniform_grid, sample_full, write_trajectory_csv
from .verify import SUITES, run_suite
from .version import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3

SAMPLE_MODES = ("full", "cached", "truncated")
# Config keys a manifest may carry besides the experiment's: sample's and bench's settings.
SUBCOMMAND_KEYS = ("mode", "truncate_to", "bundle", "ablation", "sweep_taus")


def _load_config_dict(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"config file {path} is not valid JSON: {exc}") from None
    if isinstance(data, dict) and "config" in data and "subcommand" in data:
        # a manifest was passed; reuse its resolved config
        data = data["config"]
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"config file {path} must hold a JSON object")
    return data


def _resolve_experiment(args: argparse.Namespace) -> tuple[ExperimentConfig, dict, dict]:
    """Merge config file and flag overrides.

    Returns the parsed config, the resolved dict to embed in the manifest,
    and the raw input dict, which may carry subcommand extras (mode, bundle,
    sweep pairs) when a manifest is being re-run.
    """
    raw = _load_config_dict(args.config) if args.config else {}
    if getattr(args, "steps", None) is not None:
        raw["n_steps"] = args.steps
    if getattr(args, "tau_k", None) is not None:
        raw["tau_k"] = args.tau_k
    if getattr(args, "tau_d", None) is not None:
        raw["tau_d"] = args.tau_d
    if getattr(args, "h_max", None) is not None:
        raw["h_max"] = args.h_max
    if getattr(args, "seeds", None) is not None:
        try:
            raw["evaluation_seeds"] = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise InvalidArgumentError(f"--seeds: expected comma-separated integers, got {args.seeds!r}") from None
    if getattr(args, "no_mi", False):
        raw["use_mi"] = False
    if getattr(args, "no_di", False):
        raw["use_di"] = False
    config = ExperimentConfig.from_dict({k: v for k, v in raw.items() if k not in SUBCOMMAND_KEYS})
    return config, config.to_dict(), raw


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, subcommand: str, config: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "flowcache",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "outputs": sorted(outputs),
    }
    with _create(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def cmd_calibrate(args: argparse.Namespace) -> int:
    config, resolved, _ = _resolve_experiment(args)
    out = _out_dir(args)
    _, grid, bundle = make_bundle(config)
    write_bundle(bundle, out / "bundle.json")
    write_indicator_csv(bundle.grid, bundle.indicators, out / "curves.csv")
    _write_manifest(out, "calibrate", resolved, ["bundle.json", "curves.csv"])
    skip_ratio, _ = schedule_coverage(bundle.schedule, grid.n_steps)
    print(f"wrote bundle ({grid.n_steps} steps, skip ratio {skip_ratio:.3f}) to {out}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    config, resolved, raw = _resolve_experiment(args)
    out = _out_dir(args)
    mode = args.mode or _json_value(raw, "mode", "str", "full", error=_config_error)
    if mode not in SAMPLE_MODES:
        raise _config_error("mode", f"unknown mode {mode!r}; expected one of {', '.join(SAMPLE_MODES)}")
    resolved["mode"] = mode

    velocity_field = VelocityField(config.field)
    seed = config.evaluation_seeds[0]
    condition = Condition(seed)
    x0 = initial_state(condition, velocity_field.dimension)

    if mode == "full":
        record = sample_full(velocity_field, make_uniform_grid(config.n_steps), x0, condition)
    elif mode == "truncated":
        truncate_to = args.truncate_to
        if truncate_to is None:
            truncate_to = _json_value(raw, "truncate_to", "int", None, error=_config_error)
        if truncate_to is None:
            raise InvalidArgumentError("truncated mode needs --truncate-to")
        if truncate_to < 1:
            raise _config_error("truncate_to", f"must be positive, got {truncate_to}")
        resolved["truncate_to"] = truncate_to
        record = sample_full(velocity_field, make_uniform_grid(truncate_to), x0, condition)
    else:
        bundle_path = args.bundle or _json_value(raw, "bundle", "str", None, error=_config_error)
        if not bundle_path:
            raise InvalidArgumentError("cached mode needs --bundle")
        resolved["bundle"] = str(bundle_path)
        bundle = read_bundle(bundle_path)
        if bundle.grid.n_steps != config.n_steps:
            raise InvalidArgumentError(
                f"bundle grid has {bundle.grid.n_steps} steps, config asks for {config.n_steps}"
            )
        digest = field_digest(config.field)
        if bundle.field_digest != digest:
            raise InvalidArgumentError(
                f"bundle field_digest {bundle.field_digest} does not match the config field's {digest}; "
                "the bundle was calibrated on another field"
            )
        record = sample_cached(velocity_field, bundle, x0, condition, config.toggles)

    write_trajectory_csv(record, out / "trajectory.csv")
    _write_manifest(out, "sample", resolved, ["trajectory.csv"])
    print(f"mode={mode} seed={seed} nfe={record.nfe} final_state_norm={float(np.linalg.norm(record.final_state)):.6g}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.out and args.suite not in ("bound", "all"):
        raise InvalidArgumentError(f"--out does not apply to the {args.suite} suite; only the bound suite writes an audit")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        audit_path = None
        if name == "bound" and args.out:
            audit_path = str(_out_dir(args) / "bound_audit.csv")
        # with --suite all, --cases sizes the randomized suites; exactness has fixed checks
        cases = None if name == "exactness" and args.suite == "all" else args.cases
        result = run_suite(name, cases=cases, seed=args.seed, audit_path=audit_path)
        for line in result.summary_lines():
            print(line)
        ok = ok and result.passed
        if audit_path is not None:
            out = _out_dir(args)
            _write_manifest(out, "verify", {"suite": name, "cases": args.cases, "seed": args.seed}, ["bound_audit.csv"])
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bench(args: argparse.Namespace) -> int:
    config, resolved, raw = _resolve_experiment(args)
    out = _out_dir(args)
    ablation = args.ablation or _json_value(raw, "ablation", "bool", False, error=_config_error)
    if args.sweep_taus is not None:
        pairs = [[_number(part) for part in chunk.split(":")] for chunk in args.sweep_taus.split(",")]
        sweep_taus = _tau_pairs(pairs, lambda reason: InvalidArgumentError(f"--sweep-taus: {reason}"))
    else:
        pairs = _json_value(raw, "sweep_taus", "list", [], error=_config_error)
        sweep_taus = _tau_pairs(pairs, lambda reason: _config_error("sweep_taus", reason))
    resolved["ablation"] = ablation
    if sweep_taus:
        resolved["sweep_taus"] = [[a, b] for a, b in sweep_taus]

    result = run_experiment(config)
    trunc_mean, trunc_stderr = _mean_stderr(truncation_drifts(result, result.cached_nfe))
    n = config.n_steps
    rows = [
        ("full", n, 1.0, 0.0, 0.0, 0.0),
        (
            "cached",
            result.cached_nfe,
            result.speedup,
            result.mean_final_drift,
            result.stderr_final_drift,
            result.skip_ratio,
        ),
        (
            "truncated",
            result.cached_nfe,
            result.speedup,
            trunc_mean,
            trunc_stderr,
            result.skip_ratio,
        ),
    ]
    outputs = ["summary.csv", "per_seed.csv", "drift_profile.csv", "cos_theta.csv", "bundle.json"]
    write_csv(out / "summary.csv", ("mode", "nfe", "speedup", "mean_final_drift", "stderr_final_drift", "skip_ratio"), rows)
    write_seed_summary_csv(result, out / "per_seed.csv")
    write_drift_profile_csv(result, out / "drift_profile.csv")
    write_cos_theta_csv(result, out / "cos_theta.csv")
    write_bundle(result.bundle, out / "bundle.json")

    if ablation:
        write_ablation_csv(run_toggle_ablation(result), out / "ablation.csv")
        outputs.append("ablation.csv")
    if sweep_taus:
        write_sweep_csv(run_threshold_sweep(result, sweep_taus), out / "sweep.csv")
        outputs.append("sweep.csv")

    _write_manifest(out, "bench", resolved, outputs)
    print(
        f"bench: nfe {result.cached_nfe}/{n}, speedup {result.speedup:.2f}x, "
        f"cached drift {result.mean_final_drift:.3e} vs truncated {trunc_mean:.3e}"
    )
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    bundle = read_bundle(args.bundle)
    out = _out_dir(args)
    write_indicator_csv(bundle.grid, bundle.indicators, out / "curves.csv")
    _write_manifest(out, "curves", {"bundle": str(args.bundle)}, ["curves.csv"])
    print(f"wrote {bundle.grid.n_steps} indicator rows to {out / 'curves.csv'}")
    return EXIT_OK


def _number(text: str) -> float | str:
    """``text`` as a float, or unchanged where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _tau_pairs(pairs: list, error) -> list[tuple[float, float]]:
    """Sweep pairs under the pair rule: each two finite numbers that pass the threshold rule.

    A bad pair raises ``error(reason)``, which names where the pairs came from.
    """
    checked = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_finite, pair))):
            raise error(f"bad threshold pair {pair!r}; expected tau_k:tau_d, two finite non-negative numbers")
        tau_k, tau_d = map(float, pair)
        try:
            _check_thresholds(tau_k=tau_k, tau_d=tau_d)
        except FieldError as exc:
            raise error(f"bad threshold pair {pair!r}; {exc}") from None
        checked.append((tau_k, tau_d))
    return checked


def _add_common_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config JSON (or a manifest to re-run)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--tau-k", dest="tau_k", type=float, help="magnitude threshold override")
    parser.add_argument("--tau-d", dest="tau_d", type=float, help="direction threshold override")
    parser.add_argument("--h-max", dest="h_max", type=int, help="maximum skip length override")
    parser.add_argument("--steps", type=int, help="grid size override")
    parser.add_argument("--seeds", help="comma-separated evaluation seed override")
    parser.add_argument("--no-mi", dest="no_mi", action="store_true", help="disable the magnitude correction")
    parser.add_argument("--no-di", dest="no_di", action="store_true", help="disable the direction correction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowcache", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flowcache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate indicators and write a schedule bundle")
    _add_common_experiment_flags(p)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("sample", help="run one trajectory and export it as CSV")
    _add_common_experiment_flags(p)
    p.add_argument("--mode", choices=SAMPLE_MODES, help="sampling mode (default full)")
    p.add_argument("--bundle", help="schedule bundle path (cached mode)")
    p.add_argument("--truncate-to", dest="truncate_to", type=int, help="step count for truncated mode")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",), help="which suite to run")
    p.add_argument("--cases", type=int, help="number of random cases (suite default otherwise)")
    p.add_argument("--seed", type=int, help="base seed for the sweep")
    p.add_argument("--out", help="directory for the bound audit CSV")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="full/cached/truncated comparison over the evaluation seeds")
    _add_common_experiment_flags(p)
    p.add_argument("--ablation", action="store_true", help="also emit the 4-row toggle ablation table")
    p.add_argument("--sweep-taus", dest="sweep_taus", help="threshold sweep pairs, e.g. 0.03:0.3,0.06:0.6")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("curves", help="export indicator curves from a bundle")
    p.add_argument("--bundle", required=True, help="schedule bundle path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_curves)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FlowCacheError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
