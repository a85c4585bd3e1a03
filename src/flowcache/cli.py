"""Command-line surface: calibrate, sample, verify, bench.

Every run resolves its configuration (file plus flag overrides), writes the
requested outputs, and records a ``manifest.json`` embedding the resolved
config. Re-running a subcommand with a manifest as ``--config`` reproduces
all numeric outputs byte for byte. Exit codes: 0 on success, 2 for
configuration or I/O problems, 3 for verification failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cached_sampler import sample_cached
from .calibration import read_bundle, write_bundle, write_indicator_csv
from .diagnostics import (
    CONFIG_KEYS,
    ExperimentConfig,
    _config_error,
    _mean_stderr,
    make_bundle,
    run_experiment,
    truncation_drifts,
    write_ablation_csv,
    write_cos_theta_csv,
    write_drift_profile_csv,
    write_seed_summary_csv,
    write_sweep_csv,
)
from .errors import FieldError, FlowCacheError, InvalidArgumentError
from .fields import Condition, VelocityField, field_digest, initial_state
from .ioutil import _create, _defaults, _finite, _json_value, write_csv
from .schedule import _check_thresholds, schedule_coverage
from .solver import make_uniform_grid, sample_full, write_trajectory_csv
from .verify import SUITES, run_suite
from .version import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3

SAMPLE_MODES = ("full", "cached")
# The sample and bench settings a run reads besides its experiment config, each with its JSON kind.
SETTING_KEYS = {"mode": "str", "bundle": "str", "ablation": "bool", "sweep_taus": "list"}
# Every experiment subcommand flag but --config and --out, by argparse dest: the config key it sets, its default (None
# where ExperimentConfig holds it), where it applies (every experiment subcommand (None), bench, sample, or sample in
# one mode) and its help. A setting whose default is None is required where it applies.
FLAGS = {
    "steps": ("n_steps", None, None, "grid size override"),
    "tau_k": ("tau_k", None, None, "magnitude threshold override"),
    "tau_d": ("tau_d", None, None, "direction threshold override"),
    "h_max": ("h_max", None, None, "maximum skip length override"),
    "seeds": ("evaluation_seeds", None, None, "comma-separated evaluation seed override"),
    "no_mi": ("use_mi", None, None, "disable the magnitude correction"),
    "no_di": ("use_di", None, None, "disable the direction correction"),
    "mode": ("mode", "full", "sample", "sampling mode: full or cached (default full)"),
    "bundle": ("bundle", None, "cached", "schedule bundle path (cached mode)"),
    "ablation": ("ablation", False, "bench", "also emit the 4-row toggle ablation table"),
    "sweep_taus": ("sweep_taus", [], "bench", "threshold sweep pairs, e.g. 0.03:0.3,0.06:0.6"),
}


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


def _resolve(args: argparse.Namespace) -> tuple[ExperimentConfig, dict, dict]:
    """The run's experiment config, its sample or bench settings, and the resolved dict its manifest records.

    The config file (or a manifest) is merged with each flag that is set, and
    each setting the run uses is read once; a bad value names the flag that
    set it, or else its key. A flag set where it does not apply exits 2
    naming it. A file key outside its mode is ignored, since a manifest of
    one mode may be re-run in another.
    """
    raw = _load_config_dict(args.config) if args.config else {}
    settings: dict = {}
    for dest, (key, default, where, _) in FLAGS.items():
        flag, set_to = "--" + dest.replace("_", "-"), getattr(args, dest, None)
        kind = CONFIG_KEYS.get(key) or SETTING_KEYS[key]
        applies = where in (None, args.command, settings.get("mode"))
        if set_to is not None:
            if not applies:
                raise InvalidArgumentError(f"{flag} applies only to --mode {where}; this run is {settings['mode']}")
            raw[key] = _flag_json(flag, kind, set_to)
        if where is None or not applies:
            continue
        error = _config_error if set_to is None else lambda _, reason: InvalidArgumentError(f"{flag}: {reason}")
        value = _json_value(raw, key, kind, default, error=error)
        if value is None:
            raise InvalidArgumentError(f"{where} mode needs {flag}")
        settings[key] = _checked(key, value, error)
    config = ExperimentConfig.from_dict({k: v for k, v in raw.items() if k not in SETTING_KEYS})
    return config, settings, {**config.to_dict(), **settings}


def _flag_json(flag: str, kind: str, value):
    """A set flag's text as its config key's JSON value, which the key's rule judges; a list flag is comma-separated."""
    if kind == "ints":
        try:
            return [int(part) for part in value.split(",")]
        except ValueError:
            raise InvalidArgumentError(f"{flag}: expected comma-separated integers, got {value!r}") from None
    if kind == "list":  # tau_k:tau_d threshold pairs
        return [[_number(half) for half in pair.split(":")] for pair in value.split(",")]
    return _number(value) if kind in ("int", "float") else value


def _checked(key: str, value, error):
    """A sample or bench setting under its value rule; a breach raises ``error(key, reason)``.

    Sweep pairs come back as tuples, each two finite numbers that pass the threshold rule.
    """
    if key == "mode" and value not in SAMPLE_MODES:
        raise error(key, f"unknown mode {value!r}; expected one of {', '.join(SAMPLE_MODES)}")
    if key == "bundle":  # recorded absolute, so a manifest re-runs from any working directory
        value = os.path.abspath(value)
        if not os.path.isfile(value):
            raise error(key, f"no bundle file at {value}")
    if key != "sweep_taus":
        return value
    checked = []
    for pair in value:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_finite, pair))):
            raise error(key, f"bad threshold pair {pair!r}; expected tau_k:tau_d, two finite non-negative numbers")
        tau_k, tau_d = map(float, pair)
        try:
            _check_thresholds(tau_k=tau_k, tau_d=tau_d)
        except FieldError as exc:
            raise error(key, f"bad threshold pair {pair!r}; {exc}") from None
        checked.append((tau_k, tau_d))
    return checked


def _out_dir(out: Path) -> Path:
    """``out``, made once a handler's outputs are worked out, so a run the handler rejects leaves no directory."""
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


def cmd_calibrate(config: ExperimentConfig, settings: dict, out: Path) -> list[str]:
    _, grid, bundle = make_bundle(config)
    write_bundle(bundle, _out_dir(out) / "bundle.json")
    write_indicator_csv(bundle.grid, bundle.indicators, out / "curves.csv")
    skip_ratio, _ = schedule_coverage(bundle.schedule, grid.n_steps)
    print(f"wrote bundle ({grid.n_steps} steps, skip ratio {skip_ratio:.3f}) to {out}")
    return ["bundle.json", "curves.csv"]


def cmd_sample(config: ExperimentConfig, settings: dict, out: Path) -> list[str]:
    velocity_field = VelocityField(config.field)
    condition = Condition(config.evaluation_seeds[0])
    x0 = initial_state(condition, velocity_field.dimension)

    if settings["mode"] == "cached":
        bundle = read_bundle(settings["bundle"])
        if bundle.grid.n_steps != config.n_steps:
            raise InvalidArgumentError(f"bundle grid has {bundle.grid.n_steps} steps, config asks for {config.n_steps}")
        digest = field_digest(config.field)
        if bundle.field_digest != digest:
            raise InvalidArgumentError(
                f"bundle field_digest {bundle.field_digest} does not match the config field's {digest}; "
                "the bundle was calibrated on another field"
            )
        record = sample_cached(velocity_field, bundle, x0, condition, config.toggles)
    else:
        record = sample_full(velocity_field, make_uniform_grid(config.n_steps), x0, condition)

    write_trajectory_csv(record, _out_dir(out) / "trajectory.csv")
    norm = float(np.linalg.norm(record.final_state))
    print(f"mode={settings['mode']} seed={condition.seed} nfe={record.nfe} final_state_norm={norm:.6g}")
    return ["trajectory.csv"]


def cmd_verify(args: argparse.Namespace) -> int:
    if args.out and args.suite not in ("bound", "all"):
        raise InvalidArgumentError(f"--out does not apply to the {args.suite} suite; only the bound suite writes an audit")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        audit_path = None
        if name == "bound" and args.out:
            audit_path = str(Path(args.out) / "bound_audit.csv")
        # with --suite all, --cases sizes the randomized suites; exactness has fixed checks
        cases = None if name == "exactness" and args.suite == "all" else args.cases
        result = run_suite(name, cases=cases, seed=args.seed, audit_path=audit_path)
        for line in result.summary_lines():
            print(line)
        ok = ok and result.passed
        if audit_path is not None:
            recorded = {"suite": name, "cases": result.cases, "seed": result.seed}
            _write_manifest(Path(args.out), "verify", recorded, ["bound_audit.csv"])
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bench(config: ExperimentConfig, settings: dict, out: Path) -> list[str]:
    result = run_experiment(config, settings["ablation"], settings["sweep_taus"])
    trunc_mean, trunc_stderr = _mean_stderr(truncation_drifts(result, result.cached_nfe))
    n = config.n_steps
    nfe_speedup = (result.cached_nfe, result.speedup)
    rows = [
        ("full", n, 1.0, 0.0, 0.0, 0.0),
        ("cached", *nfe_speedup, result.mean_final_drift, result.stderr_final_drift, result.skip_ratio),
        ("truncated", *nfe_speedup, trunc_mean, trunc_stderr, result.skip_ratio),
    ]
    outputs = ["summary.csv", "per_seed.csv", "drift_profile.csv", "cos_theta.csv", "bundle.json"]
    _out_dir(out)
    write_csv(out / "summary.csv", ("mode", "nfe", "speedup", "mean_final_drift", "stderr_final_drift", "skip_ratio"), rows)
    write_seed_summary_csv(result, out / "per_seed.csv")
    write_drift_profile_csv(result, out / "drift_profile.csv")
    write_cos_theta_csv(result, out / "cos_theta.csv")
    write_bundle(result.bundle, out / "bundle.json")

    if settings["ablation"]:
        write_ablation_csv(result.ablation, out / "ablation.csv")
        outputs.append("ablation.csv")
    if settings["sweep_taus"]:
        write_sweep_csv(result.sweep, out / "sweep.csv")
        outputs.append("sweep.csv")

    print(
        f"bench: nfe {result.cached_nfe}/{n}, speedup {result.speedup:.2f}x, "
        f"cached drift {result.mean_final_drift:.3e} vs truncated {trunc_mean:.3e}"
    )
    return outputs


# Each subcommand's handler and help; the experiment ones take (config, settings, out) and return their output names.
SUBCOMMANDS = {
    "calibrate": (cmd_calibrate, "calibrate indicators and write a schedule bundle"),
    "sample": (cmd_sample, "run one trajectory and export it as CSV"),
    "verify": (cmd_verify, "run randomized property suites"),
    "bench": (cmd_bench, "full/cached/truncated comparison over the evaluation seeds"),
}


def _number(text: str) -> int | float | str:
    """``text`` as an int, else as a float, or unchanged where it is not a number; an integer keeps every digit."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error raises, so ``main`` reports it like any other rejection
        raise InvalidArgumentError(message)


@functools.cache  # one parser per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowcache", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flowcache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = _defaults(ExperimentConfig)
    for name, (_, summary) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name == "verify":
            p.add_argument("--suite", default="all", choices=(*SUITES, "all"), help="which suite to run")
            p.add_argument("--cases", type=int, help="number of random cases (suite default otherwise)")
            p.add_argument("--seed", type=int, help="base seed for the sweep")
            p.add_argument("--out", help="directory for the bound audit CSV")
        else:  # an experiment subcommand: its config, its output directory and the FLAGS rows that apply to it
            p.add_argument("--config", help="experiment config JSON (or a manifest to re-run)")
            p.add_argument("--out", required=True, help="output directory")
            for dest, (key, default, where, text) in FLAGS.items():
                if where in (None, name) or name == "sample" and where in SAMPLE_MODES:
                    default = defaults.get(key, default)  # a bool default: a switch, None until set to the other bool
                    switch = {"action": "store_const", "const": not default} if isinstance(default, bool) else {}
                    p.add_argument("--" + dest.replace("_", "-"), help=text, **switch)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = SUBCOMMANDS[args.command][0]
        if args.command == "verify":  # the one subcommand outside resolve -> handler -> manifest; it writes its own
            return handler(args)
        config, settings, resolved = _resolve(args)
        out = Path(args.out)
        _write_manifest(out, args.command, resolved, handler(config, settings, out))
        return EXIT_OK
    except (FlowCacheError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
