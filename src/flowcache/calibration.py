"""Offline calibration: indicator aggregation and the on-disk bundle.

A calibration run samples full-step trajectories for a set of seeded
conditions, decomposes each one, and averages the per-step magnitude and
direction scalars into indicator curves. Indicators plus the derived skip
schedule, thresholds, and provenance form a bundle that is written once and
reused across every inference call on the same grid.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .decomposition import _accel_rows, _decompose_rows
from .errors import BundleFormatError, FieldError, InvalidArgumentError
from .fields import Condition, VelocityField, _check_seeds, initial_state
from .ioutil import _check_count, _create, _integral, _read_json, _unique_keys, _write_json, write_csv
from .schedule import _check_thresholds, skip_intervals
from .solver import TimeGrid, _full_kernel
from .version import __version__

BUNDLE_FORMAT = "tacache-bundle/2"


@dataclass(frozen=True, eq=False)
class IndicatorTable:
    """Per-step indicator means over a calibration set.

    Both arrays have one entry per grid step. The final step has no look-ahead
    velocity to decompose against, so its entry repeats the previous one
    (hold-last); the schedule's end-of-grid cap makes that entry govern a
    length-1 interval at most.
    """

    k_tilde: np.ndarray
    d_tilde: np.ndarray
    sample_count: int

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("k_tilde", "d_tilde"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size != len(arrays.get("k_tilde", arr)):
                raise FieldError(name, f"must be 1-d and as long as k_tilde, got shape {arr.shape}")
            for i in np.flatnonzero(~np.isfinite(arr))[:1]:
                raise FieldError(name, f"entry {i} is not finite: {float(arr[i])!r}")
            arr.flags.writeable = False
            arrays[name] = arr
        _check_count("sample_count", self.sample_count, FieldError)
        if np.any(arrays["d_tilde"] < 0):
            raise FieldError("d_tilde", "entries must be non-negative")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.k_tilde.size


# Most bytes of the window of velocity rows ``calibrate`` decomposes in one pass.
_WINDOW_BYTES = 1 << 18


def calibrate(field: VelocityField, grid: TimeGrid, conditions: list[Condition]) -> IndicatorTable:
    """Average per-sample decomposition scalars into indicator curves.

    The full-step runs share the grid, so all B conditions ride one
    record-free walk: one oracle call per step, whatever B and the
    dimension are. Its (B, D) velocity rows fill a step-major window of
    ``_WINDOW_BYTES`` (two steps at least); the k pairs of consecutive steps
    a full window holds are decomposed as one (B·k, D) row pass, and its
    last step opens the next window. Each row's scalars are what the run's
    own decomposition gives, bit for bit.
    """
    if not conditions:
        raise InvalidArgumentError("calibration needs at least one condition")
    x0 = np.array([initial_state(condition, field.dimension) for condition in conditions])
    return _indicators(grid, x0.shape, (v for v, _ in _full_kernel(field, grid, x0, conditions, records=False)))


def _indicators(grid: TimeGrid, shape: tuple[int, int], step_rows: Iterator[np.ndarray]) -> IndicatorTable:
    """``calibrate``'s indicators of B runs, from ``step_rows``: each step's (B, D) velocity rows in turn."""
    n, (b, dim) = grid.n_steps, shape
    dt = grid.dt
    rows = np.empty((2, b, max(n - 1, 0)))  # per-sample k and d
    window = np.empty((max(2, _WINDOW_BYTES // (8 * b * dim)), b, dim))
    start = 0  # the step of window[0]
    for step, velocities in enumerate(step_rows):
        pairs = step - start
        window[pairs] = velocities
        if pairs == len(window) - 1 or step == n - 1:
            v, v_next = (window[i : i + pairs].reshape(-1, dim) for i in (0, 1))
            pair_dt = np.repeat(dt[start:step], b)
            k, _, d = _decompose_rows(v, _accel_rows(v, v_next, pair_dt), pair_dt)
            rows[:, :, start:step] = np.stack((k, d)).reshape(2, pairs, b).swapaxes(1, 2)
            window[0] = window[pairs]  # a full window's last step opens the next one
            start = step

    curves = np.zeros((2, n))  # k_tilde, d_tilde
    if n > 1:
        curves[:, : n - 1] = rows.mean(axis=1)
        curves[:, n - 1] = curves[:, n - 2]  # hold-last boundary entry for the final step
    return IndicatorTable(*curves, sample_count=b)


@dataclass(frozen=True, eq=False)
class ScheduleBundle:
    """The pre-computed calibration artifact: indicators + skip schedule.

    ``schedule[n]`` is the admissible skip interval length at step n, always
    between 1 and min(h_max, N - n). Re-running schedule construction on the
    stored indicators with the stored thresholds reproduces ``schedule``
    exactly; the round-trip tests pin that property.
    """

    grid: TimeGrid
    indicators: IndicatorTable
    schedule: np.ndarray
    tau_k: float
    tau_d: float
    h_max: int
    field_digest: str
    seeds: tuple[int, ...]
    created_by: str = f"flowcache {__version__}"

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        if self.indicators.n_steps != n:
            raise FieldError("indicators", f"cover {self.indicators.n_steps} steps, grid has {n}")
        if np.shape(self.schedule) != (n,):
            raise FieldError("schedule", f"must have {n} entries, got shape {np.shape(self.schedule)}")
        if not re.fullmatch("[0-9a-f]{64}", self.field_digest):  # the sha256 hex form ``field_digest`` writes
            raise FieldError("field_digest", f"expected 64 lowercase hex characters, got {self.field_digest!r}")
        _check_thresholds(tau_k=self.tau_k, tau_d=self.tau_d, h_max=self.h_max)
        _check_seeds("seeds", self.seeds, FieldError)
        for i, h in enumerate(self.schedule):  # before the int conversion, so the rules also bound an entry's size
            if not (isinstance(h, np.integer) or _integral(h)):  # build_schedule's entries are numpy integers
                raise FieldError("schedule", f"entry {i} is not an integer: {h!r}")
            if not 1 <= h <= min(self.h_max, n - i):
                raise FieldError("schedule", f"schedule entry out of range at step {i}: h={h}")
        schedule = np.array(self.schedule, dtype=int)
        # compared with the largest finite exponent, not exponentiated, so no warning; dt <= 1 keeps it finite
        for i in np.flatnonzero(self.indicators.k_tilde * self.grid.dt > math.log(np.finfo(float).max))[:1]:
            k = float(self.indicators.k_tilde[i])
            raise FieldError("k_tilde", f"exp(k_tilde * dt) overflows at step {i}: k_tilde={k!r}")
        schedule.flags.writeable = False
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @cached_property
    def opening(self) -> np.ndarray:
        """The schedule's read-only ``skip_intervals`` row, worked out once for every run and result that reads it."""
        opening = skip_intervals(self.schedule, self.grid.n_steps)
        opening.flags.writeable = False
        return opening


# The bundle document's keys in write order, each with its JSON kind; ``read_bundle`` rejects any other.
BUNDLE_TABLE = {
    "format_version": "str", "n_steps": "int", "times": "floats", "k_tilde": "floats", "d_tilde": "floats",
    "h": "ints", "tau_k": "float", "tau_d": "float", "h_max": "int", "sample_count": "int", "field_digest": "str",
    "seeds": "ints", "created_by": "str",
}
BUNDLE_KEYS = tuple(BUNDLE_TABLE)


def _payload(bundle: ScheduleBundle) -> dict:
    """The bundle as the JSON document ``write_bundle`` writes."""
    values = dict(vars(bundle), format_version=BUNDLE_FORMAT, n_steps=bundle.grid.n_steps, times=bundle.grid.times)
    values.update((key, getattr(bundle.indicators, key)) for key in ("k_tilde", "d_tilde", "sample_count"))
    return _write_json(BUNDLE_TABLE, dict(values, h=bundle.schedule))


def write_bundle(bundle: ScheduleBundle, path: str | Path) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(_payload(bundle), indent=2) + "\n")


def read_bundle(path: str | Path) -> ScheduleBundle:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys(BundleFormatError))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleFormatError("document", f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise BundleFormatError("document", "expected a JSON object")
    version = data.get("format_version")
    if version != BUNDLE_FORMAT:  # an older bundle is not read; calibrate on its run's manifest writes it anew
        reason = f"expected {BUNDLE_FORMAT!r}, got {version!r}; re-run flowcache calibrate to regenerate the bundle"
        raise BundleFormatError("format_version", reason)
    values = _read_json(data, BUNDLE_TABLE, BundleFormatError, {})
    n = values["n_steps"]
    if n < 1:
        raise BundleFormatError("n_steps", f"must be positive, got {n}")
    for key in ("times", "k_tilde", "d_tilde", "h"):
        length = n + 1 if key == "times" else n  # one time per grid node, one entry per step
        if len(values[key]) != length:
            reason = f"length mismatch: expected {length} entries to match n_steps, got {len(values[key])}"
            raise BundleFormatError(key, reason)

    # the value ranges are the constructors' rules: a rejection names the field, which is the
    # document's key but for the schedule's ("h")
    try:
        indicators = IndicatorTable(values["k_tilde"], values["d_tilde"], values["sample_count"])
        return ScheduleBundle(
            grid=TimeGrid(np.array(values["times"])),
            indicators=indicators,
            schedule=values["h"],
            **{key: values[key] for key in ("tau_k", "tau_d", "h_max", "field_digest", "seeds", "created_by")},
        )
    except FieldError as exc:
        raise BundleFormatError("h" if exc.field == "schedule" else exc.field, exc.reason) from None


def bundles_equal(a: ScheduleBundle, b: ScheduleBundle) -> bool:
    """Field-for-field equality with exact float comparison."""
    return _payload(a) == _payload(b)


def write_indicator_csv(grid: TimeGrid, indicators: IndicatorTable, path: str | Path) -> None:
    """Indicator curves for external plotting: one row per step."""
    rows = [
        (n, float(grid.times[n]), float(indicators.k_tilde[n]), float(indicators.d_tilde[n]))
        for n in range(grid.n_steps)
    ]
    write_csv(path, ("n", "t", "k_tilde", "d_tilde"), rows)
