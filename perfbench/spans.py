"""Span tracer that wraps flowcache's public functions from the outside.

While installed, every public function of the layer modules is replaced, in
every ``flowcache`` module that holds a reference to it, by a wrapper that
records one span: name, start, end, parent span, op id and whether it
raised. ``VelocityField.evaluate`` is wrapped at class level, and
``VelocityField.__init__`` registers each field built while tracing so the
traced call count can be checked against the fields' own counters. Spans
stay in memory; ``write`` dumps them once the run is over.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# The layers are the package modules; errors and version hold no functions.
LAYERS = (
    "fields",
    "solver",
    "decomposition",
    "calibration",
    "schedule",
    "cached_sampler",
    "error_bound",
    "diagnostics",
    "verify",
    "cli",
    "ioutil",
)


def _flowcache_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "flowcache" or n.startswith("flowcache.")]


def mixture_kernel_work(components: int, dimension: int) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one gaussian-mixture evaluate.

    With C components in D dimensions, the C x D passes of
    ``gaussian_mixture_velocity`` are: shift the means (2CD flops), squared
    distances (2CD), component velocities (2CD) and the responsibility-
    weighted sum (2CD); the per-component scalar work is about 20C flops.
    Bytes count 8-byte float streams over C x D arrays plus the rebuild of
    the mean array from tuples on every call: 32CD bytes read (a pointer and
    a 24-byte float object per entry) and 8CD written, then ``np.stack``
    copies it again (16CD). The arithmetic passes then move 11 streams of
    8CD: shift (2), subtract from x (2), squared distances (1), scale (2),
    subtract the means (3) and the weighted sum (1). Cache reuse is ignored,
    so the figure is an upper bound.
    """
    cd = components * dimension
    flops = 8 * cd + 20 * components
    nbytes = (32 + 8) * cd + 16 * cd + 11 * 8 * cd
    return flops, nbytes


class Tracer:
    """Records spans around flowcache's public functions while installed."""

    def __init__(self) -> None:
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # keeps each wrapper alive so ids stay unique
        # name, start, end, parent index, op id, raised, extra
        self.spans: list[tuple] = []
        self.fields: list = []
        self.op: object = None
        # oracle calls the fields' own counters saw while installed
        self.counted_evaluations = 0
        self._baseline: dict[int, int] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self._baseline = {id(f): f.evaluations for f in self.fields}
        modules = _flowcache_modules()
        hooks = {
            "solver.sample_full": _sample_full_key,
            "cached_sampler.sample_cached": _skipped_steps,
            "ioutil.write_csv": _csv_bytes,
        }
        for layer in LAYERS:
            module = sys.modules[f"flowcache.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self._wrap(name, fn, hooks.get(name))
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, held, fn))
                            setattr(holder, held, traced)
        field_cls = sys.modules["flowcache.fields"].VelocityField
        evaluate = field_cls.__dict__["evaluate"]
        init = field_cls.__dict__["__init__"]
        fields = self.fields

        @functools.wraps(init)
        def register(field, *args, **kwargs):
            init(field, *args, **kwargs)
            fields.append(field)

        self._patches.append((field_cls, "evaluate", evaluate))
        self._patches.append((field_cls, "__init__", init))
        field_cls.evaluate = self._wrap("fields.evaluate", evaluate, None)
        field_cls.__init__ = register
        self._wrappers[id(register)] = register

    def uninstall(self) -> list[str]:
        """Restore every patched name; return the names not restored exactly.

        A name counts as wrong when it is not the original object again, or
        when any flowcache module or class still holds a wrapper.
        """
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self.counted_evaluations += sum(f.evaluations - self._baseline.get(id(f), 0) for f in self.fields)
        wrong = [
            f"{getattr(holder, '__name__', holder)}.{attr}"
            for holder, attr, original in self._patches
            if getattr(holder, attr) is not original
        ]
        holders = _flowcache_modules()
        holders += [v for m in list(holders) for v in vars(m).values() if inspect.isclass(v)]
        wrong += [
            f"{getattr(holder, '__name__', holder)}.{attr}"
            for holder in holders
            for attr, value in vars(holder).items()
            if id(value) in self._wrappers
        ]
        self._patches.clear()
        return wrong

    def _wrap(self, name: str, fn, on_return):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, tracer.op, True, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            extra = on_return(args, kwargs, result) if on_return is not None else None
            spans[index] = (name, start, end, parent, tracer.op, False, extra)
            return result

        self._wrappers[id(traced)] = traced
        return traced

    # -- analysis -------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, busy seconds and self seconds per traced name."""
        child_time = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0})
        for index, (name, start, end, _, _, raised, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["raised"] += int(raised)
        return dict(table)

    def extras(self, name: str) -> list[tuple[object, object]]:
        return [(op, extra) for n, _, _, _, op, _, extra in self.spans if n == name]

    def distinct_sample_full(self) -> dict[object, tuple[int, int]]:
        """Per op: (distinct, total) ``sample_full`` runs."""
        per_op: dict[object, list] = defaultdict(list)
        for op, key in self.extras("solver.sample_full"):
            per_op[op].append(key)
        return {op: (len(set(keys)), len(keys)) for op, keys in per_op.items()}

    def per_layer_metrics(self, names: list[str], overhead_fraction: float, mixture: tuple[int, int] | None) -> dict:
        """Values of the named per-layer metrics.

        ``<layer>.<function>.calls``, ``.busy_s`` and ``.self_s`` come from the
        span table (0 for a function never called); the other names are
        derived below.
        """
        table = self.layer_table()
        flops, nbytes = mixture_kernel_work(*mixture) if mixture else (0, 0)
        evaluate = table.get("fields.evaluate", {"calls": 0, "busy_s": 0.0})
        steps = [extra for _, extra in self.extras("cached_sampler.sample_cached")]
        total_steps = sum(n for _, n in steps)
        runs = self.distinct_sample_full().values()
        total_runs = sum(t for _, t in runs)
        derived = {
            "fields.evaluate.us_per_call": 1e6 * evaluate["busy_s"] / evaluate["calls"] if evaluate["calls"] else 0.0,
            "fields.evaluate.flops_per_call": flops,
            "fields.evaluate.bytes_per_call": nbytes,
            "cached_sampler.reorthogonalize.degenerate": table.get("cached_sampler.reorthogonalize", {}).get("raised", 0),
            "cached_sampler.skip_ratio": sum(s for s, _ in steps) / total_steps if total_steps else 0.0,
            "diagnostics.sample_full_distinct_ratio": sum(d for d, _ in runs) / total_runs if total_runs else 0.0,
            "ioutil.bytes_written": sum(extra for _, extra in self.extras("ioutil.write_csv")),
            "trace.overhead_fraction": overhead_fraction,
        }
        out = {}
        for name in names:
            function, _, key = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif key in ("calls", "busy_s", "self_s"):
                out[name] = table[function][key] if function in table else 0
            else:
                raise ValueError(f"unknown per-layer metric {name!r}")
        return out

    def write(self, path) -> None:
        """Gzipped CSV, one row per span; times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "op", "name", "start_us", "end_us", "parent", "raised"))
            for index, (name, start, end, parent, op, raised, _) in enumerate(self.spans):
                writer.writerow(
                    (index, op, name, f"{1e6 * (start - origin):.1f}", f"{1e6 * (end - origin):.1f}", parent, int(raised))
                )


def _sample_full_key(args, kwargs, result) -> int:
    """Identity of a ``sample_full`` run: field, grid, start state, condition."""
    names = ("field", "grid", "x0", "condition")
    field, grid, x0, condition = tuple(args) + tuple(kwargs[n] for n in names[len(args) :])
    return hash((field.spec, grid.times.tobytes(), np.asarray(x0, dtype=float).tobytes(), condition))


def _skipped_steps(args, kwargs, result) -> tuple[int, int]:
    n_steps = result.grid.n_steps
    return n_steps - result.nfe, n_steps


def _csv_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)
