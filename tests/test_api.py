"""The public surface: exported names, the attributes the benchmark harness reaches, the README example."""

from __future__ import annotations

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import flowcache

README = Path(__file__).resolve().parent.parent / "README.md"

# What perfbench/workloads.py looks up at call time, and the layer modules perfbench/spans.py traces;
# deleting one of them would break the benchmark without failing any other test.
BENCHMARK_ATTRIBUTES = [
    ("flowcache", "FieldSpec"),
    ("flowcache", "MixtureComponent"),
    ("flowcache", "ExperimentConfig"),
    ("flowcache", "Condition"),
    ("flowcache.diagnostics", "make_bundle"),
    ("flowcache.calibration", "write_bundle"),
    ("flowcache.calibration", "read_bundle"),
    ("flowcache.calibration", "bundles_equal"),
    ("flowcache.schedule", "schedule_coverage"),
    ("flowcache.fields", "initial_state"),
    ("flowcache.fields", "VelocityField"),
    ("flowcache.solver", "sample_full"),
    ("flowcache.cached_sampler", "sample_cached"),
    ("flowcache.cli", "main"),
    ("flowcache.verify", "run_suite"),
]
TRACED_LAYERS = (
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


def test_every_exported_name_resolves():
    assert [name for name in flowcache.__all__ if not hasattr(flowcache, name)] == []
    assert len(set(flowcache.__all__)) == len(flowcache.__all__)


@pytest.mark.parametrize("module, name", BENCHMARK_ATTRIBUTES, ids=lambda x: x)
def test_benchmark_attribute_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_traced_layers_import():
    for layer in TRACED_LAYERS:
        importlib.import_module(f"flowcache.{layer}")


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme_example"})
    assert len(out.getvalue().splitlines()) == 3
