"""The package's export list, and the names the benchmark reaches."""

import importlib
import importlib.util
import sys
from pathlib import Path

import trajcf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from trajcf import *", namespace)
    assert [name for name in trajcf.__all__ if name not in namespace] == []
    assert len(set(trajcf.__all__)) == len(trajcf.__all__)


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py imported by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_or_imports_exists(monkeypatch):
    # the tracer wraps each entry, so a removed or renamed one breaks the traced run
    tracer = _perfbench_module("tracer", monkeypatch)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in tracer.METHODS
                if attr not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert missing == []
    _perfbench_module("workloads", monkeypatch)  # its imports from trajcf resolve
