"""The package's export list, the names the benchmark reaches, and the
boundaries between its modules, the CSV format's among them."""

import ast
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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _runs_at_import(body):
    """The statements of ``body`` that run when the module is imported: the
    top level and the blocks of its compound statements, but no function
    body and no ``if TYPE_CHECKING:`` block."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from _runs_at_import(node.orelse)
            continue
        yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _runs_at_import(getattr(node, block, []))


def boundary_faults(src):
    """The private reaches and one module-level import cycle (or None)
    among the modules ``src/*.py`` of one package.

    A private reach is a relative import of a sibling's underscore name, or
    ``alias._name`` on a sibling module imported as ``alias``.  The import
    graph has an edge a -> b for each relative import in a that runs when a
    is imported; ``from . import name`` of a name that is no module is an
    edge to ``__init__``.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(Path(src).glob("*.py"))}
    reaches, edges = [], {name: set() for name in trees}
    for name, tree in trees.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in trees:
                        aliases[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        reaches.append(f"{name} -> {node.module or '__init__'}.{alias.name}")
        reaches += [f"{name} -> {aliases[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)]
        for node in _runs_at_import(tree.body):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges[name] |= ({node.module.partition(".")[0]} if node.module else
                                {a.name if a.name in trees else "__init__" for a in node.names})

    def cycle_from(name, path):
        if name in path:
            return path[path.index(name):] + [name]
        for target in sorted(edges.get(name, ())):
            if found := cycle_from(target, path + [name]):
                return found
        return None

    cycles = (cycle_from(name, []) for name in sorted(edges))
    return sorted(reaches), next((c for c in cycles if c), None)


def test_no_module_reaches_a_sibling_private_name_or_imports_in_a_cycle():
    assert boundary_faults(Path(trajcf.__file__).parent) == ([], None)


def test_the_boundary_check_finds_a_private_reach_and_a_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from . import b as _b\nfrom .c import _x\n\n\ndef f():\n    return _b._y\n")
    (tmp_path / "b.py").write_text("from . import c\n")
    (tmp_path / "c.py").write_text("from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
                                   "    from . import a\n\n\ndef g():\n    from . import b\n")
    assert boundary_faults(tmp_path) == (["a -> b._y", "a -> c._x"], None)
    (tmp_path / "c.py").write_text("from .a import f\n")
    assert boundary_faults(tmp_path)[1] == ["a", "b", "c", "a"]


def csv_format_faults(src):
    """The modules ``src/*.py`` of one package, other than ``csvfile``, that
    import the csv module or name ``loadtxt``: the CSV format and numpy's
    text reader belong to ``csvfile`` alone."""
    def knows_csv(node):
        if isinstance(node, ast.Import):
            return any(a.name == "csv" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.level == 0 and node.module == "csv"
        return (isinstance(node, ast.Attribute) and node.attr == "loadtxt"
                or isinstance(node, ast.Name) and node.id == "loadtxt")

    return [p.stem for p in sorted(Path(src).glob("*.py")) if p.stem != "csvfile"
            and any(map(knows_csv, ast.walk(ast.parse(p.read_text(encoding="utf-8")))))]


def test_only_csvfile_imports_csv_or_calls_loadtxt():
    assert csv_format_faults(Path(trajcf.__file__).parent) == []


def test_the_csv_check_finds_csv_imports_and_loadtxt_calls(tmp_path):
    (tmp_path / "csvfile.py").write_text("import csv\nimport numpy as np\n\nT = np.loadtxt([])\n")
    (tmp_path / "a.py").write_text("import csv as c\n")
    (tmp_path / "b.py").write_text("import numpy as np\n\n\ndef f(x):\n    return np.loadtxt(x)\n")
    (tmp_path / "c.py").write_text("from csv import reader\n")
    (tmp_path / "d.py").write_text("from . import csvfile\n\n\ndef f(x):\n    return csvfile.float_table(x)\n")
    assert csv_format_faults(tmp_path) == ["a", "b", "c"]
