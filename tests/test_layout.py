"""Checks on the package's source layout rather than its answers: no
module imports a name it never uses, the Lie layer does not import
``fractions``, only ``exactla`` drives the Bareiss elimination and no
other module imports its private names, only ``strata`` states the
Kronecker counts and bookkeeping, and every function the benchmark
tracer wraps by name still exists."""

import ast
import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "penciljk")


def _used_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads, including those inside string
    annotations such as ``-> "Pencil"``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                inner = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that it never uses;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def test_unused_import_check_can_fail():
    source = "from itertools import combinations\nimport os as system\nimport sys\nsys.exit\n"
    assert unused_imports(source) == ["combinations", "system"]
    assert unused_imports('from typing import Sequence\ndef f() -> "Sequence[int]": ...\n') == []


def test_package_modules_use_every_import():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}


def _imported_modules(source: str) -> set[str]:
    """The top-level names of every module the source imports, anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_lie_layer_runs_on_integer_matrices():
    """The Lie layer holds its data as ``Mat``s; Fractions come back only
    through ``Mat`` accessors."""
    assert _imported_modules("from fractions import Fraction\nfrom .exactla import Mat\n") == {"fractions"}
    for name in ("lie.py", "semidirect.py"):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            assert "fractions" not in _imported_modules(fh.read()), name


ELIMINATION_INTERNALS = {"_echelon", "_back_substitute", "_reduced"}


def _named(source: str) -> set[str]:
    """Every identifier the source mentions: names, attributes and
    imported names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_elimination_stays_inside_exactla():
    assert _named("from .exactla import _echelon as e\n") >= {"_echelon"}
    assert _named("import penciljk.exactla as x\nx._back_substitute\n") >= {"_back_substitute"}
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "exactla.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                named = _named(fh.read()) & ELIMINATION_INTERNALS
            if named:
                found[name] = sorted(named)
    assert found == {}


def _private_exactla_imports(source: str) -> list[str]:
    """Underscore names the source imports from ``exactla``."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[-1] == "exactla"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_modules_import_only_public_exactla_names():
    assert _private_exactla_imports("from .exactla import Mat, _clear\n") == ["_clear"]
    assert _private_exactla_imports("from penciljk.exactla import _echelon\n") == ["_echelon"]
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "exactla.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                private = _private_exactla_imports(fh.read())
            if private:
                found[name] = private
    assert found == {}


BOOKKEEPING_MESSAGES = ("count must be n - rank", "count must be m - rank", "bookkeeping failed")


def _raised_messages(source: str) -> set[str]:
    """Which of ``BOOKKEEPING_MESSAGES`` occur in a string the source
    raises."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            for part in ast.walk(node):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    found.update(m for m in BOOKKEEPING_MESSAGES if m in part.value)
    return found


def test_bookkeeping_is_stated_only_in_strata():
    """The rules that make a Kronecker structure coherent live in
    ``strata.BundleSig``; the invariant records check them through their
    signatures."""
    assert _raised_messages('raise E("row bookkeeping failed")\n') == {"bookkeeping failed"}
    assert _raised_messages('x = "row bookkeeping failed"\n') == set()
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                raised = _raised_messages(fh.read())
            if raised:
                found[name] = raised
    assert found == {"strata.py": set(BOOKKEEPING_MESSAGES)}


@pytest.fixture(scope="module")
def tracer():
    """``bench/tracer.py``, imported without writing bytecode next to it."""
    bench = os.path.join(ROOT, "bench")
    sys.path.insert(0, bench)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(bench)
        sys.modules.pop("tracer", None)


def test_tracer_targets_exist(tracer):
    targets = set(tracer.LAYERS)
    assert {("jsonio", name) for name in tracer.JSONIO_FUNCTIONS} <= targets
    missing = [
        f"{module}.{func}"
        for module, func in sorted(targets)
        if not callable(getattr(importlib.import_module(f"penciljk.{module}"), func, None))
    ]
    assert missing == []
