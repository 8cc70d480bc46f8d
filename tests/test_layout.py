"""Checks on the package's source layout rather than its answers: no
module imports a name it never uses, the Lie layer does not import
``fractions``, only ``exactla`` drives the Bareiss elimination and no
other module imports its private names, in ``pencils`` only
``_kernel_chain`` drives ``preimage_chain`` and only ``_kernel_chains``
builds the chain limits' annihilators, ``skewjk`` builds no kernel view
of its own, only ``strata`` states the
Kronecker counts and bookkeeping, no function but the CLI's parser
builder is a memo, every function the benchmark tracer wraps by name
still exists, and every module-level function has a package caller, a
benchmark that names it, or a place among the paper's techniques."""

import ast
import importlib
import os
import sys
import types

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


def _functions_naming(source: str, name: str) -> list[str]:
    """Every function of the source, methods and nested ones included, whose
    code mentions ``name``; a mention in a string does not count."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and name in _named(ast.unparse(node))
    ]


def test_one_function_drives_the_kernel_chains():
    source = (
        "from .exactla import preimage_chain\n"
        "def a(m, b):\n    return preimage_chain(m, b)\n"
        "def b(m, b):\n    return exactla.preimage_chain(m, b)\n"
        "def c():\n    'runs no preimage_chain'\n"
    )
    assert _functions_naming(source, "preimage_chain") == ["a", "b"]
    with open(os.path.join(PACKAGE, "pencils.py"), encoding="utf-8") as fh:
        assert _functions_naming(fh.read(), "preimage_chain") == ["_kernel_chain"]


def _callers(source: str, name: str) -> list[str]:
    """The functions of the source, methods and nested ones included, that
    call ``name``, bare or as an attribute, in the order met, and
    "<module>" for a call outside every function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name and owner not in found:
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_one_function_builds_the_chain_limits_annihilators():
    """``pencils._kernel_chains`` builds both chain limits' annihilators
    and makes every deficiency check; the skew mantle reads one of them
    from ``Pencil.chains`` and builds no kernel view of its own."""
    source = (
        "from .exactla import KernelView\n"
        "def a(m):\n    return KernelView(m)\n"
        "def b(m) -> KernelView:\n    return exactla.KernelView(m)\n"
        "def c(m) -> KernelView:\n    'builds no KernelView(m)'\n    return m\n"
        "KernelView(0)\n"
    )
    assert _callers(source, "KernelView") == ["a", "b", "<module>"]
    with open(os.path.join(PACKAGE, "pencils.py"), encoding="utf-8") as fh:
        assert _callers(fh.read(), "_deficiency") == ["_kernel_chains"]
    with open(os.path.join(PACKAGE, "skewjk.py"), encoding="utf-8") as fh:
        assert _callers(fh.read(), "KernelView") == []


BOOKKEEPING_MESSAGES =("count must be n - rank", "count must be m - rank", "bookkeeping failed")


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


def _memos(module) -> set[str]:
    """Qualified names of the ``functools`` caches among the module's
    functions and the attributes of its classes."""
    found = set()
    for value in vars(module).values():
        for f in vars(value).values() if isinstance(value, type) else (value,):
            if hasattr(f, "cache_info"):
                found.add(f"{f.__module__}.{f.__qualname__}")
    return found


def test_no_memo_outside_the_cli_parser():
    """The package keeps no state between requests: each pencil keeps its
    own results, and the one cache is the CLI's parser, built once per
    process."""
    demo = types.ModuleType("demo")
    exec(
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef f(x): ...\n"
        "class C:\n    @cache\n    def g(self): ...\n",
        vars(demo),
    )
    assert _memos(demo) == {"demo.f", "demo.C.g"}
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            stem = name[: -len(".py")]
            found |= _memos(importlib.import_module("penciljk" if stem == "__init__" else f"penciljk.{stem}"))
    assert found == {"penciljk.cli._build_parser"}


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


def uncalled_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) for each module-level function of the given
    sources (module name -> text) that no code outside its own body names;
    an import alone names nothing."""
    defs = []
    named: dict[str, set] = {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own:
                defs.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.setdefault(node.id, set()).add((module, own))
    return [(module, f) for module, f in defs if not named.get(f, set()) - {(module, f)}]


def _package_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name the source imports from ``penciljk``."""
    return {
        (node.module.split(".")[-1], alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("penciljk.")
        for alias in node.names
    }


# the paper's techniques, offered to users though no command reaches them
PAPER_TECHNIQUES = {"enumerate_signatures", "verify_block_structure", "jk_of_block_pencil"}


def test_uncalled_function_check_can_fail():
    sources = {"a": "def f():\n    g()\ndef g(): ...\ndef h():\n    h()\n", "b": "from a import f, h\nf()\n"}
    assert uncalled_functions(sources) == [("a", "h")]
    assert _package_imports("def w():\n    from penciljk.jsonio import emit\n") == {("jsonio", "emit")}


def test_every_package_function_has_a_user(tracer):
    """Code the package does not call leaves ``src/``, unless the
    benchmark names it or it is one of the paper's techniques."""
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name[: -len(".py")]] = fh.read()
    with open(os.path.join(ROOT, "bench", "workloads.py"), encoding="utf-8") as fh:
        benchmarked = _package_imports(fh.read())
    benchmarked |= set(tracer.LAYERS) | {("jsonio", name) for name in tracer.JSONIO_FUNCTIONS}
    unused = [
        f"{module}.{f}"
        for module, f in uncalled_functions(sources)
        if (module, f) not in benchmarked and f not in PAPER_TECHNIQUES
    ]
    assert unused == []
