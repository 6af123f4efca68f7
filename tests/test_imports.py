"""Every name a ``repro`` module imports is used, and every name it
exports exists.

An AST scan over ``src/repro`` (package ``__init__.py`` files re-export by
importing, so they are left out): each name an ``import`` binds must be
referenced somewhere in its module — as a name, as the base of an
attribute, inside a string annotation, or in ``__all__``.  ``__future__``
imports are directives, not bindings, and are skipped.

Every module, packages included, is then imported, and each name in its
``__all__`` must be an attribute of it, so a stale export of a deleted
class fails here rather than at a caller's ``import *``.

No module keeps process-global random state: none binds a module-level
``np.random`` generator or calls ``np.random.seed``, so every draw comes
from a generator its caller seeded.

Last, ``repro.nn`` must not regrow names nothing calls: every public
top-level function or class of a ``repro/nn`` module needs a reference
in ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` other than
its definition, ``__all__`` lists and package re-exports.  A reference
inside its own module counts, so registries and ``Tensor``'s operators
keep their targets.  The few names kept for tests or documentation are
listed in ``NN_ALLOWED_UNREFERENCED``, each with its reason.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
)
MODULE_NAMES = sorted(
    ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts).removesuffix(
        ".__init__"
    )
    for path in PACKAGE.rglob("*.py")
)


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Name bound by each import → line of its first binding."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (
                arg.annotation
                for arg in (
                    *node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs, node.args.vararg, node.args.kwarg,
                )
                if arg is not None and arg.annotation is not None
            )
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            # A string annotation (or a string inside one): parse it too.
            try:
                yield from _names_in(ast.parse(child.value, mode="eval"))
            except SyntaxError:
                pass


def _referenced(tree: ast.Module) -> Set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        names.update(_names_in(annotation))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return names


def unused_imports(source: str) -> Dict[str, int]:
    """Imported names never referenced in ``source`` → their import line."""
    tree = ast.parse(source)
    referenced = _referenced(tree)
    return {
        name: line
        for name, line in _imported(tree).items()
        if name not in referenced
    }


def test_the_scan_finds_unused_names_and_honours_references():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import List, Optional, Tuple\n"
        "from .a import Used, Quoted, Exported, Unused\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Optional[Quoted]') -> List[int]:\n"
        "    return os.path.join(Used)\n"
    )
    assert unused_imports(source) == {"np": 3, "Tuple": 4, "Unused": 5}


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items())
    )


def _resolves(module, name: str) -> bool:
    if hasattr(module, name):
        return True
    # ``from package import *`` imports a submodule named in ``__all__``.
    return hasattr(module, "__path__") and (
        importlib.util.find_spec(f"{module.__name__}.{name}") is not None
    )


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", ()) if not _resolves(module, name)
    ]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


# ---------------------------------------------------------------------- #
# No process-global random state
# ---------------------------------------------------------------------- #
_GENERATOR_FACTORIES = {"default_rng", "Generator", "RandomState"}


def _random_function(call: ast.Call) -> str:
    """``name`` for a call of ``<...>.random.name``, else ``""``."""
    func = call.func
    if isinstance(func, ast.Attribute) and (
        isinstance(func.value, ast.Attribute) and func.value.attr == "random"
    ):
        return func.attr
    return ""


def _makes_generator(node: ast.AST) -> bool:
    return any(
        isinstance(call, ast.Call)
        and (
            _random_function(call) in _GENERATOR_FACTORIES
            or (isinstance(call.func, ast.Name) and call.func.id in _GENERATOR_FACTORIES)
        )
        for call in ast.walk(node)
    )


def global_random_state(source: str) -> List[int]:
    """Lines of ``source`` that bind a module-level generator (at the top
    level, or through a ``global`` statement) or call ``np.random.seed``."""
    tree = ast.parse(source)
    lines = [
        statement.lineno
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        and statement.value is not None
        and _makes_generator(statement.value)
    ]
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = {
            name
            for node in ast.walk(function)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        lines.extend(
            node.lineno
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in shared for t in node.targets)
            and _makes_generator(node.value)
        )
    lines.extend(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _random_function(node) == "seed"
    )
    return sorted(lines)


def test_the_random_state_scan_finds_global_generators_and_seeding():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "_RNG = np.random.default_rng(0)\n"
        "_OTHER: np.random.Generator = default_rng()\n"
        "_SEEDS = np.random.SeedSequence(0)\n"
        "def reseed(value):\n"
        "    global _RNG\n"
        "    _RNG = np.random.default_rng(value)\n"
        "    np.random.seed(value)\n"
        "def local(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.random()\n"
        "class Layer:\n"
        "    def __init__(self, seed):\n"
        "        self.rng = np.random.default_rng(seed)\n"
    )
    assert global_random_state(source) == [3, 4, 8, 9]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_no_global_random_state(path):
    lines = global_random_state(path.read_text())
    assert not lines, (
        f"module-level random generator or np.random.seed at lines {lines}: "
        "take a seed (or a generator) from the caller instead"
    )


# ---------------------------------------------------------------------- #
# repro.nn regrowth guard
# ---------------------------------------------------------------------- #
SRC = PACKAGE.parent
NN = PACKAGE / "nn"
NN_MODULES = sorted(path for path in NN.rglob("*.py") if path.name != "__init__.py")
CALLER_ROOTS = [SRC, *(SRC.parent / name for name in ("examples", "benchmarks", "perfbench"))]

#: Public ``repro.nn`` names (``module.name`` under ``repro/nn``) kept
#: without a caller in the scanned code, and why.
NN_ALLOWED_UNREFERENCED = {
    "gradcheck.check_gradient": "the numerical gradient checks of tests/nn call it",
    "serialization.save_state": "the bare-network archive pair; tests and docs/SERVING.md use it",
    "serialization.load_state": "the bare-network archive pair; tests and docs/SERVING.md use it",
}


def _is_module(name: str) -> bool:
    path = SRC.joinpath(*name.split("."))
    return path.with_suffix(".py").exists() or (path / "__init__.py").exists()


def _import_source(path: Path, node: ast.ImportFrom) -> str:
    """Absolute module name an ``ImportFrom`` reads (``""`` if not resolvable)."""
    if not node.level:
        return node.module or ""
    if SRC not in path.parents:
        return ""
    package = list(path.relative_to(SRC).parent.parts)
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _nn_bindings(path: Path, tree: ast.Module) -> Tuple[Set[str], Dict[str, str]]:
    """Local names bound to ``repro.nn`` modules, and to ``repro.nn`` objects."""
    modules: Set[str] = set()
    objects: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _import_source(path, node)
            if not source.startswith("repro.nn"):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if _is_module(f"{source}.{alias.name}"):
                    modules.add(local)
                else:
                    objects[local] = alias.name
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname
                for alias in node.names
                if alias.asname and alias.name.startswith("repro.nn")
            )
    return modules, objects


def nn_references(path: Path, source: str) -> Set[str]:
    """Names of ``repro.nn`` objects ``source`` uses through its imports.

    An import alone is not a use: ``from .x import name`` must be followed
    by ``name`` in the code, ``import repro.nn as nn`` by ``nn.name``.
    """
    tree = ast.parse(source)
    modules, objects = _nn_bindings(path, tree)
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in objects:
            used.add(objects[node.id])
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.add(node.attr)
    return used


def unreferenced_definitions(source: str, referenced: Set[str]) -> List[str]:
    """Public top-level functions and classes of ``source`` that neither the
    rest of ``source`` nor ``referenced`` names."""
    tree = ast.parse(source)
    unreferenced = []
    for statement in tree.body:
        if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            continue
        if statement.name.startswith("_") or statement.name in referenced:
            continue
        elsewhere = {
            node.id
            for other in tree.body
            if other is not statement
            for node in ast.walk(other)
            if isinstance(node, ast.Name)
        }
        if statement.name not in elsewhere:
            unreferenced.append(statement.name)
    return unreferenced


@functools.lru_cache(maxsize=None)
def _nn_callers() -> frozenset:
    """Every ``repro.nn`` name used anywhere under :data:`CALLER_ROOTS`."""
    return frozenset(
        name
        for root in CALLER_ROOTS
        for path in root.rglob("*.py")
        for name in nn_references(path, path.read_text())
    )


def test_the_nn_scan_counts_uses_not_imports_or_definitions():
    caller = (
        "import repro.nn as nn\n"
        "from ..nn import tensor as ops\n"
        "from ..nn.layers import Add, Dense as D\n"
        "def build(x):\n"
        "    return nn.Sequential([D(3)]), ops.conv1d(x)\n"
    )
    assert nn_references(PACKAGE / "core" / "caller.py", caller) == {
        "Sequential", "Dense", "conv1d"
    }
    module = (
        "__all__ = ['exported', 'registered']\n"
        "def exported(): pass\n"
        "def registered(): pass\n"
        "def recursive(): return recursive()\n"
        "def called(): pass\n"
        "def _private(): pass\n"
        "_REGISTRY = {'r': registered}\n"
    )
    assert unreferenced_definitions(module, {"called"}) == ["exported", "recursive"]


@pytest.mark.parametrize(
    "path", NN_MODULES, ids=[str(p.relative_to(NN)) for p in NN_MODULES]
)
def test_every_public_nn_name_has_a_caller(path):
    module = ".".join(path.relative_to(NN).with_suffix("").parts)
    uncalled = [
        name
        for name in unreferenced_definitions(path.read_text(), _nn_callers())
        if f"{module}.{name}" not in NN_ALLOWED_UNREFERENCED
    ]
    assert not uncalled, (
        f"repro.nn.{module} defines names nothing calls: {uncalled}; delete "
        "them, or list them in NN_ALLOWED_UNREFERENCED with a reason"
    )


def test_the_nn_allow_list_names_only_uncalled_definitions():
    stale = [
        entry
        for entry in NN_ALLOWED_UNREFERENCED
        if entry.rsplit(".", 1)[1]
        not in unreferenced_definitions(
            NN.joinpath(*entry.split(".")[:-1]).with_suffix(".py").read_text(),
            _nn_callers(),
        )
    ]
    assert not stale, f"allow-listed names that are gone or now called: {stale}"
