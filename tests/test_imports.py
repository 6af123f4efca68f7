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
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from typing import Dict, Iterator, Set

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
