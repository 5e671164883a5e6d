"""Every name a module of the package imports is used in that module,
every parameter of a function is read in its body, no module reaches
into another object's private attributes, and importing the CLI loads no
module that only code generation or introspection needs.

`__init__.py` is exempt from the import rule: it imports names to re-export
them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxflow

PACKAGE = Path(ctxflow.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of `source` that no expression
    of it reads, in order of first import."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(imported) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "from .errors import CtxflowError, CycleError\nimport a.b\nraise CycleError(a)\n"
    assert unused_imports(source) == ["CtxflowError"]


def unused_parameters(source: str) -> list[str]:
    """``Class.function.parameter`` for each parameter of a function of
    `source` that its body never reads, in source order. ``self`` and
    ``cls`` are exempt; a read in a nested function counts."""
    found: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [
                    arg.arg
                    for arg in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
                    if arg is not None and arg.arg not in ("self", "cls")
                ]
                read = {n.id for n in ast.walk(child) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{prefix}{child.name}.{name}" for name in params if name not in read)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_parameter():
    source = (
        "class L:\n"
        "    def add(self, element, target, origin='w', *rest, record=True, **extra):\n"
        "        origin = element\n"
        "        def inner(x):\n"
        "            return target, x\n"
        "        return inner, rest\n"
        "def f(cls, a, b):\n"
        "    return a\n"
    )
    assert unused_parameters(source) == ["L.add.origin", "L.add.record", "L.add.extra", "f.b"]


def private_accesses(source: str) -> list[str]:
    """``owner._name`` for each attribute of `source` that starts with a
    single underscore and is reached on something other than ``self`` or
    ``cls``, once each, in source order."""
    found = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return list(dict.fromkeys(f"{ast.unparse(node.value)}.{node.attr}" for node in found))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_access_from_outside(path):
    assert private_accesses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_private_access():
    source = (
        "class L:\n"
        "    def f(self, state, cls):\n"
        "        state._index.add(self._seq, cls._kind, state.__class__)\n"
        "        state._blocks.append(self.__dict__)\n"
        "        return state._blocks, other()._x\n"
    )
    assert private_accesses(source) == ["state._index", "state._blocks", "other()._x"]


# Each command is a fresh process, so whatever `import ctxflow.cli` loads is
# paid on every invocation. These modules come only with `dataclasses`.
STARTUP_FREE = ["dataclasses", "inspect", "ast", "dis", "tokenize"]


def test_cli_import_loads_no_code_generation_modules():
    probe = "import sys, ctxflow.cli; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert "ctxflow.cli" in loaded
    assert [name for name in STARTUP_FREE if name in loaded] == []
