"""Every name a module of the package imports is used in that module.

`__init__.py` is exempt: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ctxflow

PACKAGE = Path(ctxflow.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
