"""Every module of the package uses each name it imports.

The check parses the source with ``ast``, so it needs no linter: a name
counts as used when it appears in the code or in a quoted annotation, and
an import line marked ``# noqa: F401`` is kept on purpose (``diagnostics``
re-exports ``simulate`` for the benchmark's tracer)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hlflock"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [getattr(node, key) for node in ast.walk(tree)
                   for key in ("annotation", "returns") if getattr(node, key, None)]
    for node in annotations:
        for quoted in ast.walk(node):       # such as -> "Trajectory | None"
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= {n.id for n in ast.walk(ast.parse(quoted.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom json import dumps, loads\n"
              "from re import (compile,  # noqa: F401\n    escape)\n"
              "def f(x: 'loads') -> None:\n    return math.pi\n")
    assert _unused_imports(source) == ["os (line 3)", "dumps (line 4)"]
