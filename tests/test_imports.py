"""Every module of the package uses each name it imports, and imports
nothing beyond the standard library, numpy and the package itself. Every
private name a module binds at top level is read somewhere in the package.
Every source file parses as the oldest Python that pyproject.toml declares,
and the CI workflow that runs this suite on it parses.

The check parses the source with ``ast``, so it needs no linter: a name
counts as used when it appears in the code or in a quoted annotation, and
an import line marked ``# noqa: F401`` is kept on purpose, and may only
import a name the benchmark's tracer wraps in that module (``diagnostics``
re-exports ``simulate`` for it)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "hlflock"
RUNTIME = {"numpy", "hlflock"}


def _kept_on_purpose(node: ast.AST, lines: list[str]) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or _kept_on_purpose(node, lines):
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


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore) that a module of ``sources``
    (module name -> source) binds at top level and no module reads, as a
    name, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}: {name} (line {node.lineno})" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in read]
    return found


def test_every_private_top_level_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_found():
    sources = {"a.py": "import math\n_USED = 1\n_SPARE, _X = 2, 3\n"
                       "def _helper():\n    return _USED + math.pi\n"
                       "class _Kept:\n    _attr = 0\n",
               "b.py": "from a import _Kept\ndef f(x):\n    return x._X\n"}
    assert _unreferenced_private_names(sources) == ["a.py: _SPARE (line 3)",
                                                    "a.py: _helper (line 4)"]


def test_imports_kept_on_purpose_are_the_ones_the_benchmark_tracer_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {(owner.__name__, attr) for owner, attr, _ in tracer._restore}
    finally:
        tracer.uninstall()
    kept = set()
    for path in PACKAGE.glob("*.py"):
        source = path.read_text()
        lines = source.splitlines()
        kept |= {(f"hlflock.{path.stem}", alias.asname or alias.name)
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Import, ast.ImportFrom)) and _kept_on_purpose(node, lines)
                 for alias in node.names}
    assert kept and kept <= wrapped, kept - wrapped


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_the_standard_library_and_numpy(module):
    tree = ast.parse((PACKAGE / module).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    top = {name.split(".")[0] for name in names}
    assert top - set(sys.stdlib_module_names) - RUNTIME == set()


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def test_log_damped_l1_norm_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; sys.modules['scipy'] = None; "
            "from hlflock.model import LeaderForcing; "
            "print(repr(LeaderForcing.log_damped(1.0, 3, dim=1).l1_norm()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert abs(float(out.stdout) - 0.9082808308357639) <= 1e-13     # q = 2, see test_model


SOURCES = sorted(path for top in ("src", "tests", "demos") for path in (REPO / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(REPO)))
def test_source_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_ci_workflow_runs_tier1_on_3_10_and_3_11():
    yaml = pytest.importorskip("yaml")
    job = yaml.safe_load((REPO / ".github/workflows/tier1.yml").read_text())["jobs"]["tier1"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [(step.get("if"), step["run"]) for step in job["steps"] if "run" in step]
    assert runs == [(None, 'pip install -e ".[test]"'),
                    (None, "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
                           "--continue-on-collection-errors"),
                    ("matrix.python-version == '3.11'", "python3 perfbench/selftest.py")]
