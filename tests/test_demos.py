"""Every demo, and every Python block of the README, runs to completion
against the current public API."""

import re
import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)     # figures, when matplotlib is present, land here
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("block", README_BLOCKS, ids=range(len(README_BLOCKS)))
def test_readme_block_runs(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()
