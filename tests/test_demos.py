"""Every name a demo imports from the package exists, and every demo runs.

Each demo runs in its own interpreter, in a temporary directory that takes
the files it writes; all seven take about six seconds.  Their printed
outputs are checked only by reading them (``for f in demos/*.py; do
python "$f"; done``).
"""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "congested_ns"
                for alias in node.names]
    assert imported, f"{demo.name} imports nothing from congested_ns"
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
