"""Every name a demo imports from the package exists.

The demos are parsed, not run: running all seven takes about ten seconds,
so their calls and printed outputs are checked only by running them by hand
(``for f in demos/*.py; do python "$f"; done``).
"""

import ast
import importlib
from pathlib import Path

import pytest

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
