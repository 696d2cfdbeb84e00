"""Every name a demo imports from cloudguard exists.

The demos are not run by the suite (several train models), so a renamed or
deleted API would otherwise only surface when someone runs them by hand.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def cloudguard_imports(path):
    """(module, name) for each cloudguard import; name None for plain imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cloudguard"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cloudguard"):
                    yield alias.name, None


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(cloudguard_imports(path))
    assert imports, f"{path.name} imports nothing from cloudguard"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"
