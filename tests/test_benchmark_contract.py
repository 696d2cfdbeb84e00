"""The benchmark's view of the package: every name it calls or patches exists.

The benchmark (``benchmark/``) drives cloudguard through public names and,
for its traced run, wraps functions and methods by name. A refactor that
renames or removes one breaks the benchmark without failing any other
test, so this module checks those names from the benchmark's own files.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}",
                                                  BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _harness_references() -> list[tuple[str, str]]:
    """Each ``<module>.<name>`` the harness reads from a cloudguard module."""
    tree = ast.parse((BENCHMARK / "harness.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cloudguard"
               for alias in node.names}
    return [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules]


def test_traced_run_patches_resolve_and_restore():
    probes, tracing = _load("probes"), _load("tracing")
    tracer = tracing.Tracer()
    try:
        probes.install(tracer)
    finally:
        tracer.uninstall()


def test_harness_references_exist():
    refs = _harness_references()
    assert len(refs) >= 40  # the walk found the harness's calls
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"cloudguard.{mod}"), name)]
    assert missing == []


@pytest.mark.parametrize("module,owner,method", [
    ("simulate", "SimConfig", "from_dict"),
    ("scenario", "ScenarioConfig", "to_dict"),
])
def test_harness_config_methods_exist(module, owner, method):
    cls = getattr(importlib.import_module(f"cloudguard.{module}"), owner)
    assert callable(getattr(cls, method))
