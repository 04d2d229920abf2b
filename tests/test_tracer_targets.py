"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by module and attribute name. A name that no longer resolves is reported
absent by a traced run, whose metrics for it then read null, so every
entry of its ``TARGETS`` must resolve here. The benchmark's worker
(``perfbench/child.py``) calls functions on ``graphbench.harness``, and
imports others by name inside its functions; a name missing there breaks
every benchmark run, so each must resolve too."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CHILD = TRACING.with_name("child.py")


def _perfbench_imports() -> list[tuple[str, str, str]]:
    """Every ``from graphbench.<module> import <name>`` in ``perfbench/*.py``,
    at any depth, as ``(file, module, name)``."""
    found = []
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphbench."):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path", [
    pytest.param(module_name, path, id=key)
    for key, (module_name, path, _) in sorted(_tracer_targets().items())
])
def test_tracer_target_resolves(module_name, path):
    holder = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(holder, part), f"{module_name}.{path} does not resolve"
        holder = getattr(holder, part)
    assert callable(holder), f"{module_name}.{path} is not callable"


def test_child_harness_reads_resolve():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "harness"
    }
    assert names, "child.py reads nothing on a name 'harness'"
    harness = importlib.import_module("graphbench.harness")
    missing = sorted(name for name in names if not callable(getattr(harness, name, None)))
    assert not missing, f"graphbench.harness lacks {missing}, which perfbench/child.py calls"


@pytest.mark.parametrize("module_name, name", [
    pytest.param(module_name, name, id=f"{file}:{module_name}.{name}")
    for file, module_name, name in _perfbench_imports()
])
def test_perfbench_import_resolves(module_name, name):
    holder = importlib.import_module(module_name)
    assert callable(getattr(holder, name, None)), f"{module_name}.{name} is not a callable"
