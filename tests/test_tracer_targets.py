"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by module and attribute name. A name that no longer resolves is reported
absent by a traced run, whose metrics for it then read null, so every
entry of its ``TARGETS`` must resolve here. The benchmark's worker
(``perfbench/child.py``) calls functions on ``graphbench.harness``; a name
missing there breaks every benchmark run, so each must resolve too."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CHILD = TRACING.with_name("child.py")


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
