"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by module and attribute name. A name that no longer resolves is reported
absent by a traced run, whose metrics for it then read null, so every
entry of its ``TARGETS`` must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
