"""The benchmark (``perfbench/``) plans every pass of a workload with
``plan_experiments`` and reads the plan's cells, metrics, retry budget and
sample count, and asks the workload's ``doomed`` predicate about each
cell. A planning change that breaks any of these would break a benchmark
run, so each workload's first two passes are planned and read here the
way ``perfbench/child.py`` reads them."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from graphbench import plan_experiments

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("pass_index", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_plans_as_the_benchmark_reads_it(tmp_path, workload, pass_index):
    config = workloads.config_for_pass(
        workload, workloads.DEFAULT_SEED, pass_index, str(tmp_path / f"pass{pass_index}")
    )
    plan = plan_experiments(config)
    assert plan.base_seed == workloads.pass_seed(workloads.DEFAULT_SEED, pass_index)
    assert plan.output_dir == str(tmp_path / f"pass{pass_index}")
    assert plan.total_samples == sum(cell.samples for cell in plan.cells) > 0
    assert plan.metrics and plan.max_retries >= 1
    traced = dataclasses.replace(plan, output_dir=str(tmp_path / "traced"))
    assert traced.cells == plan.cells
    doomed = workloads.WORKLOADS[workload]["doomed"]
    for cell in plan.cells:
        assert cell.samples >= 1
        assert isinstance(doomed({"model": cell.model, "n": cell.n,
                                  "params": cell.params_dict()}), bool)
