"""Tests of the benchmark itself, on its seconds-long smoke workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-sample call counts that the pipeline fixes today; they repeat exactly.
EXACT_PER_SAMPLE = {
    "graphs.is_connected_guard_per_sample": 6.0,
    "graphs.is_connected_retry_per_attempt": 1.0,
    "graphs.bfs_all_pairs_per_sample": 3.0,
    "linalg.invert_per_sample": 2.0,
    "stats.kendall_tau_b_per_sample": 28.0,
}
# Counts that repeat exactly; bytes written varies with the digits of the
# timings recorded in each sample.
COUNT_UNITS = {"count", "ratio"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(trace: int) -> tuple[dict, dict, dict]:
    done = _run("--workload", "smoke", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    environment, report, result = lines[0]["environment"], lines[1]["report"], lines[-1]
    return environment, report, result


def _assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(spec["name"] for spec in specs)
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float)), spec["name"]


def test_untraced_smoke_reports_every_end_to_end_metric():
    environment, report, result = _smoke(trace=0)
    _assert_metrics(result, BENCH["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for key in ("python", "numpy", "scipy", "openblas", "nproc", "loadavg_at_start",
                "git_commit", "source_sha256"):
        assert key in environment
    assert set(environment["blas_threads"].values()) == {"1"}
    assert report["samples_failed_by_design"] >= 1  # the smoke cs cell never connects


def test_traced_smoke_hits_every_target_and_counts_repeat():
    runs = [_smoke(trace=1) for _ in range(2)]
    for _, report, result in runs:
        _assert_metrics(result, BENCH["per_layer"])
        assert report["absent"] == [] and report["unhit"] == []
        for name, expected in EXACT_PER_SAMPLE.items():
            assert result["metrics"][name]["value"] == expected, name
    counts = [
        {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
        for _, _, result in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["generators.attempts"] > 0


def test_absent_target_reads_none_not_zero(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setitem(
        tracing.TARGETS, "bfs_all_pairs",
        ("graphbench.centrality", "renamed_away", "graphs.bfs_all_pairs"),
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["bfs_all_pairs"]
    layers = tracing.layer_metrics(
        tracer, {}, {}, {"accepted": 0, "failed_attempt_s": 0.0},
        measured_samples=1, generated_samples=1, records_written=1, bytes_written=1,
        traced_wall_s=1.0, untraced_wall_s=1.0,
    )
    assert layers["graphs.bfs_all_pairs_s"] is None
    assert layers["graphs.bfs_all_pairs_calls"] is None
    assert layers["harness.self_s"] is None
    assert layers["linalg.invert_s"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "desk-mix", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_pass_seeds_are_stable_and_distinct():
    seeds = [workloads.pass_seed(7, k) for k in range(50)]
    assert seeds[0] == 7
    assert len(set(seeds)) == 50
    assert all(0 <= s < 1 << 63 for s in seeds)
    assert seeds == [workloads.pass_seed(7, k) for k in range(50)]


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(run.BENCH_WORKLOADS)
    assert set(names) <= set(workloads.GOLDEN) <= set(workloads.WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
