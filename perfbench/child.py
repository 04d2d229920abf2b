"""One workload in a fresh interpreter.

Started by ``run.py`` with BLAS pinned to one thread. Prints ``READY``
once the package is imported and its pass is planned (the parent times
set-up up to that line), then prints one JSON report as its last line.

``--mode pass`` runs one measured pass, ``--pass-index``, and checks it.
Pass 0 also runs the checks that need a recomputation or the golden
values, and leaves its output directory for the read path.

``--mode reload`` repeats the read path of ``graphbench tables`` and
``graphbench heatmap`` on the pass-0 directory for about a second, as
those commands do: in an interpreter of its own.

``--mode trace`` runs untraced passes on the pass-0 inputs for half of
``--seconds``, then one traced pass and one traced read path on the same
inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import workloads

ROLLUP_FILES = (
    "best.csv", "correlation.csv", "correlation_by_model.csv",
    "granularity.csv", "granularity_by_size.csv",
)
SPOT_CHECK_SAMPLES = 3
# Each reload interpreter repeats the read path for about this long.
RELOAD_SECONDS = 1.0
RELOAD_MIN_REPS = 3
TAU_TOL = 1e-9


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--mode", choices=("pass", "reload", "trace"), required=True)
    p.add_argument("--pass-index", type=int, default=0)
    return p.parse_args(argv)


def rollup_hashes(out_dir: Path) -> dict:
    hashes = {}
    for name in ROLLUP_FILES:
        path = out_dir / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return hashes


def check_pass(plan, results, out_dir: Path, doomed) -> dict:
    """Invariants that hold on every seed; returns counts and problems."""
    problems = []
    if len(results) != plan.total_samples:
        problems.append(f"{len(results)} records for {plan.total_samples} planned samples")
    written = sum(1 for _ in (out_dir / "samples").glob("*.json"))
    if written != plan.total_samples:
        problems.append(f"{written} record files for {plan.total_samples} planned samples")
    pairs = len(plan.metrics) * (len(plan.metrics) - 1) // 2
    failed = unexpected = 0
    for r in results:
        cell = plan.cells[r.cell_index]
        expect_failure = doomed({"model": cell.model, "n": cell.n, "params": cell.params_dict()})
        where = f"cell {r.cell_index} sample {r.sample_index}"
        if r.error is not None:
            failed += 1
        if expect_failure:
            if r.error is None or not r.error.startswith(workloads.DOOMED_ERROR_PREFIX):
                unexpected += 1
                problems.append(f"{where}: expected a retry-budget failure, got {r.error!r}")
            continue
        if r.error is not None:
            unexpected += 1
            problems.append(f"{where}: {r.error}")
            continue
        bad_tau = [k for k, v in r.tau.items() if not -1.0 <= v <= 1.0]
        bad_gran = [k for k, v in r.granularity.items() if not 0.0 < v <= 100.0]
        if len(r.tau) != pairs or bad_tau or bad_gran:
            unexpected += 1
            problems.append(
                f"{where}: {len(r.tau)} tau pairs, tau out of [-1, 1]: {bad_tau}, "
                f"granularity out of (0, 100]: {bad_gran}"
            )
    return {
        "samples": len(results), "failed": failed, "unexpected": unexpected,
        "problems": problems[:10],
    }


def spot_check_tau(plan, results, seed: int) -> list[str]:
    """Recompute a few samples' tau-b with scipy (outside any timed region)."""
    import numpy as np
    from scipy.stats import kendalltau

    from graphbench.centrality import compute_measure
    from graphbench.generators import (
        ModelConfig, enumerate_connected_nonisomorphic, ensure_connected,
    )

    good = [r for r in results if r.error is None]
    chosen = random.Random(seed).sample(good, min(SPOT_CHECK_SAMPLES, len(good)))
    problems, compared = [], 0
    corpora: dict[int, list] = {}
    for r in chosen:
        if r.model == "nonisomorphic":
            if r.n not in corpora:
                corpora[r.n] = enumerate_connected_nonisomorphic(r.n)
            g = corpora[r.n][r.sample_index]
        else:
            cfg = ModelConfig(model=r.model, n=r.n, params=r.params, seed=r.seed)
            g, _ = ensure_connected(cfg, plan.max_retries)
        vectors = {m: np.asarray(compute_measure(g, m).values) for m in plan.metrics}
        for key, tau in r.tau.items():
            a, b = key.split("|")
            x, y = vectors[a], vectors[b]
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue  # scipy leaves constant input undefined
            expected = float(kendalltau(x, y).statistic)
            compared += 1
            if abs(expected - tau) > TAU_TOL:
                problems.append(
                    f"cell {r.cell_index} sample {r.sample_index} {key}: "
                    f"tau {tau!r}, scipy {expected!r}"
                )
    if chosen and not compared:
        problems.append("spot check compared no tau pair")
    return problems


def reload_once(harness, out_dir: Path) -> float:
    """The read path of ``graphbench tables`` and ``graphbench heatmap``."""
    start = perf_counter()
    results = harness.load_results(out_dir)
    harness.write_all_tables(results, out_dir)
    harness.emit_heatmap(harness.correlation_matrix(results), out_dir / "heatmap.svg")
    return perf_counter() - start


def run_pass(harness, plan) -> tuple[list, float, float]:
    cpu0, wall0 = process_time(), perf_counter()
    results = harness.run_experiment(plan, workers=1)
    return results, perf_counter() - wall0, process_time() - cpu0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record is informative; never fail on it
        openblas = f"unknown ({type(exc).__name__})"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_checks(plan0, results0, out0: Path, workload: str, seed: int, checks: dict) -> dict:
    """Checks of pass 0 made outside the timed region; returns its roll-up
    hashes and failed samples for the report."""
    hashes0 = rollup_hashes(out0)
    failures0 = sorted([r.cell_index, r.sample_index, r.error] for r in results0 if r.error)
    golden = workloads.GOLDEN.get(workload)
    if seed == workloads.DEFAULT_SEED and golden is not None:
        checks["golden_rollups"] = (
            "ok" if hashes0 == golden["rollups"] else f"roll-up sha256 {hashes0}"
        )
        checks["golden_failures"] = (
            "ok" if failures0 == golden["failures"] else f"failed samples {failures0}"
        )
    tau_problems = spot_check_tau(plan0, results0, seed)
    checks["tau_vs_scipy"] = "ok" if not tau_problems else "; ".join(tau_problems[:5])
    return {"rollups": hashes0, "failures": failures0}


def package_check() -> str:
    import graphbench

    source = Path(graphbench.__file__).resolve().parent
    expected = (Path.cwd() / "src" / "graphbench").resolve()
    return "ok" if source == expected else f"imported from {source}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_pass(harness, plan, index: int, doomed) -> tuple[dict, list]:
    results, wall, cpu = run_pass(harness, plan)
    entry = {"pass": index, "base_seed": plan.base_seed, "wall_s": wall, "cpu_s": cpu}
    entry.update(check_pass(plan, results, Path(plan.output_dir), doomed))
    return entry, results


def main(argv=None) -> int:
    args = _parse_args(argv)
    run_dir = Path(args.run_dir)
    spec = workloads.WORKLOADS[args.workload]

    from graphbench import harness

    index = args.pass_index if args.mode == "pass" else 0
    plan = harness.plan_experiments(
        workloads.config_for_pass(args.workload, args.seed, index, str(run_dir / f"pass{index}"))
    )
    out_dir = Path(plan.output_dir)
    print("READY", flush=True)

    if args.mode == "reload":
        reloads: list[float] = []
        start = perf_counter()
        while len(reloads) < RELOAD_MIN_REPS or perf_counter() - start < RELOAD_SECONDS:
            reloads.append(reload_once(harness, out_dir))
        print(json.dumps({"reload_s": reloads, "rollups": rollup_hashes(out_dir)}))
        return 0

    if args.mode == "pass":
        entry, results = measured_pass(harness, plan, index, spec["doomed"])
        report = {"pass": entry, "peak_rss_mb": peak_rss_mb()}
        if index == 0:
            # Pass 0 stays on disk for the read-path interpreters.
            checks = {"package_from_checkout": package_check()}
            report.update(run_checks(plan, results, out_dir, args.workload, args.seed, checks))
            report["checks"] = checks
            report["environment"] = environment()
        else:
            shutil.rmtree(out_dir)
        print(json.dumps(report, sort_keys=True))
        return 0

    # --mode trace: untraced passes on the pass-0 inputs for half the
    # time, then one traced pass and one traced read path on those inputs.
    from tracing import Tracer, layer_metrics

    checks = {"package_from_checkout": package_check()}
    passes: list[dict] = []
    start = perf_counter()
    entry, results0 = measured_pass(harness, plan, 0, spec["doomed"])
    passes.append(entry)
    while perf_counter() - start + passes[-1]["wall_s"] / 2 < args.seconds / 2:
        passes.append(measured_pass(harness, plan, len(passes), spec["doomed"])[0])

    tracer = Tracer()
    traced_plan = dataclasses.replace(plan, output_dir=str(run_dir / "traced"))
    traced_dir = Path(traced_plan.output_dir)
    tracer.install()
    try:
        traced_results, traced_wall, _ = run_pass(harness, traced_plan)
        pass_agg, retry, hit = tracer.rollup(), tracer.retry_path(), tracer.hit()
        tracer.reset()
        reload_once(harness, traced_dir)
        reload_agg = tracer.rollup()
        reload_hit = tracer.hit()
        hit = {k: v or reload_hit[k] for k, v in hit.items()}
    finally:
        tracer.uninstall()
    report: dict = {"traced_pass": check_pass(traced_plan, traced_results, traced_dir, spec["doomed"])}
    problems = report["traced_pass"]["problems"]
    checks["traced_pass"] = "ok" if not problems else "; ".join(problems)
    report.update(run_checks(plan, results0, out_dir, args.workload, args.seed, checks))
    checks["traced_rollups_unchanged"] = (
        "ok" if rollup_hashes(traced_dir) == report["rollups"] else "traced roll-ups differ"
    )
    good = [r for r in traced_results if r.error is None]
    generated = [r for r in traced_results if r.model != "nonisomorphic"]
    report["layers"] = layer_metrics(
        tracer, pass_agg, reload_agg, retry,
        measured_samples=len(good),
        generated_samples=len(generated),
        records_written=sum(1 for _ in (traced_dir / "samples").glob("*.json")),
        bytes_written=dir_bytes(traced_dir),
        traced_wall_s=traced_wall,
        untraced_wall_s=statistics.median(p["wall_s"] for p in passes),
    )
    report["absent"] = tracer.absent
    report["unhit"] = sorted(k for k, v in hit.items() if not v)
    report["peak_rss_mb"] = peak_rss_mb()
    report["passes"] = passes
    report["checks"] = checks
    report["environment"] = environment()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
