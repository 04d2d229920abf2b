"""Benchmark of the graphbench experiment pipeline.

    python3 perfbench/run.py --workload desk-mix [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --workload smoke --seconds 1 --trace 1

Run from the root of a checkout holding ``src/graphbench``. An untraced
run measures passes of the workload for about ``--seconds``, each in a
fresh single-process interpreter (``child.py``) with BLAS pinned to one
thread, at ``workers=1``. A pass is one ``plan_experiments`` ->
``run_experiment`` call. After each pass, fresh interpreters repeat the
read path of ``graphbench tables``/``heatmap`` (``load_results`` ->
``write_all_tables`` -> ``emit_heatmap``) on the pass-0 outputs. Every
pass and every read is checked.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
reports the per-layer metrics of a separately traced pass. The lines
before it record the environment, the per-pass figures and the checks.
Everything is written under ``.perfbench_runs/`` and removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_FILE = ROOT / "BENCHMARK.json"
BENCH_WORKLOADS = ("desk-mix", "census-n7")
# An untraced run measures at least this many passes, so the read path is
# sampled at two moments of it even when one pass takes most of the run.
MIN_PASSES = 2
# Read-path interpreters take this share of --seconds in an untraced run,
# spread over the run in proportion to the time elapsed. A read path takes
# 10-250 ms, so it needs this much time to be sampled as evenly as the
# passes are.
RELOAD_SHARE = 0.35
RUN_DEADLINE_S = 170.0
# On 2 cores, 2 BLAS threads doubled CPU time with no gain in wall time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not complete a run."""


def _parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_child(args: list[str], deadline: float, cpu: int | None = None) -> tuple[float, str]:
    """Start ``child.py``, pinned to ``cpu`` if given; return its set-up
    time (start to ``READY``) and the rest of its standard output."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, preexec_fn=pin
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded the {RUN_DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"child exited with status {proc.returncode} (ready line {ready!r})")
    return setup_s, out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphbench").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def measure(child_args: list[str], seconds: float, deadline: float) -> dict:
    """The untraced run: measured passes, each in a fresh interpreter, with
    read-path interpreters between them; returns the raw figures."""
    start = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))
    passes, setups, reloads, reload_rollups = [], [], [], []
    first: dict = {}
    reload_time = 0.0
    while True:
        index = len(passes)
        setup_s, out = spawn_child(
            [*child_args, "--mode", "pass", "--pass-index", str(index)], deadline
        )
        setups.append(setup_s)
        report = last_json(out)
        first = first or report
        passes.append({**report["pass"], "peak_rss_mb": report["peak_rss_mb"]})
        # At least one read-path interpreter after each pass, and read-path
        # time in step with the time elapsed, so the read path and set-up
        # are sampled across the whole run rather than at one moment of it.
        # On a shared host each vCPU can switch between a fast state and
        # one about 1.6x slower every few seconds (measured on a 2-vCPU Xeon
        # VM), and a read-path interpreter mostly sees one of them. The
        # interpreters take the vCPUs in turn, and reload_s is the mean of
        # their medians: like a pass, it averages the states over the run.
        while True:
            begin = time.monotonic()
            cpu = cpus[len(reloads) % len(cpus)]
            setup_s, out = spawn_child([*child_args, "--mode", "reload"], deadline, cpu)
            reload_time += time.monotonic() - begin
            setups.append(setup_s)
            reloaded = last_json(out)
            reloads.append(statistics.median(reloaded["reload_s"]))
            reload_rollups.append(reloaded["rollups"])
            elapsed = min(time.monotonic() - start, seconds)
            if reload_time >= RELOAD_SHARE * elapsed:
                break
        if len(passes) >= MIN_PASSES and (
            time.monotonic() - start + passes[-1]["wall_s"] / 2 >= seconds
        ):
            break
    same = all(r == first["rollups"] for r in reload_rollups)
    first["checks"]["reload_rollups_unchanged"] = "ok" if same else "reloaded roll-ups differ"
    return {
        "passes": passes, "setups": setups, "reloads": reloads,
        "checks": first["checks"], "environment": first["environment"],
        "rollups": first["rollups"], "failures": first["failures"],
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, bench: dict) -> dict:
    """One run of one workload; returns the result object and prints the
    environment, report and metric lines before it."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    run_dir = ROOT / ".perfbench_runs" / f"{workload}-{os.getpid()}-t{trace}"
    child_args = [
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--run-dir", str(run_dir),
    ]
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        if trace:
            setup_s, out = spawn_child([*child_args, "--mode", "trace"], deadline)
            report = last_json(out)
            report["setups"] = [setup_s]
        else:
            report = measure(child_args, seconds, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    env.update(report.pop("environment"))
    passes = report["passes"]
    pass_problems = [f"pass {p['pass']}: {msg}" for p in passes for msg in p["problems"]]
    report["checks"]["passes"] = "ok" if not pass_problems else "; ".join(pass_problems[:10])
    counted = passes + ([report["traced_pass"]] if trace else [])
    attempted = sum(p["samples"] for p in counted)
    failed = sum(p["unexpected"] for p in counted)
    by_design = sum(p["failed"] - p["unexpected"] for p in counted)

    if trace:
        values = report["layers"]
        specs = bench["per_layer"]
    else:
        values = {
            "samples_per_s": statistics.median(p["samples"] / p["wall_s"] for p in passes),
            "setup_s": statistics.median(report["setups"]),
            "reload_s": statistics.mean(report["reloads"]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        }
        specs = bench["end_to_end"]
    names = [spec["name"] for spec in specs]
    if sorted(values) != sorted(names):
        raise BenchError(f"computed metrics {sorted(values)} differ from BENCHMARK.json {names}")
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}
    correct = failed == 0 and all(v == "ok" for v in report["checks"].values())

    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"report": {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "samples_attempted": attempted,
        "samples_failed": failed + by_design,
        "samples_failed_by_design": by_design,
        **{k: v for k, v in report.items() if k != "layers"},
    }}, sort_keys=True))
    for name, metric in metrics.items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {workload:<11} {name:<40} {value:>14} {metric['unit']}")
    if not correct:
        bad = {k: v for k, v in report["checks"].items() if v != "ok"}
        print(f"CHECKS FAILED: {bad}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks, which stop the child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "graphbench" / "__init__.py").is_file():
        print(f"no graphbench package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    seconds = float(args.seconds if args.seconds is not None else bench["run_seconds"])
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, seconds, args.trace, bench)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in BENCH_WORKLOADS:
                for trace in (0, 1):
                    one = run_one(workload, args.seed, seconds, trace, bench)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    for name, metric in one["metrics"].items():
                        result["metrics"][f"{workload}.{name}"] = metric
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
