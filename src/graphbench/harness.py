"""Seeded execution: a plan's samples drawn, measured and persisted.

The unit of work is a stack: a census cell's samples, or one sample drawn
from its model. Every measure and statistic runs once per stack, on one
path for both kinds (see :func:`_run_stack`). Samples are aggregated in
canonical cell/sample order, so re-running the same config at any worker
count reproduces the roll-up CSVs byte for byte.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from multiprocessing import get_context
from time import perf_counter

import numpy as np

from . import stats
from .centrality import measure_stack
from .generators import ModelConfig, ensure_connected, enumerate_connected_nonisomorphic
from .graphs import GraphStack
from .plan import ExperimentPlan
from .store import RunResult, _pair, create_samples_dir, write_run
from .tables import write_all_tables

# perfbench/child.py calls, and perfbench/tracing.py wraps, these names here.
from .centrality import compute_measure
from .graphs import parse_graph6
from .plan import plan_experiments
from .store import load_results
from .tables import correlation_matrix, emit_heatmap


# A pool worker's BLAS runs on one thread: at workbench sizes a second
# thread per worker only contends for the cores the pool already fills.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@contextmanager
def _environment(values: dict[str, str]):
    """``os.environ`` updated with ``values`` for the block, then restored
    as it was, a variable that was unset unset again."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_stack(stack, *, metrics, max_retries: int, keep_vectors: bool) -> list[RunResult]:
    """Worker body: measure one stack and fill in its records.

    A stack is ``(records, graphs)``: every sample of a census cell with
    the :class:`~graphbench.graphs.GraphStack` the census built, or one
    sample drawn from its model, whose ``graphs`` is None until its
    connected network is drawn and becomes a stack of one. Each measure
    runs once for the stack through :func:`~graphbench.centrality.measure_stack`,
    on arrays the stack builds once for all of them, and its ``timings``
    entry is the call's time divided by the stack size; the statistics
    then run once over the stack's scores, and the records are filled
    from their rows as Python lists. An error in any measure or statistic
    is recorded on every sample of the stack."""
    results, graphs = stack
    if graphs is None:
        (result,) = results
        try:
            cfg = ModelConfig(
                model=result.model, n=result.n, params=result.params, seed=result.seed,
            )
            g, result.retries = ensure_connected(cfg, max_retries)
        except Exception as exc:  # failures are recorded, never fatal to the run
            result.error = _error_text(exc)
            return results
        graphs = GraphStack([g])
    n = graphs.n
    scores = np.empty((len(results), len(metrics), n))
    try:
        for j, m in enumerate(metrics):
            t0 = perf_counter()
            scores[:, j] = measure_stack(graphs, m)
            share = (perf_counter() - t0) / len(results)
            for result in results:
                result.timings[m] = share
        counts = stats.distinct_counts(scores.reshape(-1, n)).reshape(len(results), -1)
        tau = stats.kendall_tau_b_matrix(scores)
    except Exception as exc:
        for result in results:
            result.error = _error_text(exc)
        return results
    pair_keys = [_pair(a, b) for a, b in itertools.combinations(metrics, 2)]
    upper = np.triu_indices(len(metrics), 1)  # the pairs in combinations order
    for result, row, taus in zip(results, counts.tolist(), tau[:, upper[0], upper[1]].tolist()):
        result.distinct_counts = dict(zip(metrics, row))
        result.granularity = {m: 100.0 * count / n for m, count in zip(metrics, row)}
        result.tau = dict(zip(pair_keys, taus))
    if keep_vectors:
        for result, sample_scores in zip(results, scores.tolist()):
            result.vectors = dict(zip(metrics, sample_scores))
    return results


def _build_stacks(plan: ExperimentPlan) -> list[tuple[list[RunResult], GraphStack | None]]:
    """The plan's stacks in canonical order: one per census cell, holding
    its identity-only records and the stack the census built, and one per
    sample drawn from a model, whose graphs are None."""
    stacks = []
    for cell in plan.cells:
        records = [
            RunResult(
                cell_index=cell.index,
                sample_index=sample,
                model=cell.model,
                n=cell.n,
                params=cell.params_dict(),
                seed=plan.sample_seed(cell, sample),
            )
            for sample in range(cell.samples)
        ]
        if cell.model == "nonisomorphic":
            stacks.append((records, enumerate_connected_nonisomorphic(cell.n)))
        else:
            stacks.extend(([record], None) for record in records)
    return stacks


def run_experiment(
    plan: ExperimentPlan, workers: int = 1, keep_vectors: bool = False
) -> list[RunResult]:
    """Execute the plan and persist samples, manifest, and roll-up tables.

    The unit of work is a stack (see :func:`_run_stack`): each census cell
    is one, and each sample drawn from a model is one, measured on the
    same path. Stacks are independent; they run in a spawned process pool of
    ``min(workers, os.cpu_count(), stacks)`` processes, each with BLAS on
    one thread, or in this process, at the caller's BLAS setting, when
    that is 1. Aggregation follows canonical sample order and measures
    store equal scores equal, so outputs do not depend on scheduling, the
    worker count or the BLAS thread count. Sample
    records, roll-up tables and the heatmap an earlier run left in
    ``output_dir`` are removed, so the directory holds this run's outputs
    only; the tables are not written when no sample succeeds. A worker
    count below 1 raises ``ValueError`` before any output is touched.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    create_samples_dir(plan.output_dir)
    stacks = _build_stacks(plan)
    run = partial(
        _run_stack, metrics=plan.metrics, max_retries=plan.max_retries,
        keep_vectors=keep_vectors,
    )
    workers = min(workers, os.cpu_count() or 1, len(stacks))
    if workers > 1:
        # Spawned workers read the environment when they import numpy.
        with _environment(_WORKER_ENV), ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        ) as pool:
            measured = list(pool.map(run, stacks))
    else:
        measured = list(map(run, stacks))
    results = [result for stack in measured for result in stack]

    write_run(plan, results)
    if any(result.error is None for result in results):
        write_all_tables(results, plan.output_dir, confidence=plan.confidence)
    return results
