"""Experiment planning, seeded execution, persistence, and table emission.

A JSON config describes model parameter grids; :func:`plan_experiments`
expands them into cells (one cell per parameter combination), and
:func:`run_experiment` draws ``samples_per_cell`` connected networks per
cell, computes the configured centrality measures, per-pair rank
correlations and distinct-value counts, and persists one JSON record per
sample plus roll-up CSV tables.

A sample has one form, :class:`RunResult`. The plan creates it with its
identity (cell, sample, model, n, params, seed), the worker fills in what
measuring the network records, and ``samples/cell####_s####.json`` holds
its fields as written by :meth:`RunResult.to_dict`, on one line of JSON;
:func:`load_results`
rebuilds it from exactly those keys. Its ``tau`` maps each measure pair,
keyed ``"a|b"`` by :func:`_pair`, to one tau-b value.
:func:`write_all_tables` is the only path from samples to the roll-up
CSVs, and every mean with a CI in them goes through :func:`_mean_cells`.

The unit of work is a stack: a census cell's samples, or one sample drawn
from its model. Every measure and statistic runs once per stack, on one
path for both kinds (see :func:`_run_stack`).

Execution is deterministic: every sample's seed is derived from the base
seed and the sample's (model, cell, sample) coordinates, samples are
aggregated in canonical cell/sample order, and re-running the same config
at any worker count reproduces the roll-up CSVs byte for byte.

Config keys: ``models`` (list of grid entries), ``samples_per_cell``,
``base_seed``, ``metrics``, ``output_dir``, ``kronecker_initiators_path``,
plus optional ``confidence`` and ``max_retries``.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter

import numpy as np

from . import stats
from .centrality import MEASURES, SHORT_LABELS, measure_stack
from .centrality import compute_measure  # perfbench/tracing.py wraps it here
from .generators import (
    DEFAULT_MAX_RETRIES,
    MODEL_IDS,
    ModelConfig,
    census_count,
    check_size,
    derive_seed,
    ensure_connected,
    enumerate_connected_nonisomorphic,
    kronecker_size,
    load_initiators,
)
from .graphs import GraphStack, parse_graph6  # parse_graph6: perfbench/tracing.py wraps it here

# Row/column orders of the emitted tables.
CORRELATION_ORDER = (
    "closeness", "betweenness", "degree", "eigenvector",
    "information", "subgraph", "walk_betweenness", "eccentricity",
)
GRANULARITY_ORDER = MEASURES
FAMILY_ORDER = ("nonisomorphic", "cs", "sf", "sw", "gr", "er", "kg")
FAMILY_LABELS = {
    "nonisomorphic": "N_ni", "cs": "M_cs", "sf": "M_sf", "sw": "M_sw",
    "gr": "M_gr", "er": "M_er", "kg": "M_kg",
}

TABLE_FILES = {
    "correlation": "correlation.csv",
    "correlation_by_model": "correlation_by_model.csv",
    "granularity": "granularity.csv",
    "granularity_by_size": "granularity_by_size.csv",
    "best": "best.csv",
}
HEATMAP_FILE = "heatmap.svg"

# Expansion order of each model's grid parameters (outermost first).
_GRID_PARAMS = {
    "er": ("n", "p"),
    "sf": ("n", "k"),
    "sw": ("n", "k", "p"),
    "gr": ("n", "kappa"),
    "cs": ("n", "p_c", "p", "c_div"),
    "kg": ("initiators", "k"),
    "nonisomorphic": ("n",),
}

_DEFAULT_SAMPLES = 10
_DEFAULT_CONFIDENCE = 0.99

_CONFIG_KEYS = {
    "models", "samples_per_cell", "base_seed", "metrics", "output_dir",
    "kronecker_initiators_path", "confidence", "max_retries",
}


class ConfigError(ValueError):
    """Experiment configuration does not validate."""


@dataclass(frozen=True)
class ExperimentCell:
    """One parameter combination of one model."""

    index: int
    model: str
    n: int
    params: tuple
    samples: int

    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class ExperimentPlan:
    """Exhaustive, duplicate-free expansion of the configured grid."""

    cells: tuple
    base_seed: int
    metrics: tuple
    samples_per_cell: int
    output_dir: str
    confidence: float = _DEFAULT_CONFIDENCE
    max_retries: int = DEFAULT_MAX_RETRIES

    @property
    def total_samples(self) -> int:
        return sum(cell.samples for cell in self.cells)

    def sample_seed(self, cell: ExperimentCell, sample_index: int) -> int:
        return derive_seed(self.base_seed, cell.model, cell.index, sample_index)


@dataclass
class RunResult:
    """Everything recorded about one sampled network.

    The identity fields are set when the run is planned; the rest are
    filled in by the worker that measures the network. A failed sample
    keeps what was recorded before the failure, plus ``error``.
    """

    cell_index: int
    sample_index: int
    model: str
    n: int
    params: dict
    seed: int
    retries: int = 0
    distinct_counts: dict = field(default_factory=dict)
    granularity: dict = field(default_factory=dict)
    tau: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    error: str | None = None
    vectors: dict | None = None

    def to_dict(self) -> dict:
        """The persisted record: every field, ``vectors`` only when kept."""
        out = dict(vars(self))
        if self.vectors is None:
            del out["vectors"]
        return out


_RECORD_KEYS = frozenset(f.name for f in fields(RunResult))


def _pair(a: str, b: str) -> str:
    """The key of a measure pair in ``RunResult.tau``: ``"a|b"``, names sorted."""
    return f"{a}|{b}" if a <= b else f"{b}|{a}"


_PAIR_KEYS = frozenset(_pair(a, b) for a, b in itertools.combinations(MEASURES, 2))


def _record_name(cell_index: int, sample_index: int) -> str:
    return f"cell{cell_index:04d}_s{sample_index:04d}.json"


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _whole(value, what: str) -> int:
    """``value`` when it is an int; floats such as 2.5, strings and booleans
    raise instead of being truncated."""
    if type(value) is not int:
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return value


def _generator_rule(check, *args):
    """``check(*args)``, a generator rule: its ValueError is a ConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _expand_model_entry(entry: dict, initiators) -> list[tuple[str, int, tuple]]:
    """Expand one config entry into (model, n, params-items) combinations.

    kg's ``initiators`` default to every loaded initiator, sorted; n = 2**k."""
    if not isinstance(entry, dict):
        raise ConfigError(f"model entry must be a JSON object, got {entry!r}")
    if "model" not in entry:
        raise ConfigError("model entry is missing the 'model' key")
    model = entry["model"]
    if model not in MODEL_IDS:
        raise ConfigError(f"unknown model '{model}'")
    grid_keys = _GRID_PARAMS[model]
    for key in entry:
        if key not in grid_keys and key != "model":
            raise ConfigError(f"unknown parameter '{key}' for model '{model}'")
    if model == "kg":
        if initiators is None:
            raise ConfigError(
                "model 'kg' requires the 'kronecker_initiators_path' config key"
            )
        entry = {"initiators": sorted(initiators), **entry}

    values = {}
    for key in grid_keys:
        if key not in entry:
            raise ConfigError(f"model '{model}' is missing parameter '{key}'")
        values[key] = _as_list(entry[key])
        if not values[key]:
            raise ConfigError(f"model '{model}' parameter '{key}' is empty")
    combos: list[tuple[str, int, tuple]] = []
    for combo in itertools.product(*(values[key] for key in grid_keys)):
        named = dict(zip(grid_keys, combo))
        if model == "kg":
            name = named.pop("initiators")
            if not isinstance(name, str) or name not in initiators:
                raise ConfigError(f"unknown Kronecker initiator '{name}'")
            named.update(initiator=initiators[name].p, initiator_name=name,
                         n=_generator_rule(kronecker_size, named["k"]))
        n = _generator_rule(check_size, model, named.pop("n"))
        if n < 2:  # no tau-b on one vertex, and four measures are undefined there
            raise ConfigError(f"model '{model}' needs n >= 2 in an experiment, got {n}")
        if model == "cs":
            divisor = _whole(named.pop("c_div"), "model 'cs' parameter 'c_div'")
            if divisor < 1:
                raise ConfigError(f"model 'cs' parameter 'c_div' must be >= 1, got {divisor}")
            named["c"] = n // divisor
            named["c_div"] = divisor
        if model != "nonisomorphic":
            _generator_rule(ModelConfig, model, n, named)
        params = tuple(sorted(named.items()))
        combos.append((model, n, params))
    return combos


def plan_experiments(config) -> ExperimentPlan:
    """Validate a config (dict or JSON file path) and expand its grid."""
    if not isinstance(config, dict):
        path = Path(config)
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {config!r}")
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    models = config.get("models")
    if not models:
        raise ConfigError("config key 'models' must be a non-empty list")
    samples_per_cell = _whole(
        config.get("samples_per_cell", _DEFAULT_SAMPLES), "config key 'samples_per_cell'"
    )
    if samples_per_cell < 1:
        raise ConfigError("config key 'samples_per_cell' must be >= 1")
    base_seed = _whole(config.get("base_seed", 0), "config key 'base_seed'")
    if not 0 <= base_seed < 2**64:
        raise ConfigError(f"config key 'base_seed' must be in [0, 2**64), got {base_seed}")
    metrics = config.get("metrics", MEASURES)
    if not isinstance(metrics, (list, tuple)):
        raise ConfigError(f"config key 'metrics' must be a list of measures, got {metrics!r}")
    for i, m in enumerate(metrics):
        if m not in MEASURES:
            raise ConfigError(f"unknown metric '{m}' in config key 'metrics'")
        if m in metrics[:i]:
            raise ConfigError(f"config key 'metrics' lists '{m}' twice")
    if not metrics:
        raise ConfigError("config key 'metrics' must name at least one measure")
    output_dir = config.get("output_dir", "results")
    confidence = config.get("confidence", _DEFAULT_CONFIDENCE)
    if type(confidence) not in (int, float):
        raise ConfigError(f"config key 'confidence' must be a number, got {confidence!r}")
    confidence = float(confidence)
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"config key 'confidence' must be in (0, 1), got {confidence}")
    max_retries = _whole(
        config.get("max_retries", DEFAULT_MAX_RETRIES), "config key 'max_retries'"
    )
    if max_retries < 1:
        raise ConfigError(f"config key 'max_retries' must be >= 1, got {max_retries}")

    initiators = None
    if config.get("kronecker_initiators_path"):
        initiators = _generator_rule(load_initiators, config["kronecker_initiators_path"])

    cells: list[ExperimentCell] = []
    seen: set = set()
    for entry in models:
        for model, n, params in _expand_model_entry(entry, initiators):
            key = (model, n, params)
            if key in seen:
                raise ConfigError(f"duplicate cell in grid: {model} n={n} {params}")
            seen.add(key)
            if model == "nonisomorphic":
                samples = _generator_rule(census_count, n)
            else:
                samples = samples_per_cell
            cells.append(
                ExperimentCell(
                    index=len(cells), model=model, n=n, params=params, samples=samples
                )
            )
    return ExperimentPlan(
        cells=tuple(cells),
        base_seed=base_seed,
        metrics=tuple(metrics),
        samples_per_cell=samples_per_cell,
        output_dir=str(output_dir),
        confidence=confidence,
        max_retries=max_retries,
    )


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


def _manifest(plan: ExperimentPlan, results: list[RunResult]) -> dict:
    """The plan, with each cell's seeds read from its planned records."""
    seeds = {cell.index: [] for cell in plan.cells}
    for result in results:
        seeds[result.cell_index].append(result.seed)
    return {
        "base_seed": plan.base_seed,
        "metrics": list(plan.metrics),
        "samples_per_cell": plan.samples_per_cell,
        "confidence": plan.confidence,
        "max_retries": plan.max_retries,
        "total_samples": plan.total_samples,
        "conventions": {
            "tau_both_constant": stats.TAU_CONVENTIONS["both_constant"],
            "tau_one_constant": stats.TAU_CONVENTIONS["one_constant"],
            "granularity_rounding": "6 decimal places, half away from zero",
            "connectivity_policy": "retry with mix64(seed, retry) sub-seeds",
            "seed_derivation": "splitmix64 chain over "
                               "(base_seed, model_id, cell_index, sample_index)",
            "model_ids": dict(MODEL_IDS),
        },
        "cells": [
            {
                "index": cell.index,
                "model": cell.model,
                "n": cell.n,
                "params": cell.params_dict(),
                "samples": cell.samples,
                "seeds": seeds[cell.index],
            }
            for cell in plan.cells
        ],
    }


def run_experiment(
    plan: ExperimentPlan, workers: int = 1, keep_vectors: bool = False
) -> list[RunResult]:
    """Execute the plan and persist samples, manifest, and roll-up tables.

    The unit of work is a stack (see :func:`_run_stack`): each census cell
    is one, and each sample drawn from a model is one, measured on the
    same path. Stacks are independent; they run in a spawned process pool of
    ``min(workers, os.cpu_count(), stacks)`` processes, or in this
    process when that is 1. Aggregation follows canonical sample order, so
    outputs do not depend on scheduling or the worker count. Sample
    records, roll-up tables and the heatmap an earlier run left in
    ``output_dir`` are removed, so the directory holds this run's outputs
    only; the tables are not written when no sample succeeds. A worker
    count below 1 raises ``ValueError`` before any output is touched.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    out_dir = Path(plan.output_dir)
    samples_dir = out_dir / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    stacks = _build_stacks(plan)
    run = partial(
        _run_stack, metrics=plan.metrics, max_retries=plan.max_retries,
        keep_vectors=keep_vectors,
    )
    workers = min(workers, os.cpu_count() or 1, len(stacks))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        ) as pool:
            measured = list(pool.map(run, stacks))
    else:
        measured = list(map(run, stacks))
    results = [result for stack in measured for result in stack]

    tables = [out_dir / name for name in TABLE_FILES.values()]
    for stale in [*samples_dir.glob("cell*_s*.json"), *tables, out_dir / HEATMAP_FILE]:
        stale.unlink(missing_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(_manifest(plan, results), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)
    for result in results:
        name = _record_name(result.cell_index, result.sample_index)
        (samples_dir / name).write_text(encode(result.to_dict()) + "\n", encoding="utf-8")
    if any(result.error is None for result in results):
        write_all_tables(results, out_dir, confidence=plan.confidence)
    return results


def recorded_confidence(results_dir) -> float:
    """The confidence level the run recorded in ``manifest.json``, or the
    default for a results directory without a manifest."""
    manifest = Path(results_dir) / "manifest.json"
    if not manifest.is_file():
        return _DEFAULT_CONFIDENCE
    try:
        confidence = json.loads(manifest.read_text(encoding="utf-8"))["confidence"]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest}: not valid JSON: {exc}") from None
    except (KeyError, TypeError):
        raise ValueError(f"{manifest}: no confidence level recorded") from None
    if type(confidence) is not float or not 0.0 < confidence < 1.0:
        raise ValueError(f"{manifest}: confidence must be a number in (0, 1), got {confidence!r}")
    return confidence


def _check_tau(path, tau) -> None:
    """Reject a ``tau`` that is not a map from pair keys of known measures
    to numbers in [-1, 1] (up to rounding)."""
    if not isinstance(tau, dict):
        raise ValueError(f"{path}: 'tau' is not a mapping of measure pairs")
    for key, value in tau.items():
        if key not in _PAIR_KEYS:
            raise ValueError(
                f"{path}: tau key {key!r} is not 'a|b' for known measures a < b"
            )
        if type(value) not in (int, float) or not abs(value) <= 1.0 + 1e-12:
            raise ValueError(f"{path}: tau value out of [-1, 1] for pair {key}: {value!r}")


def load_results(results_dir) -> list[RunResult]:
    """Load persisted sample records in canonical cell/sample order.

    A record that is not JSON, whose keys are not exactly those
    :meth:`RunResult.to_dict` writes, whose file is not named after its
    own cell and sample (so a copied record cannot count twice), or whose
    ``tau`` fails :func:`_check_tau`, raises :class:`ValueError` naming
    its file.
    """
    samples_dir = Path(results_dir) / "samples"
    if not samples_dir.is_dir():
        raise FileNotFoundError(f"no samples directory under {results_dir}")
    results = []
    for path in samples_dir.glob("*.json"):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        keys = set(record) if isinstance(record, dict) else set()
        missing = sorted(_RECORD_KEYS - keys - {"vectors"})
        unknown = sorted(keys - _RECORD_KEYS)
        if missing or unknown:
            raise ValueError(
                f"{path}: not a sample record (missing keys {missing}, "
                f"unknown keys {unknown})"
            )
        try:
            name = _record_name(record["cell_index"], record["sample_index"])
        except (TypeError, ValueError):
            name = None
        if path.name != name:
            raise ValueError(
                f"{path}: file name does not match its record (cell_index "
                f"{record['cell_index']!r}, sample_index {record['sample_index']!r})"
            )
        _check_tau(path, record["tau"])
        results.append(RunResult(**record))
    results.sort(key=lambda r: (r.cell_index, r.sample_index))
    return results


def _ok(results) -> list[RunResult]:
    good = [r for r in results if r.error is None]
    if not good:
        raise ValueError("no successful results to tabulate")
    return good


def _fmt(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    return text.lstrip("-") if float(text) == 0 else text


def _tau_buckets(results) -> dict[str, list[float]]:
    """Each pair's tau values over ``results``, in their order."""
    buckets: dict[str, list[float]] = {}
    for r in results:
        for key, value in r.tau.items():
            buckets.setdefault(key, []).append(value)
    return buckets


def _pair_means(buckets) -> dict[str, float]:
    return {key: float(np.mean(values)) for key, values in buckets.items()}


def correlation_matrix(results) -> dict[str, float]:
    """Pooled mean tau-b per pair key ``"a|b"`` over all successful results."""
    return _pair_means(_tau_buckets(_ok(results)))


def _correlation_csv(means) -> str:
    header = "metric," + ",".join(SHORT_LABELS[m] for m in CORRELATION_ORDER)
    lines = [header]
    for i, row in enumerate(CORRELATION_ORDER):
        cells = []
        for j, col in enumerate(CORRELATION_ORDER):
            mean = means.get(_pair(row, col))
            cells.append(_fmt(mean, 2) if j < i and mean is not None else "")
        lines.append(SHORT_LABELS[row] + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _groups(results, key) -> dict:
    """``results`` grouped by ``key(r)``, each group in the order given."""
    groups: dict = {}
    for r in results:
        groups.setdefault(key(r), []).append(r)
    return groups


def _corpus_group(r: RunResult) -> str:
    """The granularity tables pool the census apart from the random models."""
    return "nonisomorphic" if r.model == "nonisomorphic" else "complex_models"


def _mean_cells(values, confidence, decimals: int = 2) -> list[str]:
    """A mean and its CI half-width, formatted; the half-width is empty
    for a single sample."""
    if len(values) == 1:
        return [_fmt(values[0], decimals), ""]
    return [_fmt(x, decimals) for x in stats.mean_ci(values, confidence)]


def _granularity_csv(good, confidence) -> str:
    groups = _groups(good, _corpus_group)
    header = (
        "metric,complex_models_mean,complex_models_ci,"
        "nonisomorphic_mean,nonisomorphic_ci"
    )
    lines = [header]
    for metric in GRANULARITY_ORDER:
        cells = []
        for name in ("complex_models", "nonisomorphic"):
            values = [r.granularity[metric] for r in groups.get(name, ())
                      if metric in r.granularity]
            cells.extend(_mean_cells(values, confidence) if values else ["", ""])
        lines.append(SHORT_LABELS[metric] + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _granularity_by_size_csv(good, confidence) -> str:
    """Granularity broken down by corpus group and vertex count, so pooled
    means (one weight per network) can be compared with per-size means."""
    groups = _groups(good, lambda r: (_corpus_group(r), r.n))
    lines = ["metric,group,n,mean,ci"]
    for metric in GRANULARITY_ORDER:
        for (name, n) in sorted(groups):
            values = [
                r.granularity[metric] for r in groups[(name, n)]
                if metric in r.granularity
            ]
            if not values:
                continue
            mean, half = _mean_cells(values, confidence)
            lines.append(f"{SHORT_LABELS[metric]},{name},{n},{mean},{half}")
    return "\n".join(lines) + "\n"


def _best_csv(by_family) -> str:
    header = "metric," + ",".join(FAMILY_LABELS[f] for f in FAMILY_ORDER)
    percents: dict[str, dict[str, float]] = {}
    for family, members in by_family.items():
        counts = [r.distinct_counts for r in members if r.distinct_counts]
        if counts:
            percents[family] = stats.best_granularity_tally(counts)
    lines = [header]
    for metric in GRANULARITY_ORDER:
        cells = []
        for family in FAMILY_ORDER:
            if family in percents and metric in percents[family]:
                cells.append(_fmt(percents[family][metric], 1))
            else:
                cells.append("")
        lines.append(SHORT_LABELS[metric] + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _correlation_by_model_csv(family_buckets, confidence) -> str:
    lines = ["model,pair,mean_tau,count,ci_half_width"]
    for family in FAMILY_ORDER:
        if family not in family_buckets:
            continue
        buckets = family_buckets[family]
        for a, b in itertools.combinations(CORRELATION_ORDER, 2):
            values = buckets.get(_pair(a, b))
            if not values:
                continue
            mean, half = _mean_cells(values, confidence, decimals=6)
            lines.append(
                f"{FAMILY_LABELS[family]},{SHORT_LABELS[a]}|{SHORT_LABELS[b]},"
                f"{mean},{len(values)},{half}"
            )
    return "\n".join(lines) + "\n"


def write_all_tables(results, out_dir, confidence: float = _DEFAULT_CONFIDENCE) -> dict:
    """Write every roll-up CSV into ``out_dir``; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    good = _ok(results)
    by_family = _groups(good, lambda r: r.model)
    family_buckets = {family: _tau_buckets(members) for family, members in by_family.items()}
    # One family holds every good result in order, so its buckets are the pooled ones.
    pooled = (next(iter(family_buckets.values())) if len(family_buckets) == 1
              else _tau_buckets(good))
    content = {
        "correlation": _correlation_csv(_pair_means(pooled)),
        "correlation_by_model": _correlation_by_model_csv(family_buckets, confidence),
        "granularity": _granularity_csv(good, confidence),
        "granularity_by_size": _granularity_by_size_csv(good, confidence),
        "best": _best_csv(by_family),
    }
    paths = {}
    for name, text in content.items():
        path = out_dir / TABLE_FILES[name]
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


def _ramp(tau: float) -> str:
    """Fixed diverging color ramp over [-1, 1], monotone in tau."""
    t = min(max((tau + 1.0) / 2.0, 0.0), 1.0)
    low, high = (33, 102, 172), (178, 24, 43)
    rgb = tuple(round(l + (h - l) * t) for l, h in zip(low, high))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def emit_heatmap(means: dict[str, float], path) -> Path:
    """Render the 8x8 heatmap of :func:`correlation_matrix`'s pair means as
    a standalone SVG file."""
    order = CORRELATION_ORDER
    if not _PAIR_KEYS <= means.keys():
        raise ValueError("heatmap requires a complete 8x8 correlation matrix")
    cell, margin, pad = 64, 72, 12
    size = margin + len(order) * cell + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'font-family="monospace" font-size="13">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i, name in enumerate(order):
        label = SHORT_LABELS[name]
        cx = margin + i * cell + cell // 2
        parts.append(
            f'<text x="{cx}" y="{margin - 10}" text-anchor="middle">{label}</text>'
        )
        cy = margin + i * cell + cell // 2 + 4
        parts.append(
            f'<text x="{margin - 10}" y="{cy}" text-anchor="end">{label}</text>'
        )
    for i, row in enumerate(order):
        for j, col in enumerate(order):
            tau = 1.0 if row == col else means[_pair(row, col)]
            x = margin + j * cell
            y = margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_ramp(tau)}" stroke="white"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'text-anchor="middle" fill="white">{tau:.2f}</text>'
            )
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
