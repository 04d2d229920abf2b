"""The results directory, the one module that knows its layout:
``manifest.json``, one ``samples/cell####_s####.json`` record per sample,
the roll-up CSVs named in :data:`TABLE_FILES` and :data:`HEATMAP_FILE`.

A sample has one form, :class:`RunResult`: its record holds the fields
:meth:`RunResult.to_dict` writes, on one line of JSON, and
:func:`load_results` rebuilds it from exactly those keys. Its ``tau`` maps
each measure pair, keyed ``"a|b"`` by :func:`_pair`, to one tau-b value.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import stats
from .centrality import MEASURES, TIE_TOL
from .generators import MODEL_IDS
from .plan import _DEFAULT_CONFIDENCE, ExperimentPlan

TABLE_FILES = {
    "correlation": "correlation.csv",
    "correlation_by_model": "correlation_by_model.csv",
    "granularity": "granularity.csv",
    "granularity_by_size": "granularity_by_size.csv",
    "best": "best.csv",
}
HEATMAP_FILE = "heatmap.svg"


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
            "tie_tol": TIE_TOL,
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


def create_samples_dir(out_dir) -> None:
    """Create ``out_dir/samples``; run before any sample is measured."""
    (Path(out_dir) / "samples").mkdir(parents=True, exist_ok=True)


def write_run(plan: ExperimentPlan, results: list[RunResult]) -> None:
    """Replace the records, tables and heatmap an earlier run left in
    ``plan.output_dir`` with this run's manifest and records."""
    out_dir = Path(plan.output_dir)
    samples_dir = out_dir / "samples"
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
    :meth:`RunResult.to_dict` writes, whose ``cell_index`` or
    ``sample_index`` is not an int >= 0, whose file is not named after its
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
        index = record["cell_index"], record["sample_index"]
        if not all(type(i) is int and i >= 0 for i in index):
            raise ValueError(
                f"{path}: cell_index and sample_index must be ints >= 0, got {index}"
            )
        if path.name != _record_name(*index):
            raise ValueError(
                f"{path}: file name does not match its record (cell_index "
                f"{record['cell_index']!r}, sample_index {record['sample_index']!r})"
            )
        _check_tau(path, record["tau"])
        results.append(RunResult(**record))
    results.sort(key=lambda r: (r.cell_index, r.sample_index))
    return results
