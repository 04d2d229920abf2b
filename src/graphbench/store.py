"""The results directory, the one module that knows its layout:
``manifest.json``, one ``samples/cell####_s####.json`` record per sample,
the roll-up CSVs named in :data:`TABLE_FILES` and :data:`HEATMAP_FILE`.

A sample has one form, :class:`RunResult`: its record holds the fields
:meth:`RunResult.to_dict` writes, on one line of JSON, and
:func:`load_run` rebuilds it from exactly those keys, checked against
the manifest when there is one. Its ``tau`` maps
each measure pair, keyed ``"a|b"`` by :func:`_pair`, to one tau-b value.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
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
_BARE_KEYS = _RECORD_KEYS - {"vectors"}  # a record written without vectors
_index_key = operator.itemgetter("cell_index", "sample_index")


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


_READ_SIZE = 1 << 16


def _read(path) -> bytes:
    """The bytes of the file at ``path``: one read for a file of at most
    64 KB, as a record without vectors is."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _READ_SIZE)]
        while len(chunks[-1]) == _READ_SIZE:
            chunks.append(os.read(fd, _READ_SIZE))
    finally:
        os.close(fd)
    return b"".join(chunks)


# json.loads of a str, without its per-call encoding detection: records
# and manifests are written as UTF-8.
_decode = json.JSONDecoder().decode


# The fields a record shares with its cell in the manifest, after its
# (cell_index, sample_index).
_PLANNED_FIELDS = ("model", "n", "params", "seed")
_planned_key = operator.itemgetter("cell_index", "sample_index", *_PLANNED_FIELDS)


@dataclass(frozen=True)
class _Manifest:
    """What a reload reads from ``manifest.json``."""

    path: str
    confidence: float
    total_samples: int
    planned: list  # _planned_key of every planned record, in canonical order


def _read_manifest(results_dir) -> _Manifest | None:
    """The run's ``manifest.json``, parsed once and checked, or None for a
    results directory without one."""
    path = os.path.join(results_dir, "manifest.json")
    if not os.path.isfile(path):
        return None
    try:
        manifest = _decode(_read(path).decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        confidence = manifest["confidence"]
    except (KeyError, TypeError):
        raise ValueError(f"{path}: no confidence level recorded") from None
    if type(confidence) is not float or not 0.0 < confidence < 1.0:
        raise ValueError(f"{path}: confidence must be a number in (0, 1), got {confidence!r}")
    try:
        planned = [
            (cell["index"], sample, cell["model"], cell["n"], cell["params"], seed)
            for cell in manifest["cells"]
            for sample, seed in zip(range(cell["samples"]), cell["seeds"], strict=True)
        ]
        total = manifest["total_samples"]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: cells, samples and seeds are not recorded in full") from None
    return _Manifest(path, confidence, total, planned)


_TAU_BOUND = 1.0 + 1e-12


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
        if type(value) not in (int, float) or not abs(value) <= _TAU_BOUND:
            raise ValueError(f"{path}: tau value out of [-1, 1] for pair {key}: {value!r}")


def _taus_valid(taus) -> bool:
    """Whether every ``tau`` passes :func:`_check_tau`, in a few C-level
    passes over all of them."""
    if not all(type(tau) is dict for tau in taus):
        return False
    if not _PAIR_KEYS.issuperset(itertools.chain.from_iterable(taus)):
        return False
    values = list(itertools.chain.from_iterable(map(dict.values, taus)))
    # abs(nan) fails the bound, as it does in _check_tau.
    return {int, float}.issuperset(map(type, values)) and all(
        map(_TAU_BOUND.__ge__, map(abs, values)))


def _check_record(path, name, record) -> None:
    """Reject a record whose keys are not exactly those
    :meth:`RunResult.to_dict` writes, whose ``cell_index`` or
    ``sample_index`` is not an int >= 0, or that is not named after its
    own cell and sample (so a copied record cannot count twice)."""
    if type(record) is dict and (record.keys() == _BARE_KEYS or record.keys() == _RECORD_KEYS):
        ci, si = record["cell_index"], record["sample_index"]
        if type(ci) is int and type(si) is int and ci >= 0 and si >= 0 and (
                name == _record_name(ci, si)):
            return
    # Only a record that fails comes here, to be named with its fault.
    keys = set(record) if isinstance(record, dict) else set()
    missing = sorted(_BARE_KEYS - keys)
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
    if name != _record_name(*index):
        raise ValueError(
            f"{path}: file name does not match its record (cell_index "
            f"{record['cell_index']!r}, sample_index {record['sample_index']!r})"
        )


def _check_planned(samples_dir, records, manifest: _Manifest) -> None:
    """Reject records (sorted, each checked by :func:`_check_record`) that
    are not exactly the ones the manifest plans, naming the first
    offending file: a record the manifest does not plan, one whose model,
    n, params or seed is not its cell's, a planned record that is
    missing, or a record count other than ``total_samples``."""
    if list(map(_planned_key, records)) == manifest.planned and (
            len(records) == manifest.total_samples):
        return
    planned = {key[:2]: key[2:] for key in manifest.planned}
    for record in records:
        index = record["cell_index"], record["sample_index"]
        path = os.path.join(samples_dir, _record_name(*index))
        if index not in planned:
            raise ValueError(f"{path}: cell {index[0]} sample {index[1]} is not "
                             f"planned in {manifest.path}")
        for field, value in zip(_PLANNED_FIELDS, planned[index]):
            if record[field] != value:
                raise ValueError(f"{path}: {field} {record[field]!r} is not the "
                                 f"{value!r} planned in {manifest.path}")
    found = {(record["cell_index"], record["sample_index"]) for record in records}
    missing = sorted(planned.keys() - found)
    if missing:
        path = os.path.join(samples_dir, _record_name(*missing[0]))
        raise ValueError(f"{path}: record missing, though planned in {manifest.path}")
    if len(records) != manifest.total_samples:
        raise ValueError(f"{manifest.path}: total_samples is "
                         f"{manifest.total_samples!r}, but {len(records)} records were found")


def load_run(results_dir) -> tuple[list[RunResult], float]:
    """Load persisted sample records in canonical cell/sample order, with
    the confidence level the run recorded in ``manifest.json``, or the
    default for a results directory without a manifest.

    A record that is not JSON, that fails :func:`_check_record`, or whose
    ``tau`` fails :func:`_check_tau` raises :class:`ValueError` naming its
    file. When the manifest exists, it is parsed once, and records that
    are not exactly the planned ones raise too (see :func:`_check_planned`).
    """
    samples_dir = os.path.join(results_dir, "samples")
    if not os.path.isdir(samples_dir):
        raise FileNotFoundError(f"no samples directory under {results_dir}")
    manifest = _read_manifest(results_dir)
    names = sorted(name for name in os.listdir(samples_dir) if name.endswith(".json"))
    paths = [os.path.join(samples_dir, name) for name in names]
    records = []
    for path, name in zip(paths, names):
        try:
            record = _decode(_read(path).decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        _check_record(path, name, record)
        records.append(record)
    if not _taus_valid([record["tau"] for record in records]):
        for path, record in zip(paths, records):
            _check_tau(path, record["tau"])
    records.sort(key=_index_key)
    if manifest is not None:
        _check_planned(samples_dir, records, manifest)
    confidence = _DEFAULT_CONFIDENCE if manifest is None else manifest.confidence
    return [RunResult(**record) for record in records], confidence


def load_results(results_dir) -> list[RunResult]:
    """The records of :func:`load_run`, checked as it checks them."""
    return load_run(results_dir)[0]
