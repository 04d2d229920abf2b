"""Workload definitions: experiment configs derived from a seed, plus the
outcomes each workload is expected to produce.

Each pass of a workload is one ``plan_experiments`` -> ``run_experiment``
call on the config returned by :func:`config_for_pass`. Pass 0 uses the
workload seed itself as ``base_seed``, so on the default seed it matches
the desk experiment's seeding; later passes use seeds derived here, with
the benchmark's own mixer, so a change to the program's seed chain
cannot change which inputs the benchmark feeds it.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 20160901

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def pass_seed(seed: int, pass_index: int) -> int:
    """Base seed of pass ``pass_index``; pass 0 is the workload seed."""
    if pass_index == 0:
        return seed
    return _splitmix64(seed ^ _splitmix64(pass_index)) >> 1


# The desk experiment grid (configs/desk_experiment.json), copied so the
# benchmark's inputs do not move when the repository's config does.
_DESK_MODELS = [
    {"model": "er", "n": [100, 500], "p": [0.1, 0.3, 0.5]},
    {"model": "sf", "n": [100, 500], "k": [2, 3, 5]},
    {"model": "sw", "n": [100, 500], "k": [4, 8, 16], "p": [0.1, 0.3, 0.5]},
    {"model": "gr", "n": [100, 484], "kappa": [1.2, 1.5, 2.0]},
    {"model": "cs", "n": [100, 500], "p_c": [0.1], "p": [0.5, 0.7], "c_div": [10, 20, 50]},
]

_DENSE_MODELS = [
    {"model": "er", "n": 500, "p": [0.1, 0.3, 0.5]},
    {"model": "sf", "n": 500, "k": [2, 3, 5]},
    {"model": "sw", "n": 500, "k": [4, 8, 16], "p": [0.1, 0.5]},
    {"model": "gr", "n": 484, "kappa": [1.2, 1.5, 2.0]},
]

_CENSUS_MODELS = [{"model": "nonisomorphic", "n": [6, 7]}]

# A few seconds of work that still reaches every wrapped function: every
# generator, a community cell that never connects, and a graph6 corpus.
_SMOKE_MODELS = [
    {"model": "er", "n": 30, "p": 0.3},
    {"model": "sf", "n": 30, "k": 2},
    {"model": "sw", "n": 30, "k": 4, "p": 0.3},
    {"model": "gr", "n": 25, "kappa": 1.5},
    {"model": "cs", "n": 30, "p_c": 0.1, "p": 0.5, "c_div": 10},
    {"model": "nonisomorphic", "n": 4},
]


def _desk_doomed(cell: dict) -> bool:
    """Community cells whose membership draw leaves tens of vertices in
    no community: they never connect within the retry budget."""
    params = cell["params"]
    return cell["model"] == "cs" and (cell["n"] == 100 or params["c_div"] in (20, 50))


def _smoke_doomed(cell: dict) -> bool:
    return cell["model"] == "cs"


def _never(cell: dict) -> bool:
    return False


WORKLOADS = {
    "desk-mix": {
        "models": _DESK_MODELS, "samples_per_cell": 1, "doomed": _desk_doomed,
    },
    "dense-n500": {
        "models": _DENSE_MODELS, "samples_per_cell": 2, "doomed": _never,
    },
    "census-n7": {
        "models": _CENSUS_MODELS, "samples_per_cell": 1, "doomed": _never,
    },
    "smoke": {
        "models": _SMOKE_MODELS, "samples_per_cell": 1, "doomed": _smoke_doomed,
        "max_retries": 5,
    },
}

# Error text of a sample that exhausts its retry budget.
DOOMED_ERROR_PREFIX = "GenerationError: no connected sample within "


def config_for_pass(workload: str, seed: int, pass_index: int, output_dir: str) -> dict:
    spec = WORKLOADS[workload]
    config = {
        "models": spec["models"],
        "samples_per_cell": spec["samples_per_cell"],
        "base_seed": pass_seed(seed, pass_index),
        "output_dir": output_dir,
    }
    if "max_retries" in spec:
        config["max_retries"] = spec["max_retries"]
    return config


# Captured from the seed commit on DEFAULT_SEED, pass 0: the sha256 of
# each roll-up CSV and the [cell, sample, error] of every failed sample.
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
