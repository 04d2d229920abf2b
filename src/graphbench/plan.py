"""Experiment planning: a JSON config validated and expanded into cells.

Config keys: ``models`` (list of grid entries), ``samples_per_cell``,
``base_seed``, ``metrics``, ``output_dir``, ``kronecker_initiators_path``,
plus optional ``confidence`` and ``max_retries``. A value that a generator
would refuse raises :class:`ConfigError` here, before any output is touched.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .centrality import MEASURES
from .generators import (
    DEFAULT_MAX_RETRIES, MODEL_IDS, ModelConfig, census_count, check_size, derive_seed,
    kronecker_size, load_initiators,
)

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


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _whole(value, what: str) -> int:
    """``value`` when it is an int; floats such as 2.5, strings and booleans
    raise instead of being truncated."""
    if type(value) is not int:
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return value


def _path(value, what: str) -> str:
    """``value`` when it is a non-empty string; ``""`` would name the working directory."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a non-empty string, got {value!r}")
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
    if not models or not isinstance(models, (list, tuple)):
        raise ConfigError(f"config key 'models' must be a non-empty list, got {models!r}")
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
    output_dir = _path(config.get("output_dir", "results"), "config key 'output_dir'")
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
    if "kronecker_initiators_path" in config:
        path = _path(config["kronecker_initiators_path"], "config key 'kronecker_initiators_path'")
        initiators = _generator_rule(load_initiators, path)

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
        output_dir=output_dir,
        confidence=confidence,
        max_retries=max_retries,
    )
