"""Rank correlation with tie correction, granularity, and CI aggregation.

``kendall_tau_b`` takes the sign matrices ``sx = sign(x_i - x_j)`` and
``sy`` over all ordered vertex pairs (O(n^2), vectorized; cheap at
workbench sizes) and returns ``sum(sx * sy) / sqrt(nnz(sx) * nnz(sy))``:
concordant minus discordant pairs over the geometric mean of the pair
counts not tied in each variable, which is the standard tie correction.
Pairs tied in either variable add nothing to the numerator. Counting
ordered pairs doubles all three integer sums, which cancels exactly.
NaN and infinite inputs are rejected with :class:`ValueError`.
Degenerate inputs are pinned by convention: two constant vectors
correlate at 1.0 (identical trivial rankings), exactly one constant
vector yields 0.0. Both conventions are surfaced as
:data:`TAU_CONVENTIONS` so downstream reports can echo them.

``granularity`` is the percentage of distinct values after rounding to
six decimal places, half away from zero, on the shortest decimal
representation; this matches the fixed 6-decimal print convention and is
bit-reproducible.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

import numpy as np

TAU_CONVENTIONS = {"both_constant": 1.0, "one_constant": 0.0}

_SIX_PLACES = decimal.Decimal("0.000001")

# Wide enough for any float64 magnitude (~1e308) quantized to 6 decimals.
_DECIMAL_CTX = decimal.Context(prec=340, rounding=decimal.ROUND_HALF_UP)


def kendall_tau_b(x, y) -> float:
    """Kendall tau-b of two equal-length vectors (length >= 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite (no NaN or inf)")
    x_const = bool(np.all(x == x[0]))
    y_const = bool(np.all(y == y[0]))
    if x_const and y_const:
        return TAU_CONVENTIONS["both_constant"]
    if x_const or y_const:
        return TAU_CONVENTIONS["one_constant"]
    sx = np.sign(np.subtract.outer(x, x))
    sy = np.sign(np.subtract.outer(y, y))
    return float(np.vdot(sx, sy)) / np.sqrt(
        float(np.count_nonzero(sx)) * float(np.count_nonzero(sy))
    )


def round6(value: float) -> decimal.Decimal:
    """Round to six decimal places, half away from zero."""
    return decimal.Decimal(repr(float(value))).quantize(
        _SIX_PLACES, rounding=decimal.ROUND_HALF_UP, context=_DECIMAL_CTX
    )


def distinct_count(values) -> int:
    """Number of distinct values at 6-decimal resolution."""
    return len({round6(v) for v in np.asarray(values, dtype=float)})


def granularity(values) -> float:
    """Percentage of distinct 6-decimal-rounded values (length >= 1)."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("need at least one value")
    return 100.0 * distinct_count(values) / values.size


def mean_ci(samples, confidence: float) -> tuple[float, float]:
    """Mean and normal-approximation CI half-width ``z * s / sqrt(n)``.

    ``s`` is the sample standard deviation; needs at least two samples.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples for a confidence interval")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    mean = float(samples.mean())
    s = float(samples.std(ddof=1))
    return mean, z * s / np.sqrt(samples.size)


def best_granularity_tally(
    per_network_counts: Sequence[Mapping[str, int]],
) -> dict[str, float]:
    """Percentage of networks on which each metric attains the maximum
    distinct-value count; ties award every maximal metric, so the
    percentages can sum well above 100.
    """
    if not per_network_counts:
        raise ValueError("need at least one network")
    metrics = tuple(sorted(per_network_counts[0]))
    best = {m: 0 for m in metrics}
    for counts in per_network_counts:
        if tuple(sorted(counts)) != metrics:
            raise ValueError("inconsistent metric sets across networks")
        top = max(counts.values())
        for m in metrics:
            if counts[m] == top:
                best[m] += 1
    total = len(per_network_counts)
    return {m: 100.0 * best[m] / total for m in metrics}


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class RankCorrelationMatrix:
    """Mean tau-b per metric pair with sample counts and CI half-widths."""

    measures: tuple[str, ...]
    mean: dict
    count: dict
    half_width: dict
    confidence: float

    def value(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return self.mean[_pair_key(a, b)]

    def pair_count(self, a: str, b: str) -> int:
        return self.count[_pair_key(a, b)]

    def is_complete(self) -> bool:
        return all(
            _pair_key(a, b) in self.mean
            for i, a in enumerate(self.measures)
            for b in self.measures[i + 1:]
        )


def aggregate_correlations(
    tau_maps: Iterable[Mapping[tuple[str, str], float]],
    measures: Sequence[str],
    confidence: float = 0.99,
) -> RankCorrelationMatrix:
    """Pool per-network tau values into unweighted means per pair.

    ``tau_maps`` must arrive in a canonical order so the floating-point
    sums do not depend on scheduling.
    """
    measures = tuple(measures)
    buckets: dict[tuple[str, str], list[float]] = {}
    for taus in tau_maps:
        for pair, value in taus.items():
            buckets.setdefault(_pair_key(*pair), []).append(float(value))
    mean: dict = {}
    count: dict = {}
    half_width: dict = {}
    for pair, values in buckets.items():
        arr = np.asarray(values)
        if np.max(np.abs(arr)) > 1.0 + 1e-12:
            raise ValueError(f"tau value out of [-1, 1] for pair {pair}")
        mean[pair] = float(arr.mean())
        count[pair] = arr.size
        half_width[pair] = mean_ci(arr, confidence)[1] if arr.size >= 2 else None
    return RankCorrelationMatrix(
        measures=measures, mean=mean, count=count,
        half_width=half_width, confidence=confidence,
    )

