"""Rank correlation with tie correction, granularity, and confidence intervals.

``kendall_tau_b`` builds the boolean order matrices ``gx = x_i > x_j``
and ``gy`` over all ordered vertex pairs (O(n^2) bytes, vectorized; an
eighth of the size of float64 sign matrices). With ``nx`` and ``ny`` the
numbers of pairs not tied in each variable (the true entries of ``gx``
and ``gy``), ``C = count(gx & gy)`` concordant and
``D = count(gx & gy.T)`` discordant pairs, it returns
``2(C - D) / sqrt(2nx * 2ny)``: concordant minus discordant pairs over
the geometric mean of the pair counts not tied in each variable, which
is the standard tie correction. Pairs tied in either variable add
nothing to the numerator. The doubled counts are the ordered-pair sums
of ``sign(x_i - x_j) * sign(y_i - y_j)`` and of the nonzero signs; the
doubling cancels exactly, and every count is an integer, so the result
does not depend on how the pairs are summed.
NaN and infinite inputs are rejected with :class:`ValueError`.
Degenerate inputs are pinned by convention: two constant vectors
correlate at 1.0 (identical trivial rankings), exactly one constant
vector yields 0.0. Both conventions are surfaced as
:data:`TAU_CONVENTIONS` so downstream reports can echo them.

``granularity`` is the percentage of distinct values after rounding to
six decimal places, half away from zero, on the shortest decimal
representation; this matches the fixed 6-decimal print convention and is
bit-reproducible. ``round6`` is that rounding in :mod:`decimal`.
``distinct_count`` takes a float fast path that gives the same keys
without a ``Decimal`` per value: it rounds ``|v| * 1e6`` half up in
float64 and sends only values near a rounding boundary or too large for
exact float integers through ``round6`` (the argument is in its
docstring). Granularity rejects NaN and infinite values.
"""

from __future__ import annotations

import decimal
from statistics import NormalDist
from typing import Mapping, Sequence

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
    gx = np.greater.outer(x, x)
    gy = np.greater.outer(y, y)
    nx = np.count_nonzero(gx)
    ny = np.count_nonzero(gy)
    if nx == 0 and ny == 0:
        return TAU_CONVENTIONS["both_constant"]
    if nx == 0 or ny == 0:
        return TAU_CONVENTIONS["one_constant"]
    concordant = np.count_nonzero(gx & gy)
    discordant = np.count_nonzero(gx & gy.T)
    return float(2 * (concordant - discordant)) / np.sqrt(
        float(2 * nx) * float(2 * ny)
    )


def round6(value: float) -> decimal.Decimal:
    """Round to six decimal places, half away from zero."""
    return decimal.Decimal(repr(float(value))).quantize(
        _SIX_PLACES, rounding=decimal.ROUND_HALF_UP, context=_DECIMAL_CTX
    )


def distinct_count(values) -> int:
    """Number of distinct values at 6-decimal resolution.

    Equal to ``len({round6(v) for v in values})``, computed mostly in
    float64. For finite ``v``, let ``x = |v|``, ``d`` the value of
    ``repr(x)`` (the shortest decimal that reads back as ``x``) and
    ``p = fl(x * 1e6)``. ``round6`` rounds ``P = d * 1e6`` half up to an
    integer count of millionths; the fast path rounds ``p`` instead, as
    ``floor(p + 0.5)``, and reattaches the sign. The two agree unless a
    half-integer lies between ``P`` and ``p``, or near ``p + 0.5``:

    * ``|d - x| <= ulp(x)/2`` and ``|p - x*1e6| <= ulp(p)/2``. Since
      ``1e6 < 2**20``, ``1e6 * ulp(x) <= 2 * ulp(p)`` for normal ``x``,
      so ``|P - p| <= 1.5 ulp(p)``. For subnormal ``x``, ``P`` and ``p``
      are both below ``1e-301`` and round to 0 alike.
    * ``p - floor(p)`` is exact, and for ``p < 2**49`` ``fl(p + 0.5)``
      is within ``ulp(p)`` of ``p + 0.5`` (within ``2**-54`` when
      ``p < 0.5``), so it lands on the same side of every integer as
      ``p + 0.5`` unless ``p`` is that close to a half-integer.

    So values whose ``p`` lies within 4 ulps of a half-integer go through
    ``round6``; all others use the float key. From ``p >= 2**49`` on, an
    ulp is at least 1/8, so every such value is within 4 ulps of a
    half-integer: large values, where float64 steps reach 1 at ``2**52``,
    always take the exact path. Keys are counted in millionths:
    ``round6(v)`` scaled by 1e6 is an integral ``Decimal``, and an
    integral ``Decimal`` equals, and hashes like, the float of the same
    integer, so one set holds both kinds.
    """
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("values must be finite (no NaN or inf)")
    # The clip keeps huge values from overflowing; they stay above 2**49.
    p = np.minimum(np.abs(v), 1e10) * 1e6
    exact = np.abs(p - np.floor(p) - 0.5) <= 4.0 * np.spacing(p)
    keys = np.copysign(np.floor(p + 0.5), v)
    if not exact.any():
        return len(np.unique(keys))
    slow = {round6(x).scaleb(6, _DECIMAL_CTX) for x in v[exact]}
    return len(slow.union(keys[~exact].tolist()))


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
