"""Rank correlation with tie correction, granularity, and confidence intervals.

Each statistic has one kernel, which takes a sample's ``(k, n)`` score
matrix (one row per measure) whole, or a stack of them: the tau-b kernel
a ``(S, k, n)`` stack, the distinct-value count any number of rows, so a
stack's ``(S*k, n)`` rows in one call. The one-vector functions are thin
calls into them.

``kendall_tau_b_matrix`` rests on the Gram identity. Let ``S`` hold, for
each row, the ordered-pair signs ``sign(x_i - x_j)`` over all ``n**2``
ordered vertex pairs, and let ``G = S @ S.T``. Then ``G[a, b]`` is
``2(C - D)``, twice the concordant minus the discordant pairs of rows a
and b, and ``G[a, a]`` is ``2 n_a``, twice the pairs not tied in row a.
Tau-b is ``G[a, b] / sqrt(G[a, a] * G[b, b])``: concordant minus
discordant pairs over the geometric mean of the pair counts not tied in
each variable, which is the standard tie correction. Pairs tied in
either variable add nothing to the numerator. For a stack, each sample
has its own ``G``, all taken by one batched product per block. ``G`` is
accumulated in float64 over blocks of vertices sized so that a block
holds about ``_TAU_SIGNS`` signs (1 MB), so no ``(k, n**2)`` or n×n
float64 array is held. Every entry is an integer below 2**53, so the
sum is exact whatever the block, stack or BLAS summation order, and the
doubling cancels exactly: the result is the float of pair counting.
NaN and infinite inputs are rejected with :class:`ValueError`.
Degenerate inputs are pinned by convention: two constant vectors
correlate at 1.0 (identical trivial rankings), exactly one constant
vector yields 0.0. Both conventions are surfaced as
:data:`TAU_CONVENTIONS` so downstream reports can echo them.

``granularity`` is the percentage of distinct values after rounding to
six decimal places, half away from zero, on the shortest decimal
representation; this matches the fixed 6-decimal print convention and is
bit-reproducible. ``round6`` is that rounding in :mod:`decimal`.
``distinct_counts`` gives the same keys without a ``Decimal`` per value:
it rounds ``|v| * 1e6`` half up in float64 for every row at once, sorts
each row and counts the changes. Only a row holding a value near a
rounding boundary, or too large for exact float integers, counts through
``round6`` (the argument is in its docstring). Granularity rejects NaN
and infinite values.
"""

from __future__ import annotations

import decimal
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

TAU_CONVENTIONS = {"both_constant": 1.0, "one_constant": 0.0}

# Signs per block of the sign matrix, about 1 MB of float64: eight rows
# at n = 500 take blocks of 32 vertices.
_TAU_SIGNS = 1 << 17

_SIX_PLACES = decimal.Decimal("0.000001")

# Wide enough for any float64 magnitude (~1e308) quantized to 6 decimals.
_DECIMAL_CTX = decimal.Context(prec=340, rounding=decimal.ROUND_HALF_UP)


def kendall_tau_b_matrix(rows) -> np.ndarray:
    """The ``(k, k)`` Kendall tau-b matrix of the rows of a ``(k, n)``
    array (n >= 2), or the ``(S, k, k)`` matrices of the samples of a
    ``(S, k, n)`` stack, each bit for bit that of its sample alone."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3):
        raise ValueError(
            f"expected a (k, n) array or a (S, k, n) stack, got {rows.ndim} dimension(s)"
        )
    stack = rows if rows.ndim == 3 else rows[None]
    s, k, n = stack.shape
    if n < 2:
        raise ValueError("need at least two observations")
    if not np.isfinite(stack).all():
        raise ValueError("inputs must be finite (no NaN or inf)")
    block = max(1, _TAU_SIGNS // max(1, s * k * n))
    gram = np.zeros((s, k, k))
    for lo in range(0, n, block):
        signs = stack[:, :, lo : lo + block, None] - stack[:, :, None, :]
        signs = np.sign(signs, out=signs).reshape(s, k, -1)
        gram += signs @ signs.swapaxes(1, 2)
    untied = np.diagonal(gram, axis1=1, axis2=2)
    denom = np.sqrt(untied[:, :, None] * untied[:, None, :])
    tau = np.full((s, k, k), TAU_CONVENTIONS["one_constant"])
    np.divide(gram, denom, out=tau, where=denom > 0)
    constant = untied == 0
    tau[constant[:, :, None] & constant[:, None, :]] = TAU_CONVENTIONS["both_constant"]
    return tau.reshape(*rows.shape[:-1], k)


def kendall_tau_b(x, y) -> float:
    """Kendall tau-b of two equal-length vectors (length >= 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return float(kendall_tau_b_matrix(np.stack((x, y)))[0, 1])


def round6(value: float) -> decimal.Decimal:
    """Round to six decimal places, half away from zero."""
    return decimal.Decimal(repr(float(value))).quantize(
        _SIX_PLACES, rounding=decimal.ROUND_HALF_UP, context=_DECIMAL_CTX
    )


def distinct_counts(rows) -> np.ndarray:
    """Number of distinct values at 6-decimal resolution in each row of a
    ``(k, n)`` array.

    Row r's count equals ``len({round6(v) for v in rows[r]})``, computed
    mostly in float64. For finite ``v``, let ``x = |v|``, ``d`` the value
    of ``repr(x)`` (the shortest decimal that reads back as ``x``) and
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

    So a row holding a value whose ``p`` lies within 4 ulps of a
    half-integer counts that value through ``round6``; every other row
    is counted on its float keys alone, by sorting them and counting the
    changes (``-0.0 == 0.0``, as ``round6`` has it). From ``p >= 2**49``
    on, an ulp is at least 1/8, so every such value is within 4 ulps of
    a half-integer: large values, where float64 steps reach 1 at
    ``2**52``, always take the exact path. Keys are counted in
    millionths: ``round6(v)`` scaled by 1e6 is an integral ``Decimal``,
    and an integral ``Decimal`` equals, and hashes like, the float of the
    same integer, so one set holds both kinds.
    """
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a (k, n) array, got {v.ndim} dimension(s)")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite (no NaN or inf)")
    # The clip keeps huge values from overflowing; they stay above 2**49.
    p = np.minimum(np.abs(v), 1e10) * 1e6
    exact = np.abs(p - np.floor(p) - 0.5) <= 4.0 * np.spacing(p)
    keys = np.copysign(np.floor(p + 0.5), v)
    steps = np.diff(np.sort(keys, axis=1), axis=1)
    counts = np.count_nonzero(steps, axis=1) + int(v.shape[1] > 0)
    for r in np.flatnonzero(exact.any(axis=1)):
        slow = {round6(x).scaleb(6, _DECIMAL_CTX) for x in v[r, exact[r]]}
        counts[r] = len(slow.union(keys[r, ~exact[r]].tolist()))
    return counts


def distinct_count(values) -> int:
    """Number of distinct values at 6-decimal resolution
    (``len({round6(v) for v in values})``; see :func:`distinct_counts`)."""
    return int(distinct_counts(np.asarray(values, dtype=float).reshape(1, -1))[0])


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
