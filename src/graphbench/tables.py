"""Roll-up tables and the heatmap, from sample records.

:func:`write_all_tables` is the only path from samples to the roll-up
CSVs, and every mean with a CI in them goes through :func:`_mean_cells`.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from . import stats
from .centrality import MEASURES, SHORT_LABELS
from .plan import _DEFAULT_CONFIDENCE
from .store import _PAIR_KEYS, TABLE_FILES, RunResult, _pair

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
