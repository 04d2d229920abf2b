"""Roll-up tables and the heatmap, from sample records.

:func:`write_all_tables` is the only path from samples to the roll-up
CSVs, and every mean with a CI in them goes through :func:`_mean_cells`.
The records' values are gathered once into arrays, one row per record
(:func:`_gather`). A cell, such as one family's tau values for one pair,
is a row of a ``(cells, records)`` table whose present entries are its
values, in record order; the cells of equal length are stacked as the
rows of one array and reduced together along its last axis
(:func:`_by_length`), bit for bit as each would be alone.
"""

from __future__ import annotations

import itertools
import operator
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
CORPUS_ORDER = ("complex_models", "nonisomorphic")

# The measure pairs in the row order of correlation_by_model.csv.
_PAIR_PAIRS = tuple(itertools.combinations(CORRELATION_ORDER, 2))
_PAIR_ORDER = tuple(_pair(a, b) for a, b in _PAIR_PAIRS)


def _ok(results) -> list[RunResult]:
    good = [r for r in results if r.error is None]
    if not good:
        raise ValueError("no successful results to tabulate")
    return good


def _fmt(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    return text.lstrip("-") if float(text) == 0 else text


def _gather(maps, keys) -> tuple[np.ndarray, np.ndarray]:
    """``(values, present)``, both ``(len(maps), len(keys))``: row r holds
    ``maps[r][key]`` in the column of each key it has (0.0 where it has
    none), and ``present`` marks the keys it has."""
    shape = (len(maps), len(keys))
    try:
        rows = itertools.chain.from_iterable(map(operator.itemgetter(*keys), maps))
        values = np.fromiter(rows, float, count=shape[0] * shape[1]).reshape(shape)
        return values, np.ones(shape, dtype=bool)
    except KeyError:  # a record without some of the keys
        values = [[m.get(key, 0.0) for key in keys] for m in maps]
        present = [[key in m for key in keys] for m in maps]
        return (np.array(values, dtype=float).reshape(shape),
                np.array(present, dtype=bool).reshape(shape))


def _split(values, present, labels, order) -> tuple[np.ndarray, np.ndarray]:
    """The cells of every column of ``values`` and label in ``order``,
    as a ``(columns * len(order), records)`` table and its ``present``
    mask: row ``j * len(order) + g`` holds column j's values of the
    records whose label is ``order[g]``."""
    index = {label: g for g, label in enumerate(order)}
    ids = np.array([index.get(label, -1) for label in labels])
    member = ids == np.arange(len(order))[:, None]
    table = np.repeat(values.T, len(order), axis=0)
    mask = (present.T[:, None, :] & member).reshape(len(table), -1)
    return table, mask


def _by_length(table, present):
    """The cells of ``table`` grouped by length: yields each length, the
    rows of its cells and their values stacked as one C-contiguous
    ``(cells, length)`` array, each row in record order."""
    lengths = np.count_nonzero(present, axis=1)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        values = table[rows][present[rows]].reshape(len(rows), length)
        yield length, rows, np.ascontiguousarray(values)


def _mean_cells(table, present, confidence, decimals: int = 2) -> list[list[str]]:
    """Each cell's mean and CI half-width, formatted, by
    :func:`stats.mean_ci` on the stacked cells of each length: the
    half-width is empty for a single value, and both are for an empty
    cell."""
    cells = [["", ""]] * len(table)
    for length, rows, values in _by_length(table, present):
        if length == 1:
            means, halves = values[:, 0].tolist(), [None] * len(rows)
        elif length > 1:
            means, halves = (x.tolist() for x in stats.mean_ci(values, confidence))
        else:
            continue
        for row, mean, half in zip(rows.tolist(), means, halves):
            cells[row] = [_fmt(mean, decimals), "" if half is None else _fmt(half, decimals)]
    return cells


def _tau_table(good) -> tuple[np.ndarray, np.ndarray]:
    """Every good record's tau, one row each, in :data:`_PAIR_ORDER`."""
    return _gather([r.tau for r in good], _PAIR_ORDER)


def _pooled_means(tau, present) -> dict[str, float]:
    """Each pair's mean tau over the records that have it."""
    means = {}
    for length, rows, values in _by_length(tau.T, present.T):
        if length:
            means.update(zip([_PAIR_ORDER[row] for row in rows.tolist()],
                             values.mean(axis=1).tolist()))
    return means


def correlation_matrix(results) -> dict[str, float]:
    """Pooled mean tau-b per pair key ``"a|b"`` over all successful results."""
    return _pooled_means(*_tau_table(_ok(results)))


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


def _corpus_group(r: RunResult) -> str:
    """The granularity tables pool the census apart from the random models."""
    return "nonisomorphic" if r.model == "nonisomorphic" else "complex_models"


def _granularity_csv(values, present, corpus, confidence) -> str:
    cells = _mean_cells(*_split(values, present, corpus, CORPUS_ORDER), confidence)
    lines = ["metric,complex_models_mean,complex_models_ci,nonisomorphic_mean,nonisomorphic_ci"]
    for j, metric in enumerate(GRANULARITY_ORDER):
        complex_models, nonisomorphic = cells[2 * j : 2 * j + 2]
        lines.append(",".join([SHORT_LABELS[metric], *complex_models, *nonisomorphic]))
    return "\n".join(lines) + "\n"


def _granularity_by_size_csv(values, present, corpus, sizes, confidence) -> str:
    """Granularity broken down by corpus group and vertex count, so pooled
    means (one weight per network) can be compared with per-size means."""
    labels = list(zip(corpus, sizes))
    groups = sorted(set(labels))
    table, mask = _split(values, present, labels, groups)
    cells = _mean_cells(table, mask, confidence)
    nonempty = mask.any(axis=1).tolist()
    lines = ["metric,group,n,mean,ci"]
    for j, metric in enumerate(GRANULARITY_ORDER):
        for g, (name, n) in enumerate(groups):
            row = j * len(groups) + g
            if nonempty[row]:
                mean, half = cells[row]
                lines.append(f"{SHORT_LABELS[metric]},{name},{n},{mean},{half}")
    return "\n".join(lines) + "\n"


def _best_csv(counts, present, families) -> str:
    header = "metric," + ",".join(FAMILY_LABELS[f] for f in FAMILY_ORDER)
    families = np.array(families)
    percents: dict[str, dict[str, float]] = {}
    for family in FAMILY_ORDER:
        rows = (families == family) & present.any(axis=1)
        if not rows.any():
            continue
        have = present[rows]
        if (have != have[0]).any():
            raise ValueError("inconsistent metric sets across networks")
        metrics = [m for m, kept in zip(GRANULARITY_ORDER, have[0].tolist()) if kept]
        shares = stats.best_shares(counts[rows][:, have[0]])
        percents[family] = dict(zip(metrics, shares.tolist()))
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


def _correlation_by_model_csv(tau, present, families, confidence) -> str:
    order = [family for family in FAMILY_ORDER if family in set(families)]
    table, mask = _split(tau, present, families, order)
    counts = np.count_nonzero(mask, axis=1).tolist()
    cells = _mean_cells(table, mask, confidence, decimals=6)
    lines = ["model,pair,mean_tau,count,ci_half_width"]
    for g, family in enumerate(order):
        for j, (a, b) in enumerate(_PAIR_PAIRS):
            row = j * len(order) + g
            if counts[row]:
                mean, half = cells[row]
                lines.append(
                    f"{FAMILY_LABELS[family]},{SHORT_LABELS[a]}|{SHORT_LABELS[b]},"
                    f"{mean},{counts[row]},{half}"
                )
    return "\n".join(lines) + "\n"


def write_all_tables(results, out_dir, confidence: float = _DEFAULT_CONFIDENCE) -> dict:
    """Write every roll-up CSV into ``out_dir``; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    good = _ok(results)
    families = [r.model for r in good]
    corpus = [_corpus_group(r) for r in good]
    tau = _tau_table(good)
    granularity = _gather([r.granularity for r in good], GRANULARITY_ORDER)
    content = {
        "correlation": _correlation_csv(_pooled_means(*tau)),
        "correlation_by_model": _correlation_by_model_csv(*tau, families, confidence),
        "granularity": _granularity_csv(*granularity, corpus, confidence),
        "granularity_by_size": _granularity_by_size_csv(
            *granularity, corpus, [r.n for r in good], confidence),
        "best": _best_csv(*_gather([r.distinct_counts for r in good], GRANULARITY_ORDER),
                          families),
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
