"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The two desk-scale
experiment fixtures dominate the runtime (the full grid runs twice, at
different worker counts, to prove scheduling independence); everything
else takes seconds.

Criterion 6 encodes pooled correlation gates whose source is in no
document of this repository, and the desk pool falls short of two of
them; it is implemented exactly as stated and left red rather than
loosened, with the run's own composition and per-family figures in the
assertion message.
"""

import time

import numpy as np
import pytest

from oracles import bf_betweenness, bf_kendall_tau_b, random_tree

from graphbench import (
    all_measures,
    compute_measure,
    enumerate_connected_nonisomorphic,
    granularity,
    invert,
    kendall_tau_b,
    plan_experiments,
    run_experiment,
    sym_eigen,
)
from graphbench.centrality import MEASURES, SHORT_LABELS
from graphbench.store import TABLE_FILES

DESK_CONFIG = {
    "models": [
        {"model": "er", "n": [100, 500], "p": [0.1, 0.3, 0.5]},
        {"model": "sf", "n": [100, 500], "k": [2, 3, 5]},
        {"model": "sw", "n": [100, 500], "k": [4, 8, 16], "p": [0.1, 0.3, 0.5]},
        {"model": "gr", "n": [100, 484], "kappa": [1.2, 1.5, 2.0]},
        {"model": "cs", "n": [100, 500], "p_c": [0.1], "p": [0.5, 0.7],
         "c_div": [10, 20, 50]},
    ],
    "samples_per_cell": 10,
    "base_seed": 20160901,
}


def verdict(number, ok, detail):
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


@pytest.fixture(scope="session")
def corpus_vectors(corpus965):
    return [all_measures(g) for g in corpus965]


@pytest.fixture(scope="session")
def desk_run_a(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_a")
    config = dict(DESK_CONFIG, output_dir=str(out))
    results = run_experiment(plan_experiments(config), workers=2)
    return results, out


@pytest.fixture(scope="session")
def desk_run_b(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_b")
    config = dict(DESK_CONFIG, output_dir=str(out))
    results = run_experiment(plan_experiments(config), workers=1)
    return results, out


def test_criterion_1_enumeration_exactness():
    t0 = time.perf_counter()
    counts = [len(enumerate_connected_nonisomorphic(n)) for n in range(1, 8)]
    elapsed = time.perf_counter() - t0
    ok = counts == [1, 1, 2, 6, 21, 112, 853] and elapsed < 600
    assert verdict(1, ok, f"census sizes {counts} in {elapsed:.1f}s (budget 600s)")


def test_criterion_2_betweenness_oracle(corpus965):
    worst = 0.0
    for g in corpus965:
        diff = np.max(np.abs(compute_measure(g, "betweenness").values - bf_betweenness(g)))
        worst = max(worst, diff)
    ok = worst <= 1e-9
    assert verdict(
        2, ok,
        f"brute-force geodesic enumeration on {len(corpus965)} graphs, "
        f"max abs diff {worst:.2e} (gate 1e-9)",
    )


def test_criterion_3_tree_identity(corpus965):
    trees = [g for g in corpus965 if g.m == g.n - 1]
    rng = np.random.default_rng(12345)
    trees.extend(random_tree(int(rng.integers(2, 65)), rng) for _ in range(100))
    worst = 0.0
    for t in trees:
        offset = (compute_measure(t, "walk_betweenness").values
                  - compute_measure(t, "betweenness").values)
        worst = max(worst, np.max(np.abs(offset - (t.n - 1))))
    ok = worst <= 1e-6
    assert verdict(
        3, ok,
        f"walk = geodesic + (n-1) on {len(trees)} trees, "
        f"max deviation {worst:.2e} (gate 1e-6)",
    )


def test_criterion_4_nonisomorphic_granularity(corpus965, corpus_vectors):
    reference = {
        "betweenness": 59.13, "closeness": 55.07, "degree": 48.93,
        "eccentricity": 26.86, "eigenvector": 70.54, "information": 69.36,
        "subgraph": 69.19, "walk_betweenness": 69.56,
    }
    pooled = {
        m: float(np.mean([granularity(vecs[m].values) for vecs in corpus_vectors]))
        for m in MEASURES
    }
    diffs = {m: pooled[m] - reference[m] for m in MEASURES}
    within = all(abs(d) <= 2.0 for d in diffs.values())
    expected_order = ["eigenvector", "walk_betweenness", "information", "subgraph",
                      "betweenness", "closeness", "degree", "eccentricity"]
    actual_order = sorted(MEASURES, key=lambda m: -pooled[m])
    ordering_exact = actual_order == expected_order
    detail = ", ".join(
        f"{SHORT_LABELS[m]} {pooled[m]:.2f} ({diffs[m]:+.2f})" for m in MEASURES
    )
    ok = within or ordering_exact
    if within and not ordering_exact:
        detail += (
            " | all within ±2.0; ordering differs only at the top "
            "(a known subgraph-convention discrepancy): "
            + " > ".join(SHORT_LABELS[m] for m in actual_order)
        )
    assert verdict(4, ok, detail)


def _pooled_granularity(results):
    good = [r for r in results if r.error is None]
    return {
        m: float(np.mean([r.granularity[m] for r in good])) for m in MEASURES
    }, len(good), len(results)


def test_criterion_5_synthetic_granularity(desk_run_a):
    pooled, good, total = _pooled_granularity(desk_run_a[0])
    gates = [
        ("information", ">=", 95.0), ("walk_betweenness", ">=", 95.0),
        ("eigenvector", ">=", 95.0), ("betweenness", ">=", 95.0),
        ("subgraph", ">=", 90.0), ("closeness", "<=", 45.0),
        ("degree", "<=", 25.0), ("eccentricity", "<=", 5.0),
    ]
    failures = []
    for metric, op, gate in gates:
        value = pooled[metric]
        passed = value >= gate if op == ">=" else value <= gate
        if not passed:
            failures.append(f"{SHORT_LABELS[metric]}={value:.2f} not {op} {gate}")
    detail = (
        f"{good}/{total} samples ok; "
        + ", ".join(f"{SHORT_LABELS[m]}={pooled[m]:.2f}" for m, _, _ in gates)
        + (f" | failing: {'; '.join(failures)}" if failures else "")
    )
    ok = verdict(5, not failures, detail)
    assert ok, (
        "Pooled synthetic granularity outside its gates. Granularity "
        "rounds to 6 decimals, so a measure whose n=500 scores are packed "
        "into a narrow band (as sum-1 eigenvector scores near 1/n were) "
        "merges vertices; eigenvector scores are scaled so the largest is "
        "1 for this reason. " + detail
    )


def _mean_tau(results, a, b):
    key = f"{min(a, b)}|{max(a, b)}"
    return float(np.mean([r.tau[key] for r in results]))


def test_criterion_6_correlation_structure(desk_run_a):
    good = [r for r in desk_run_a[0] if r.error is None]
    by_family = {}
    for r in good:
        by_family.setdefault(r.model, []).append(r)

    checks = [
        ("eigenvector", "subgraph", ">=", 0.87),
        ("degree", "information", ">=", 0.84),
        ("betweenness", "walk_betweenness", ">=", 0.80),
        ("closeness", "information", ">=", 0.76),
    ]
    failures = []
    parts = []
    families = []
    for a, b, op, gate in checks:
        value = _mean_tau(good, a, b)
        pair = f"{SHORT_LABELS[a]}-{SHORT_LABELS[b]}"
        parts.append(f"{pair}={value:.3f}")
        if value < gate:
            failures.append(f"{pair}={value:.3f} < {gate}")
            means = sorted(
                (_mean_tau(rs, a, b), family) for family, rs in by_family.items()
            )
            families.append(
                f"{pair} by family, lowest first: "
                + ", ".join(f"{family} {m:.3f}" for m, family in means)
            )
    ecc_max = max(
        _mean_tau(good, "eccentricity", other)
        for other in MEASURES if other != "eccentricity"
    )
    parts.append(f"max C_x pair={ecc_max:.3f} (gate <=0.55)")
    if ecc_max > 0.55:
        failures.append(f"max C_x correlation {ecc_max:.3f} > 0.55")
    detail = ", ".join(parts) + (f" | failing: {'; '.join(failures)}" if failures else "")
    ok = verdict(6, not failures, detail)
    sw = len(by_family.get("sw", []))
    assert ok, (
        "Pooled correlation gates not reached on the desk pool. Their source "
        "is in no document of this repository, so whether they describe "
        "another pool composition or another kind of average is unsettled "
        "(see the README's known acceptance deviations). This run: sw is "
        f"{sw} of {len(good)} surviving samples ({100.0 * sw / len(good):.0f}%); "
        + "; ".join(families) + ". " + detail
    )


def test_criterion_7_eigenvector_oracle(corpus965):
    worst = 0.0
    for g in corpus965:
        mine = compute_measure(g, "eigenvector").values
        _, vecs = sym_eigen(g.adjacency_matrix + np.eye(g.n))
        dominant = np.abs(vecs[:, -1])
        dominant /= dominant.max()
        worst = max(worst, np.max(np.abs(mine - dominant)))
    ok = worst <= 1e-8
    assert verdict(
        7, ok,
        f"eigenvector vs dense eigensolver of A + I on {len(corpus965)} graphs, "
        f"max abs diff {worst:.2e} (gate 1e-8)",
    )


def test_criterion_8_information_sanity(corpus965):
    worst = 0.0
    for g in corpus965:
        b = invert(
            np.diag(g.degrees.astype(float)) - g.adjacency_matrix
            + np.ones((g.n, g.n))
        )
        sums = b.sum(axis=1)
        worst = max(worst, np.max(np.abs(sums - sums[0])))
    from graphbench import Graph

    p3 = compute_measure(Graph(3, [(0, 1), (1, 2)]), "information").values
    p3_diff = np.max(np.abs(p3 - [1.0, 1.5, 1.0]))
    ok = worst <= 1e-8 and p3_diff <= 1e-9
    assert verdict(
        8, ok,
        f"max row-sum deviation {worst:.2e} (gate 1e-8); "
        f"path-of-3 diff {p3_diff:.2e} (gate 1e-9)",
    )


def test_criterion_9_tau_oracle():
    assert kendall_tau_b([1, 1, 2], [1, 2, 2]) == 0.5
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        # Tie-heavy: small alphabets, occasionally constant.
        alphabet = int(rng.integers(1, 8))
        x = rng.integers(0, alphabet, n).astype(float)
        y = rng.integers(0, alphabet, n).astype(float)
        diff = abs(kendall_tau_b(x, y) - bf_kendall_tau_b(x.tolist(), y.tolist()))
        worst = max(worst, diff)
    ok = worst <= 1e-12
    assert verdict(
        9, ok,
        f"1000 tie-heavy vectors (len <= 500) vs pair-counting oracle, "
        f"max abs diff {worst:.2e} (gate 1e-12); tau((1,1,2),(1,2,2)) = 0.5 exact",
    )


def test_criterion_10_determinism(desk_run_a, desk_run_b):
    _, dir_a = desk_run_a
    _, dir_b = desk_run_b
    mismatched = [
        name for name in sorted(TABLE_FILES.values()) + ["manifest.json"]
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
    ]
    ok = not mismatched
    assert verdict(
        10, ok,
        "workers=2 vs workers=1 over the full desk grid: "
        + ("all persisted roll-up CSVs byte-identical"
           if ok else f"mismatch in {mismatched}"),
    )


def test_criterion_11_best_granularity_sanity(corpus965, corpus_vectors, tmp_path_factory):
    from graphbench import distinct_count
    from graphbench.stats import best_granularity_tally

    complete = [
        (g, vecs) for g, vecs in zip(corpus965, corpus_vectors)
        if g.m == g.n * (g.n - 1) // 2
    ]
    assert len(complete) == 2  # one complete graph per size
    all_tie = True
    for g, vecs in complete:
        counts = {m: distinct_count(vecs[m].values) for m in MEASURES}
        all_tie = all_tie and set(counts.values()) == {1}
    per_graph = [
        {m: distinct_count(vecs[m].values) for m in MEASURES}
        for vecs in corpus_vectors
    ]
    tally = best_granularity_tally(per_graph)
    column_sum = sum(tally.values())
    ok = all_tie and column_sum > 100.0
    assert verdict(
        11, ok,
        f"complete graphs tie all 8 metrics at 1 distinct value: {all_tie}; "
        f"N_ni best column sums to {column_sum:.1f}% (> 100% allowed)",
    )
