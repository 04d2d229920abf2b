import json
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    DENSITY_CUT_SAMPLES,
    bf_betweenness,
    bf_subgraph_series,
    bf_walk_betweenness,
    dense_betweenness,
    exact_equal_pairs,
    random_tree,
    sample_id,
    seeded_sample,
    unblocked_walk_betweenness,
)

from graphbench import (
    Graph,
    DisconnectedGraphError,
    all_measures,
    centrality_csv,
    compute_measure,
    enumerate_connected_nonisomorphic,
    erdos_renyi,
    sym_eigen,
)
from graphbench import centrality
from graphbench.centrality import _TABLE, MEASURES, _inverse, measure_stack
from graphbench.graphs import GeodesicData, GraphStack

P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
STAR5 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def _complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _kernel(g, measure):
    """The measure's kernel on the stack of one, before the tie snap."""
    return _TABLE[measure].kernel(GraphStack([g]))[0]


def _random_connected(n, p, seed):
    for offset in range(50):
        g = erdos_renyi(n, p, seed + offset)
        from graphbench import is_connected

        if is_connected(g):
            return g
    raise AssertionError("could not draw a connected test graph")


def _connected_with_edges(n, m, seed):
    """A random spanning tree on n vertices topped up to exactly m edges."""
    rng = np.random.default_rng(seed)
    edges = set(map(tuple, random_tree(n, rng).edges.tolist()))
    while len(edges) < m:
        a, b = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((a, b))
    return Graph(n, sorted(edges))


class TestDegree:
    def test_examples(self):
        assert np.array_equal(compute_measure(K3, "degree").values, [2, 2, 2])
        assert np.array_equal(compute_measure(P3, "degree").values, [1, 2, 1])
        assert np.array_equal(compute_measure(STAR5, "degree").values, [4, 1, 1, 1, 1])


class TestCloseness:
    def test_examples(self):
        assert np.allclose(compute_measure(K3, "closeness").values, [0.5, 0.5, 0.5])
        assert np.allclose(compute_measure(P3, "closeness").values, [1 / 3, 1 / 2, 1 / 3])
        assert np.allclose(compute_measure(P4, "closeness").values, [1 / 6, 1 / 4, 1 / 4, 1 / 6])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            compute_measure(Graph(3, [(0, 1)]), "closeness")


class TestEccentricity:
    def test_examples(self):
        assert np.allclose(compute_measure(K3, "eccentricity").values, [1, 1, 1])
        assert np.allclose(compute_measure(P3, "eccentricity").values, [0.5, 1.0, 0.5])
        assert np.allclose(compute_measure(_cycle(5), "eccentricity").values, 0.5)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            compute_measure(Graph(1), "eccentricity")

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            compute_measure(Graph(3, [(0, 1)]), "eccentricity")


class TestBetweenness:
    def test_examples(self):
        assert np.allclose(compute_measure(_complete(5), "betweenness").values, 0.0)
        assert np.allclose(compute_measure(P3, "betweenness").values, [0, 1, 0])
        assert np.allclose(compute_measure(STAR4, "betweenness").values, [3, 0, 0, 0])

    def test_matches_geodesic_enumeration(self, corpus_small):
        for g in corpus_small:
            values = compute_measure(g, "betweenness").values
            assert np.max(np.abs(values - bf_betweenness(g))) <= 1e-9

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = _random_connected(int(rng.integers(5, 20)), 0.35, int(rng.integers(1e6)))
            values = compute_measure(g, "betweenness").values
            assert np.max(np.abs(values - bf_betweenness(g))) <= 1e-9

    @pytest.mark.parametrize("spec", DENSITY_CUT_SAMPLES, ids=sample_id)
    def test_matches_dense_kernel(self, spec):
        # The dense branch repeats the kernel's products; the CSR branch
        # sums each product in CSR order instead of BLAS order.
        g = seeded_sample(*spec)
        values, expected = compute_measure(g, "betweenness").values, dense_betweenness(g)
        if g.adjacency_operator is g.adjacency_matrix:
            assert np.array_equal(values, expected)
        else:
            assert np.max(np.abs(values - expected) / expected.clip(min=1.0)) <= 1e-12

    def test_census_bit_identical_to_dense_kernel(self, corpus965):
        for g in corpus965:
            assert np.array_equal(_kernel(g, "betweenness"), dense_betweenness(g))


class TestEigenvector:
    def test_uniform_on_complete(self):
        assert np.allclose(compute_measure(_complete(6), "eigenvector").values, 1.0)

    def test_star_center_dominates(self):
        values = compute_measure(STAR4, "eigenvector").values
        assert values[0] > values[1]
        assert np.allclose(values[1:], values[1])

    def test_matches_dense_eigensolver(self):
        for g in (P3, P4, K3, STAR5, _cycle(7)):
            values = compute_measure(g, "eigenvector").values
            _, vecs = sym_eigen(g.adjacency_matrix + np.eye(g.n))
            dominant = np.abs(vecs[:, -1])
            dominant /= dominant.max()
            assert np.max(np.abs(values - dominant)) <= 1e-8


class TestInformation:
    def test_vertex_transitive_constant(self):
        for g in (K3, _cycle(4)):
            values = compute_measure(g, "information").values
            assert np.allclose(values, values[0])

    def test_path_hand_inversion(self):
        assert np.max(np.abs(compute_measure(P3, "information").values - [1.0, 1.5, 1.0])) <= 1e-9

    def test_row_sums_constant(self, corpus_small):
        for g in corpus_small:
            if g.n < 2:
                continue
            b = centrality.invert(
                np.diag(g.degrees.astype(float)) - g.adjacency_matrix + np.ones((g.n, g.n))
            )
            sums = b.sum(axis=1)
            assert np.max(np.abs(sums - sums[0])) <= 1e-8
            # (D - A + U) @ (1/n) = all-ones, so every row of B sums to 1/n.
            assert sums[0] == pytest.approx(1.0 / g.n, abs=1e-10)

    def test_uneven_row_sums_raise(self, monkeypatch):
        invert = centrality.invert

        def perturbed(a):
            b = invert(a)
            b[0, 0] += 1e-6
            return b

        monkeypatch.setattr(centrality, "invert", perturbed)
        with pytest.raises(ArithmeticError, match="row sums"):
            compute_measure(P4, "information")


class TestSubgraph:
    def test_single_vertex(self):
        assert np.allclose(compute_measure(Graph(1), "subgraph").values, [1.0])

    def test_edge_is_cosh_one(self):
        values = compute_measure(Graph(2, [(0, 1)]), "subgraph").values
        assert np.max(np.abs(values - np.cosh(1.0))) <= 1e-12

    def test_path_ordering_and_series_oracle(self):
        values = compute_measure(P3, "subgraph").values
        series = bf_subgraph_series(P3)
        assert values[1] > values[0]
        assert values[0] == pytest.approx(values[2], abs=1e-12)
        assert np.max(np.abs(values - series)) <= 1e-8

    def test_series_oracle_on_corpus(self, corpus_small):
        for g in corpus_small:
            values = compute_measure(g, "subgraph").values
            assert np.max(np.abs(values - bf_subgraph_series(g))) <= 1e-8

    def test_at_least_one_and_trace_identity(self, corpus_small):
        for g in corpus_small:
            values = compute_measure(g, "subgraph").values
            lam, _ = sym_eigen(g.adjacency_matrix)
            assert np.all(values >= 1.0 - 1e-12)
            assert values.sum() == pytest.approx(np.exp(lam).sum(), abs=1e-8)


class TestStacks:
    """Every measure takes a stack of graphs on one vertex count in one
    call; each graph's result is bit for bit its stack of one."""

    def test_scores_stack_matches_stack_of_one(self, corpus6, corpus7):
        for corpus in (corpus6, corpus7):
            for m in MEASURES:
                rows = measure_stack(corpus, m)
                assert rows.shape == (len(corpus), corpus[0].n)
                for row, g in zip(rows, corpus):
                    assert row.tobytes() == compute_measure(g, m).values.tobytes(), m

    def test_unpickled_census_stack_stays_read_only(self):
        # numpy does not pickle the writeable flag. A census stack reaches a
        # pool worker pickled, before any measure (fresh) or, from another
        # caller, with its spectrum and inverse kept (measured).
        def arrays(stack):
            found = {}
            for name, value in vars(stack).items():
                if isinstance(value, GeodesicData):
                    value = tuple(vars(value).values())
                for i, array in enumerate(value if isinstance(value, tuple) else (value,)):
                    if isinstance(array, np.ndarray):
                        found[f"{name}[{i}]"] = array
            return found

        stack = enumerate_connected_nonisomorphic(6)
        fresh = pickle.loads(pickle.dumps(stack))
        scores = {m: measure_stack(stack, m) for m in MEASURES}
        measured = pickle.loads(pickle.dumps(stack))
        for copy in (fresh, measured):
            for m in MEASURES:
                assert measure_stack(copy, m).tobytes() == scores[m].tobytes(), m
            found = arrays(copy)
            assert {"adjacency[0]", "edges[0]", "geodesics[0]", "geodesics[1]",
                    "connected[0]", "_spectrum[1]", "_inverse[0]"} <= found.keys()
            assert found.keys() == arrays(stack).keys()
            assert not any(a.flags.writeable for a in found.values()), [
                name for name, a in found.items() if a.flags.writeable]

    def test_stack_needs_one_vertex_count(self):
        for m in MEASURES:
            with pytest.raises(ValueError, match="one vertex count"):
                measure_stack([P3, P4], m)
            with pytest.raises(ValueError, match="one vertex count"):
                measure_stack([], m)

    def test_disconnected_graph_fails_the_stack(self):
        for m in ("betweenness", "closeness", "eccentricity", "eigenvector",
                  "information", "walk_betweenness"):
            with pytest.raises(DisconnectedGraphError, match=m):
                measure_stack([P3, Graph(3, [(0, 1)])], m)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown measure 'pagerank'"):
            measure_stack([P3], "pagerank")

    def test_scores_match_pinned_hashes(self):
        # First 16 hex digits of the sha256 of each kernel's score bytes,
        # before the tie snap, in an interpreter with BLAS on one thread:
        # a threaded eigh rounds differently at n = 500. The pins were
        # captured from the per-graph kernels that the stack kernels
        # replaced; eigenvector's and walk betweenness's were recaptured
        # when they began to read the stack's eigh and B, walk
        # betweenness's again when its endpoint sums became the O(1)
        # maximum-principle formula, and information's and walk
        # betweenness's when B became the Cholesky inverse, and walk
        # betweenness's on the graphs above 2,048 edges (er500, gr484,
        # cs500) when it began to accumulate every u-end before every
        # v-end. The census corpora run as whole stacks; each drawn sample
        # is a stack of one.
        pinned = {
            "corpus6": {
                "betweenness": "4605787899557a96",
                "closeness": "65f8f9261c8c7a4d",
                "degree": "bd3a4e42537286ce",
                "eccentricity": "274eb5faa38e026f",
                "eigenvector": "d0694c7af4a73be3",
                "information": "5da67031a08119a4",
                "subgraph": "4c9b61214edfb641",
                "walk_betweenness": "1670598f2b19cb49",
            },
            "corpus7": {
                "betweenness": "31187d11db8c67df",
                "closeness": "936e11de9c7138ae",
                "degree": "8f35e6ae4dfeba77",
                "eccentricity": "9740442453a73330",
                "eigenvector": "df24ca3677b36907",
                "information": "2c6b096db7fb8d21",
                "subgraph": "b3c14a4c5eb0e052",
                "walk_betweenness": "1af9dcb050ddd0e0",
            },
            "er100": {
                "operator": "ndarray",
                "betweenness": "68741371e63668db",
                "closeness": "815dbfe181dcf60e",
                "degree": "7b080c89f37d0940",
                "eccentricity": "ae2aec2f0c595567",
                "eigenvector": "f6e4b4189d2e1461",
                "information": "ccd66b302cfcd437",
                "subgraph": "1c7107f3ed8aa0f0",
                "walk_betweenness": "cd8400d979eec82e",
            },
            "er500": {
                "operator": "ndarray",
                "betweenness": "b7da50c788e56d4e",
                "closeness": "33343277ea264fe0",
                "degree": "eb6302161cfad124",
                "eccentricity": "64cb23f92dd28e65",
                "eigenvector": "b12d1952b37c9bc2",
                "information": "ae58bbf8f7ee3564",
                "subgraph": "ecadc1169ee0e255",
                "walk_betweenness": "a984a184c057623e",
            },
            "gr484": {
                "operator": "ndarray",
                "betweenness": "7d226e408eb64f04",
                "closeness": "9ccd6156033244c2",
                "degree": "73c4319dfbf332f1",
                "eccentricity": "e201969f0c51449e",
                "eigenvector": "c248ec8e7634ddc6",
                "information": "988fa740bcdf1cb0",
                "subgraph": "f1328dae8d3e6c2b",
                "walk_betweenness": "6d5cad6a0549b623",
            },
            "cs500": {
                "operator": "ndarray",
                "betweenness": "f9503a4c074f9df9",
                "closeness": "57d8722ff5da8730",
                "degree": "260cbeb2e576271e",
                "eccentricity": "9cc826bd34c34d3d",
                "eigenvector": "f4673d2b9623c8ba",
                "information": "f7fc9a1e447c0999",
                "subgraph": "5c023519216d1424",
                "walk_betweenness": "3afb6f82eae61403",
            },
            "sw500": {
                "operator": "csr_array",
                "betweenness": "18e4f1ddadc323c0",
                "closeness": "42b0e096b8ca4ebd",
                "degree": "23d875b91495b8c0",
                "eccentricity": "ac66898a7dc171f8",
                "eigenvector": "3d01bc7ef65713d1",
                "information": "3a2bb3d548b0d3ca",
                "subgraph": "7e10e22b2a24f11a",
                "walk_betweenness": "266a7375959c2d21",
            },
        }
        code = textwrap.dedent("""
            import hashlib, json
            from oracles import seeded_sample
            from graphbench import enumerate_connected_nonisomorphic
            from graphbench.centrality import _TABLE, MEASURES
            from graphbench.graphs import GraphStack

            def digest(graphs):
                stack = GraphStack(graphs)
                return {m: hashlib.sha256(_TABLE[m].kernel(stack).tobytes()).hexdigest()[:16]
                        for m in MEASURES}

            out = {f"corpus{n}": digest(enumerate_connected_nonisomorphic(n)) for n in (6, 7)}
            for spec in (("er", 100, {"p": 0.1}), ("er", 500, {"p": 0.1}),
                         ("gr", 484, {"kappa": 1.2}),
                         ("cs", 500, {"p_c": 0.1, "p": 0.5, "c": 50}),
                         ("sw", 500, {"k": 4, "p": 0.1})):
                g = seeded_sample(*spec)
                out[f"{spec[0]}{spec[1]}"] = {
                    "operator": type(g.adjacency_operator).__name__, **digest([g])}
            print(json.dumps(out))
        """)
        here = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        assert json.loads(done.stdout) == pinned


class TestWalkBetweenness:
    def test_path(self):
        assert np.max(np.abs(compute_measure(P3, "walk_betweenness").values - [2, 3, 2])) <= 1e-9

    def test_triangle(self):
        assert np.max(np.abs(compute_measure(K3, "walk_betweenness").values - (2 + 1 / 3))) <= 1e-9

    def test_matches_per_pair_current_solve(self, corpus_small):
        for g in corpus_small:
            if g.n < 2:
                continue
            mine = compute_measure(g, "walk_betweenness").values
            assert np.max(np.abs(mine - bf_walk_betweenness(g))) <= 1e-8

    def test_tree_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            tree = random_tree(int(rng.integers(2, 40)), rng)
            offset = (compute_measure(tree, "walk_betweenness").values
                      - compute_measure(tree, "betweenness").values)
            assert np.max(np.abs(offset - (tree.n - 1))) <= 1e-6

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            compute_measure(Graph(3, [(0, 1)]), "walk_betweenness")

    # Edge counts inside one row block, with a one-row last block (385,
    # 2049, 2177), and larger (2048, 4500). The kernel gathers and sorts
    # per row block, the oracle the whole edge array at once.
    @pytest.mark.parametrize("n, m", [(60, 90), (200, 385), (500, 2048),
                                      (500, 2049), (500, 2177), (300, 4500)])
    def test_bit_identical_to_unblocked_kernel(self, n, m):
        g = _connected_with_edges(n, m, seed=0)
        assert g.m == m
        assert np.array_equal(_kernel(g, "walk_betweenness"), unblocked_walk_betweenness(g))


def _explicit_walk_betweenness(stack):
    """Walk betweenness of every graph of ``stack`` from the explicit endpoint
    sums ``sum_i |x_i - x_u|`` and ``sum_i |x_i - x_v|``, x = T[u] - T[v] for
    each edge (u, v) and the kernel's T. On the way it asserts the maximum
    principle the kernel relies on, within 1e-12 relative: every
    ``x_i - x_u <= 0`` and ``x_i - x_v >= 0``, so the two sums are
    ``n x_u - sum(x)`` and ``sum(x) - n x_v``."""
    k, n = len(stack), stack.n
    # The stack's edge endpoints number the rows of all k potentials at once.
    t = np.swapaxes(_inverse(stack), 1, 2).reshape(k * n, n)
    rank_weights = 2.0 * np.arange(n) - (n - 1)
    acc = np.zeros(k * n)
    for lo in range(0, len(stack.edges), 256):
        u, v = stack.edges[lo : lo + 256].T
        rows = np.arange(len(u))
        x = t[u] - t[v]
        x_u, x_v = x[rows, u % n, None], x[rows, v % n, None]
        scale = 1e-12 * np.abs(x).max(axis=1)
        assert np.all((x - x_u).max(axis=1) <= scale)
        assert np.all((x_v - x).max(axis=1) <= scale)
        pairs_u = np.abs(x - x_u).sum(axis=1)
        pairs_v = np.abs(x - x_v).sum(axis=1)
        sum_x = x.sum(axis=1)
        assert np.all(np.abs(n * x_u[:, 0] - sum_x - pairs_u) <= 1e-12 * pairs_u)
        assert np.all(np.abs(sum_x - n * x_v[:, 0] - pairs_v) <= 1e-12 * pairs_v)
        total = np.sort(x, axis=1) @ rank_weights
        np.add.at(acc, u, total - pairs_u)
        np.add.at(acc, v, total - pairs_v)
    return 0.5 * acc.reshape(k, n) + (n - 1)


class TestMaximumPrinciple:
    """The kernel's O(1) endpoint sums hold on every edge, and its scores
    are those of the explicit sums within 1e-12, relative."""

    @pytest.mark.parametrize("spec", [
        ("er", 30, {"p": 0.3}),
        ("sf", 100, {"k": 3}),
        ("sw", 200, {"k": 8, "p": 0.1}),
        ("gr", 484, {"kappa": 1.5}),
        ("cs", 500, {"p_c": 0.1, "c": 50, "p": 0.5}),
        ("er", 500, {"p": 0.1}),
    ], ids=sample_id)
    def test_seeded_samples(self, spec):
        g = seeded_sample(*spec)
        explicit = _explicit_walk_betweenness(GraphStack([g]))[0]
        assert np.all(np.abs(_kernel(g, "walk_betweenness") - explicit) <= 1e-12 * explicit)

    def test_census(self, corpus6, corpus7):
        for stack in (corpus6, corpus7):
            explicit = _explicit_walk_betweenness(stack)
            kernel = _TABLE["walk_betweenness"].kernel(stack)
            assert np.all(np.abs(kernel - explicit) <= 1e-12 * explicit)


# Degree, closeness and eccentricity scores must be the float64 nearest
# their exact values, and every other snapped score within EXACT_REL_TOL
# of its exact value, relative. Eigenvector's error is taken relative to
# the graph's largest score, the scale its scores are divided by: eigh's
# vector error is absolute, about 3e-15 on the census, and reaches 1.1e-14
# relative at the 0.078 score of one graph (corpus965[661]).
CORRECTLY_ROUNDED = ("closeness", "degree", "eccentricity")
EXACT_REL_TOL = 1e-14


class TestExact:
    """Every snapped score of the 965 census graphs on 6 and 7 vertices
    against :func:`oracles.exact_scores`."""

    @staticmethod
    def _snapped(corpus6, corpus7, measure):
        return [row for corpus in (corpus6, corpus7) for row in measure_stack(corpus, measure)]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_within_bound_of_exact_value(self, measure, corpus6, corpus7, exact965):
        mpmath = pytest.importorskip("mpmath")
        snapped = self._snapped(corpus6, corpus7, measure)
        for i, (row, exact) in enumerate(zip(snapped, exact965)):
            exact = exact[measure]
            if measure in CORRECTLY_ROUNDED:
                assert row.tolist() == [float(x) for x in exact], (measure, i)
                continue
            for value, x in zip(row.tolist(), exact):
                if isinstance(x, Fraction):
                    error = abs(Fraction(value) - x)
                else:
                    error = abs(mpmath.mpf(value) - x)
                scale = max(exact) if measure == "eigenvector" else abs(x)
                assert error <= EXACT_REL_TOL * scale, (measure, i, value, x)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_snapped_classes_are_exact_classes(self, measure, corpus6, corpus7, exact965):
        snapped = self._snapped(corpus6, corpus7, measure)
        for i, (row, exact) in enumerate(zip(snapped, exact965)):
            equal = {(a, b) for a, b in combinations(range(len(row)), 2) if row[a] == row[b]}
            assert equal == exact_equal_pairs(exact[measure]), (measure, i)


# One seeded sample per generated model at n = 30, 100, 200 (geographical
# graphs need a square vertex count: 36, 100, 196), on both sides of the
# density cut of Graph.adjacency_operator, and one Kronecker graph on
# 2**7 vertices with a core-periphery initiator.
NETWORKX_SAMPLES = [
    spec
    for n, gr_n, cs in [(30, 36, {"p_c": 0.5, "c": 10, "p": 0.3}),
                        (100, 100, {"p_c": 0.3, "c": 20, "p": 0.3}),
                        (200, 196, {"p_c": 0.3, "c": 20, "p": 0.1})]
    for spec in [("er", n, {"p": {30: 0.2, 100: 0.1, 200: 0.05}[n]}),
                 ("sf", n, {"k": 2}),
                 ("sw", n, {"k": 4, "p": 0.1}),
                 ("gr", gr_n, {"kappa": 1.5}),
                 ("cs", n, cs)]
] + [("kg", 128, {"initiator": (0.99, 0.7, 0.7, 0.3), "k": 7})]


class TestNetworkx:
    """Every measure but degree against networkx, under pinned convention maps."""

    @staticmethod
    def _pair(spec):
        nx = pytest.importorskip("networkx")
        g = seeded_sample(*spec)
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges.tolist())
        return nx, g, h

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_betweenness(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.betweenness_centrality(h, normalized=False)
        expected = np.array([ref[v] for v in range(g.n)])
        assert np.max(np.abs(compute_measure(g, "betweenness").values - expected)
                      / expected.clip(min=1.0)) <= 1e-12

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_closeness(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.closeness_centrality(h)
        expected = np.array([ref[v] for v in range(g.n)]) / (g.n - 1)
        assert np.allclose(compute_measure(g, "closeness").values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_eccentricity(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.eccentricity(h)
        expected = 1.0 / np.array([ref[v] for v in range(g.n)])
        assert np.array_equal(compute_measure(g, "eccentricity").values, expected)

    @staticmethod
    def _values(ref, g):
        return np.array([ref[v] for v in range(g.n)])

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_information(self, spec):
        nx, g, h = self._pair(spec)
        expected = g.n * self._values(nx.information_centrality(h), g)
        values = compute_measure(g, "information").values
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_walk_betweenness(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.current_flow_betweenness_centrality(h, normalized=False)
        expected = self._values(ref, g) + (g.n - 1)
        values = compute_measure(g, "walk_betweenness").values
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_subgraph(self, spec):
        nx, g, h = self._pair(spec)
        expected = self._values(nx.subgraph_centrality(h), g)
        assert np.allclose(compute_measure(g, "subgraph").values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_eigenvector(self, spec):
        # networkx's scipy eigensolver is good to about 1e-8 here.
        nx, g, h = self._pair(spec)
        expected = self._values(nx.eigenvector_centrality_numpy(h), g)
        expected /= expected.max()
        assert np.max(np.abs(compute_measure(g, "eigenvector").values - expected)) <= 1e-8


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            g = _random_connected(int(rng.integers(5, 14)), 0.4, int(rng.integers(1e6)))
            perm = rng.permutation(g.n)
            h = g.relabel(perm)
            for name in MEASURES:
                original = compute_measure(g, name).values
                permuted = compute_measure(h, name).values
                assert np.max(np.abs(permuted[perm] - original)) <= 1e-9, name

    def test_vertex_transitive_graphs_constant(self):
        for g in (_cycle(5), _cycle(8), _complete(4), _complete(7)):
            for name, vec in all_measures(g).items():
                assert np.allclose(vec.values, vec.values[0], atol=1e-9), name

    def test_measures_reject_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for name in ("closeness", "eccentricity", "betweenness", "eigenvector",
                     "information", "walk_betweenness"):
            with pytest.raises(DisconnectedGraphError):
                compute_measure(g, name)
        assert np.array_equal(compute_measure(g, "degree").values, [1, 1, 1, 1])
        values = compute_measure(g, "subgraph").values
        assert np.allclose(values, np.cosh(1.0), rtol=1e-12, atol=0.0)

    def test_single_vertex_rule(self):
        g = Graph(1)
        for name in ("closeness", "eccentricity", "information", "walk_betweenness"):
            with pytest.raises(ValueError, match="undefined for a single vertex"):
                compute_measure(g, name)
        for name, expected in (("betweenness", 0.0), ("degree", 0.0), ("eigenvector", 1.0),
                               ("subgraph", 1.0)):
            assert compute_measure(g, name).values.tolist() == [expected]

    def test_vectors_read_only(self):
        for name, vec in all_measures(P4).items():
            assert not vec.values.flags.writeable, name


class TestComputeMeasure:
    """``perfbench/child.py::spot_check_tau`` scores a graph through
    ``compute_measure(g, m).values``; the benchmark's tau check rests on
    that row being the graph's row of its stack of one."""

    @pytest.fixture(scope="class", params=["census", "csr"])
    def graph(self, request, corpus7):
        if request.param == "census":
            return corpus7[500]
        g = seeded_sample("sw", 500, {"k": 4, "p": 0.1})
        assert not isinstance(g.adjacency_operator, np.ndarray)
        return g

    @pytest.mark.parametrize("measure", MEASURES)
    def test_values_are_the_stack_of_one_row(self, graph, measure):
        values = compute_measure(graph, measure).values
        expected = measure_stack([graph], measure)[0]
        assert isinstance(values, np.ndarray)
        assert values.shape == (graph.n,) and values.dtype == np.float64
        assert not values.flags.writeable
        assert values.tobytes() == expected.tobytes()


class TestCsv:
    def test_header_and_precision(self):
        text = centrality_csv(all_measures(P3))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "vertex,betweenness,closeness,degree,eccentricity,"
            "eigenvector,information,subgraph,walk_betweenness"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "0.000000"
        assert first[3] == "1.000000"
        assert all(len(cell.split(".")[1]) == 6 for cell in first[1:])
