import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    DENSITY_CUT_SAMPLES,
    bf_betweenness,
    bf_subgraph_series,
    bf_walk_betweenness,
    dense_betweenness,
    random_tree,
    sample_id,
    seeded_sample,
    unblocked_walk_betweenness,
)

from graphbench import (
    Graph,
    DisconnectedGraphError,
    all_measures,
    betweenness,
    centrality_csv,
    closeness,
    degree,
    eccentricity,
    eigenvector,
    erdos_renyi,
    information,
    subgraph,
    sym_eigen,
    walk_betweenness,
)
from graphbench.centrality import (
    MEASURES,
    eigenvector_scores,
    information_intermediate,
    power_iteration,
    subgraph_scores,
)

P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
STAR5 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def _complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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
        assert np.array_equal(degree(K3).values, [2, 2, 2])
        assert np.array_equal(degree(P3).values, [1, 2, 1])
        assert np.array_equal(degree(STAR5).values, [4, 1, 1, 1, 1])


class TestCloseness:
    def test_examples(self):
        assert np.allclose(closeness(K3).values, [0.5, 0.5, 0.5])
        assert np.allclose(closeness(P3).values, [1 / 3, 1 / 2, 1 / 3])
        assert np.allclose(closeness(P4).values, [1 / 6, 1 / 4, 1 / 4, 1 / 6])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            closeness(Graph(3, [(0, 1)]))


class TestEccentricity:
    def test_examples(self):
        assert np.allclose(eccentricity(K3).values, [1, 1, 1])
        assert np.allclose(eccentricity(P3).values, [0.5, 1.0, 0.5])
        assert np.allclose(eccentricity(_cycle(5)).values, 0.5)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            eccentricity(Graph(1))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            eccentricity(Graph(3, [(0, 1)]))


class TestBetweenness:
    def test_examples(self):
        assert np.allclose(betweenness(_complete(5)).values, 0.0)
        assert np.allclose(betweenness(P3).values, [0, 1, 0])
        assert np.allclose(betweenness(STAR4).values, [3, 0, 0, 0])

    def test_matches_geodesic_enumeration(self, corpus_small):
        for g in corpus_small:
            assert np.max(np.abs(betweenness(g).values - bf_betweenness(g))) <= 1e-9

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = _random_connected(int(rng.integers(5, 20)), 0.35, int(rng.integers(1e6)))
            assert np.max(np.abs(betweenness(g).values - bf_betweenness(g))) <= 1e-9

    @pytest.mark.parametrize("spec", DENSITY_CUT_SAMPLES, ids=sample_id)
    def test_matches_dense_kernel(self, spec):
        # The dense branch repeats the kernel's products; the CSR branch
        # sums each product in CSR order instead of BLAS order.
        g = seeded_sample(*spec)
        values, expected = betweenness(g).values, dense_betweenness(g)
        if g.adjacency_operator is g.adjacency_matrix:
            assert np.array_equal(values, expected)
        else:
            assert np.max(np.abs(values - expected) / expected.clip(min=1.0)) <= 1e-12

    def test_census_bit_identical_to_dense_kernel(self, corpus6, corpus7):
        for g in corpus6 + corpus7:
            assert np.array_equal(betweenness(g).values, dense_betweenness(g))


class TestEigenvector:
    def test_uniform_on_complete(self):
        assert np.allclose(eigenvector(_complete(6)).values, 1.0)

    def test_star_center_dominates(self):
        values = eigenvector(STAR4).values
        assert values[0] > values[1]
        assert np.allclose(values[1:], values[1])

    def test_matches_dense_eigensolver(self):
        for g in (P3, P4, K3, STAR5, _cycle(7)):
            values = eigenvector(g).values
            _, vecs = sym_eigen(g.adjacency_matrix + np.eye(g.n))
            dominant = np.abs(vecs[:, -1])
            dominant /= dominant.max()
            assert np.max(np.abs(values - dominant)) <= 1e-8

    def test_sums_to_one(self):
        g = _random_connected(30, 0.2, 5)
        state = power_iteration([g])
        assert state.last_delta[0] < 1e-12
        assert abs(state.iterate[0].sum() - 1.0) < 1e-12


class TestInformation:
    def test_vertex_transitive_constant(self):
        for g in (K3, _cycle(4)):
            values = information(g).values
            assert np.allclose(values, values[0])

    def test_path_hand_inversion(self):
        assert np.max(np.abs(information(P3).values - [1.0, 1.5, 1.0])) <= 1e-9

    def test_row_sums_constant(self, corpus_small):
        for g in corpus_small:
            if g.n < 2:
                continue
            inter = information_intermediate(g)
            sums = inter.b.sum(axis=1)
            assert np.max(np.abs(sums - sums[0])) <= 1e-8
            # (D - A + U) @ (1/n) = all-ones, so every row of B sums to 1/n.
            assert sums[0] == pytest.approx(1.0 / g.n, abs=1e-10)
            assert inter.t == pytest.approx(np.trace(inter.b))


class TestSubgraph:
    def test_single_vertex(self):
        assert np.allclose(subgraph(Graph(1)).values, [1.0])

    def test_edge_is_cosh_one(self):
        values = subgraph(Graph(2, [(0, 1)])).values
        assert np.max(np.abs(values - np.cosh(1.0))) <= 1e-12

    def test_path_ordering_and_series_oracle(self):
        values = subgraph(P3).values
        series = bf_subgraph_series(P3)
        assert values[1] > values[0]
        assert values[0] == pytest.approx(values[2], abs=1e-12)
        assert np.max(np.abs(values - series)) <= 1e-8

    def test_series_oracle_on_corpus(self, corpus_small):
        for g in corpus_small:
            assert np.max(np.abs(subgraph(g).values - bf_subgraph_series(g))) <= 1e-8

    def test_at_least_one_and_trace_identity(self, corpus_small):
        for g in corpus_small:
            values = subgraph(g).values
            lam, _ = sym_eigen(g.adjacency_matrix)
            assert np.all(values >= 1.0 - 1e-12)
            assert values.sum() == pytest.approx(np.exp(lam).sum(), abs=1e-8)


class TestStacks:
    """eigenvector and subgraph take a stack of graphs on one vertex count
    in one call; each graph's result is bit for bit its stack of one."""

    def test_power_iteration_stack_matches_stack_of_one(self, corpus6, corpus7):
        for corpus in (corpus6, corpus7):
            state = power_iteration(corpus)
            assert state.iterate.shape == (len(corpus), corpus[0].n)
            for i, g in enumerate(corpus):
                alone = power_iteration([g])
                assert state.iterate[i].tobytes() == alone.iterate[0].tobytes()
                assert state.iterations[i] == alone.iterations[0]
                assert state.last_delta[i] == alone.last_delta[0]
            # Graphs leave the stack at different iterations.
            assert len(set(state.iterations.tolist())) > 1

    def test_scores_stack_matches_stack_of_one(self, corpus6, corpus7):
        for corpus in (corpus6, corpus7):
            for kernel, measure in ((eigenvector_scores, eigenvector),
                                    (subgraph_scores, subgraph)):
                rows = kernel(corpus)
                for row, g in zip(rows, corpus):
                    assert row.tobytes() == measure(g).values.tobytes()

    def test_stack_needs_one_vertex_count(self):
        for kernel in (power_iteration, eigenvector_scores, subgraph_scores):
            with pytest.raises(ValueError, match="one vertex count"):
                kernel([P3, P4])
            with pytest.raises(ValueError, match="one vertex count"):
                kernel([])

    def test_disconnected_graph_fails_the_stack(self):
        with pytest.raises(DisconnectedGraphError):
            eigenvector_scores([P3, Graph(3, [(0, 1)])])

    def test_stack_of_one_matches_pinned_hashes(self):
        # sha256 of the score bytes from the per-graph forms these kernels
        # replaced, in an interpreter with BLAS on one thread: a threaded
        # eigh rounds differently at n = 500.
        pinned = {
            "er": ["ndarray",
                   "08e2fe10e23e297c6b00cecae5638cfe47f3228236fd85e826e4d34a8e651986",
                   "1c7107f3ed8aa0f0d2e44a11a38d11e38ec811cab72b30085f7036f7356bf482"],
            "sw": ["csr_array",
                   "4efb923ca342f55b59d17697120937ccf31a80cb28f5963c03c9178cacc64bd3",
                   "7e10e22b2a24f11a26dd248fe85b609f429d6629e4a0dd383619c6a1a12c2cc6"],
        }
        code = textwrap.dedent("""
            import hashlib, json
            from oracles import seeded_sample
            from graphbench import eigenvector, subgraph
            out = {}
            for spec in (("er", 100, {"p": 0.1}), ("sw", 500, {"k": 4, "p": 0.1})):
                g = seeded_sample(*spec)
                out[spec[0]] = [type(g.adjacency_operator).__name__] + [
                    hashlib.sha256(f(g).values.tobytes()).hexdigest()
                    for f in (eigenvector, subgraph)]
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
        assert np.max(np.abs(walk_betweenness(P3).values - [2, 3, 2])) <= 1e-9

    def test_triangle(self):
        assert np.max(np.abs(walk_betweenness(K3).values - (2 + 1 / 3))) <= 1e-9

    def test_matches_per_pair_current_solve(self, corpus_small):
        for g in corpus_small:
            if g.n < 2:
                continue
            mine = walk_betweenness(g).values
            assert np.max(np.abs(mine - bf_walk_betweenness(g))) <= 1e-8

    def test_tree_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            tree = random_tree(int(rng.integers(2, 40)), rng)
            offset = walk_betweenness(tree).values - betweenness(tree).values
            assert np.max(np.abs(offset - (tree.n - 1))) <= 1e-6

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            walk_betweenness(Graph(3, [(0, 1)]))

    # Edge counts inside one row block, with a one-row last block (385,
    # 2049, 2177), a full chunk (2048) and more than two chunks (4500).
    # A matrix-vector product per row block instead of per chunk changes
    # the last bits of the m = 385 and m = 2177 cases.
    @pytest.mark.parametrize("n, m", [(60, 90), (200, 385), (500, 2048),
                                      (500, 2049), (500, 2177), (300, 4500)])
    def test_bit_identical_to_unblocked_kernel(self, n, m):
        g = _connected_with_edges(n, m, seed=0)
        assert g.m == m
        assert np.array_equal(walk_betweenness(g).values, unblocked_walk_betweenness(g))


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
        assert np.max(np.abs(betweenness(g).values - expected)
                      / expected.clip(min=1.0)) <= 1e-12

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_closeness(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.closeness_centrality(h)
        expected = np.array([ref[v] for v in range(g.n)]) / (g.n - 1)
        assert np.allclose(closeness(g).values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_eccentricity(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.eccentricity(h)
        expected = 1.0 / np.array([ref[v] for v in range(g.n)])
        assert np.array_equal(eccentricity(g).values, expected)

    @staticmethod
    def _values(ref, g):
        return np.array([ref[v] for v in range(g.n)])

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_information(self, spec):
        nx, g, h = self._pair(spec)
        expected = g.n * self._values(nx.information_centrality(h), g)
        assert np.allclose(information(g).values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_walk_betweenness(self, spec):
        nx, g, h = self._pair(spec)
        ref = nx.current_flow_betweenness_centrality(h, normalized=False)
        expected = self._values(ref, g) + (g.n - 1)
        assert np.allclose(walk_betweenness(g).values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_subgraph(self, spec):
        nx, g, h = self._pair(spec)
        expected = self._values(nx.subgraph_centrality(h), g)
        assert np.allclose(subgraph(g).values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", NETWORKX_SAMPLES, ids=sample_id)
    def test_eigenvector(self, spec):
        # Power iteration stops at a step below 1e-12 on a sum-1 iterate,
        # so scaled to a maximum of 1 it is good to about 1e-8.
        nx, g, h = self._pair(spec)
        expected = self._values(nx.eigenvector_centrality_numpy(h), g)
        expected /= expected.max()
        assert np.max(np.abs(eigenvector(g).values - expected)) <= 1e-8


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            g = _random_connected(int(rng.integers(5, 14)), 0.4, int(rng.integers(1e6)))
            perm = rng.permutation(g.n)
            h = g.relabel(perm)
            for name in MEASURES:
                original = all_measures(g, [name])[name].values
                permuted = all_measures(h, [name])[name].values
                assert np.max(np.abs(permuted[perm] - original)) <= 1e-9, name

    def test_vertex_transitive_graphs_constant(self):
        for g in (_cycle(5), _cycle(8), _complete(4), _complete(7)):
            for name, vec in all_measures(g).items():
                assert np.allclose(vec.values, vec.values[0], atol=1e-9), name

    def test_measures_reject_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for func in (closeness, eccentricity, betweenness, information, walk_betweenness):
            with pytest.raises(DisconnectedGraphError):
                func(g)


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
