import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import DENSITY_CUT_SAMPLES, dense_geodesics, sample_id, seeded_sample

from graphbench import (
    Graph,
    GraphError,
    FormatError,
    UNREACHABLE,
    bfs_all_pairs,
    format_edge_list,
    format_graph6,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from graphbench.centrality import compute_measure
from graphbench.graphs import _all_pairs_bfs, _graph6_pairs

P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


class TestGraph:
    def test_canonical_edges(self):
        g = Graph(4, [(2, 0), (3, 1)])
        assert g.edges.tolist() == [[0, 2], [1, 3]]
        assert g.m == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_input_forms_build_equal_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.3
            pairs = np.column_stack((iu[mask], ju[mask]))
            # Shuffled rows with some pairs reversed.
            shuffled = pairs[rng.permutation(len(pairs))]
            flip = rng.random(len(pairs)) < 0.5
            shuffled[flip] = shuffled[flip][:, ::-1]
            g = Graph(n, shuffled)
            assert g == Graph(n, zip(iu[mask], ju[mask]))
            assert g == Graph(n, [tuple(e) for e in pairs.tolist()])
            assert np.array_equal(g.edges, pairs)
            assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
            shuffled[:] = 0  # the graph does not share the caller's array
            assert np.array_equal(g.edges, pairs)
        assert Graph(4, np.empty((0, 2), dtype=np.int64)) == Graph(4) == Graph(4, [])

    def test_rejections_on_array_input(self):
        cases = [
            ([[0, 1], [2, 2]], "self-loop at vertex 2"),
            ([[0, 1], [1, 2], [2, 1]], r"duplicate edge \(1, 2\)"),
            ([[0, 1], [1, 3]], r"edge \(1, 3\) out of range for n=3"),
            ([[0, 1], [-1, 2]], r"edge \(-1, 2\) out of range for n=3"),
        ]
        for pairs, message in cases:
            for edges in (np.asarray(pairs), [tuple(e) for e in pairs]):
                with pytest.raises(GraphError, match=message):
                    Graph(3, edges)
        with pytest.raises(GraphError, match="exceeds the limit"):
            Graph(2**40, [(0, 2**39)])

    def test_has_edge_outside_vertex_range(self):
        assert P3.has_edge(1, 2) and P3.has_edge(2, 1)
        assert not P3.has_edge(0, 2) and not P3.has_edge(1, 1)
        # -1 must not wrap around to vertex 2.
        assert not P3.has_edge(-1, 1) and not P3.has_edge(1, -1)
        assert not P3.has_edge(3, 1) and not P3.has_edge(1, 3)

    def test_pickle_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.3
            g = Graph(n, zip(iu[mask], ju[mask]))
            size = len(pickle.dumps(g))
            _ = g.adjacency_matrix, g.connected, g.geodesics  # caches are not pickled
            assert len(pickle.dumps(g)) == size
            copy = pickle.loads(pickle.dumps(g))
            assert "geodesics" not in vars(copy)
            assert copy == g and copy.connected == g.connected
            assert not copy.edges.flags.writeable

    def test_degree_sum_is_twice_edge_count(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.3
            g = Graph(n, zip(iu[mask], ju[mask]))
            assert g.degrees.sum() == 2 * g.m

    def test_adjacency_matrix_symmetric_zero_diagonal(self):
        a = K3.adjacency_matrix
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)

    def test_relabel(self):
        g = P3.relabel([2, 0, 1])
        assert g.edges.tolist() == [[0, 1], [0, 2]]


class TestEdgeList:
    def test_parse_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == P3

    def test_parse_single_vertex(self):
        g = parse_edge_list("# n=1\n")
        assert g.n == 1 and g.m == 0

    def test_duplicate_edge_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_list("0 1\n0 1")

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("3 3")

    def test_malformed_token_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_list("0 1\n1 x")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("0 1 2")

    def test_empty_without_hint_rejected(self):
        with pytest.raises(FormatError, match="vertex-count"):
            parse_edge_list("")

    def test_index_beyond_hint_rejected(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_edge_list("# n=3\n0 5")

    def test_header_preserves_isolated_vertices(self):
        g = parse_edge_list("# n=4\n0 1")
        assert g.n == 4 and g.m == 1

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.2
            g = Graph(n, zip(iu[mask], ju[mask]))
            assert parse_edge_list(format_edge_list(g)) == g


class TestGraph6:
    def test_k2(self):
        assert parse_graph6("A_") == Graph(2, [(0, 1)])

    def test_two_isolated(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.m == 0
        assert not is_connected(g)

    def test_k3(self):
        assert parse_graph6("Bw") == K3

    def test_bit_order_cached_and_read_only(self):
        pairs = _graph6_pairs(4)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]]
        assert _graph6_pairs(4) is pairs
        with pytest.raises(ValueError):
            pairs[0, 0] = 1
        # One bit per pair, the first pair the top bit: 100000 is 32 + 63.
        assert format_graph6(Graph(4, [(0, 1)])) == "C" + chr(95)

    def test_bad_byte(self):
        with pytest.raises(FormatError, match="63..126"):
            parse_graph6("A" + chr(20))

    def test_truncated_payload(self):
        with pytest.raises(FormatError, match="payload"):
            parse_graph6("C")

    def test_long_form_rejected(self):
        with pytest.raises(FormatError, match="long-form"):
            parse_graph6(chr(126) + "AAA")

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 63))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.3
            g = Graph(n, zip(iu[mask], ju[mask]))
            assert parse_graph6(format_graph6(g)) == g

    def test_round_trip_corpus(self, corpus6, corpus7):
        for g in corpus6 + corpus7:
            record = format_graph6(g)
            assert format_graph6(parse_graph6(record)) == record


class TestBfs:
    def test_path(self):
        geo = bfs_all_pairs(P3)
        assert geo.dist[0, 2] == 2
        assert geo.sigma[0, 2] == 1

    def test_cycle_has_two_geodesics(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        geo = bfs_all_pairs(c4)
        assert geo.dist[0, 2] == 2
        assert geo.sigma[0, 2] == 2

    def test_complete(self):
        geo = bfs_all_pairs(K3)
        off = ~np.eye(3, dtype=bool)
        assert np.all(geo.dist[off] == 1)
        assert np.all(geo.sigma[off] == 1)

    def test_unreachable_sentinel(self):
        g = Graph(3, [(0, 1)])
        geo = bfs_all_pairs(g)
        assert geo.dist[0, 2] == UNREACHABLE
        assert geo.sigma[0, 2] == 0

    def test_symmetry_and_connected_has_no_sentinel(self, corpus_small):
        for g in corpus_small:
            geo = bfs_all_pairs(g)
            assert np.array_equal(geo.dist, geo.dist.T)
            assert np.array_equal(geo.sigma, geo.sigma.T)
            assert np.all(geo.dist >= 0)

    def test_matches_plain_bfs(self):
        from oracles import bf_bfs, neighbor_lists

        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.25
            g = Graph(n, zip(iu[mask], ju[mask]))
            geo = bfs_all_pairs(g)
            adj = neighbor_lists(g)
            for s in range(n):
                dist, sigma = bf_bfs(adj, s)
                assert np.array_equal(geo.dist[s], dist)
                assert np.array_equal(geo.sigma[s], sigma)

    def test_computed_once_per_graph(self):
        geo = bfs_all_pairs(P3)
        assert bfs_all_pairs(P3) is geo and P3.geodesics is geo
        assert not geo.dist.flags.writeable and not geo.sigma.flags.writeable
        with pytest.raises(ValueError):
            geo.dist[0, 2] = 1

    def test_cache_matches_fresh_copy_after_measures(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.3
            g = Graph(n, zip(iu[mask], ju[mask]))
            if is_connected(g):  # the measures read the cached geodesics first
                for name in ("closeness", "eccentricity", "betweenness"):
                    compute_measure(g, name)
            fresh = bfs_all_pairs(Graph(n, g.edges.tolist()))
            assert np.array_equal(bfs_all_pairs(g).dist, fresh.dist)
            assert np.array_equal(bfs_all_pairs(g).sigma, fresh.sigma)

    @pytest.mark.parametrize("spec", DENSITY_CUT_SAMPLES, ids=sample_id)
    def test_bit_identical_to_dense_kernel(self, spec):
        g = seeded_sample(*spec)
        geo = bfs_all_pairs(g)
        dist, sigma = dense_geodesics(g)
        assert np.array_equal(geo.dist, dist)
        assert np.array_equal(geo.sigma, sigma)
        assert sigma.max() < 2**53  # path counts are exact in float64

    def test_census_bit_identical_to_dense_kernel(self, corpus6, corpus7):
        for g in corpus6 + corpus7:
            dist, sigma = dense_geodesics(g)
            assert np.array_equal(g.geodesics.dist, dist)
            assert np.array_equal(g.geodesics.sigma, sigma)

    # The adjacency is level 1, so a connected graph of diameter d takes
    # d - 1 products: through a dense operator (er), a CSR one (sw, 14
    # levels), the census stack's adjacency, and none on a complete graph.
    @pytest.mark.parametrize("spec", [DENSITY_CUT_SAMPLES[0], DENSITY_CUT_SAMPLES[7]],
                             ids=sample_id)
    def test_diameter_minus_one_products(self, spec):
        g = seeded_sample(*spec)
        op = _CountingOperator(g.adjacency_operator)
        geo = _all_pairs_bfs(op, g.adjacency_matrix)
        dist, sigma = dense_geodesics(g)
        assert np.array_equal(geo.dist, dist)
        assert np.array_equal(geo.sigma, sigma)
        assert op.products == dist.max() - 1

    def test_census_stack_diameter_minus_one_products(self, corpus7):
        op = _CountingOperator(corpus7.adjacency)
        geo = _all_pairs_bfs(op, corpus7.adjacency)
        assert np.array_equal(geo.dist, corpus7.geodesics.dist)
        assert np.array_equal(geo.sigma, corpus7.geodesics.sigma)
        assert op.products == corpus7.geodesics.dist.max() - 1 == 5

    def test_complete_graph_needs_no_product(self):
        op = _CountingOperator(K3.adjacency_operator)
        geo = _all_pairs_bfs(op, K3.adjacency_matrix)
        assert np.array_equal(geo.dist, K3.geodesics.dist)
        assert op.products == 0


class _CountingOperator:
    """An adjacency operator that counts the products taken through it."""

    def __init__(self, op):
        self.op, self.products = op, 0

    def __matmul__(self, other):
        self.products += 1
        return self.op @ other


class TestAdjacencyOperator:
    @pytest.mark.parametrize("spec", DENSITY_CUT_SAMPLES, ids=sample_id)
    def test_form_follows_density(self, spec):
        g = seeded_sample(*spec)
        op = g.adjacency_operator
        assert isinstance(op, np.ndarray) == (2 * g.m * 25 > g.n**2)
        assert g.adjacency_operator is op
        dense = op if isinstance(op, np.ndarray) else op.toarray()
        assert np.array_equal(dense, g.adjacency_matrix)

    def test_cut_is_inclusive(self):
        cycle = [(i, (i + 1) % 50) for i in range(50)]
        assert not isinstance(Graph(50, cycle).adjacency_operator, np.ndarray)  # 2m = n**2/25
        chorded = Graph(50, cycle + [(0, 25)])
        assert chorded.adjacency_operator is chorded.adjacency_matrix

    def test_census_graphs_are_dense(self, corpus_small, corpus6, corpus7):
        # The one-vertex graph has no edge and no measure multiplies by it.
        for g in [*corpus_small[1:], *corpus6, *corpus7]:
            assert g.adjacency_operator is g.adjacency_matrix

    def test_small_graphs_leave_scipy_sparse_unimported(self):
        code = (
            "import sys\n"
            "from graphbench import all_measures, enumerate_connected_nonisomorphic\n"
            "for g in enumerate_connected_nonisomorphic(7)[::25]:\n"
            "    all_measures(g)\n"
            "assert 'scipy.sparse' not in sys.modules\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestConnected:
    def test_examples(self):
        assert is_connected(P3)
        assert is_connected(Graph(1))
        assert not is_connected(parse_graph6("A?"))

    def test_matches_bfs_reachability(self):
        rng = np.random.default_rng(19)
        outcomes = set()
        for n in range(1, 41):
            iu, ju = np.triu_indices(n, 1)
            for p in (0.05, 0.15, 0.4):
                mask = rng.random(iu.size) < p
                g = Graph(n, zip(iu[mask], ju[mask]))
                expected = not np.any(bfs_all_pairs(g).dist == UNREACHABLE)
                assert is_connected(g) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}
