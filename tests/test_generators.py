import hashlib
import re

import numpy as np
import pytest

from oracles import bf_is_isomorphic

from graphbench import (
    Graph,
    GenerationError,
    KroneckerInitiator,
    ModelConfig,
    bfs_all_pairs,
    community_structure,
    derive_seed,
    ensure_connected,
    enumerate_connected_nonisomorphic,
    erdos_renyi,
    format_graph6,
    generate,
    geographical,
    is_connected,
    kronecker,
    mix64,
    scale_free,
    small_world,
    splitmix64,
)
from graphbench.generators import (
    CONNECTED_CLASS_COUNTS,
    DEFAULT_MAX_RETRIES,
    grid_pair_probabilities,
    kronecker_pair_probabilities,
)


class TestSeeds:
    def test_splitmix_is_stable(self):
        # Pinned so persisted manifests stay decodable across releases.
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_mix_orders_matter(self):
        assert mix64(1, 2, 3) != mix64(1, 3, 2)

    def test_derive_seed_distinguishes_coordinates(self):
        seeds = {
            derive_seed(7, "er", cell, sample)
            for cell in range(10)
            for sample in range(10)
        }
        assert len(seeds) == 100


class TestErdosRenyi:
    def test_p_one_is_complete(self):
        g = erdos_renyi(5, 1.0, 0)
        assert g.m == 10

    def test_p_zero_is_empty(self):
        g = erdos_renyi(5, 0.0, 0)
        assert g.m == 0
        assert not is_connected(g)

    def test_mean_edge_count(self):
        # Binomial(4950, 0.1): the mean over 200 seeds should sit within
        # 3 standard errors of 495.
        counts = [erdos_renyi(100, 0.1, seed).m for seed in range(200)]
        se = np.sqrt(4950 * 0.1 * 0.9 / 200)
        assert abs(np.mean(counts) - 495.0) <= 3 * se

    def test_determinism(self):
        assert erdos_renyi(50, 0.2, 123) == erdos_renyi(50, 0.2, 123)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, 0)


class TestScaleFree:
    def test_edge_count_formula(self):
        assert scale_free(100, 2, 0).m == 1 + 98 * 2
        assert scale_free(100, 3, 0).m == 3 + 97 * 3
        assert scale_free(100, 5, 1).m == 10 + 95 * 5

    def test_min_degree(self):
        for seed in range(5):
            g = scale_free(60, 3, seed)
            assert g.degrees.min() >= 3

    def test_always_connected(self):
        for seed in range(5):
            assert is_connected(scale_free(40, 2, seed))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scale_free(10, 1, 0)
        with pytest.raises(ValueError):
            scale_free(10, 10, 0)


class TestSmallWorld:
    def test_no_rewiring_is_circulant(self):
        g = small_world(100, 4, 0.0, 0)
        assert np.all(g.degrees == 4)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(0, 98)

    def test_edge_count_conserved(self):
        for n, k, p in [(100, 4, 0.1), (100, 8, 0.5), (51, 6, 1.0), (20, 2, 0.9)]:
            for seed in range(3):
                assert small_world(n, k, p, seed).m == n * k // 2

    def test_rewiring_shrinks_mean_distance(self):
        def mean_distance(g):
            dist = bfs_all_pairs(g).dist
            return dist[np.triu_indices(g.n, 1)].mean()

        lattice = mean_distance(small_world(500, 8, 0.0, 0))
        rewired = [
            mean_distance(ensure_connected(
                ModelConfig(model="sw", n=500, params={"k": 8, "p": 0.1}, seed=s)
            )[0])
            for s in range(30)
        ]
        assert np.mean(rewired) < lattice

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            small_world(10, 3, 0.1, 0)


class TestGeographical:
    def test_grid_probabilities(self):
        probs = grid_pair_probabilities(100, 2.0)
        assert probs[0, 1] == pytest.approx(0.5)
        assert probs[0, 11] == pytest.approx(0.25)
        assert probs[0, 0] == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            geographical(90, 2.0, 0)

    def test_kappa_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            geographical(100, 1.0, 0)

    def test_smaller_kappa_gives_denser_graphs(self):
        dense = [geographical(100, 1.2, s).m for s in range(30)]
        sparse = [geographical(100, 2.0, s).m for s in range(30)]
        assert np.mean(dense) > np.mean(sparse)


class TestCommunityStructure:
    def test_single_full_community_is_complete(self):
        g = community_structure(12, 1.0, 1.0, 1, 0)
        assert g.m == 12 * 11 // 2

    def test_no_memberships_no_edges(self):
        g = community_structure(20, 0.0, 1.0, 5, 0)
        assert g.m == 0

    @pytest.mark.parametrize("p_c, c", [(1.5, 2), (-0.5, 2), (0.5, 0)])
    def test_membership_parameters_validated(self, p_c, c):
        with pytest.raises(ValueError):
            community_structure(10, p_c, 0.5, c, 0)


class TestKronecker:
    def test_power_sets_size(self):
        initiator = KroneckerInitiator("ones", (1.0, 1.0, 1.0, 1.0))
        g = kronecker(initiator, 3, 0)
        assert g.n == 8
        assert g.m == 28  # complete graph

    def test_identity_initiator_blocks_cross_pairs(self):
        initiator = KroneckerInitiator("identity", (1.0, 0.0, 0.0, 1.0))
        probs = kronecker_pair_probabilities(initiator, 2)
        assert probs[0, 3] == 0.0
        for seed in range(10):
            assert not kronecker(initiator, 2, seed).has_edge(0, 3)

    def test_pair_probability_is_bit_product(self):
        initiator = KroneckerInitiator("asym", (0.9, 0.5, 0.5, 0.2))
        probs = kronecker_pair_probabilities(initiator, 3)
        # vertex 5 = 101, vertex 6 = 110 -> levels pair bits (1,0),(0,1),(1,1)
        assert probs[5, 6] == pytest.approx(0.5 * 0.5 * 0.2)

    def test_initiator_validation(self):
        with pytest.raises(ValueError):
            KroneckerInitiator("bad", (0.5, 0.5, 1.5, 0.5))

    @pytest.mark.parametrize("initiator, message", [
        ((2, 0, 0, 1), "initiator entries must lie in [0, 1]: (2, 0, 0, 1)"),
        ((0.5, 0.5, 0.5), "initiator needs exactly 4 probabilities (row-major)"),
        ((True, 0.5, 0.5, 0.1), "model 'kg' parameter 'initiator' must be a number, got True"),
        ((0.9, "0.5", 0.5, 0.1), "model 'kg' parameter 'initiator' must be a number, got '0.5'"),
    ], ids=["range", "length", "bool", "text"])
    def test_initiator_rule_runs_when_config_is_built(self, initiator, message):
        # The same rule, with the same text, guards the dataclass and the config.
        with pytest.raises(ValueError) as got:
            ModelConfig("kg", 8, {"initiator": initiator, "k": 3})
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            KroneckerInitiator("x", initiator)
        assert str(got.value) == message


def _reference_pairs(n, rng, keep):
    """The independent-pair draw written out: one uniform per pair i < j,
    in ``np.triu_indices`` order; ``keep(i, j, draws)`` decides each pair."""
    iu, ju = np.triu_indices(n, 1)
    mask = keep(iu, ju, rng.random(iu.size))
    return np.column_stack((iu[mask], ju[mask]))


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestPairDraw:
    """er, gr, kg and cs all draw their edges through one pair trial."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_erdos_renyi(self, p):
        expected = _reference_pairs(20, _pcg(11), lambda i, j, r: r < p)
        assert np.array_equal(erdos_renyi(20, p, 11).edges, expected)

    def test_geographical(self):
        probs = grid_pair_probabilities(16, 1.5)
        expected = _reference_pairs(16, _pcg(4), lambda i, j, r: r < probs[i, j])
        assert np.array_equal(geographical(16, 1.5, 4).edges, expected)

    @pytest.mark.parametrize("p", [(0.9, 0.5, 0.5, 0.1), (1.0, 0.0, 0.0, 1.0)])
    def test_kronecker(self, p):
        initiator = KroneckerInitiator("x", p)
        probs = kronecker_pair_probabilities(initiator, 4)
        expected = _reference_pairs(16, _pcg(9), lambda i, j, r: r < probs[i, j])
        assert np.array_equal(kronecker(initiator, 4, 9).edges, expected)

    @pytest.mark.parametrize("p_c", [1.0, 0.2], ids=["covered", "uncovered"])
    @pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
    def test_community_structure(self, p_c, p):
        rng = _pcg(5)
        member = rng.random((24, 3)) < p_c
        assert member.any(axis=1).all() == (p_c == 1.0)
        shared = (member.astype(int) @ member.T.astype(int)) > 0
        expected = _reference_pairs(24, rng, lambda i, j, r: shared[i, j] & (r < p))
        assert np.array_equal(community_structure(24, p_c, p, 3, 5).edges, expected)


def _reference_ensure_connected(cfg, max_retries):
    """The retry loop with no early rejection: generate, then test connectivity."""
    for retry in range(max_retries):
        g = generate(ModelConfig(cfg.model, cfg.n, cfg.params, mix64(cfg.seed, retry)))
        if is_connected(g):
            return g, retry
    raise GenerationError(
        f"no connected sample within {max_retries} retries for {cfg.describe()}"
    )


class TestEnsureConnected:
    def test_dense_er_connects_first_try(self):
        for seed in range(5):
            cfg = ModelConfig(model="er", n=100, params={"p": 0.3}, seed=seed)
            g, retries = ensure_connected(cfg)
            assert retries == 0
            assert is_connected(g)

    def test_impossible_config_exhausts_budget(self):
        cfg = ModelConfig(model="er", n=5, params={"p": 0.0}, seed=1)
        with pytest.raises(GenerationError, match="er"):
            ensure_connected(cfg, max_retries=20)

    def test_lattice_connects_first_try(self):
        cfg = ModelConfig(model="sw", n=50, params={"k": 4, "p": 0.0}, seed=3)
        g, retries = ensure_connected(cfg)
        assert retries == 0

    def test_config_determinism(self):
        cfg = ModelConfig(model="er", n=60, params={"p": 0.08}, seed=9)
        assert ensure_connected(cfg) == ensure_connected(cfg)

    @pytest.mark.parametrize("seed, failed", [(0, 17), (1, 20)])
    def test_cs_matches_reference_after_failed_attempts(self, seed, failed):
        # The failed attempts include both kinds: a vertex in no community,
        # and every vertex covered but the graph still disconnected.
        cfg = ModelConfig("cs", 60, {"p_c": 0.1, "p": 0.2, "c": 30}, seed)
        expected = _reference_ensure_connected(cfg, DEFAULT_MAX_RETRIES)
        assert ensure_connected(cfg) == expected
        assert expected[1] == failed

    def test_cs_budget_error_matches_reference(self):
        cfg = ModelConfig("cs", 60, {"p_c": 0.1, "p": 0.1, "c": 30}, 0)
        with pytest.raises(GenerationError) as expected:
            _reference_ensure_connected(cfg, 40)
        with pytest.raises(GenerationError) as got:
            ensure_connected(cfg, max_retries=40)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("params", [
        {"p_c": 0.1, "p": 1.5, "c": 2},  # every attempt leaves a vertex uncovered
        {"p": 0.5, "c": 2},
        {},
        {"p_c": 1.5, "p": 0.5, "c": 2},
        {"p_c": 0.1, "p": 0.5, "c": 0},
        {"p_c": 1.5, "p": 1.5, "c": 0},
    ])
    def test_cs_invalid_parameters_raise_as_generate(self, params):
        # The config is rejected as it is built, before any attempt, with
        # the error the generator raises on the same arguments.
        with pytest.raises(ValueError) as got:
            ModelConfig("cs", 100, params, 3)
        if {"p_c", "p", "c"} <= params.keys():
            with pytest.raises(ValueError) as expected:
                community_structure(100, params["p_c"], params["p"], params["c"], 3)
            assert str(got.value) == str(expected.value)
        else:
            missing = ", ".join(name for name in ("p_c", "p", "c") if name not in params)
            assert str(got.value) == f"model 'cs' is missing parameter {missing}"


class TestGeneratedGraphsAreSimple:
    def test_degree_sums(self):
        samples = [
            erdos_renyi(80, 0.3, 4),
            scale_free(80, 3, 4),
            small_world(80, 6, 0.5, 4),
            geographical(81, 1.5, 4),
            community_structure(80, 0.2, 0.6, 8, 4),
            kronecker(KroneckerInitiator("x", (0.9, 0.6, 0.6, 0.3)), 6, 4),
        ]
        for g in samples:
            assert g.degrees.sum() == 2 * g.m  # Graph() already rejects dupes


class TestCensus:
    def test_counts_small(self):
        for n, expected in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)]:
            assert len(enumerate_connected_nonisomorphic(n)) == expected

    def test_three_vertex_classes(self):
        graphs = enumerate_connected_nonisomorphic(3)
        sizes = sorted(g.m for g in graphs)
        assert sizes == [2, 3]  # P3 and K3

    def test_pairwise_nonisomorphic_n4(self):
        graphs = enumerate_connected_nonisomorphic(4)
        for i, g1 in enumerate(graphs):
            for g2 in graphs[i + 1:]:
                assert not bf_is_isomorphic(g1, g2)

    def test_all_connected(self):
        for n in (4, 5):
            assert all(is_connected(g) for g in enumerate_connected_nonisomorphic(n))

    def test_out_of_range(self):
        for n in (0, 8):
            with pytest.raises(ValueError) as got:
                enumerate_connected_nonisomorphic(n)
            assert str(got.value) == f"census supports 1 <= n <= 7, got {n}"

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_graphs_built_only_for_connected_classes(self, n, monkeypatch):
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        enumerate_connected_nonisomorphic(n)
        assert len(built) == CONNECTED_CLASS_COUNTS[n - 1]

    @pytest.mark.parametrize("n, digest", [
        (5, "0e90fd086c9d638cd8fdc133931d35474b837a0a953beae89ae1015692920f61"),
        (6, "d0b7bbaf90fd1e431c1ae94492b7f36644d7c3e78069161158a3179ab145d0b2"),
        (7, "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"),
    ])
    def test_pinned_digest(self, n, digest):
        # sha256 of `graphbench enumerate --n N` stdout: classes and their order.
        text = "".join(format_graph6(g) + "\n" for g in enumerate_connected_nonisomorphic(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_matches_networkx_atlas(self):
        nx = pytest.importorskip("networkx")

        def degree_sequence(h):
            return tuple(sorted(d for _, d in h.degree()))

        atlas: dict[tuple, list] = {}  # connected atlas graphs by degree sequence
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() and nx.is_connected(h):
                atlas.setdefault(degree_sequence(h), []).append(h)
        for n in range(1, 8):
            census = enumerate_connected_nonisomorphic(n)
            assert len(census) == sum(len(v) for k, v in atlas.items() if len(k) == n)
            for g in census:
                h = nx.empty_graph(g.n)
                h.add_edges_from(g.edges.tolist())
                bucket = atlas.get(degree_sequence(h), [])
                assert sum(nx.is_isomorphic(h, a) for a in bucket) == 1, g.edges


class TestModelConfig:
    def test_dispatch(self):
        cfg = ModelConfig(model="sf", n=30, params={"k": 2}, seed=5)
        assert generate(cfg) == scale_free(30, 2, 5)

    def test_kg_size_checked(self):
        with pytest.raises(ValueError, match="2\\*\\*k"):
            ModelConfig(model="kg", n=100, params={"k": 5, "initiator": (1, 1, 1, 1)})

    def test_missing_parameter_named(self):
        with pytest.raises(ValueError, match="missing parameter p_c$"):
            generate(ModelConfig(model="cs", n=10, params={"p": 0.5, "c": 2}))
        with pytest.raises(ValueError, match="missing parameter k$"):
            generate(ModelConfig(model="kg", n=8, params={"initiator": (1, 1, 1, 1)}))

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
    @pytest.mark.parametrize("model, n, params, name", [
        ("sf", 30, {}, "k"),
        ("sw", 30, {"p": 0.1}, "k"),
        ("kg", None, {"initiator": (0.9, 0.5, 0.5, 0.1)}, "k"),  # n = 2**int(k)
        ("cs", 30, {"p_c": 0.5, "p": 0.5}, "c"),
    ])
    def test_whole_number_parameters_never_truncated(self, model, n, params, name, value):
        # Rejected as the config is built, so neither generate nor a retry
        # ever sees it.
        n = n or 1 << int(value)
        match = f"model '{model}' parameter '{name}' must be a whole number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(match)):
            ModelConfig(model=model, n=n, params={**params, name: value}, seed=1)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelConfig(model="xx", n=10)

    @pytest.mark.parametrize("n, params, message", [
        (0, {"q": 1}, "model 'er' parameter 'n' must be a whole number >= 1, got 0"),
        (10.0, {"p": 0.5}, "model 'er' parameter 'n' must be a whole number >= 1, got 10.0"),
        (10, {"q": 1}, "model 'er' is missing parameter p"),
        (10, {"p": 2, "q": 1}, "unknown parameter 'q' for model 'er'"),
        (10, {"p": 2}, "edge probability must be in [0, 1], got 2"),
    ], ids=["n", "n_float", "missing", "unknown", "range"])
    def test_checks_in_order(self, n, params, message):
        with pytest.raises(ValueError) as got:
            ModelConfig(model="er", n=n, params=params)
        assert str(got.value) == message

    @pytest.mark.parametrize("k", [0, -1])
    def test_kronecker_power_checked_before_shift(self, k):
        initiator = KroneckerInitiator("x", (0.9, 0.5, 0.5, 0.1))
        message = f"model 'kg' parameter 'k' must be >= 1, got {k}"
        with pytest.raises(ValueError) as got:
            kronecker(initiator, k, 0)
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            ModelConfig("kg", 1, {"initiator": initiator.p, "k": k})
        assert str(got.value) == message
