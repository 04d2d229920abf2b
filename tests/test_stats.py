import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bf_kendall_tau_b,
    order_matrix_kendall_tau_b,
    sample_id,
    seeded_sample,
    unblocked_kendall_tau_b,
)

from graphbench import (
    all_measures,
    best_granularity_tally,
    distinct_count,
    enumerate_connected_nonisomorphic,
    erdos_renyi,
    granularity,
    kendall_tau_b,
    mean_ci,
)
from graphbench import stats
from graphbench.stats import TAU_CONVENTIONS, distinct_counts, kendall_tau_b_matrix, round6


class TestKendallTauB:
    def test_identical_order(self):
        assert kendall_tau_b([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversal(self):
        assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tie_correction_worked_example(self):
        # pairs: (0,1) tied in x, (0,2) concordant, (1,2) tied in y
        assert kendall_tau_b([1, 1, 2], [1, 2, 2]) == 0.5

    def test_both_constant(self):
        assert kendall_tau_b([4, 4, 4], [7, 7, 7]) == 1.0

    def test_one_constant(self):
        assert kendall_tau_b([4, 4, 4], [1, 2, 3]) == 0.0
        assert kendall_tau_b([1, 2, 3], [4, 4, 4]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kendall_tau_b([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1], [2])

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            tau = kendall_tau_b(x, y)
            assert -1.0 - 1e-12 <= tau <= 1.0 + 1e-12
            assert tau == kendall_tau_b(y, x)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 6, n).astype(float)
            y = rng.standard_normal(n)
            tau = kendall_tau_b(x, y)
            assert kendall_tau_b(np.exp(x), 3.0 * y + 10.0) == tau

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            # Heavy ties: values drawn from a small alphabet.
            x = rng.integers(0, 4, n).astype(float)
            y = rng.integers(0, 4, n).astype(float)
            assert kendall_tau_b(x, y) == pytest.approx(
                bf_kendall_tau_b(list(x), list(y)), abs=1e-12
            )

    def test_bit_identical_to_pair_counting_oracle(self):
        # Every measure pair on the connected census for n = 2..6, plus
        # tie-heavy integer vectors: exact equality, not a tolerance.
        pairs = []
        for n in range(2, 7):
            for g in enumerate_connected_nonisomorphic(n):
                vectors = [v.values for v in all_measures(g).values()]
                pairs.extend(
                    (a, b) for i, a in enumerate(vectors) for b in vectors[i + 1:]
                )
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            alphabet = int(rng.integers(1, 6))
            pairs.append((rng.integers(0, alphabet, n).astype(float),
                          rng.integers(0, alphabet, n).astype(float)))
        for x, y in pairs:
            assert kendall_tau_b(x, y) == bf_kendall_tau_b(list(x), list(y))

    def test_bit_identical_to_sign_matrix_form(self, corpus6, corpus7):
        # The float64 sign-matrix form the boolean order matrices replaced:
        # every measure pair on the n = 6, 7 census and on an n = 500
        # network, tie-heavy integer vectors, and n = 500 vectors with
        # and without ties.
        vector_sets = [
            [v.values for v in all_measures(g).values()]
            for g in (*corpus6, *corpus7, erdos_renyi(500, 0.02, 3))
        ]
        pairs = [(a, b) for vectors in vector_sets
                 for i, a in enumerate(vectors) for b in vectors[i + 1:]]
        rng = np.random.default_rng(8)
        for n in (*rng.integers(2, 80, 200), 500, 500, 500):
            alphabet = int(rng.integers(1, 6))
            pairs.append((rng.integers(0, alphabet, n).astype(float),
                          rng.integers(0, alphabet, n).astype(float)))
        for _ in range(3):
            x = rng.standard_normal(500)
            pairs.append((x, x + rng.standard_normal(500)))
            pairs.append((x, np.round(x * 4.0) + rng.standard_normal(500)))
        for x, y in pairs:
            assert kendall_tau_b(x, y) == unblocked_kendall_tau_b(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        finite = [1.0, 2.0, 3.0]
        for x, y in (([1.0, bad, 3.0], finite), (finite, [bad, 2.0, 3.0]),
                     ([bad] * 3, [bad] * 3)):
            with pytest.raises(ValueError, match="finite"):
                kendall_tau_b(x, y)


# Seeded n = 500 samples of desk experiment cells (gr needs a square n).
DESK_500_SAMPLES = [
    ("er", 500, {"p": 0.1}),
    ("sf", 500, {"k": 2}),
    ("sw", 500, {"k": 4, "p": 0.1}),
    ("gr", 484, {"kappa": 1.5}),
    ("cs", 500, {"p_c": 0.1, "c": 50, "p": 0.5}),
]


def _score_matrix(g):
    return np.stack([v.values for v in all_measures(g).values()])


def _assert_matches_pair_oracles(rows, tau, brute_force=True):
    k = len(rows)
    assert tau.shape == (k, k)
    assert np.array_equal(np.diag(tau), np.ones(k))
    assert np.array_equal(tau, tau.T)
    for a in range(k):
        for b in range(a + 1, k):
            assert tau[a, b] == order_matrix_kendall_tau_b(rows[a], rows[b])
            assert tau[a, b] == kendall_tau_b(rows[a], rows[b])
            if brute_force:
                assert tau[a, b] == bf_kendall_tau_b(list(rows[a]), list(rows[b]))


# Rows over a small alphabet, so most pairs are tied in one row or both.
_TIE_HEAVY_ROWS = st.integers(2, 30).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n),
        min_size=1, max_size=8,
    )
)


class TestKendallTauBMatrix:
    def test_census_bit_identical_to_pair_oracles(self, corpus6, corpus7):
        for g in (*corpus6, *corpus7):
            rows = _score_matrix(g)
            _assert_matches_pair_oracles(rows, kendall_tau_b_matrix(rows))

    @pytest.mark.parametrize("spec", DESK_500_SAMPLES, ids=sample_id)
    def test_desk_sample_bit_identical_to_pair_oracles(self, spec):
        # The pure-Python pair counter takes 0.2 s a pair at n = 500, so it
        # checks the tie-heavy sf sample only; the census test runs it on
        # every pair.
        rows = _score_matrix(seeded_sample(*spec))
        _assert_matches_pair_oracles(rows, kendall_tau_b_matrix(rows),
                                     brute_force=spec[0] == "sf")

    @settings(max_examples=300, deadline=None)
    @given(_TIE_HEAVY_ROWS)
    def test_tie_heavy_rows_match_pair_oracles(self, rows):
        rows = np.array(rows)
        _assert_matches_pair_oracles(rows, kendall_tau_b_matrix(rows))

    def test_constant_row_conventions_without_warning(self):
        rows = [[4, 4, 4], [1, 2, 3], [7, 7, 7], [3, 2, 1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = kendall_tau_b_matrix(rows)
            single = kendall_tau_b_matrix([[5, 5]])
        assert tau.tolist() == [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
        assert single.tolist() == [[1.0]]

    def test_one_vertex_blocks_stay_exact(self):
        # Eight rows at n = 8193 take blocks of one vertex, so each float32
        # block product sums n signs per entry. The rows hold ties, gaps
        # of one subnormal step that no float32 holds, and two constant
        # rows. The pair oracle takes 0.3 s a pair at this n, so it checks
        # the pairs of the first two rows; the conventions are checked whole.
        n = 8193
        assert stats._TAU_SIGNS // (8 * n) == 1
        rng = np.random.default_rng(29)
        ranks = rng.permutation(n).astype(float)
        small = rng.integers(0, 4, n).astype(float)
        rows = np.stack([ranks, small, np.full(n, 3.0), -ranks, small * 5e-324,
                         np.zeros(n), rng.standard_normal(n), np.round(ranks / n, 1)])
        tau = kendall_tau_b_matrix(rows)
        for a in (0, 1):
            for b in range(a + 1, 8):
                assert tau[a, b] == order_matrix_kendall_tau_b(rows[a], rows[b]), (a, b)
        assert tau[0, 3] == -1.0 and tau[1, 4] == 1.0
        constant = np.isin(np.arange(8), (2, 5))
        assert np.all(tau[np.ix_(constant, constant)] == TAU_CONVENTIONS["both_constant"])
        assert np.all(tau[np.ix_(constant, ~constant)] == TAU_CONVENTIONS["one_constant"])
        assert np.array_equal(tau, tau.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kendall_tau_b_matrix([[1.0, 2.0, 3.0], [1.0, bad, 3.0]])

    @pytest.mark.parametrize("rows", [[1.0, 2.0, 3.0], 1.0, np.ones((2, 3, 4, 5))],
                             ids=["1-D", "0-D", "4-D"])
    def test_non_matrix_rejected(self, rows):
        with pytest.raises(ValueError, match=r"\(k, n\) array"):
            kendall_tau_b_matrix(rows)

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError, match="two observations"):
            kendall_tau_b_matrix([[1.0], [2.0]])


class TestStackedStatistics:
    """A census cell's statistics in one call each: every sample's tau-b
    matrix and distinct counts bit for bit those of the sample alone."""

    @pytest.fixture(scope="class")
    def stacks(self, corpus6, corpus7):
        return [np.stack([_score_matrix(g) for g in corpus]) for corpus in (corpus6, corpus7)]

    def test_tau_b_stack_matches_per_sample(self, stacks):
        for stack in stacks:
            tau = kendall_tau_b_matrix(stack)
            assert tau.shape == (len(stack), 8, 8)
            for sample, rows in zip(tau, stack):
                assert sample.tobytes() == kendall_tau_b_matrix(rows).tobytes()

    def test_tau_b_stack_is_blocked(self, stacks, monkeypatch):
        # Smaller blocks split the census-n7 stack into every vertex on its
        # own; the exact integer Gram sums do not move.
        stack = stacks[1]
        whole = kendall_tau_b_matrix(stack)
        monkeypatch.setattr(stats, "_TAU_SIGNS", 1)
        assert kendall_tau_b_matrix(stack).tobytes() == whole.tobytes()

    def test_distinct_counts_stack_matches_per_sample(self, stacks):
        for stack in stacks:
            s, k, n = stack.shape
            counts = distinct_counts(stack.reshape(-1, n)).reshape(s, k)
            for sample, rows in zip(counts, stack):
                assert sample.tolist() == distinct_counts(rows).tolist()


def _nudge(value, steps):
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else -np.inf))
    return value


def _near_half(k, steps, upper):
    """A value a few floats from the half-way point between k and k + 1
    millionths, beside one of the two: it joins that one's 6-decimal
    value or not, depending on which way it rounds."""
    return [_nudge((k + 0.5) / 1e6, steps), (k + upper) / 1e6]


# Groups of values that share a 6-decimal value or not depending on how
# each is rounded, so a wrong rounding changes the distinct count.
_ROUNDING_GROUPS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: [x]),
    st.tuples(st.one_of(st.integers(-10**4, 10**4), st.integers(-10**15, 10**15)),
              st.integers(-6, 6), st.booleans()).map(lambda args: _near_half(*args)),
    st.lists(st.integers(-10**8, 10**8).map(lambda k: k / 1e6), max_size=4),
    # |v| * 1e6 >= 2**52: neighbouring floats whose products may coincide.
    st.tuples(st.floats(min_value=2.0**52 / 1e6, max_value=1e300),
              st.integers(1, 3), st.sampled_from([1.0, -1.0])).map(
        lambda args: [args[2] * args[0], args[2] * _nudge(args[0], args[1])]),
    st.floats(min_value=0.0, max_value=2.3e-308).map(lambda x: [x, -x]),
    st.sampled_from([[0.0, -0.0], [1e108, -1e108], [5e-7, -5e-7, 1e-6]]),
)


class TestGranularity:
    def test_all_distinct(self):
        assert granularity([1.0, 2.0, 3.0]) == 100.0

    def test_all_equal(self):
        assert granularity([5.0, 5.0, 5.0, 5.0]) == 25.0

    def test_sub_resolution_values_collapse(self):
        assert granularity([0.0000001, 0.0000002]) == 50.0

    def test_rounding_half_away_from_zero(self):
        assert str(round6(0.0000005)) == "0.000001"
        assert str(round6(-0.0000005)) == "-0.000001"
        assert str(round6(1.4999995)) == "1.500000"
        assert granularity([0.0000005, 0.000001]) == 50.0

    def test_huge_values(self):
        assert granularity([1e108, 2e108]) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            granularity([])

    def test_position_shuffle_invariant(self):
        rng = np.random.default_rng(5)
        values = rng.random(50)
        shuffled = values[rng.permutation(50)]
        assert granularity(values) == granularity(shuffled)
        assert 0.0 < granularity(values) <= 100.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for values in ([1.0, bad, 3.0], [bad], [bad, bad]):
            with pytest.raises(ValueError, match="finite"):
                distinct_count(values)
            with pytest.raises(ValueError, match="finite"):
                granularity(values)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ROUNDING_GROUPS, min_size=1, max_size=12).map(
        lambda groups: [v for group in groups for v in group]).filter(bool))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
    @example([1e108, 2e108, -1e108, 2.0**52 / 1e6, np.nextafter(2.0**52 / 1e6, 0.0)])
    @example([0.0000005, -0.0000005, 1.4999995, 1.4999994999999999, 0.000001])
    @example([0.0001245, 0.000124])  # 1e6 * v is 124.49999999999999
    @example([28978020376.89373, 28978020376.893734])  # equal products v * 1e6
    @example([1e303, 2e303, -1.7e308])  # v * 1e6 overflows
    def test_distinct_count_matches_decimal_rounding(self, values):
        assert distinct_count(values) == len({round6(v) for v in values})


class TestDistinctCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ROUNDING_GROUPS, min_size=1, max_size=12).map(
        lambda groups: [v for group in groups for v in group]).filter(bool),
        st.integers(0, 3))
    def test_rows_match_decimal_rounding(self, values, shift):
        # Rows beside the generated one: a rotation of it, a row of
        # plain thirds that stays on the float path, and a row forced
        # onto the exact path by one half-way value.
        n = len(values)
        plain = [i / 3.0 for i in range(n)]
        rows = np.array([values, np.roll(values, shift), plain,
                         [0.0000005, *plain[1:]]])
        expected = [len({round6(v) for v in row}) for row in rows]
        assert distinct_counts(rows).tolist() == expected

    def test_only_rows_near_a_half_way_point_take_the_exact_path(self, monkeypatch):
        rows = np.array([[0.25, 0.5, 0.75, 0.25],
                         [0.25, 0.0000005, 0.000001, 0.75],
                         [1.0, 2.0, 3.0, 3.0000001],
                         [1.4999995, -1.4999995, 1.5, -1.5]])
        seen = []

        def spy(value):
            seen.append(value)
            return round6(value)

        monkeypatch.setattr(stats, "round6", spy)
        assert distinct_counts(rows).tolist() == [3, 3, 3, 2]
        assert seen == [0.0000005, 1.4999995, -1.4999995]

    def test_empty_rows(self):
        assert distinct_counts(np.empty((3, 0))).tolist() == [0, 0, 0]
        assert distinct_count([]) == 0

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, n\) array"):
            distinct_counts([1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            distinct_counts([[1.0, 2.0], [bad, 2.0]])


class TestMeanCi:
    def test_zero_variance(self):
        assert mean_ci([3, 3, 3, 3], 0.99) == (3.0, 0.0)

    def test_two_points(self):
        mean, half = mean_ci([0, 1], 0.99)
        assert mean == 0.5
        assert half == pytest.approx(1.288, abs=5e-4)
        mean, half = mean_ci([50.0, 70.0], 0.99)
        assert mean == pytest.approx(60.0)
        assert half == pytest.approx(20 * 1.288, abs=1e-2)

    def test_half_width_shrinks_like_sqrt_n(self):
        # Same composition at 4x the length: the half-width halves, up to
        # the small ddof=1 shift in the sample standard deviation.
        base = [0.0, 1.0] * 8
        _, half16 = mean_ci(base, 0.99)
        _, half64 = mean_ci(base * 4, 0.99)
        assert half64 == pytest.approx(half16 / 2.0, rel=0.03)

    def test_too_short(self):
        with pytest.raises(ValueError):
            mean_ci([1.0], 0.99)

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], 1.0)


class TestBestTally:
    def test_complete_tie(self):
        out = best_granularity_tally([{"a": 8, "b": 8, "c": 8}])
        assert out == {"a": 100.0, "b": 100.0, "c": 100.0}

    def test_unique_maximum(self):
        out = best_granularity_tally([{"a": 5, "b": 3, "c": 3}])
        assert out == {"a": 100.0, "b": 0.0, "c": 0.0}
        out = best_granularity_tally([{"a": 1, "b": 2}, {"a": 7, "b": 9}])
        assert out == {"a": 0.0, "b": 100.0}

    def test_tallies_can_sum_above_100(self):
        out = best_granularity_tally(
            [{"a": 2, "b": 2}, {"a": 3, "b": 1}, {"a": 1, "b": 4}]
        )
        assert out["a"] == pytest.approx(200 / 3)
        assert out["b"] == pytest.approx(200 / 3)
        assert sum(out.values()) > 100.0
