import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf, dpotri

from oracles import DENSITY_CUT_SAMPLES, sample_id, seeded_sample

from graphbench import SingularMatrixError, invert, sym_eigen


def _lu_inverse(a):
    return lu_solve(lu_factor(a), np.eye(a.shape[0]))


def _scipy_inverse(a):
    """``dpotrf`` and ``dpotri`` through scipy's wrappers, on their own
    Fortran copy of ``a``, with the upper triangle mirrored."""
    factor, info = dpotrf(a, lower=0, clean=1)
    assert info == 0
    upper, info = dpotri(factor, lower=0)
    assert info == 0
    return np.where(np.triu(np.ones(upper.shape, dtype=bool)), upper, upper.T)


def _assert_close_to_lu(a):
    """``invert(a)`` within 1e-13 of the LU solve, relative to its largest entry."""
    lu = _lu_inverse(a)
    assert np.max(np.abs(invert(a) - lu)) <= 1e-13 * np.max(np.abs(lu))


def _information_matrix(g):
    """``D - A + J``, the matrix the information measure inverts."""
    return np.diag(g.degrees.astype(float)) - g.adjacency_matrix + 1.0


def _grounded(g):
    """The Laplacian less its last row and column, positive definite on a
    connected graph."""
    return (np.diag(g.degrees.astype(float)) - g.adjacency_matrix)[:-1, :-1]


def _random_spd(shape, seed):
    """``A A^T + n I`` for standard normal ``A`` of ``shape``, ``(..., n, n)``."""
    a = np.random.default_rng(seed).standard_normal(shape)
    return a @ a.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])


class TestSolve:
    def test_identity(self):
        assert np.array_equal(invert(np.eye(3)), np.eye(3))

    def test_diagonal_inverse(self):
        inv = invert(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMatrixError):
            invert(np.ones((2, 2)))

    def test_near_singular_rejected(self):
        a = np.eye(3)
        a[2, 2] = 1e-14
        with pytest.raises(SingularMatrixError):
            invert(a)

    def test_near_singular_rejected_through_the_factor(self):
        # Positive definite, but elimination leaves a pivot of about 1e-14.
        with pytest.raises(SingularMatrixError, match="pivot"):
            invert(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))

    @pytest.mark.parametrize("a", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]],
                             ids=["zero-diagonal", "negative-eigenvalue"])
    def test_indefinite_rejected(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="not positive definite"):
                invert(np.array(a))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            invert(np.array([[4.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            invert(np.stack([np.eye(2), [[4.0, 1.0], [1.0 + 1e-9, 3.0]]]))

    def test_shape_validation(self):
        for a in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 3)), np.ones((1, 2, 2, 2))):
            with pytest.raises(ValueError, match="must be square"):
                invert(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            invert(a)

    def test_exactly_singular_rejected_without_warning(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                invert(a)
            with pytest.raises(SingularMatrixError):
                invert(np.zeros((2, 2)))

    def test_inputs_left_unchanged(self):
        for a in (np.asfortranarray([[4.0, 1.0], [1.0, 3.0]]),
                  np.array([[4.0, 1.0], [1.0, 3.0]])):
            before = a.copy()
            invert(a)
            assert np.array_equal(a, before)

    def test_result_exactly_symmetric_and_c_ordered(self, corpus7):
        for a in (_random_spd((60, 60), 3), np.asfortranarray(_random_spd((9, 9), 4)),
                  *map(_information_matrix, corpus7)):
            x = invert(a)
            assert x.flags.c_contiguous
            assert np.array_equal(x, x.T)

    def test_census_inverse_bit_identical_to_scipy(self, corpus6, corpus7):
        for g in corpus6 + corpus7:
            a = _information_matrix(g)
            assert invert(a).tobytes() == _scipy_inverse(a).tobytes(), g.edges

    @pytest.mark.parametrize(
        "spec", [s for s in DENSITY_CUT_SAMPLES if s[0] in ("er", "sf", "sw", "gr")],
        ids=sample_id,
    )
    def test_inverse_bit_identical_to_scipy(self, spec):
        g = seeded_sample(*spec)
        for a in (_information_matrix(g), _grounded(g)):
            assert invert(a).tobytes() == _scipy_inverse(a).tobytes()

    def test_census_inverse_matches_lu_solve(self, corpus6, corpus7):
        for g in corpus6 + corpus7:
            _assert_close_to_lu(_information_matrix(g))

    @pytest.mark.parametrize("spec", DENSITY_CUT_SAMPLES, ids=sample_id)
    def test_inverse_matches_lu_solve(self, spec):
        g = seeded_sample(*spec)
        for a in (_information_matrix(g), _grounded(g)):
            _assert_close_to_lu(a)

    def test_residual_on_random_well_conditioned(self):
        for order in (8, 64, 256, 512):
            a = _random_spd((order, order), 42)
            residual = np.max(np.abs(a @ invert(a) - np.eye(order)))
            assert residual <= 1e-9


class TestInvertStack:
    """``invert`` on a ``(k, n, n)`` stack: one check of the whole stack,
    one Cholesky factorization and inverse per matrix."""

    @staticmethod
    def _random_stack(k, order, seed):
        return _random_spd((k, order, order), seed)

    def test_each_inverse_is_that_of_its_matrix_alone(self, corpus7):
        census = np.stack([_information_matrix(g) for g in corpus7])
        grounded = np.stack([_grounded(g) for g in corpus7])
        for stack in (self._random_stack(5, 60, 2), census, grounded):
            inverses = invert(stack)
            assert inverses.shape == stack.shape
            for a, x in zip(stack, inverses):
                alone = invert(a)
                # Same bits, and the same C layout that later row sums read.
                assert x.tobytes() == alone.tobytes()
                assert x.flags.c_contiguous and alone.flags.c_contiguous

    @pytest.mark.parametrize("position", range(4))
    def test_singular_matrix_at_any_position_rejected(self, position):
        for singular in (np.ones((3, 3)), np.diag([1.0, 1.0, 1e-14]),
                         np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])):
            stack = self._random_stack(4, 3, position)
            stack[position] = singular
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularMatrixError):
                    invert(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        stack = self._random_stack(3, 4, 5)
        stack[2, 1, 3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            invert(stack)

    def test_matrix_contract_kept(self):
        for a in self._random_stack(3, 50, 7):
            x = invert(a)
            assert x.shape == a.shape and x.flags.c_contiguous
            assert x.tobytes() == _scipy_inverse(a).tobytes()
            assert x.tobytes() == invert(a[None])[0].tobytes()

    def test_stack_left_unchanged(self):
        stack = self._random_stack(3, 6, 11)
        before = stack.copy()
        invert(stack)
        assert np.array_equal(stack, before)


class TestSymEigen:
    def test_diagonal(self):
        w, v = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_swap_matrix(self):
        w, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_complete_graph_spectrum(self):
        a = np.ones((3, 3)) - np.eye(3)
        w, _ = sym_eigen(a)
        assert np.allclose(w, [-1.0, -1.0, 2.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_eigenvalues_ascending_and_orthonormal(self):
        rng = np.random.default_rng(1)
        for order in (5, 40, 120):
            a = rng.standard_normal((order, order))
            a = (a + a.T) / 2
            w, v = sym_eigen(a)
            assert np.all(np.diff(w) >= -1e-12)
            assert np.max(np.abs(v.T @ v - np.eye(order))) <= 1e-8

    def test_reconstruction_on_corpus(self, corpus6, corpus7):
        for g in corpus6 + corpus7:
            a = g.adjacency_matrix
            w, v = sym_eigen(a)
            assert np.max(np.abs(a - (v * w) @ v.T)) <= 1e-8
