"""Dense real linear algebra at workbench scale (matrix order <= ~512).

Thin contracts over LAPACK: linear solves go through an LU factorization
with partial pivoting so that numerically rank-deficient systems are
rejected by an explicit pivot threshold, and symmetric eigendecomposition
returns eigenvalues in non-decreasing order with orthonormal vectors.
Matrices are plain float64 ``numpy.ndarray`` values.

The LU calls LAPACK ``dgetrf``/``dgetrs`` directly, the routines that
``scipy.linalg.lu_factor``/``lu_solve`` wrap, so results match theirs bit
for bit without the wrappers' per-call cost. Their checks are kept here:
non-finite input is rejected before LAPACK runs, and ``info < 0`` raises.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

PIVOT_TOL = 1e-12
SYMMETRY_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Coefficient matrix is singular or numerically rank-deficient."""


def solve_linear(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = rhs`` for square ``a``.

    Raises :class:`SingularMatrixError` when any pivot of the
    partially-pivoted LU factorization falls below ``PIVOT_TOL``, and
    ``ValueError`` when ``a`` or ``rhs`` holds a NaN or infinity.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(
            f"rhs has {rhs.shape[0]} rows, expected {a.shape[0]}"
        )
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ValueError("coefficient matrix and rhs must not contain infs or NaNs")
    if not a.size:
        return np.empty_like(rhs)
    # An exactly zero pivot (info > 0) also fails the pivot check.
    lu, piv, info = dgetrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrf")
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_TOL:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_TOL:.0e} after partial pivoting"
        )
    x, info = dgetrs(lu, piv, rhs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrs")
    return x


def invert(a: np.ndarray) -> np.ndarray:
    """Matrix inverse via :func:`solve_linear` against the identity."""
    a = np.asarray(a, dtype=float)
    return solve_linear(a, np.eye(a.shape[0]))


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    ``(..., n, n)`` stack.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, so ``a == V @ diag(w) @ V.T`` up
    to roundoff. Input asymmetric beyond ``SYMMETRY_TOL`` is rejected. A
    stack is decomposed one matrix at a time by the same LAPACK call, so
    each result is bit for bit that of the matrix alone.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.size and np.max(np.abs(a - a.swapaxes(-1, -2))) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(a)
    return w, v
