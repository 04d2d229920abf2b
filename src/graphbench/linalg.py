"""Dense real linear algebra at workbench scale (matrix order <= ~512).

Thin contracts over LAPACK: the one inverse, of a matrix or of each matrix
of a stack, goes through an LU factorization with partial pivoting so that
numerically rank-deficient matrices are rejected by an explicit pivot
threshold, and symmetric eigendecomposition returns eigenvalues in
non-decreasing order with orthonormal vectors. Matrices are plain float64
``numpy.ndarray`` values.

The inverse calls LAPACK ``dgetrf``/``dgetrs`` directly, the routines that
``scipy.linalg.lu_factor``/``lu_solve`` wrap, so it matches their solve
against the identity bit for bit without the wrappers' per-call cost.
Their checks are kept here: non-finite input is rejected before LAPACK
runs, and ``info < 0`` raises.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

PIVOT_TOL = 1e-12
SYMMETRY_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Coefficient matrix is singular or numerically rank-deficient."""


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse of square ``a``, or of each matrix of a ``(k, n, n)`` stack:
    its LU factorization solved against the identity.

    The shape and finiteness checks run once. Each matrix gets its own
    ``dgetrf`` and ``dgetrs`` call, so every inverse is bit for bit that of
    its matrix alone; each is written in place into its own
    Fortran-ordered slot of the result, as ``dgetrs`` returns it.

    Raises :class:`SingularMatrixError` when any pivot of any matrix's
    partially-pivoted LU factorization falls below ``PIVOT_TOL``, before
    any solve runs, and ``ValueError`` when ``a`` holds a NaN or infinity.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("coefficient matrix must not contain infs or NaNs")
    stack = a if a.ndim == 3 else a[None]
    # An exactly zero pivot (info > 0) also fails the pivot check.
    factors = [dgetrf(m) for m in stack]
    for _, _, info in factors:
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrf")
    pivots = np.abs([lu.diagonal() for lu, _, _ in factors])
    if pivots.min() < PIVOT_TOL:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_TOL:.0e} after partial pivoting"
        )
    k, n = stack.shape[:2]
    out = np.zeros((k, n, n))
    out[:, np.arange(n), np.arange(n)] = 1.0
    out = out.transpose(0, 2, 1)  # each identity slot Fortran-ordered
    for (lu, piv, _), x in zip(factors, out):
        _, info = dgetrs(lu, piv, x, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrs")
    return out if a.ndim == 3 else out[0]


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
