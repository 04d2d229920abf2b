"""Dense real linear algebra at workbench scale (matrix order <= ~512).

Thin contracts over LAPACK: the one inverse, of a symmetric positive
definite matrix or of each matrix of a stack, goes through a Cholesky
factorization, so that numerically rank-deficient or indefinite matrices
are rejected by an explicit pivot threshold, and symmetric
eigendecomposition returns eigenvalues in non-decreasing order with
orthonormal vectors. Matrices are plain float64 ``numpy.ndarray`` values.

The inverse calls LAPACK ``dpotrf``/``dpotri`` directly, in place on one
copy of the input, without the ``scipy.linalg`` wrappers' per-call cost
or copies. Their checks are kept here: non-finite input is rejected
before LAPACK runs, and ``info < 0`` raises.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

PIVOT_TOL = 1e-12
SYMMETRY_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Coefficient matrix is singular, numerically rank-deficient or not
    positive definite."""


def _check_symmetric(a: np.ndarray) -> None:
    if a.size and np.max(np.abs(a - a.swapaxes(-1, -2))) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance")


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse of symmetric positive definite ``a``, or of each matrix of a
    ``(k, n, n)`` stack, from its Cholesky factorization.

    The shape, finiteness and ``SYMMETRY_TOL`` checks run once. Each matrix
    gets its own ``dpotrf`` and ``dpotri`` call, so every inverse is bit
    for bit that of its matrix alone. LAPACK works in place on each
    C-ordered slot of one copy of ``a``, seen as its Fortran-ordered
    transpose: it reads and writes the upper triangle there, the slot's
    lower one, which is then mirrored over the whole stack at once, so
    every inverse is exactly symmetric and C-ordered.

    For a positive definite matrix the squared diagonal of the Cholesky
    factor holds the pivots of unpivoted elimination. Raises
    :class:`SingularMatrixError` when any matrix is not positive definite
    (``info > 0``) or any squared diagonal entry falls below
    ``PIVOT_TOL``, before any inverse is formed, and ``ValueError`` when
    ``a`` holds a NaN or infinity or is asymmetric beyond ``SYMMETRY_TOL``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("coefficient matrix must not contain infs or NaNs")
    _check_symmetric(a)
    out = np.array(a if a.ndim == 3 else a[None], order="C")
    for m in out:
        _, info = dpotrf(m.T, lower=0, clean=0, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
        if info > 0:
            raise SingularMatrixError(
                f"leading minor of order {info} is not positive definite"
            )
    pivots = np.diagonal(out, axis1=1, axis2=2) ** 2
    if pivots.min() < PIVOT_TOL:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_TOL:.0e} in the Cholesky factor"
        )
    for m in out:
        _, info = dpotri(m.T, lower=0, overwrite_c=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotri")
    n = out.shape[-1]
    np.copyto(out, out.transpose(0, 2, 1), where=np.triu(np.ones((n, n), dtype=bool), 1))
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
    _check_symmetric(a)
    w, v = np.linalg.eigh(a)
    return w, v
