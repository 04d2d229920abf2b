"""Eight vertex centrality measures for connected simple graphs.

Every measure maps a :class:`~graphbench.graphs.Graph` to a
:class:`CentralityVector` of per-vertex scores, snapped into tie classes
(:data:`TIE_TOL`):

* ``degree``          -- number of adjacent vertices;
* ``closeness``       -- reciprocal of the summed geodesic distances;
* ``eccentricity``    -- reciprocal of the largest geodesic distance;
* ``betweenness``     -- fraction of geodesics passing through the vertex
  as an interior vertex, summed over all unordered pairs;
* ``eigenvector``     -- the adjacency matrix's Perron vector, scaled so
  the largest score is 1;
* ``information``     -- reciprocal combined-resistance score built from
  ``B = (D - A + U)^-1`` where U is the all-ones matrix;
* ``subgraph``        -- diagonal of the adjacency matrix exponential,
  i.e. closed walks weighted by inverse factorial length;
* ``walk_betweenness``-- net electric current through the vertex when a
  unit current is injected across each vertex pair, endpoint pairs
  contributing exactly 1.

Each measure is a kernel over a :class:`~graphbench.graphs.GraphStack`,
k graphs on one vertex count (:data:`_TABLE`), and every kernel takes the
whole stack in one call: betweenness runs one ``coeff @ A`` per BFS level
over the ``(k, n, n)`` adjacency, closeness and eccentricity reduce the
stacked distances. Each graph is factored once each way, and the factors
are kept on the stack: one stacked :func:`invert` gives B to
information and walk betweenness, one stacked :func:`sym_eigen` of the
adjacency gives subgraph and eigenvector their eigenpairs. The stack
builds its adjacency, degrees and geodesics once for all eight kernels; a
stack of one takes them from its graph as views.

Census rows (n <= 7) are bit for bit their stack of one, as measured on
every census stack; a larger stack's rows may differ from theirs in the
last bits. Betweenness multiplies a lone CSR graph
(:attr:`~graphbench.graphs.Graph.adjacency_operator`) sparsely and a
larger stack densely, and BLAS may round a row of walk betweenness's
matrix-vector product by its block's row count. :func:`measure_stack` checks a stack once and stores equal scores equal
(:data:`TIE_TOL`); :func:`compute_measure` and :func:`all_measures`
score one graph as its stack of one.

``betweenness``, ``closeness``, ``eccentricity``, ``eigenvector``,
``information`` and ``walk_betweenness`` raise
:class:`DisconnectedGraphError` on disconnected input rather than
computing per-component values; ``degree`` and ``subgraph`` score any graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graphs import Graph, GraphStack
from .graphs import bfs_all_pairs, is_connected  # named here by perfbench/tracing.py's TARGETS
from .linalg import invert, sym_eigen

SHORT_LABELS = {
    "betweenness": "C_b",
    "closeness": "C_c",
    "degree": "C_d",
    "eccentricity": "C_x",
    "eigenvector": "C_e",
    "information": "C_i",
    "subgraph": "C_s",
    "walk_betweenness": "C_w",
}

TIE_TOL = 1e-9
_ROW_SUM_TOL = 1e-8
_ROW_BLOCK = 128


class DisconnectedGraphError(ValueError):
    """Measure requires a connected graph."""


@dataclass(frozen=True)
class CentralityVector:
    """Per-vertex scores of one measure, index-aligned with the graph;
    built by :func:`compute_measure` from scores it has checked."""

    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def __len__(self):
        return len(self.values)


def _degree(st: GraphStack) -> np.ndarray:
    return st.degrees.copy()


def _closeness(st: GraphStack) -> np.ndarray:
    return 1.0 / st.geodesics.dist.sum(axis=1)


def _eccentricity(st: GraphStack) -> np.ndarray:
    return 1.0 / st.geodesics.dist.max(axis=1)


def _betweenness(st: GraphStack) -> np.ndarray:
    """Geodesic betweenness by level-wise dependency accumulation.

    All sources of every graph are processed at once: dependencies flow
    one BFS level at a time through the adjacency, which reproduces the
    classic per-source accumulation
    ``delta[v] += sigma[v]/sigma[w] * (1+delta[w])`` as matrix products,
    one ``coeff @ A`` per level over the ``(k, n, n)`` stack, in which row
    s of a graph's ``delta`` belongs to source s. Each matrix gets the gemm
    it would get alone, and a graph whose levels end early multiplies
    zeros, so each row is bit for bit that of its stack of one. A lone
    graph with a CSR adjacency keeps ``delta`` transposed, one column per
    source, so the sparse product needs no transpose copies: ``dist`` and
    ``sigma`` are symmetric, and only the product and the final sum
    change sides.
    """
    k, n = len(st), st.n
    if n <= 2:
        return np.zeros((k, n))
    by_column = k == 1 and not isinstance(st[0].adjacency_operator, np.ndarray)
    op = st[0].adjacency_operator if by_column else st.adjacency
    geo = st.geodesics
    dist, sigma = geo.dist.ravel(), geo.sigma.ravel()
    delta = np.zeros(dist.size)
    coeff = np.zeros((k, n, n))
    # Level 1 would only feed the sources themselves, whose entries (the
    # diagonal) stay 0, so the loop stops at level 2.
    top = int(dist.max())
    below = np.flatnonzero(dist == top)
    for level in range(top, 1, -1):
        at, below = below, np.flatnonzero(dist == level - 1)
        np.put(coeff, at, (1.0 + delta[at]) / sigma[at])
        spread = op @ coeff[0] if by_column else np.matmul(coeff, op)
        np.put(coeff, at, 0.0)
        delta[below] = sigma[below] * spread.take(below)
    # Each unordered pair is seen from both endpoints as a source.
    per_vertex = delta.reshape(k, n, n).sum(axis=1 + by_column)
    return per_vertex / 2.0


def _kept(build):
    """``build(stack)``, made on a stack's first use and kept on the stack,
    its arrays read-only like the stack's own."""
    def kept(st: GraphStack):
        if build.__name__ not in vars(st):
            value = build(st)
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
            vars(st)[build.__name__] = value
        return vars(st)[build.__name__]
    return kept


@_kept
def _inverse(st: GraphStack) -> np.ndarray:
    """``(k, n, n)`` ``B = (D - A + U)^-1`` from one :func:`invert` call;
    every row of B sums to ``1/n`` on a connected graph, checked."""
    n = st.n
    lap = np.ones((len(st), n, n))
    lap[:, np.arange(n), np.arange(n)] += st.degrees
    lap -= st.adjacency
    b = invert(lap)
    row_sums = b.sum(axis=2)
    if np.max(np.abs(row_sums - row_sums[:, :1])) > _ROW_SUM_TOL:
        raise ArithmeticError("row sums of (D - A + U)^-1 are not constant")
    return b


@_kept
def _spectrum(st: GraphStack) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``(k, n)`` and eigenvectors ``(k, n, n)`` of the
    adjacency from one stacked :func:`sym_eigen`, each matrix's own ``eigh``."""
    return sym_eigen(st.adjacency)


def _eigenvector(st: GraphStack) -> np.ndarray:
    """``|v| / max |v|`` for the adjacency's top eigenvector v, which on a
    connected graph is simple: the Perron vector up to sign."""
    v = np.abs(_spectrum(st)[1][..., -1])
    return v / v.max(axis=1, keepdims=True)


def _information(st: GraphStack) -> np.ndarray:
    """Stephenson-Zelen information centrality.

    With ``B = (D - A + U)^-1``, ``T`` its trace and ``R`` its common row
    sum, vertex k scores ``1 / (B[k,k] + (T - 2R)/n)``.
    """
    b = _inverse(st)
    diag = np.diagonal(b, axis1=1, axis2=2)
    shift = (diag.sum(axis=1) - 2.0 * b.sum(axis=2)[:, 0]) / st.n
    return 1.0 / (diag + shift[:, None])


def _subgraph(st: GraphStack) -> np.ndarray:
    """The diagonal of ``expm(A)`` from the stack's eigendecomposition, with
    the gemv each matrix would get alone."""
    lam, vecs = _spectrum(st)
    return np.matmul(vecs * vecs, np.exp(lam)[..., None])[..., 0]


def _walk_betweenness(st: GraphStack) -> np.ndarray:
    """Current-flow (random-walk) betweenness.

    For source-target pair (i, j), the current on edge (k, t) is
    ``|T[k,i] - T[k,j] - T[t,i] + T[t,j]|`` and vertex k carries half the
    absolute current over its incident edges; pairs with k as an endpoint
    contribute exactly 1. Per edge (u, v), with ``x = T[u] - T[v]``, the sum
    over all pairs is a sorted prefix sum of x, O(m n log n) overall, less
    the pairs with u or v as an endpoint. Those cost O(1): by the maximum
    principle for electrical potentials (Brandes & Fleischer, STACS 2005;
    Newman, Social Networks 27, 2005), ``x_i - x_u`` is the potential drop
    from u to v when unit current enters at i and leaves at u, the lowest
    potential, so ``sum_i |x_i - x_u| = n x_u - sum(x)``, and likewise
    ``sum_i |x_i - x_v| = sum(x) - n x_v``, with ``x_u = T[u,u] - T[v,u]``,
    ``x_v = T[u,v] - T[v,v]`` and ``sum(x)`` from T's computed row sums.

    The potentials are ``T = B`` for information's ``B = (D - A + U)^-1``,
    which :func:`invert` returns exactly symmetric and C-ordered: any
    generalized inverse of the Laplacian gives the same potential
    differences. The stack's edges are one flat array whose endpoints
    number the rows of ``B.reshape(k * n, n)``; they are gathered, sorted
    in place and multiplied by the rank weights in cache-sized blocks of
    ``_ROW_BLOCK`` rows, and then accumulated with one ``np.add.at`` per
    endpoint.
    """
    k, n = len(st), st.n
    # Row r holds the potentials of vertex r % n of graph r // n.
    t = _inverse(st).reshape(k * n, n)
    u, v = st.edges.T
    m = len(u)
    rank_weights = 2.0 * np.arange(n) - (n - 1)
    ordered = np.empty((min(m, _ROW_BLOCK), n))
    scratch = np.empty_like(ordered)
    # Sum of |x_i - x_j| over all pairs i<j, per edge.
    total = np.empty(m)
    for b in range(0, m, _ROW_BLOCK):
        bu, bv = u[b : b + _ROW_BLOCK], v[b : b + _ROW_BLOCK]
        x, rows_v = ordered[: len(bu)], scratch[: len(bu)]
        # In-range indices: mode="clip" lets take write into out uncopied.
        np.take(t, bu, axis=0, out=x, mode="clip")
        np.take(t, bv, axis=0, out=rows_v, mode="clip")
        x -= rows_v
        x.sort(axis=1)
        total[b : b + len(bu)] = x @ rank_weights
    row_sums = t.sum(axis=1)
    sum_x = row_sums[u] - row_sums[v]
    pairs_u = n * (t[u, u % n] - t[v, u % n]) - sum_x
    pairs_v = sum_x - n * (t[u, v % n] - t[v, v % n])
    acc = np.zeros(k * n)
    np.add.at(acc, u, total - pairs_u)
    np.add.at(acc, v, total - pairs_v)
    return 0.5 * acc.reshape(k, n) + (n - 1)


class _Measure(NamedTuple):
    """A :data:`_TABLE` entry: the kernel, ``(GraphStack) -> (k, n)``
    scores, whether the measure needs a connected graph, and the smallest
    vertex count it is defined on."""

    kernel: Callable[[GraphStack], np.ndarray]
    connected: bool
    min_n: int


_TABLE = {
    "betweenness": _Measure(_betweenness, connected=True, min_n=1),
    "closeness": _Measure(_closeness, connected=True, min_n=2),
    "degree": _Measure(_degree, connected=False, min_n=1),
    "eccentricity": _Measure(_eccentricity, connected=True, min_n=2),
    "eigenvector": _Measure(_eigenvector, connected=True, min_n=1),
    "information": _Measure(_information, connected=True, min_n=2),
    "subgraph": _Measure(_subgraph, connected=False, min_n=1),
    "walk_betweenness": _Measure(_walk_betweenness, connected=True, min_n=2),
}
MEASURES = tuple(_TABLE)  # in name order


def _snap(scores: np.ndarray) -> np.ndarray:
    """Equal scores stored equal: each row of non-negative ``scores`` sorted,
    a class opened wherever a consecutive gap exceeds ``TIE_TOL`` times the
    larger score, and every member given its class's smallest score."""
    k, n = scores.shape
    order = scores.argsort(axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    opens = np.ones((k, n), dtype=bool)
    opens[:, 1:] = np.diff(ranked, axis=1) > TIE_TOL * ranked[:, 1:]
    first = np.maximum.accumulate(np.where(opens, np.arange(n), 0), axis=1)
    snapped = np.empty_like(scores)
    np.put_along_axis(snapped, order, np.take_along_axis(ranked, first, axis=1), axis=1)
    return snapped


def measure_stack(graphs, measure: str) -> np.ndarray:
    """The ``(k, n)`` scores of ``measure`` for k graphs on one vertex count,
    given as a :class:`~graphbench.graphs.GraphStack` or any sequence of
    graphs. Census rows (n <= 7) are bit for bit their stack of one; the
    rows of a larger stack may differ from theirs in the last bits (see
    the module docstring). The stack's adjacency, degrees and geodesics are built
    once, on its first measure that needs them, as are its two
    factorizations, and every check runs once per stack: one vertex count,
    connectivity where the measure needs it, enough vertices, and finite,
    non-negative scores. Each row is then snapped: scores within
    ``TIE_TOL`` of each other, relative, are stored as one value."""
    try:
        spec = _TABLE[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}") from None
    stack = GraphStack(graphs)
    if spec.connected and not stack.connected.all():
        raise DisconnectedGraphError(f"{measure} requires a connected graph")
    if stack.n < spec.min_n:
        raise ValueError(f"{measure} is undefined for a single vertex")
    scores = np.asarray(spec.kernel(stack), dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"{measure}: non-finite centrality value")
    if scores.size and scores.min() < 0:
        raise ValueError(f"{measure}: negative centrality value")
    return _snap(scores)


def compute_measure(g: Graph, measure: str) -> CentralityVector:
    """:func:`measure_stack` of the stack of one."""
    return CentralityVector(measure_stack([g], measure)[0])


def all_measures(g: Graph) -> dict[str, CentralityVector]:
    """All eight measures of ``g``, keyed by name in :data:`MEASURES` order,
    from one stack of one, so ``g`` is factored once."""
    stack = GraphStack([g])
    return {name: CentralityVector(measure_stack(stack, name)[0]) for name in MEASURES}


def centrality_csv(vectors: dict[str, CentralityVector]) -> str:
    """Fixed-order CSV with one row per vertex and 6 fixed decimals."""
    missing = [m for m in MEASURES if m not in vectors]
    if missing:
        raise ValueError(f"missing measures for CSV output: {missing}")
    n = len(next(iter(vectors.values())))
    if any(len(vec) != n for vec in vectors.values()):
        raise ValueError("centrality vectors have inconsistent lengths")
    lines = ["vertex," + ",".join(MEASURES)]
    for v in range(n):
        scores = ",".join(f"{vectors[m].values[v]:.6f}" for m in MEASURES)
        lines.append(f"{v},{scores}")
    return "\n".join(lines) + "\n"
