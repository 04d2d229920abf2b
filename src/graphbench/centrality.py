"""Eight vertex centrality measures for connected simple graphs.

Every measure maps a :class:`~graphbench.graphs.Graph` to a
:class:`CentralityVector` of raw, unnormalized per-vertex scores:

* ``degree``          -- number of adjacent vertices;
* ``closeness``       -- reciprocal of the summed geodesic distances;
* ``eccentricity``    -- reciprocal of the largest geodesic distance;
* ``betweenness``     -- fraction of geodesics passing through the vertex
  as an interior vertex, summed over all unordered pairs;
* ``eigenvector``     -- fixed point of power iteration with the adjacency
  matrix plus the unit diagonal, scaled so the largest score is 1;
* ``information``     -- reciprocal combined-resistance score built from
  ``B = (D - A + U)^-1`` where U is the all-ones matrix;
* ``subgraph``        -- diagonal of the adjacency matrix exponential,
  i.e. closed walks weighted by inverse factorial length;
* ``walk_betweenness``-- net electric current through the vertex when a
  unit current is injected across each vertex pair, endpoint pairs
  contributing exactly 1.

Each measure is a kernel over a stack of graphs on one vertex count
(:data:`_TABLE`): eigenvector and subgraph take the whole stack in one
call, the other six run per graph. :func:`measure_stack` checks a stack
once; :func:`compute_measure` and the eight per-graph functions are its
stack of one.

``betweenness``, ``closeness``, ``eccentricity``, ``eigenvector``,
``information`` and ``walk_betweenness`` raise
:class:`DisconnectedGraphError` on disconnected input rather than
computing per-component values; ``degree`` and ``subgraph`` score any graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graphs import Graph, bfs_all_pairs, is_connected
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

POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_CAP = 10**6
_ROW_SUM_TOL = 1e-8
_EDGE_CHUNK = 2048
_ROW_BLOCK = 128


class DisconnectedGraphError(ValueError):
    """Measure requires a connected graph."""


class ConvergenceError(RuntimeError):
    """Iterative computation exhausted its iteration budget."""


@dataclass(frozen=True)
class CentralityVector:
    """Per-vertex scores of one named measure, index-aligned with the graph;
    built by :func:`compute_measure` from scores it has checked."""

    measure: str
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PowerIterationState:
    """Final iterates of the eigenvector power iteration over a stack of
    graphs: one row of ``iterate``, one iteration count and one last
    delta per graph."""

    iterate: np.ndarray
    iterations: np.ndarray
    last_delta: np.ndarray


def _checked(measure: str, values) -> np.ndarray:
    """``values`` as a float array; a non-finite or negative score raises."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{measure}: non-finite centrality value")
    if values.size and values.min() < 0:
        raise ValueError(f"{measure}: negative centrality value")
    return values


def _degree(g: Graph) -> np.ndarray:
    return g.degrees.astype(float)


def _closeness(g: Graph) -> np.ndarray:
    return 1.0 / bfs_all_pairs(g).dist.sum(axis=0)


def _eccentricity(g: Graph) -> np.ndarray:
    return 1.0 / bfs_all_pairs(g).dist.max(axis=0)


def _betweenness(g: Graph) -> np.ndarray:
    """Geodesic betweenness by level-wise dependency accumulation.

    All sources are processed at once: dependencies flow one BFS level at
    a time through the graph's adjacency operator, which reproduces the
    classic per-source accumulation
    ``delta[v] += sigma[v]/sigma[w] * (1+delta[w])`` as matrix products.
    On a dense adjacency row s of ``delta`` belongs to source s. On a CSR
    adjacency ``delta`` is kept transposed, one column per source, so the
    sparse product needs no transpose copies: ``dist`` and ``sigma`` are
    symmetric, and only the product and the final sum change sides.
    """
    n = g.n
    if n <= 2:
        return np.zeros(n)
    op = g.adjacency_operator
    by_column = not isinstance(op, np.ndarray)
    geo = bfs_all_pairs(g)
    dist, sigma = geo.dist.ravel(), geo.sigma.ravel()
    delta = np.zeros(n * n)
    coeff = np.zeros((n, n))
    # Level 1 would only feed the sources themselves, whose entries (the
    # diagonal) stay 0, so the loop stops at level 2.
    top = int(dist.max())
    below = np.flatnonzero(dist == top)
    for level in range(top, 1, -1):
        at, below = below, np.flatnonzero(dist == level - 1)
        np.put(coeff, at, (1.0 + delta[at]) / sigma[at])
        spread = op @ coeff if by_column else coeff @ op
        np.put(coeff, at, 0.0)
        delta[below] = sigma[below] * spread.take(below)
    # Each unordered pair is seen from both endpoints as a source.
    per_vertex = delta.reshape(n, n).sum(axis=int(by_column))
    return per_vertex / 2.0


def power_iteration(graphs) -> PowerIterationState:
    """Iterate ``v <- (A + I) v`` with sum-normalization from all-ones, for
    each graph of a stack on one vertex count, until a step moves no entry
    by ``POWER_ITERATION_TOL``; ``POWER_ITERATION_CAP`` iterations at most.

    The unit diagonal makes the iteration aperiodic, so it converges on
    every connected graph, including bipartite ones. One ``np.matmul``
    multiplies the whole ``(k, n, n)`` stack per iteration; it applies to
    each matrix the gemv that the product of that matrix alone would, and
    a graph leaves the stack at its own convergence, so each graph's
    iterate, iteration count and last delta are bit for bit those of a
    stack of one. The buffers are reused until a graph leaves.
    """
    m = np.stack([g.adjacency_matrix for g in graphs])
    k, n, _ = m.shape
    m += np.eye(n)
    v = np.full((k, n, 1), 1.0 / n)
    w, diff = np.empty_like(v), np.empty_like(v)
    iterate, last_delta = np.empty((k, n)), np.empty(k)
    iterations = np.zeros(k, dtype=int)
    rows = np.arange(k)  # stack position of each graph still iterating
    for iteration in range(1, POWER_ITERATION_CAP + 1):
        np.matmul(m, v, out=w)
        w /= w.sum(axis=1, keepdims=True)
        np.subtract(w, v, out=diff)
        np.abs(diff, out=diff)
        delta = diff.max(axis=1)[:, 0]
        v, w = w, v
        done = delta < POWER_ITERATION_TOL
        if done.any():
            iterate[rows[done]] = v[done, :, 0]
            iterations[rows[done]] = iteration
            last_delta[rows[done]] = delta[done]
            if done.all():
                return PowerIterationState(iterate, iterations, last_delta)
            going = ~done
            rows, m, v = rows[going], m[going], v[going]
            w, diff = np.empty_like(v), np.empty_like(v)
    raise ConvergenceError(
        f"power iteration did not reach {POWER_ITERATION_TOL:g} "
        f"within {POWER_ITERATION_CAP} iterations"
    )


def _eigenvector(graphs) -> np.ndarray:
    """Eigenvector centrality of each graph of a stack, one row per graph:
    the converged power-iteration iterate divided by its largest entry."""
    v = power_iteration(graphs).iterate
    return v / v.max(axis=1, keepdims=True)


def _information(g: Graph) -> np.ndarray:
    """Stephenson-Zelen information centrality.

    With ``B = (D - A + U)^-1``, ``T`` its trace and ``R`` its common row
    sum (every row of B sums to ``1/n`` on a connected graph), vertex k
    scores ``1 / (B[k,k] + (T - 2R)/n)``.
    """
    n = g.n
    b = invert(np.diag(g.degrees.astype(float)) - g.adjacency_matrix + np.ones((n, n)))
    row_sums = b.sum(axis=1)
    if np.max(np.abs(row_sums - row_sums[0])) > _ROW_SUM_TOL:
        raise ArithmeticError("row sums of (D - A + U)^-1 are not constant")
    return 1.0 / (np.diag(b) + (float(np.trace(b)) - 2.0 * float(row_sums[0])) / n)


def _subgraph(graphs) -> np.ndarray:
    """Subgraph centrality of each graph of a stack, one row per graph: the
    diagonal of ``expm(A)`` from one stacked eigendecomposition. Each
    matrix gets the ``eigh`` and the gemv it would get alone, so every row
    is bit for bit that of a stack of one."""
    lam, vecs = sym_eigen(np.stack([g.adjacency_matrix for g in graphs]))
    return np.matmul(vecs * vecs, np.exp(lam)[..., None])[..., 0]


def _walk_betweenness(g: Graph) -> np.ndarray:
    """Current-flow (random-walk) betweenness.

    For source-target pair (i, j), the current on edge (k, t) is
    ``|T[k,i] - T[k,j] - T[t,i] + T[t,j]|`` and vertex k carries half the
    absolute current over its incident edges; pairs with k as an endpoint
    contribute exactly 1. Per edge, the sum over all pairs reduces to a
    sorted prefix sum, and pairs involving the edge's own endpoints are
    subtracted, giving O(m n log n) overall.

    Edges are taken in chunks of ``_EDGE_CHUNK``. Within a chunk, the
    potential differences ``T[u] - T[v]``, the two endpoint deviation sums
    and the in-place row sort run in blocks of ``_ROW_BLOCK`` edges, so
    the working set stays in cache and the buffers are reused. The sorted
    rows land in one chunk-sized array, and each chunk does one
    matrix-vector product with the rank weights and one accumulation per
    endpoint: a product per block would round differently when a block
    holds a single row.
    """
    n = g.n
    # Inverse of the Laplacian grounded at the last vertex: its last row
    # and column are removed before inversion and padded back as zeros.
    lap = np.diag(g.degrees.astype(float)) - g.adjacency_matrix
    t = np.zeros((n, n))
    t[: n - 1, : n - 1] = invert(lap[: n - 1, : n - 1])
    acc = np.zeros(n)
    edges = g.edges
    m = len(edges)
    rank_weights = 2.0 * np.arange(n) - (n - 1)
    ordered = np.empty((min(m, _EDGE_CHUNK), n))
    scratch = np.empty((min(m, _ROW_BLOCK), n))
    for lo in range(0, m, _EDGE_CHUNK):
        chunk = edges[lo : lo + _EDGE_CHUNK]
        u, v = chunk[:, 0], chunk[:, 1]
        pairs_u = np.empty(len(chunk))
        pairs_v = np.empty(len(chunk))
        for b in range(0, len(chunk), _ROW_BLOCK):
            bu, bv = u[b : b + _ROW_BLOCK], v[b : b + _ROW_BLOCK]
            rows = np.arange(len(bu))
            x = ordered[b : b + len(bu)]
            dev = scratch[: len(bu)]
            # The indices are in range; mode="clip" lets take write into
            # ``out`` without an intermediate copy.
            np.take(t, bu, axis=0, out=x, mode="clip")
            np.take(t, bv, axis=0, out=dev, mode="clip")
            x -= dev
            # Sum of |x_i - x_j| over the pairs with j an endpoint, per edge.
            for ends, sums in ((bu, pairs_u), (bv, pairs_v)):
                np.subtract(x, x[rows, ends][:, None], out=dev)
                np.abs(dev, out=dev)
                dev.sum(axis=1, out=sums[b : b + len(bu)])
            x.sort(axis=1)
        # Sum of |x_i - x_j| over all pairs i<j, per edge.
        total = ordered[: len(chunk)] @ rank_weights
        np.add.at(acc, u, total - pairs_u)
        np.add.at(acc, v, total - pairs_v)
    return 0.5 * acc + (n - 1)


class _Measure(NamedTuple):
    """A :data:`_TABLE` entry: the kernel, ``(graphs) -> (k, n)`` scores,
    whether the measure needs a connected graph, and the smallest vertex
    count it is defined on."""

    kernel: Callable[[list], np.ndarray]
    connected: bool
    min_n: int


def _per_graph(func) -> Callable[[list], np.ndarray]:
    """The stack kernel of a one-graph function: its rows, stacked."""
    return lambda graphs: np.stack([func(g) for g in graphs])


_TABLE = {
    "betweenness": _Measure(_per_graph(_betweenness), connected=True, min_n=1),
    "closeness": _Measure(_per_graph(_closeness), connected=True, min_n=2),
    "degree": _Measure(_per_graph(_degree), connected=False, min_n=1),
    "eccentricity": _Measure(_per_graph(_eccentricity), connected=True, min_n=2),
    "eigenvector": _Measure(_eigenvector, connected=True, min_n=1),
    "information": _Measure(_per_graph(_information), connected=True, min_n=2),
    "subgraph": _Measure(_subgraph, connected=False, min_n=1),
    "walk_betweenness": _Measure(_per_graph(_walk_betweenness), connected=True, min_n=2),
}
MEASURES = tuple(_TABLE)  # in name order


def measure_stack(graphs, measure: str) -> np.ndarray:
    """The ``(k, n)`` scores of ``measure`` for k graphs on one vertex count,
    each row bit for bit that of its stack of one. Every check runs once
    per stack: one vertex count, connectivity where the measure needs it,
    enough vertices, and finite, non-negative scores."""
    try:
        spec = _TABLE[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}") from None
    sizes = {g.n for g in graphs}
    if len(sizes) != 1:
        raise ValueError("a stack needs at least one graph, all on one vertex count")
    if spec.connected and not all(is_connected(g) for g in graphs):
        raise DisconnectedGraphError(f"{measure} requires a connected graph")
    if sizes.pop() < spec.min_n:
        raise ValueError(f"{measure} is undefined for a single vertex")
    return _checked(measure, spec.kernel(graphs))


def compute_measure(g: Graph, measure: str) -> CentralityVector:
    """:func:`measure_stack` of the stack of one."""
    return CentralityVector(measure, measure_stack([g], measure)[0])


def betweenness(g: Graph) -> CentralityVector:
    return compute_measure(g, "betweenness")


def closeness(g: Graph) -> CentralityVector:
    return compute_measure(g, "closeness")


def degree(g: Graph) -> CentralityVector:
    return compute_measure(g, "degree")


def eccentricity(g: Graph) -> CentralityVector:
    return compute_measure(g, "eccentricity")


def eigenvector(g: Graph) -> CentralityVector:
    return compute_measure(g, "eigenvector")


def information(g: Graph) -> CentralityVector:
    return compute_measure(g, "information")


def subgraph(g: Graph) -> CentralityVector:
    return compute_measure(g, "subgraph")


def walk_betweenness(g: Graph) -> CentralityVector:
    return compute_measure(g, "walk_betweenness")


def all_measures(g: Graph) -> dict[str, CentralityVector]:
    """All eight measures of ``g``, keyed by name in :data:`MEASURES` order."""
    return {name: compute_measure(g, name) for name in MEASURES}


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
