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

``eigenvector`` and ``subgraph`` have one kernel each over a stack of
graphs on one vertex count (:data:`STACK_KERNELS`), which the harness
calls once per census cell; the per-graph functions are its stack of one.

Measures that are undefined on disconnected input (all but ``degree``,
``eigenvector`` and ``subgraph``) raise :class:`DisconnectedGraphError`
rather than computing per-component values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, bfs_all_pairs, is_connected
from .linalg import invert, sym_eigen

MEASURES = (
    "betweenness",
    "closeness",
    "degree",
    "eccentricity",
    "eigenvector",
    "information",
    "subgraph",
    "walk_betweenness",
)

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
    """Per-vertex scores of one named measure, index-aligned with the graph."""

    measure: str
    values: np.ndarray

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        values = _checked(self.measure, self.values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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


def _adjacency_stack(graphs) -> np.ndarray:
    """The ``(k, n, n)`` adjacency matrices of graphs on one vertex count."""
    if len({g.n for g in graphs}) != 1:
        raise ValueError("a stack needs at least one graph, all on one vertex count")
    return np.stack([g.adjacency_matrix for g in graphs])


def _require_connected(g: Graph, measure: str) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError(f"{measure} requires a connected graph")


def degree(g: Graph) -> CentralityVector:
    return CentralityVector("degree", g.degrees.astype(float))


def closeness(g: Graph) -> CentralityVector:
    _require_connected(g, "closeness")
    if g.n < 2:
        raise ValueError("closeness is undefined for a single vertex")
    dist = bfs_all_pairs(g).dist
    return CentralityVector("closeness", 1.0 / dist.sum(axis=0))


def eccentricity(g: Graph) -> CentralityVector:
    _require_connected(g, "eccentricity")
    if g.n < 2:
        raise ValueError("eccentricity is undefined for a single vertex")
    dist = bfs_all_pairs(g).dist
    return CentralityVector("eccentricity", 1.0 / dist.max(axis=0))


def betweenness(g: Graph) -> CentralityVector:
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
    _require_connected(g, "betweenness")
    n = g.n
    if n <= 2:
        return CentralityVector("betweenness", np.zeros(n))
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
    return CentralityVector("betweenness", per_vertex / 2.0)


def power_iteration(
    graphs,
    tol: float = POWER_ITERATION_TOL,
    max_iterations: int = POWER_ITERATION_CAP,
) -> PowerIterationState:
    """Iterate ``v <- (A + I) v`` with sum-normalization from all-ones, for
    each graph of a stack on one vertex count.

    The unit diagonal makes the iteration aperiodic, so it converges on
    every connected graph, including bipartite ones. One ``np.matmul``
    multiplies the whole ``(k, n, n)`` stack per iteration; it applies to
    each matrix the gemv that the product of that matrix alone would, and
    a graph leaves the stack at its own convergence, so each graph's
    iterate, iteration count and last delta are bit for bit those of a
    stack of one. The buffers are reused until a graph leaves.
    """
    m = _adjacency_stack(graphs)
    k, n, _ = m.shape
    m += np.eye(n)
    v = np.full((k, n, 1), 1.0 / n)
    w, diff = np.empty_like(v), np.empty_like(v)
    iterate, last_delta = np.empty((k, n)), np.empty(k)
    iterations = np.zeros(k, dtype=int)
    rows = np.arange(k)  # stack position of each graph still iterating
    for iteration in range(1, max_iterations + 1):
        np.matmul(m, v, out=w)
        w /= w.sum(axis=1, keepdims=True)
        np.subtract(w, v, out=diff)
        np.abs(diff, out=diff)
        delta = diff.max(axis=1)[:, 0]
        v, w = w, v
        done = delta < tol
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
        f"power iteration did not reach {tol:g} within {max_iterations} iterations"
    )


def eigenvector_scores(graphs) -> np.ndarray:
    """Eigenvector centrality of each graph of a stack on one vertex count,
    one row per graph: the converged power-iteration iterate divided by its
    largest entry."""
    for g in graphs:
        _require_connected(g, "eigenvector")
    v = power_iteration(graphs).iterate
    return _checked("eigenvector", v / v.max(axis=1, keepdims=True))


def eigenvector(g: Graph) -> CentralityVector:
    """:func:`eigenvector_scores` of the stack of one."""
    return CentralityVector("eigenvector", eigenvector_scores([g])[0])


@dataclass(frozen=True)
class InformationIntermediate:
    """The matrix behind information centrality: ``B = (D - A + U)^-1``
    with its trace ``t`` and common row sum ``r`` (every row of B sums to
    ``1/n`` on a connected graph)."""

    b: np.ndarray
    t: float
    r: float


def information_intermediate(g: Graph) -> InformationIntermediate:
    n = g.n
    a = g.adjacency_matrix
    b = invert(np.diag(g.degrees.astype(float)) - a + np.ones((n, n)))
    row_sums = b.sum(axis=1)
    if np.max(np.abs(row_sums - row_sums[0])) > _ROW_SUM_TOL:
        raise ArithmeticError("row sums of (D - A + U)^-1 are not constant")
    b.flags.writeable = False
    return InformationIntermediate(b=b, t=float(np.trace(b)), r=float(row_sums[0]))


def information(g: Graph) -> CentralityVector:
    """Stephenson-Zelen information centrality.

    With ``B = (D - A + U)^-1``, ``T`` its trace and ``R`` its common row
    sum, vertex k scores ``1 / (B[k,k] + (T - 2R)/n)``.
    """
    _require_connected(g, "information")
    n = g.n
    if n < 2:
        raise ValueError("information centrality is undefined for a single vertex")
    inter = information_intermediate(g)
    return CentralityVector(
        "information", 1.0 / (np.diag(inter.b) + (inter.t - 2.0 * inter.r) / n)
    )


def subgraph_scores(graphs) -> np.ndarray:
    """Subgraph centrality of each graph of a stack on one vertex count,
    one row per graph: the diagonal of ``expm(A)`` from one stacked
    eigendecomposition. Each matrix gets the ``eigh`` and the gemv it
    would get alone, so every row is bit for bit that of a stack of one."""
    lam, vecs = sym_eigen(_adjacency_stack(graphs))
    return _checked("subgraph", np.matmul(vecs * vecs, np.exp(lam)[..., None])[..., 0])


def subgraph(g: Graph) -> CentralityVector:
    """:func:`subgraph_scores` of the stack of one."""
    return CentralityVector("subgraph", subgraph_scores([g])[0])


def walk_betweenness(g: Graph) -> CentralityVector:
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
    _require_connected(g, "walk_betweenness")
    n = g.n
    if n < 2:
        raise ValueError("walk betweenness is undefined for a single vertex")
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
    return CentralityVector("walk_betweenness", 0.5 * acc + (n - 1))


_MEASURE_FUNCS = {
    "betweenness": betweenness,
    "closeness": closeness,
    "degree": degree,
    "eccentricity": eccentricity,
    "eigenvector": eigenvector,
    "information": information,
    "subgraph": subgraph,
    "walk_betweenness": walk_betweenness,
}


# The measures computed for a whole stack of graphs on one vertex count in
# one call: name -> kernel(graphs), which returns one row of scores per graph.
STACK_KERNELS = {"eigenvector": eigenvector_scores, "subgraph": subgraph_scores}


def compute_measure(g: Graph, measure: str) -> CentralityVector:
    try:
        func = _MEASURE_FUNCS[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}") from None
    return func(g)


def all_measures(g: Graph, measures=MEASURES) -> dict[str, CentralityVector]:
    """Compute the requested measures, keyed by name."""
    return {name: compute_measure(g, name) for name in measures}


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
