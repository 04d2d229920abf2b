"""Simple undirected graphs: construction, interchange formats, traversal.

Vertices are dense integers ``0..n-1``. A :class:`Graph` is immutable once
built, so instances can be shared freely between threads or worker
processes. It holds its edge set once, as a sorted read-only ``(m, 2)``
int64 array; degrees, adjacency matrix, connectivity and the all-pairs
geodesics are computed from it on first use and cached. The generators'
retry check and the measures' guard on a drawn sample share its one
frontier BFS (:attr:`Graph.connected`), and the measures of a drawn sample
share its one all-sources BFS (:attr:`Graph.geodesics`). A
:class:`GraphStack` holds k graphs on one vertex count with their
adjacency, degrees and geodesics stacked, built once for every measure of
the stack. The census's stack comes from :func:`connected_stack`, whose
one stacked all-sources BFS over every class decides connectivity and
leaves each connected graph, and the stack, its geodesics: a census graph
runs no BFS of its own.

Two text formats are supported:

* edge lists -- one ``"u v"`` line per edge, smaller index first, with an
  optional ``# n=<count>`` first line that preserves isolated vertices;
* graph6 -- the compact printable encoding used by small-graph corpora
  (short form only, ``n <= 62``): one byte ``n+63`` followed by the
  upper-triangle adjacency bits in column order ``(0,1),(0,2),(1,2),
  (0,3),...``, packed big-endian into 6-bit groups offset by 63 and
  zero-padded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

UNREACHABLE = -1

_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")
# Largest vertex count whose edge keys u * n + v fit in an int64.
_MAX_N = isqrt(np.iinfo(np.int64).max)
# Big-endian bit positions within one 6-bit graph6 group.
_BIT_SHIFTS = np.arange(5, -1, -1)
# Graphs with 2m <= n**2 / _SPARSE_CUT multiply through a CSR adjacency.
_SPARSE_CUT = 25


class GraphError(ValueError):
    """Invalid graph structure: self-loop, duplicate edge, or bad index."""


class FormatError(ValueError):
    """Malformed edge-list or graph6 payload."""


class Graph:
    """Immutable simple undirected unweighted graph on vertices 0..n-1.

    ``edges`` may be any iterable of vertex pairs or an ``(m, 2)`` array.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = int(n)
        if n < 1:
            raise GraphError(f"vertex count must be >= 1, got {n}")
        if n > _MAX_N:
            raise GraphError(f"vertex count {n} exceeds the limit of {_MAX_N}")
        e = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError(f"edges must be vertex pairs, got shape {e.shape}")
        canon = np.sort(e, axis=1)
        lo, hi = canon[:, 0], canon[:, 1]
        if lo.min(initial=0) < 0 or hi.max(initial=0) >= n:
            u, v = e[(lo < 0) | (hi >= n)][0]
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        loops = lo == hi
        if loops.any():
            raise GraphError(f"self-loop at vertex {lo[loops][0]}")
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeats = key[1:] == key[:-1]
        if repeats.any():
            # The first pair in input order that repeats an earlier one.
            k = order[1:][repeats].min()
            raise GraphError(f"duplicate edge ({lo[k]}, {hi[k]})")
        canon = canon[order]
        canon.flags.writeable = False
        self._n = n
        self._edges = canon

    @classmethod
    def _canonical(cls, n: int, edges: np.ndarray) -> "Graph":
        """A graph on ``edges`` that are already canonical: a read-only
        ``(m, 2)`` int64 array of distinct in-range pairs, smaller index
        first, sorted. Nothing is checked or copied."""
        g = object.__new__(cls)
        g._n = n
        g._edges = edges
        return g

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> np.ndarray:
        """Sorted read-only ``(m, 2)`` int64 array, smaller index first."""
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        n = self._n
        return 0 <= u < n and 0 <= v < n and bool(self.adjacency_matrix[u, v])

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self._edges.ravel(), minlength=self._n)
        deg.flags.writeable = False
        return deg

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric 0/1 matrix as float64 with zero diagonal (read-only)."""
        a = np.zeros((self._n, self._n))
        u, v = self._edges[:, 0], self._edges[:, 1]
        a[u, v] = 1.0
        a[v, u] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def connected(self) -> bool:
        """True iff a frontier BFS from vertex 0 reaches all n vertices."""
        if self.m < self._n - 1:  # too few edges; skip building the matrix
            return False
        a = self.adjacency_matrix
        seen = np.zeros(self._n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = a[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    @cached_property
    def adjacency_operator(self):
        """The adjacency matrix in the form that multiplies fastest.

        A ``scipy.sparse`` CSR array when the graph is sparse (``2m`` at most
        ``n**2 / 25``), else :attr:`adjacency_matrix` itself. Dense products
        run through BLAS, whose cost does not shrink with m; below the cut
        the CSR product's ``2m·n`` multiply-adds win. A connected graph has
        ``m >= n - 1``, so every connected graph on at most 48 vertices stays
        dense and never imports ``scipy.sparse``.
        """
        if 2 * self.m * _SPARSE_CUT > self._n * self._n:
            return self.adjacency_matrix
        from scipy import sparse

        return sparse.csr_array(self.adjacency_matrix)

    @cached_property
    def geodesics(self) -> GeodesicData:
        """Breadth-first distances and geodesic counts from every source,
        by :func:`_all_pairs_bfs` through :attr:`adjacency_operator`."""
        return _all_pairs_bfs(self.adjacency_operator, self.adjacency_matrix)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        perm = np.asarray(perm, dtype=np.int64)
        if not np.array_equal(np.sort(perm), np.arange(self._n)):
            raise GraphError("relabeling is not a permutation of 0..n-1")
        return Graph(self._n, perm[self._edges])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.m})"

    def __reduce__(self):
        # Rebuild through __init__: the copy is read-only and carries no caches.
        return Graph, (self._n, self._edges)


@dataclass(frozen=True)
class GeodesicData:
    """All-pairs hop distances and shortest-path counts.

    ``dist[i, j]`` is the hop count of a shortest i-j path, or
    ``UNREACHABLE`` when none exists; ``sigma[i, j]`` counts the distinct
    shortest paths (0 when unreachable, 1 on the diagonal). Together with
    the adjacency relation these matrices determine, level by level, how
    many shortest paths run through any given vertex.
    """

    dist: np.ndarray
    sigma: np.ndarray


def _all_pairs_bfs(op, adjacency: np.ndarray) -> GeodesicData:
    """Breadth-first distances and geodesic counts from every source of one
    graph, ``adjacency`` ``(n, n)``, or of each graph of a dense
    ``(k, n, n)`` stack.

    Runs all sources simultaneously. The 0/1 adjacency is level 1; at each
    later level the frontier's path counts are pushed one step through
    ``op``, one product with an n-by-n matrix per graph, so a connected
    graph of diameter d takes d - 1 products; ``op`` is a graph's
    :attr:`Graph.adjacency_operator` or the stack's adjacency. Column s of
    a frontier holds the counts from source s; ``dist`` and ``sigma`` are
    symmetric, so the rows are sources as well. Path counts are integers,
    exact while they stay below 2**53, so every summation order gives the
    same bits and a stacked BFS equals each graph's own.
    """
    n = adjacency.shape[-1]
    sigma = adjacency + np.eye(n)  # one path to each neighbour and to itself
    dist = np.where(sigma != 0, np.int32(1), np.int32(UNREACHABLE)) - np.eye(n, dtype=np.int32)
    frontier, level = adjacency, 1
    unreached = np.count_nonzero(dist == UNREACHABLE)
    while unreached:
        frontier = op @ frontier
        frontier *= sigma == 0  # keep the counts that reach new vertices
        newly = np.flatnonzero(frontier != 0)  # a boolean scan beats a float one
        if not newly.size:
            break
        unreached -= newly.size
        level += 1
        np.put(dist, newly, level)
        np.put(sigma, newly, frontier.take(newly))
    dist.flags.writeable = False
    sigma.flags.writeable = False
    return GeodesicData(dist=dist, sigma=sigma)


class GraphStack(tuple):
    """A tuple of k graphs on one vertex count n, with the arrays that every
    measure of the stack shares, each built once on first use:
    ``(k, n, n)`` :attr:`adjacency`, ``(k, n)`` :attr:`degrees`, stacked
    :attr:`geodesics`, per-graph :attr:`connected`, and one flat
    :attr:`edges` array.

    A stack of one takes its graph's cached adjacency and geodesics as
    views, so its geodesics run on the graph's own operator, dense or CSR.
    A larger stack runs one dense BFS over its stacked adjacency.
    :func:`connected_stack` hands the census its stack with every array
    already known. ``GraphStack(stack)`` is ``stack``.
    """

    def __new__(cls, graphs):
        if type(graphs) is cls:
            return graphs
        self = super().__new__(cls, graphs)
        sizes = {g.n for g in self}
        if len(sizes) != 1:
            raise ValueError("a stack needs at least one graph, all on one vertex count")
        (self.n,) = sizes
        return self

    def __setstate__(self, state):
        # numpy does not pickle the writeable flag, so a stack sent to a
        # pool worker would arrive with writeable arrays: clear it again on
        # every cached array, those of a tuple or GeodesicData included.
        for value in state.values():
            if isinstance(value, GeodesicData):
                value = tuple(vars(value).values())
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
        vars(self).update(state)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """``(k, n, n)`` 0/1 adjacency matrices as float64 (read-only)."""
        if len(self) == 1:
            return self[0].adjacency_matrix[None]
        a = np.stack([g.adjacency_matrix for g in self])
        a.flags.writeable = False
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """``(k, n)`` vertex degrees as float64 (read-only)."""
        d = self.adjacency.sum(axis=2)
        d.flags.writeable = False
        return d

    @cached_property
    def geodesics(self) -> GeodesicData:
        """``(k, n, n)`` distances and geodesic counts, each graph's
        :attr:`Graph.geodesics` bit for bit."""
        if len(self) == 1:
            geo = self[0].geodesics
            return GeodesicData(dist=geo.dist[None], sigma=geo.sigma[None])
        return _all_pairs_bfs(self.adjacency, self.adjacency)

    @cached_property
    def connected(self) -> np.ndarray:
        """``(k,)`` bool: each graph's :attr:`Graph.connected` (read-only)."""
        c = np.array([g.connected for g in self])
        c.flags.writeable = False
        return c

    @cached_property
    def edges(self) -> np.ndarray:
        """``(E, 2)`` int64: every graph's :attr:`Graph.edges` in stack
        order, graph i's vertices numbered from ``i * n`` (read-only)."""
        e = np.concatenate([g.edges + i * self.n for i, g in enumerate(self)])
        e.flags.writeable = False
        return e


def connected_stack(n: int, bits: np.ndarray) -> GraphStack:
    """The connected graphs among k edge sets on n vertices, in their order,
    as one :class:`GraphStack`; row i of the ``(k, n(n-1)/2)`` bool array
    ``bits`` marks the edges of graph i over the pairs of
    :func:`_graph6_pairs`.

    One stacked all-sources BFS decides connectivity for every row. Only
    the connected rows become graphs, built on canonical edges without
    revalidation; each graph and the stack arrive with their adjacency,
    geodesics, connectivity and edges known, as views of the stacked
    arrays, so no BFS runs again.
    """
    pairs = _graph6_pairs(n)
    i, j = pairs.T
    adjacency = np.zeros((len(bits), n, n))
    adjacency[:, i, j] = bits
    adjacency[:, j, i] = bits
    geo = _all_pairs_bfs(adjacency, adjacency)
    keep = (geo.dist[:, 0] != UNREACHABLE).all(axis=1)
    adjacency, dist, sigma = adjacency[keep], geo.dist[keep], geo.sigma[keep]
    # Every graph's edges in canonical order, graph after graph.
    order = np.lexsort((j, i))
    bits = bits[keep][:, order]
    rows, cols = np.nonzero(bits)
    local = pairs[order][cols]
    edges = local + n * rows[:, None]
    connected = np.ones(len(adjacency), dtype=bool)
    for array in (adjacency, dist, sigma, local, edges, connected):
        array.flags.writeable = False
    graphs = []
    split = np.split(local, np.cumsum(bits.sum(axis=1))[:-1])
    for e, a, d, s in zip(split, adjacency, dist, sigma):
        g = Graph._canonical(n, e)
        vars(g).update(connected=True, adjacency_matrix=a,
                       geodesics=GeodesicData(dist=d, sigma=s))
        graphs.append(g)
    stack = GraphStack(graphs)
    vars(stack).update(adjacency=adjacency, geodesics=GeodesicData(dist=dist, sigma=sigma),
                       connected=connected, edges=edges)
    return stack


def bfs_all_pairs(g: Graph) -> GeodesicData:
    """All-pairs hop distances and geodesic counts (cached per graph)."""
    return g.geodesics


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches all n vertices (cached per graph)."""
    return g.connected


def parse_edge_list(text: str) -> Graph:
    """Parse a ``"u v"``-per-line edge list into a Graph.

    The vertex count is the value of a ``# n=<count>`` first-line header,
    else ``1 + max index``. Self-loops, duplicate edges, and malformed
    tokens are rejected with the offending line number.
    """
    lines = text.splitlines()
    start = 0
    n = None
    if lines and lines[0].lstrip().startswith("#"):
        match = _HEADER_RE.match(lines[0].strip())
        if not match:
            raise FormatError("line 1: unrecognized header (expected '# n=<count>')")
        n = int(match.group(1))
        start = 1

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_idx = -1
    for lineno, raw in enumerate(lines[start:], start + 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two vertex indices, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex token in {raw!r}") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise FormatError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
        max_idx = max(max_idx, e[1])

    if n is None:
        if max_idx < 0:
            raise FormatError("empty edge list and no vertex-count header")
        n = max_idx + 1
    if max_idx >= n:
        raise FormatError(f"vertex index {max_idx} out of range for n={n}")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header line, then one sorted edge per line."""
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


@cache
def _graph6_pairs(n: int) -> np.ndarray:
    """Read-only ``(n*(n-1)/2, 2)`` array of the vertex pairs ``(i, j)``,
    ``i < j``, in graph6 bit order."""
    j, i = np.tril_indices(n, -1)  # the upper triangle by columns is the lower by rows
    pairs = np.column_stack((i, j))
    pairs.flags.writeable = False
    return pairs


def parse_graph6(record: str) -> Graph:
    """Decode one short-form graph6 record (n <= 62)."""
    record = record.strip()
    if not record:
        raise FormatError("empty graph6 record")
    vals = np.array([ord(ch) for ch in record]) - 63
    bad = np.flatnonzero((vals < 0) | (vals > 63))
    if bad.size:
        raise FormatError(f"graph6 byte {vals[bad[0]] + 63} outside printable range 63..126")
    if vals[0] == 63:
        raise FormatError("long-form graph6 (n > 62) is not supported")
    n = int(vals[0])
    if n == 0:
        raise FormatError("graph6 record encodes an empty vertex set")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(vals) - 1 != nbytes:
        raise FormatError(
            f"graph6 payload has {len(vals) - 1} bytes, expected {nbytes} for n={n}"
        )
    bits = ((vals[1:, None] >> _BIT_SHIFTS) & 1).ravel()
    if bits[nbits:].any():
        raise FormatError("nonzero padding bits in graph6 record")
    return Graph(n, _graph6_pairs(n)[bits[:nbits] == 1])


def format_graph6(g: Graph) -> str:
    """Encode a graph (n <= 62) as one short-form graph6 record."""
    n = g.n
    if n > 62:
        raise FormatError(f"short-form graph6 supports n <= 62, got n={n}")
    bits = g.adjacency_matrix[tuple(_graph6_pairs(n).T)].astype(np.int64)
    bits = np.concatenate((bits, np.zeros(-bits.size % 6, dtype=np.int64)))
    groups = bits.reshape(-1, 6) @ (1 << _BIT_SHIFTS) + 63
    return chr(n + 63) + "".join(map(chr, groups.tolist()))
