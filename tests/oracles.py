"""Independent brute-force reference implementations used only by tests.

Everything here deliberately takes a different route from the library:
plain-Python BFS instead of matrix products, explicit path enumeration
instead of dependency accumulation, per-pair current solves instead of
per-edge aggregation, and a pair-counting loop for tau-b.

:func:`exact_scores` computes every measure without rounding error, or
at 60 digits where the value is irrational, so tests can bound each
float64 score's error and tell which scores are truly equal.

The ``unblocked_*``, ``order_matrix_*`` and ``dense_*`` functions are the
exception: they keep the earlier, simpler forms of optimised kernels
(whole-array walk betweenness, float64 sign-matrix and boolean
order-matrix tau-b, all-sources BFS and betweenness through the dense
adjacency matrix), so tests can demand exact equality, not a tolerance,
of the optimised ones.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import factorial, sqrt

import numpy as np


def bf_bfs(adj, source):
    """Distances and geodesic counts from one source; adj = neighbor lists."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def neighbor_lists(g):
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def enumerate_geodesics(adj, dist_from_target, source, target):
    """All shortest source->target paths, by DFS down the distance gradient."""
    paths = []
    stack = [(source, [source])]
    while stack:
        v, path = stack.pop()
        if v == target:
            paths.append(path)
            continue
        for w in adj[v]:
            if dist_from_target[w] == dist_from_target[v] - 1:
                stack.append((w, path + [w]))
    return paths


def bf_betweenness(g):
    """Literal double sum over pairs: fraction of geodesics with k interior."""
    adj = neighbor_lists(g)
    scores = np.zeros(g.n)
    for i, j in combinations(range(g.n), 2):
        dist_j, _ = bf_bfs(adj, j)
        if dist_j[i] < 0:
            continue
        paths = enumerate_geodesics(adj, dist_j, i, j)
        for path in paths:
            for k in path[1:-1]:
                scores[k] += 1.0 / len(paths)
    return scores


def exact_inverse(m):
    """Inverse of a nonsingular square matrix of Fractions, by Gauss-Jordan
    elimination on ``[m | I]``."""
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        scale = head[col]
        head[:] = [x / scale for x in head]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
    return [row[n:] for row in rows]


def exact_scores(g):
    """Every measure of a connected graph, exactly: ``Fraction`` values for
    the six rational measures, ``mpmath.mpf`` at 60 digits for subgraph
    and eigenvector. Betweenness is Brandes' accumulation over integer
    path counts; information and walk betweenness both read one exact
    ``B = (L + J)^-1``. Needs mpmath."""
    import mpmath

    n = g.n
    adj = neighbor_lists(g)
    bfs = [bf_bfs(adj, s) for s in range(n)]
    scores = {
        "degree": [Fraction(len(a)) for a in adj],
        "closeness": [Fraction(1, sum(dist)) for dist, _ in bfs],
        "eccentricity": [Fraction(1, max(dist)) for dist, _ in bfs],
    }
    between = [Fraction(0)] * n
    for s, (dist, sigma) in enumerate(bfs):
        delta = [Fraction(0)] * n
        for v in sorted(range(n), key=dist.__getitem__, reverse=True):
            for w in adj[v]:
                if dist[w] == dist[v] + 1:
                    delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if v != s:
                between[v] += delta[v]
    scores["betweenness"] = [x / 2 for x in between]

    degree = [len(a) for a in adj]
    b = exact_inverse([
        [Fraction(1 + (degree[i] if i == j else -int(j in adj[i]))) for j in range(n)]
        for i in range(n)
    ])
    shift = (sum(b[k][k] for k in range(n)) - 2 * sum(b[0])) / n
    scores["information"] = [1 / (b[k][k] + shift) for k in range(n)]
    walk = [Fraction(0)] * n
    for i, j in combinations(range(n), 2):
        potential = [row[i] - row[j] for row in b]
        for k in range(n):
            if k in (i, j):
                walk[k] += 1
            else:
                walk[k] += sum(abs(potential[k] - potential[t]) for t in adj[k]) / 2
    scores["walk_betweenness"] = walk

    with mpmath.workdps(60):
        lam, vecs = mpmath.eigsy(mpmath.matrix(g.adjacency_matrix.tolist()))
        scores["subgraph"] = [
            mpmath.fsum(vecs[k, i] ** 2 * mpmath.exp(lam[i]) for i in range(n))
            for k in range(n)
        ]
        top = max(range(n), key=lambda i: lam[i])
        perron = [abs(vecs[k, top]) for k in range(n)]
        scores["eigenvector"] = [x / max(perron) for x in perron]
    return scores


def exact_equal_pairs(values):
    """The pairs ``(i, j)``, ``i < j``, of equal exact scores: Fractions
    compare exactly, and 60-digit values agreeing to 40 digits are equal
    (unequal census scores stand at least 1e-4 apart, relative)."""
    def same(a, b):
        if isinstance(a, Fraction):
            return a == b
        return abs(a - b) <= 1e-40 * max(abs(a), abs(b))

    return {
        (i, j) for i, j in combinations(range(len(values)), 2) if same(values[i], values[j])
    }


def bf_subgraph_series(g, terms=40):
    """Truncated closed-walk series sum_l (A^l)_kk / l!."""
    a = g.adjacency_matrix
    power = np.eye(g.n)
    total = np.zeros(g.n)
    for l in range(terms + 1):
        total += np.diag(power) / factorial(l)
        power = power @ a
    return total


def bf_walk_betweenness(g):
    """Per-pair current solve: unit current injected at i, drawn at j."""
    n = g.n
    lap = np.diag(np.asarray(g.degrees, dtype=float)) - g.adjacency_matrix
    reduced = lap[: n - 1, : n - 1]
    scores = np.zeros(n)
    for i, j in combinations(range(n), 2):
        supply = np.zeros(n)
        supply[i], supply[j] = 1.0, -1.0
        potentials = np.zeros(n)
        potentials[: n - 1] = np.linalg.solve(reduced, supply[: n - 1])
        for k in range(n):
            if k == i or k == j:
                scores[k] += 1.0
                continue
            through = sum(
                abs(potentials[k] - potentials[t]) for t in range(n) if g.has_edge(k, t)
            )
            scores[k] += through / 2.0
    return scores


def bf_kendall_tau_b(x, y):
    """Quadratic pair counter with the standard tie correction."""
    n = len(x)
    assert n == len(y)
    if all(v == x[0] for v in x) and all(v == y[0] for v in y):
        return 1.0
    if all(v == x[0] for v in x) or all(v == y[0] for v in y):
        return 0.0
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            if dx and dy:
                if dx == dy:
                    concordant += 1
                else:
                    discordant += 1
            elif dx:
                tied_y += 1
            elif dy:
                tied_x += 1
    cd = concordant + discordant
    return (concordant - discordant) / sqrt((cd + tied_x) * (cd + tied_y))


def bf_is_isomorphic(g1, g2):
    """Permutation search; fine for the tiny graphs tests use."""
    from itertools import permutations

    if g1.n != g2.n or g1.m != g2.m:
        return False
    edges1 = g1.edges.tolist()
    edges2 = set(map(tuple, g2.edges.tolist()))
    for perm in permutations(range(g1.n)):
        mapped = {
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges1
        }
        if mapped == edges2:
            return True
    return False


def random_tree(n, rng):
    """Uniform labeled tree from a random Pruefer sequence."""
    from graphbench import Graph

    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=int)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = int(np.flatnonzero(degree == 1)[0])
        edges.append((leaf, int(v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = np.flatnonzero(degree == 1)
    edges.append((int(u), int(w)))
    return Graph(n, edges)


def unblocked_walk_betweenness(g):
    """Walk betweenness with whole-array (m, n) float64 gathers and sorts,
    the kernel's O(1) endpoint sums and one accumulation."""
    from graphbench.linalg import invert

    n = g.n
    # The kernel's potentials, the rows of B = (D - A + U)^-1, read through
    # its transpose; the row sums are B's own, as the kernel takes them.
    b = invert(np.diag(g.degrees.astype(float)) - g.adjacency_matrix + 1.0)
    t, row_sums = b.T, b.sum(axis=1)
    u, v = g.edges.T
    rows = np.arange(g.m)
    x = t[u] - t[v]
    # The kernel's endpoint sums, n x_u - sum(x) and sum(x) - n x_v.
    sum_x = row_sums[u] - row_sums[v]
    pairs_u = n * x[rows, u] - sum_x
    pairs_v = sum_x - n * x[rows, v]
    x.sort(axis=1)
    # A matrix-vector product can round a row by the block's row count,
    # so the products run in the kernel's 128-row blocks.
    rank_weights = 2.0 * np.arange(n) - (n - 1)
    total = np.concatenate([x[lo : lo + 128] @ rank_weights for lo in range(0, g.m, 128)])
    acc = np.zeros(n)
    np.add.at(acc, np.concatenate((u, v)), np.concatenate((total - pairs_u, total - pairs_v)))
    return 0.5 * acc + (n - 1)


def unblocked_kendall_tau_b(x, y):
    """Tau-b as ``sum(sx * sy) / sqrt(nnz(sx) * nnz(sy))`` over the float64
    ordered-pair sign matrices."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_const = bool(np.all(x == x[0]))
    y_const = bool(np.all(y == y[0]))
    if x_const and y_const:
        return 1.0
    if x_const or y_const:
        return 0.0
    sx = np.sign(np.subtract.outer(x, x))
    sy = np.sign(np.subtract.outer(y, y))
    return float(np.vdot(sx, sy)) / np.sqrt(
        float(np.count_nonzero(sx)) * float(np.count_nonzero(sy))
    )


def order_matrix_kendall_tau_b(x, y):
    """Tau-b of one pair as ``2(C - D) / sqrt(2nx * 2ny)``, counted on the
    boolean order matrices ``x_i > x_j`` and ``y_i > y_j``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx = np.greater.outer(x, x)
    gy = np.greater.outer(y, y)
    nx = np.count_nonzero(gx)
    ny = np.count_nonzero(gy)
    if nx == 0 and ny == 0:
        return 1.0
    if nx == 0 or ny == 0:
        return 0.0
    concordant = np.count_nonzero(gx & gy)
    discordant = np.count_nonzero(gx & gy.T)
    return float(2 * (concordant - discordant)) / np.sqrt(
        float(2 * nx) * float(2 * ny)
    )


def dense_geodesics(g):
    """All-sources BFS with one dense ``(sigma * frontier) @ A`` per level;
    returns ``(dist, sigma)``."""
    n = g.n
    a = g.adjacency_matrix
    dist = np.full((n, n), -1, dtype=np.int32)
    sigma = np.zeros((n, n))
    np.fill_diagonal(dist, 0)
    np.fill_diagonal(sigma, 1.0)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        arriving = (sigma * frontier) @ a
        newly = (arriving > 0) & (dist == -1)
        level += 1
        dist[newly] = level
        sigma[newly] = arriving[newly]
        frontier = newly
    return dist, sigma


def dense_betweenness(g):
    """Level-wise dependency accumulation with one dense ``coeff @ A`` per
    level, one row per source."""
    n = g.n
    if n <= 2:
        return np.zeros(n)
    a = g.adjacency_matrix
    dist, sigma = dense_geodesics(g)
    delta = np.zeros((n, n))
    for level in range(int(dist.max()), 0, -1):
        at = dist == level
        coeff = np.where(at, (1.0 + delta) / np.where(at, sigma, 1.0), 0.0)
        spread = coeff @ a
        below = dist == level - 1
        delta += np.where(below, sigma * spread, 0.0)
    np.fill_diagonal(delta, 0.0)
    return delta.sum(axis=0) / 2.0


# Seeded samples on both sides of the 1/25 density cut of
# ``Graph.adjacency_operator``; each comment gives the sample's 2m/n**2.
DENSITY_CUT_SAMPLES = [
    ("er", 100, {"p": 0.1}),  # 0.097 dense
    ("er", 500, {"p": 0.02}),  # 0.020 CSR
    ("er", 500, {"p": 0.1}),  # 0.101 dense
    ("sf", 100, {"k": 2}),  # 0.039 CSR
    ("sf", 100, {"k": 5}),  # 0.097 dense
    ("sf", 500, {"k": 2}),  # 0.008 CSR
    ("sw", 100, {"k": 4, "p": 0.1}),  # 0.040 CSR, on the cut
    ("sw", 500, {"k": 4, "p": 0.1}),  # 0.008 CSR, 14 levels
    ("sw", 500, {"k": 32, "p": 0.1}),  # 0.064 dense
    ("gr", 100, {"kappa": 1.2}),  # 0.339 dense
    ("gr", 484, {"kappa": 2.0}),  # 0.015 CSR
    ("gr", 484, {"kappa": 1.2}),  # 0.142 dense
    ("cs", 100, {"p_c": 0.3, "c": 20, "p": 0.3}),  # 0.264 dense
    ("cs", 500, {"p_c": 0.1, "c": 50, "p": 0.05}),  # 0.021 CSR
    ("cs", 500, {"p_c": 0.1, "c": 50, "p": 0.5}),  # 0.207 dense
]


def sample_id(spec):
    model, n, params = spec
    return f"{model}-{n}-" + "-".join(
        f"{k}{'_'.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in params.items()
    )


def seeded_sample(model, n, params):
    """The first connected sample of the model under seed 1."""
    from graphbench.generators import ModelConfig, ensure_connected

    return ensure_connected(ModelConfig(model=model, n=n, params=params, seed=1))[0]
