"""Synthetic network models and the small-graph census, all seed-driven.

Six generative models are provided (short codes in parentheses):

* ``erdos_renyi`` (er)        -- each vertex pair connected independently
  with probability p;
* ``scale_free`` (sf)         -- preferential attachment growing from a
  complete seed of k vertices, k distinct degree-weighted targets per new
  vertex;
* ``small_world`` (sw)        -- ring lattice over k nearest neighbors
  with per-edge rewiring probability p (edge count preserved);
* ``geographical`` (gr)       -- vertices on a sqrt(n) x sqrt(n) grid,
  pair probability kappa**(-manhattan distance);
* ``community_structure`` (cs)-- independent community memberships with
  probability p_c, one edge trial with probability p per pair sharing at
  least one community;
* ``kronecker`` (kg)          -- stochastic Kronecker graph on 2**k
  vertices from a 2x2 initiator of probabilities.

Every generator consumes an explicit 64-bit seed and is a pure function
of its arguments: the same configuration always yields the same graph,
regardless of scheduling. Seeds for experiment samples are derived with
:func:`derive_seed`, a fixed splitmix64 chain over (base seed, model id,
cell index, sample index); connectivity retries fold the retry index into
the same chain via :func:`mix64`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Mapping

import numpy as np

from .graphs import Graph, _graph6_pairs, is_connected

MODELS = ("cs", "er", "gr", "sf", "sw", "kg")

# The parameters each model's generator reads from ModelConfig.params, in
# its argument order, and the names the plan records that no generator reads.
_MODEL_PARAMS = {"er": ("p",), "sf": ("k",), "sw": ("k", "p"), "gr": ("kappa",),
                 "cs": ("p_c", "p", "c"), "kg": ("initiator", "k")}
_RECORDED_PARAMS = {"cs": ("c_div",), "kg": ("initiator_name",)}

# Stable identifiers folded into derived seeds; order is frozen.
MODEL_IDS = {"er": 1, "sf": 2, "sw": 3, "gr": 4, "cs": 5, "kg": 6, "nonisomorphic": 7}

_MASK64 = (1 << 64) - 1

# Connected graphs up to isomorphism on 1..7 vertices.
CONNECTED_CLASS_COUNTS = (1, 1, 2, 6, 21, 112, 853)

DEFAULT_MAX_RETRIES = 100


class GenerationError(RuntimeError):
    """Connectivity retry budget exhausted for a model configuration."""


def splitmix64(x: int) -> int:
    """One splitmix64 step; the sole primitive behind seed derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(seed: int, *components: int) -> int:
    """Fold integer components into a seed: repeated splitmix64 of XORs."""
    state = splitmix64(seed & _MASK64)
    for c in components:
        state = splitmix64(state ^ (int(c) & _MASK64))
    return state


def derive_seed(base_seed: int, model: str, cell_index: int, sample_index: int) -> int:
    """Per-sample seed from the experiment base seed (retry folds in later)."""
    return mix64(base_seed, MODEL_IDS[model], cell_index, sample_index)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def _number(model: str, name: str, value, whole: bool = False):
    """``value`` if an int, or a float unless ``whole``: never coerced or truncated."""
    if type(value) is not int and (whole or not isinstance(value, float)):
        kind = "a whole number" if whole else "a number"
        raise ValueError(f"model '{model}' parameter '{name}' must be {kind}, got {value!r}")
    return value


def _probability(what: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} probability must be in [0, 1], got {p}")


def check_size(model: str, n) -> int:
    """``n`` when it is a whole number >= 1, the census included."""
    if type(n) is not int or n < 1:
        raise ValueError(f"model '{model}' parameter 'n' must be a whole number >= 1, got {n!r}")
    return n


def kronecker_size(k) -> int:
    """2**k, the vertex count of the k-th Kronecker power; k is an int >= 1."""
    if _number("kg", "k", k, whole=True) < 1:
        raise ValueError(f"model 'kg' parameter 'k' must be >= 1, got {k}")
    return 1 << k


def census_count(n) -> int:
    """The number of connected census classes on n vertices; the census
    covers 1 <= n <= 7."""
    if not 1 <= n <= 7:
        raise ValueError(f"census supports 1 <= n <= 7, got {n}")
    return CONNECTED_CLASS_COUNTS[n - 1]


def check_initiator(p) -> None:
    """Raise ``ValueError`` unless ``p`` is a Kronecker initiator: four
    numbers (row-major), each in [0, 1]."""
    if not isinstance(p, (list, tuple)) or len(p) != 4:
        raise ValueError("initiator needs exactly 4 probabilities (row-major)")
    for x in p:
        _number("kg", "initiator", x)
    if any(not 0.0 <= x <= 1.0 for x in p):
        raise ValueError(f"initiator entries must lie in [0, 1]: {tuple(p)}")


def check_params(model: str, n: int, params: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``params`` are valid arguments of ``model``'s
    generator on n vertices: the one copy of each parameter rule, run by every
    ModelConfig and generator (kg's through :func:`check_initiator` and
    :func:`kronecker_size`). No draw."""
    for name in _MODEL_PARAMS[model]:
        if name != "initiator":
            _number(model, name, params[name], whole=name in ("k", "c"))
    p, k = params.get("p"), params.get("k")
    if model in ("er", "cs"):
        _probability("edge", p)
    if model == "sf" and not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    if model == "sw":
        if k % 2:
            raise ValueError(f"neighbor count k must be even, got {k}")
        if not 0 <= k < n:
            raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
        _probability("rewiring", p)
    if model == "gr":
        if not params["kappa"] > 1.0:
            raise ValueError(f"kappa must exceed 1, got {params['kappa']}")
        if isqrt(n) ** 2 != n:
            raise ValueError(f"geographical model needs a square vertex count, got {n}")
    if model == "cs":
        _probability("membership", params["p_c"])
        if params["c"] < 1:
            raise ValueError(f"community count must be >= 1, got {params['c']}")
    if model == "kg":
        check_initiator(params["initiator"])
        if n != kronecker_size(k):
            raise ValueError(f"Kronecker graph needs n = 2**k, got n={n}, k={k}")


def _pair_trials(n: int, probs, rng: np.random.Generator) -> Graph:
    """One independent trial per vertex pair: pair i < j, taken in
    ``np.triu_indices`` order, is kept when its draw from ``rng`` falls
    below its probability. ``probs`` is one probability for every pair or
    an n x n matrix of them; draws lie in [0, 1), so a probability of 0
    never keeps a pair."""
    iu, ju = np.triu_indices(n, 1)
    mask = rng.random(iu.size) < np.broadcast_to(probs, (n, n))[iu, ju]
    return Graph(n, np.column_stack((iu[mask], ju[mask])))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Uniform random graph: each of the C(n,2) pairs kept with probability p."""
    check_params("er", n, {"p": p})
    return _pair_trials(n, p, _rng(seed))


def scale_free(n: int, k: int, seed: int) -> Graph:
    """Preferential attachment from a complete seed graph of k vertices.

    Each arriving vertex attaches to k distinct existing vertices chosen
    with probability proportional to current degree, so the final edge
    count is exactly C(k,2) + (n-k)*k.
    """
    check_params("sf", n, {"k": k})
    rng = _rng(seed)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    deg = np.zeros(n)
    deg[:k] = k - 1
    for new in range(k, n):
        weights = deg[:new].copy()
        for _ in range(k):
            cum = np.cumsum(weights)
            draw = rng.random() * cum[-1]
            target = int(np.searchsorted(cum, draw, side="right"))
            if target >= new or weights[target] == 0.0:
                # Float roundoff pushed the draw past the last bucket.
                target = int(np.flatnonzero(weights)[-1])
            edges.append((target, new))
            deg[target] += 1
            weights[target] = 0.0
        deg[new] = k
    return Graph(n, edges)


def small_world(n: int, k: int, p: float, seed: int) -> Graph:
    """Ring lattice over k nearest neighbors with probability-p rewiring.

    Each lattice edge is considered once in a fixed scan order (by vertex,
    then by neighbor offset); a rewired endpoint is resampled until it
    creates neither a self-loop nor a duplicate, so m = n*k/2 always.
    """
    check_params("sw", n, {"k": k, "p": p})
    rng = _rng(seed)
    half = k // 2
    edge_set = set()
    for u in range(n):
        for d in range(1, half + 1):
            w = (u + d) % n
            edge_set.add((u, w) if u < w else (w, u))
    degrees = {u: k for u in range(n)}
    for u in range(n):
        for d in range(1, half + 1):
            if rng.random() >= p:
                continue
            if degrees[u] >= n - 1:
                continue  # no valid endpoint remains; keep the lattice edge
            w = (u + d) % n
            old = (u, w) if u < w else (w, u)
            while True:
                cand = int(rng.integers(n))
                if cand == u:
                    continue
                e = (u, cand) if u < cand else (cand, u)
                if e in edge_set:
                    continue
                break
            edge_set.remove(old)
            edge_set.add(e)
            degrees[w] -= 1
            degrees[cand] += 1
    return Graph(n, sorted(edge_set))


def grid_pair_probabilities(n: int, kappa: float) -> np.ndarray:
    """Connection probabilities kappa**(-s) on the sqrt(n) grid.

    ``s`` is the Manhattan distance between grid positions
    ``(i // side, i % side)``; the diagonal is zeroed.
    """
    check_params("gr", n, {"kappa": kappa})
    side = isqrt(n)
    idx = np.arange(n)
    rows, cols = idx // side, idx % side
    s = np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])
    probs = float(kappa) ** (-s.astype(float))
    np.fill_diagonal(probs, 0.0)
    return probs


def geographical(n: int, kappa: float, seed: int) -> Graph:
    """Grid-embedded random graph with distance-decaying edge probability."""
    return _pair_trials(n, grid_pair_probabilities(n, kappa), _rng(seed))


def community_structure(n: int, p_c: float, p: float, c: int, seed: int) -> Graph:
    """Overlapping-community graph.

    Each vertex joins each of the c communities independently with
    probability p_c; each pair sharing at least one community gets a
    single edge trial with probability p. Pairs sharing none stay
    unconnected.
    """
    check_params("cs", n, {"p_c": p_c, "p": p, "c": c})
    rng = _rng(seed)
    member = rng.random((n, c)) < p_c
    shared = (member.astype(np.int64) @ member.T.astype(np.int64)) > 0
    return _pair_trials(n, p * shared, rng)


@dataclass(frozen=True)
class KroneckerInitiator:
    """Named 2x2 matrix of edge probabilities."""

    name: str
    p: tuple[float, float, float, float]  # row-major

    def __post_init__(self):
        check_initiator(self.p)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float).reshape(2, 2)


def load_initiators(path) -> dict[str, KroneckerInitiator]:
    """Read a JSON file mapping name -> [p00, p01, p10, p11]; each entry
    must pass :func:`check_initiator` (a bool or a string is rejected, not
    converted) and is stored as a float."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    out = {}
    for name, values in raw.items():
        check_initiator(values)
        out[name] = KroneckerInitiator(name=name, p=tuple(float(v) for v in values))
    return out


def kronecker_pair_probabilities(initiator: KroneckerInitiator, k: int) -> np.ndarray:
    """Edge probability matrix of the k-th Kronecker power of the initiator.

    Entry (i, j) is the product over bit levels l of P[bit_l(i)][bit_l(j)].
    """
    p = initiator.matrix
    n = kronecker_size(k)
    idx = np.arange(n)
    probs = np.ones((n, n))
    for level in range(k):
        bits = (idx >> level) & 1
        probs *= p[bits[:, None], bits[None, :]]
    return probs


def kronecker(initiator: KroneckerInitiator, k: int, seed: int) -> Graph:
    """Stochastic Kronecker graph on 2**k vertices.

    The upper triangle (i < j) is sampled independently with the ordered
    pair's product probability; self-loops are never drawn.
    """
    probs = kronecker_pair_probabilities(initiator, k)
    return _pair_trials(probs.shape[0], probs, _rng(seed))


@dataclass(frozen=True)
class ModelConfig:
    """One validated generator invocation: a known model, :func:`check_size`,
    a 64-bit seed, exactly the parameters the generator reads (and any the
    plan records), then :func:`check_params`."""

    model: str
    n: int
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        check_size(self.model, self.n)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "params", dict(self.params))
        names = _MODEL_PARAMS[self.model]
        missing = [name for name in names if name not in self.params]
        if missing:
            raise ValueError(f"model {self.model!r} is missing parameter {', '.join(missing)}")
        for name in self.params:
            if name not in names + _RECORDED_PARAMS.get(self.model, ()):
                raise ValueError(f"unknown parameter '{name}' for model '{self.model}'")
        check_params(self.model, self.n, self.params)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.model}(n={self.n}, {inner}, seed={self.seed})"


def generate(cfg: ModelConfig) -> Graph:
    """Draw one raw sample for the configuration (no connectivity retry)."""
    p = cfg.params
    if cfg.model == "kg":
        initiator = KroneckerInitiator("inline", tuple(p["initiator"]))
        return kronecker(initiator, p["k"], cfg.seed)
    draw = {"er": erdos_renyi, "sf": scale_free, "sw": small_world,
            "gr": geographical, "cs": community_structure}[cfg.model]
    return draw(cfg.n, *(p[name] for name in _MODEL_PARAMS[cfg.model]), cfg.seed)


def ensure_connected(
    cfg: ModelConfig, max_retries: int = DEFAULT_MAX_RETRIES
) -> tuple[Graph, int]:
    """Resample with retry-derived seeds until the graph is connected.

    Returns the first connected sample and the number of failed attempts
    before it (0 when the first draw succeeds). Attempt r uses seed
    ``mix64(cfg.seed, r)``.

    A cs attempt on n >= 2 vertices first draws only its memberships, the
    first stage of :func:`community_structure` under the attempt's seed; a
    vertex in no community would be isolated, so the attempt is rejected
    before the edges are drawn. Each attempt has its own seed, so skipping
    a doomed one changes no accepted sample, retry count or error.
    """
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    precheck = cfg.model == "cs" and cfg.n >= 2
    for retry in range(max_retries):
        seed = mix64(cfg.seed, retry)
        if precheck:
            member = _rng(seed).random((cfg.n, cfg.params["c"])) < cfg.params["p_c"]
            if not member.any(axis=1).all():
                continue
        g = generate(ModelConfig(model=cfg.model, n=cfg.n, params=cfg.params, seed=seed))
        if is_connected(g):
            return g, retry
    raise GenerationError(
        f"no connected sample within {max_retries} retries for {cfg.describe()}"
    )


def enumerate_connected_nonisomorphic(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs, n <= 7.

    Edge subsets are walked as adjacency bit-codes in ascending order. Each
    code not yet met starts a class, and its orbit over all vertex
    permutations is marked met, so every class is represented by its
    minimum code. The orbit is one product ``image @ bits``: row p of the
    float32 table ``image`` holds, at each pair, the code weight of that
    pair's image under vertex permutation p. Codes have ``n(n-1)/2 <= 21``
    bits, so every partial sum is an integer below 2**24 and the float32
    product is exact in any summation order. Connectivity is a class
    property, so it is decided once for all representatives by repeated
    squaring of their boolean ``A + I``, and only the connected ones become
    graphs, in ascending canonical order.
    """
    expected = census_count(n)
    if n == 1:
        return [Graph(1)]
    pairs = _graph6_pairs(n)
    i, j = pairs.T
    shifts = np.arange(i.size - 1, -1, -1)
    assert i.size <= 24, "float32 orbit codes are exact below 2**24"
    weight = np.zeros((n, n), dtype=np.float32)
    weight[i, j] = weight[j, i] = 1 << shifts  # big-endian: the first pair is the top bit
    perms = np.array(list(itertools.permutations(range(n))))
    image = weight[perms[:, i], perms[:, j]]
    alive = np.ones(1 << i.size, dtype=bool)
    codes = []
    code = 0
    while True:
        code += int(np.argmax(alive[code:]))
        if not alive[code]:
            break
        codes.append(code)
        alive[(image @ ((code >> shifts) & 1).astype(np.float32)).astype(np.int64)] = False
    bits = (np.array(codes)[:, None] >> shifts) & 1 == 1
    reach = np.broadcast_to(np.eye(n, dtype=bool), (len(codes), n, n)).copy()
    reach[:, i, j] = reach[:, j, i] = bits
    for _ in range((n - 2).bit_length()):  # (A + I)**(2**s) spans paths of length n - 1
        reach = reach @ reach
    reps = [Graph(n, pairs[b]) for b in bits[reach[:, 0].all(axis=1)]]
    if len(reps) != expected:
        raise AssertionError(
            f"census found {len(reps)} classes on {n} vertices, expected {expected}"
        )
    return reps
