"""Coupling-structure generators and the GraphSpec container.

All generators are pure functions of their parameters and a 64-bit seed;
the same seed reproduces the adjacency bit-for-bit. Adjacency rows hold
incoming couplings: row k lists the weights with which node k reads its
neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rng import Rng, derive

TOPOLOGY_TAGS = ("er", "ba", "ws", "full", "fixed", "explicit")


@dataclass(frozen=True, eq=False)
class GraphSpec:
    n: int
    adjacency: np.ndarray
    topology_tag: str
    seed: int = 0

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        if adj.shape != (self.n, self.n):
            raise ShapeError(f"adjacency shape {adj.shape} does not match n={self.n}")
        if self.topology_tag not in TOPOLOGY_TAGS:
            raise ValueError(f"unknown topology tag {self.topology_tag!r}")
        if not np.isfinite(adj).all() or (adj < 0).any():
            raise ValueError("adjacency weights must be finite and nonnegative")
        if np.diagonal(adj).any():
            raise ValueError("adjacency diagonal must be zero")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    def neighbor_mask(self) -> np.ndarray:
        """Binary [n, n] matrix marking A_kj > 0."""
        return (self.adjacency > 0.0).astype(np.float64)

    def permuted(self, order) -> "GraphSpec":
        """Relabel nodes: node i of the result is node order[i] of self."""
        idx = np.asarray(order)
        adj = self.adjacency[np.ix_(idx, idx)]
        return GraphSpec(self.n, adj, "explicit", self.seed)


def explicit_graph(adjacency, seed: int = 0) -> GraphSpec:
    adj = np.asarray(adjacency, dtype=np.float64)
    return GraphSpec(adj.shape[0], adj, "explicit", seed)


def gen_erdos_renyi(n: int, p: float, seed: int) -> GraphSpec:
    """Each unordered pair is an edge independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError("need n >= 1")
    rng = Rng(derive(seed, 0))
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                adj[i, j] = adj[j, i] = 1.0
    return GraphSpec(n, adj, "er", seed)


def gen_barabasi_albert(n: int, m: int, seed: int) -> GraphSpec:
    """Preferential attachment from an m-clique; each newcomer picks m targets."""
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = Rng(derive(seed, 1))
    adj = np.zeros((n, n))
    adj[:m, :m] = 1.0
    np.fill_diagonal(adj, 0.0)
    degree = adj.sum(axis=1)
    for v in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            # degree-proportional draw over existing nodes, retry duplicates
            total = degree[:v].sum()
            r = rng.uniform() * total
            acc = 0.0
            target = v - 1
            for j in range(v):
                acc += degree[j]
                if r < acc:
                    target = j
                    break
            if target in chosen:
                continue
            chosen.add(target)
        for j in chosen:
            adj[v, j] = adj[j, v] = 1.0
            degree[j] += 1.0
        degree[v] = float(m)
    return GraphSpec(n, adj, "ba", seed)


def gen_watts_strogatz(n: int, k: int, beta: float, seed: int) -> GraphSpec:
    """Ring lattice with k nearest neighbors, each edge rewired with prob beta."""
    if k % 2 != 0:
        raise ValueError(f"ring degree k must be even, got {k}")
    if not (0 <= k < n):
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"rewiring probability must be in [0, 1], got {beta}")
    rng = Rng(derive(seed, 2))
    adj = np.zeros((n, n))
    for i in range(n):
        for off in range(1, k // 2 + 1):
            j = (i + off) % n
            adj[i, j] = adj[j, i] = 1.0
    for i in range(n):
        for off in range(1, k // 2 + 1):
            j = (i + off) % n
            if rng.uniform() >= beta:
                continue
            if adj[i].sum() >= n - 1:
                continue  # node already saturated, nothing to rewire to
            while True:
                cand = rng.below(n)
                if cand != i and adj[i, cand] == 0.0:
                    break
            adj[i, j] = adj[j, i] = 0.0
            adj[i, cand] = adj[cand, i] = 1.0
    return GraphSpec(n, adj, "ws", seed)


def gen_fully_connected_weighted(n: int, magnitude: float, seed: int) -> GraphSpec:
    """Off-diagonal weights ~ U[0, 1] * magnitude, zero diagonal, asymmetric."""
    if n < 1:
        raise ValueError("need n >= 1")
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    rng = Rng(derive(seed, 3))
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                adj[i, j] = rng.uniform() * magnitude
    return GraphSpec(n, adj, "full", seed)


def gen_fixed_degree(n: int, d: int, seed: int) -> GraphSpec:
    """Random simple graph with every node of degree exactly d.

    Stub pairing with retry at the pair level: two random stubs that would
    form a self-loop or duplicate edge are redrawn, and a stuck attempt
    (no legal pair left) restarts from scratch. Unlike whole-shuffle
    restarts this stays feasible for dense degrees like d = n/2.
    """
    if d >= n:
        raise ValueError(f"degree {d} infeasible for n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = Rng(derive(seed, 4))
    for _attempt in range(1000):
        stubs = [node for node in range(n) for _ in range(d)]
        adj = np.zeros((n, n))
        rejections = 0
        while stubs and rejections < 500:
            i = rng.below(len(stubs))
            j = rng.below(len(stubs))
            a, b = stubs[i], stubs[j]
            if a == b or adj[a, b] > 0.0:
                rejections += 1
                continue
            rejections = 0
            for pos in sorted((i, j), reverse=True):
                stubs[pos] = stubs[-1]
                stubs.pop()
            adj[a, b] = adj[b, a] = 1.0
        if not stubs:
            return GraphSpec(n, adj, "fixed", seed)
    raise RuntimeError(f"could not realize a simple {d}-regular graph on {n} nodes")


def ba_m_for_degree(d: int) -> int:
    """BA attachment count whose mean degree best matches a target degree d."""
    return max(1, int(d / 2 + 0.5))


def ws_k_for_degree(d: int) -> int:
    """WS ring degree (must be even) for a target degree d."""
    return max(2, d if d % 2 == 0 else d - 1)
