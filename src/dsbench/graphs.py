"""Similarity graphs and matching machinery on pooled distance matrices.

All constructions break distance ties by lower node index so that repeated
runs produce identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import squareform

from ._blossom import max_weight_matching_dense
from .core import DataMatrix

KNN_DIRECTED = "knn_directed"
KMST = "kmst"


@dataclass(frozen=True)
class Graph:
    """Edge list on nodes 0..n_nodes-1.

    For undirected kinds edges satisfy i < j; directed K-NN keeps i -> j as
    stored.  layer[e] holds the MST layer (0-based) for kmst graphs."""

    n_nodes: int
    edges: np.ndarray  # (m, 2) int
    kind: str
    k: int = 1
    layer: np.ndarray | None = None

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class Matching:
    """Perfect matching as n/2 disjoint index pairs."""

    pairs: np.ndarray  # (n/2, 2) int
    weight: float


def knn_graph(dist: np.ndarray, k: int) -> Graph:
    """Directed K-nearest-neighbour graph; ties go to the lower index."""
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    del d
    src = np.repeat(np.arange(n), k)
    edges = np.column_stack([src, order.reshape(-1)])
    return Graph(n, edges.astype(np.int64, copy=False), KNN_DIRECTED, k=k)


def edge_order(dist: np.ndarray) -> np.ndarray:
    """The upper-triangle edges, as row-major indices i < j, sorted by
    (distance, i, j)."""
    # the upper triangle in row-major order, so a stable sort breaks
    # distance ties by (i, j)
    return np.argsort(squareform(dist, checks=False), kind="stable")


def kmst(dist: np.ndarray, k: int, order: np.ndarray | None = None) -> Graph:
    """Union of k successive edge-disjoint minimum spanning trees.

    Edges are ranked once by (distance, i, j); `order` is that ranking,
    `edge_order(dist)`, when the caller already has it.  Each layer is the
    minimum spanning tree, under that strict order, of the edges no
    earlier layer used; Prim's algorithm finds it on a dense rank matrix.
    Ranks are distinct, so the tree is unique and is the one Kruskal's
    algorithm picks.  Edges come out layer by layer, each layer in rank
    order."""
    n = dist.shape[0]
    if k < 1 or k > n // 2:
        raise ValueError(f"k={k} infeasible for n={n}")
    if order is None:
        order = edge_order(dist)
    m = order.size  # the rank of a used edge, and of the diagonal
    inverse = np.empty(m, dtype=np.int32 if m < 2 ** 31 else np.int64)
    inverse[order] = np.arange(m)
    rank = squareform(inverse, checks=False)
    np.fill_diagonal(rank, m)
    iu, ju = np.triu_indices(n, 1)
    edges = np.empty((k, n - 1), dtype=np.int64)  # ranks, then triu indices
    for layer in range(k):
        w = rank.copy()
        w[:, 0] = m
        key = w[0].copy()
        chosen = edges[layer]
        for step in range(n - 1):
            v = int(np.argmin(key))
            if key[v] == m:
                raise ValueError(
                    "graph disconnected before completing the layer")
            chosen[step] = key[v]
            key[v] = m
            w[:, v] = m
            np.minimum(key, w[v], out=key)
        chosen[:] = order[np.sort(chosen)]
        rank[iu[chosen], ju[chosen]] = m
        rank[ju[chosen], iu[chosen]] = m
    edges = edges.ravel()
    return Graph(n, np.column_stack([iu[edges], ju[edges]]), KMST, k=k,
                 layer=np.repeat(np.arange(k, dtype=np.int64), n - 1))


def min_weight_matching(dist: np.ndarray) -> Matching:
    """Exact minimum-weight perfect matching of the complete graph.

    For odd n, one node is left unmatched (the maximum-cardinality
    matching of least weight)."""
    n = dist.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    mate = max_weight_matching_dense(dist.max() - dist)
    pairs = []
    weight = 0.0
    for i in range(n):
        j = int(mate[i])
        if i < j:
            pairs.append((i, j))
            weight += float(dist[i, j])
    return Matching(np.array(pairs, dtype=np.int64), weight)


def assignment(cost: np.ndarray) -> np.ndarray:
    """Permutation sigma minimizing sum cost[i, sigma[i]] (exact)."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(cost.shape[0], dtype=np.int64)
    sigma[rows] = cols
    return sigma


def _first_primes(m: int) -> list[int]:
    primes = []
    c = 2
    while len(primes) < m:
        if all(c % q for q in primes if q * q <= c):
            primes.append(c)
        c += 1
    return primes


def halton_grid(n: int, p: int) -> DataMatrix:
    """First n Halton points in [0,1]^p (radical inverse of 1..n).

    Every index runs through the same digit positions; one whose digits
    are used up adds exactly 0.0, so each point equals the scalar
    `f /= base; r += f * (i % base); i //= base` loop."""
    if n < 1:
        raise ValueError("need n >= 1")
    bases = _first_primes(p)
    out = np.empty((n, p))
    for dim, base in enumerate(bases):
        i = np.arange(1, n + 1)
        f = 1.0
        r = np.zeros(n)
        while i[-1] > 0:
            f /= base
            r += f * (i % base)
            i //= base
        out[:, dim] = r
    return DataMatrix(out)
