"""Similarity graphs and matching machinery on pooled distance matrices.

All constructions break distance ties by lower node index so that repeated
runs produce identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    src = np.repeat(np.arange(n), k)
    edges = np.column_stack([src, order.reshape(-1)])
    return Graph(n, edges.astype(np.int64), KNN_DIRECTED, k=k)


def _kruskal_mst(n: int, edge_order: np.ndarray, used: np.ndarray):
    """One MST layer over the edges in edge_order, skipping used ones.

    edge_order holds flat indices i*n+j (i<j) sorted by (distance, i, j).
    Returns the list of chosen flat indices."""
    parent = np.arange(n)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    chosen = []
    need = n - 1
    for f in edge_order:
        if used[f]:
            continue
        i, j = divmod(int(f), n)
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        chosen.append(int(f))
        if len(chosen) == need:
            break
    if len(chosen) < need:
        raise ValueError("graph disconnected before completing the layer")
    return chosen


def kmst(dist: np.ndarray, k: int) -> Graph:
    """Union of k successive edge-disjoint minimum spanning trees."""
    n = dist.shape[0]
    if k < 1 or k > n // 2:
        raise ValueError(f"k={k} infeasible for n={n}")
    iu, ju = np.triu_indices(n, 1)
    flat = iu * n + ju
    order = flat[np.lexsort((ju, iu, dist[iu, ju]))]
    used = np.zeros(n * n, dtype=bool)
    edges = []
    layers = []
    for layer in range(k):
        chosen = _kruskal_mst(n, order, used)
        for f in chosen:
            used[f] = True
            edges.append(divmod(f, n))
            layers.append(layer)
    return Graph(n, np.array(edges, dtype=np.int64), KMST, k=k,
                 layer=np.array(layers, dtype=np.int64))


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
    """First n Halton points in [0,1]^p (radical inverse of 1..n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    bases = _first_primes(p)
    out = np.empty((n, p))
    for dim, base in enumerate(bases):
        for idx in range(1, n + 1):
            f = 1.0
            r = 0.0
            i = idx
            while i > 0:
                f /= base
                r += f * (i % base)
                i //= base
            out[idx - 1, dim] = r
    return DataMatrix(out)
