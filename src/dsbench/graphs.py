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
from .core import stable_argsort


@dataclass(frozen=True)
class Matching:
    """Perfect matching as n/2 disjoint index pairs."""

    pairs: np.ndarray  # (n/2, 2) int
    weight: float


def knn_graph(dist: np.ndarray, k: int) -> np.ndarray:
    """(n, k) int32 neighbour table: row i holds i's k nearest other nodes,
    nearest first, ties to the lower index."""
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    order = stable_argsort(dist, axis=1).astype(np.int32)
    # each row holds its own node once, among its zero-distance ties;
    # dropping it leaves the other nodes in (distance, index) order
    others = order[order != np.arange(n, dtype=np.int32)[:, None]]
    del order
    return np.ascontiguousarray(others.reshape(n, n - 1)[:, :k])


def knn_from_table(table: np.ndarray, k: int) -> np.ndarray:
    """(n k, 2) int64 directed K-NN edges (i, neighbour), row by row, of the
    first k columns of a `knn_graph` table."""
    n = table.shape[0]
    return np.column_stack([np.repeat(np.arange(n), k),
                            table[:, :k].reshape(-1)])


def edge_order(dist: np.ndarray) -> np.ndarray:
    """The upper-triangle edges, as row-major indices i < j, sorted by
    (distance, i, j)."""
    # the upper triangle in row-major order, so a stable sort breaks
    # distance ties by (i, j)
    return stable_argsort(squareform(dist, checks=False))


class MstLayers:
    """The successive edge-disjoint minimum spanning trees of one distance
    matrix, built on demand: a k-MST asked for after a smaller one only
    adds the missing layers.

    The state is one dense key matrix, built by the first `grow` from the
    edge ranking `edge_order(dist)`: entry (i, j) is ``rank * n + i`` for
    the rank of edge (i, j), and ``m * n`` (m edges) once the edge is used
    or on the diagonal.  Keys order edges by rank, and a tree's key names
    the endpoint it came from, so neither `dist` nor the ranking is kept."""

    def __init__(self, dist: np.ndarray):
        self.dist = dist
        self.n = n = dist.shape[0]
        self.used = n * (n - 1) // 2 * n
        self.key = None
        self.trees: list[np.ndarray] = []  # (n-1, 2) edges i < j, by rank

    def _build_key(self) -> None:
        order = edge_order(self.dist)
        self.dist = None
        n, m = self.n, order.size
        dtype = np.int32 if self.used < 2 ** 31 else np.int64
        rank = np.empty(m, dtype=dtype)
        rank[order] = np.arange(m, dtype=dtype)
        del order
        key = squareform(rank, checks=False)
        del rank
        key *= n
        key += np.arange(n, dtype=dtype)[:, None]
        np.fill_diagonal(key, self.used)
        self.key = key

    def grow(self, k: int) -> None:
        """Build layers until there are k; Prim's algorithm finds each on
        the key matrix."""
        if self.key is None:
            self._build_key()
        n, used, key = self.n, self.used, self.key
        while len(self.trees) < k:
            w = key.copy()
            w[:, 0] = used
            best = w[0].copy()
            chosen = np.empty(n - 1, dtype=key.dtype)
            reached = np.empty(n - 1, dtype=np.int64)
            for step in range(n - 1):
                v = int(best.argmin())
                if best[v] == used:
                    raise ValueError(
                        "graph disconnected before completing the layer")
                chosen[step] = best[v]
                reached[step] = v
                best[v] = used
                w[:, v] = used
                np.minimum(best, w[v], out=best)
            del w
            by_rank = np.argsort(chosen)
            u = (chosen[by_rank] % n).astype(np.int64)
            v = reached[by_rank]
            key[u, v] = used
            key[v, u] = used
            self.trees.append(np.column_stack([np.minimum(u, v),
                                               np.maximum(u, v)]))


def kmst(dist: np.ndarray, k: int,
         layers: MstLayers | None = None) -> np.ndarray:
    """(k (n-1), 2) int64 edges i < j of the union of k successive
    edge-disjoint minimum spanning trees.

    Edges are ranked once by (distance, i, j).  `layers`, if given, is the
    `MstLayers(dist)` that keeps the ranking and the layers between calls.
    Each layer is the minimum spanning tree, under that strict order, of
    the edges no earlier layer used; Prim's algorithm finds it on a dense
    key matrix.  Ranks are distinct, so the tree is unique and is the one
    Kruskal's algorithm picks.  Edges come out layer by layer, each layer in
    rank order."""
    n = dist.shape[0]
    if k < 1 or k > n // 2:
        raise ValueError(f"k={k} infeasible for n={n}")
    if layers is None:
        layers = MstLayers(dist)
    elif layers.n != n:
        raise ValueError(f"layers of {layers.n} nodes for n={n}")
    layers.grow(k)
    return np.concatenate(layers.trees[:k])


def min_weight_matching(dist: np.ndarray) -> Matching:
    """Exact minimum-weight perfect matching of the complete graph.

    For odd n, one node is left unmatched (the maximum-cardinality
    matching of least weight)."""
    n = dist.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    mate = max_weight_matching_dense(dist.max() - dist)
    first = np.flatnonzero(mate > np.arange(n))
    pairs = np.column_stack([first, mate[first]])
    # added pair by pair: the builtin sum compensates from Python 3.12
    weight = 0.0
    for d in dist[pairs[:, 0], pairs[:, 1]].tolist():
        weight += d
    return Matching(pairs, weight)


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


def halton_grid(n: int, p: int) -> np.ndarray:
    """(n, p) first n Halton points in [0,1]^p (radical inverse of 1..n).

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
    return out
