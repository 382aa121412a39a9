"""Exact permutation-null moments of label-pattern sums.

Setting: node labels are a fixed multiset (sizes n_1..n_k) assigned
uniformly at random to N nodes.  For a fixed symmetric nonnegative weight
over unordered node pairs (an edge multiset, or a kernel Gram matrix), the
pattern sum S_c adds the weight of all pairs whose endpoint labels form the
multiset c.  Patterns are the k within-group pairs (i,i) followed by the
k(k-1)/2 between-group pairs (i,j), i < j.

First and second moments under the permutation null only depend on three
aggregates of the weights (total, sum of squares, and the sum over pairs of
pairs sharing one node) and on joint label-assignment probabilities of up
to four nodes, computed exactly by falling-factorial counting.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import squareform


def patterns(k: int) -> list[tuple[int, int]]:
    """Label-pair patterns: within (i,i) first, then between (i,j), i<j."""
    pats = [(i, i) for i in range(k)]
    pats += [(i, j) for i in range(k) for j in range(i + 1, k)]
    return pats


def _assign_prob(labels: tuple[int, ...], sizes, n: int) -> float:
    """P(specific distinct nodes get these labels), drawing w/o replacement."""
    used = [0] * len(sizes)
    prob = 1.0
    for pos, lab in enumerate(labels):
        avail = sizes[lab] - used[lab]
        if avail <= 0:
            return 0.0
        prob *= avail / (n - pos)
        used[lab] += 1
    return prob


def _pattern_prob(c, sizes, n):
    a, b = c
    if a == b:
        return _assign_prob((a, a), sizes, n)
    return 2.0 * _assign_prob((a, b), sizes, n)


def _q_share(c, cp, sizes, n):
    """P(two pairs sharing one node show patterns c and c')."""
    total = 0.0
    for s in set(c) & set(cp):
        rest_c = c[1] if c[0] == s else c[0]
        rest_cp = cp[1] if cp[0] == s else cp[0]
        total += _assign_prob((s, rest_c, rest_cp), sizes, n)
    return total


def _q_disjoint(c, cp, sizes, n):
    """P(two node-disjoint pairs show patterns c and c')."""
    arr_c = [(c[0], c[1])] if c[0] == c[1] else [(c[0], c[1]), (c[1], c[0])]
    arr_cp = ([(cp[0], cp[1])] if cp[0] == cp[1]
              else [(cp[0], cp[1]), (cp[1], cp[0])])
    total = 0.0
    for a in arr_c:
        for b in arr_cp:
            total += _assign_prob(a + b, sizes, n)
    return total


def _moments_from_aggregates(t1, c2, rowsum, sizes):
    """Moments from the weights' total t1, sum of squares c2 and per-node
    sums `rowsum`: b1 sums the products of pairs sharing one node, b0 those
    of node-disjoint pairs."""
    b1 = (rowsum ** 2).sum() - 2.0 * c2
    b0 = t1 * t1 - c2 - b1
    n = int(sum(sizes))
    pats = patterns(len(sizes))
    npat = len(pats)
    pvec = np.array([_pattern_prob(c, sizes, n) for c in pats])
    mean = t1 * pvec
    second = np.empty((npat, npat))
    for i, c in enumerate(pats):
        for j, cp in enumerate(pats[i:], start=i):
            val = b1 * _q_share(c, cp, sizes, n) + b0 * _q_disjoint(
                c, cp, sizes, n)
            if i == j:
                val += c2 * pvec[i]
            second[i, j] = val
            second[j, i] = val
    cov = second - np.outer(mean, mean)
    return mean, cov


def moments_from_weights(weights: np.ndarray, sizes):
    """Moments of pattern sums for a symmetric weight matrix (zero diag)."""
    w = np.asarray(weights, dtype=np.float64)
    t1 = w.sum() / 2.0
    c2 = (w ** 2).sum() / 2.0
    return _moments_from_aggregates(t1, c2, w.sum(axis=1), sizes)


def moments_from_edges(edges: np.ndarray, n_nodes: int, sizes):
    """Moments of pattern counts for an edge list.

    Directed or repeated entries are fine: entries covering the same
    unordered node pair collapse into a single pair with summed weight,
    which reproduces counting each entry individually."""
    e = np.asarray(edges, dtype=np.int64)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    flat = lo * n_nodes + hi
    uniq, counts = np.unique(flat, return_counts=True)
    t1 = float(counts.sum())
    c2 = float((counts.astype(np.float64) ** 2).sum())
    rowsum = np.zeros(n_nodes)
    u, v = np.divmod(uniq, n_nodes)
    np.add.at(rowsum, u, counts)
    np.add.at(rowsum, v, counts)
    return _moments_from_aggregates(t1, c2, rowsum, sizes)


def pattern_sums(weights: np.ndarray, labels: np.ndarray, k: int):
    """Observed pattern sums of a weight matrix under given 1..k labels."""
    pats = patterns(k)
    out = np.zeros(len(pats))
    idx = {c: i for i, c in enumerate(pats)}
    lab = labels - 1
    w = squareform(weights, checks=False)
    a = squareform(np.minimum.outer(lab, lab), checks=False)
    b = squareform(np.maximum.outer(lab, lab), checks=False)
    for i, c in enumerate(pats):
        mask = (a == c[0]) & (b == c[1])
        out[i] = w[mask].sum()
    return out


def pattern_counts_from_edges(edges: np.ndarray, labels: np.ndarray, k: int):
    """Observed pattern counts for an edge list (entries counted singly)."""
    lab = labels - 1
    a = lab[edges[:, 0]]
    b = lab[edges[:, 1]]
    cells = np.bincount(np.minimum(a, b) * k + np.maximum(a, b),
                        minlength=k * k)
    return cells[[i * k + j for i, j in patterns(k)]].astype(np.float64)
