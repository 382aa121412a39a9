"""Clustering-based tests (MADD + k-medoids, FS/RI family) and
classifier-based statistics (K-NN two-sample test on the pooled neighbour
table, tree classification error, projected mean-difference)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .core import MultiSample, UnsupportedConfigError

PSI_KINDS = ("psi1", "psi2", "psi3", "psi4", "psi5")
H_KINDS = ("h1", "h2")

NONCONVERGED_FLAG = "kmedoids_nonconverged"
ZERO_DIRECTION_FLAG = "zero_direction"
CLUSTER_COUNT_SKIPPED_FLAG = "cluster_count_skipped"


@dataclass(frozen=True)
class MaddConfig:
    psi: str = "psi5"
    h: str = "h2"

    def __post_init__(self):
        if self.psi not in PSI_KINDS:
            raise ValueError(f"unknown psi {self.psi!r}")
        if self.h not in H_KINDS:
            raise ValueError(f"unknown h {self.h!r}")


def _psi_inplace(kind: str, t: np.ndarray) -> None:
    """Overwrite t with psi(t): psi1 t^2, psi2 1 - e^-t, psi3 1 - e^-t^2,
    psi4 log(1 + t), psi5 t."""
    if kind in ("psi1", "psi3"):
        np.square(t, out=t)
    if kind in ("psi2", "psi3"):
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.subtract(1.0, t, out=t)
    elif kind == "psi4":
        np.log1p(t, out=t)


def _h(kind: str, t: np.ndarray) -> np.ndarray:
    if kind == "h1":
        return np.sqrt(t)
    return t


def madd(values: np.ndarray, cfg: MaddConfig) -> np.ndarray:
    """Mean absolute difference of distance profiles.

    rho(i, j) averages |phi(i, m) - phi(j, m)| over the other points m,
    with phi the h(mean psi |component difference|) dissimilarity.
    Holds at most two n x n float64 arrays' worth at once, the result
    included."""
    n, p = values.shape
    if n < 3:
        raise UnsupportedConfigError("madd needs at least three points")
    # Every step up to the final squareform runs on the condensed upper
    # triangle (the n(n-1)/2 entries i < j): |a - b| == |b - a| exactly and
    # psi(0) = h(0) = 0, so the square the loop would build is the mirror of
    # this triangle with a zero diagonal.  A one-column cityblock pdist is
    # exactly |x_i - x_j|.
    acc = pdist(values[:, [0]], "cityblock")
    _psi_inplace(cfg.psi, acc)
    for col in range(1, p):
        term = pdist(values[:, [col]], "cityblock")
        _psi_inplace(cfg.psi, term)
        acc += term
        del term
    acc /= p
    phi_tri = _h(cfg.h, acc)
    del acc
    # sum_m |phi_im - phi_jm| over all m, then drop the m=i and m=j terms,
    # which are phi_ij each (doubling is exact); at most the square phi and
    # two triangles are alive here
    phi = squareform(phi_tri)
    rho_tri = pdist(phi, "cityblock")
    del phi
    phi_tri *= 2.0
    rho_tri -= phi_tri
    del phi_tri
    rho_tri /= n - 2
    return squareform(rho_tri)


def cluster_madd(rho: np.ndarray, n_clusters: int, rng):
    """Seeded k-medoids (alternating assignment / medoid update) on a
    dissimilarity matrix.  Returns (labels 0..l-1, flags).

    `labels` is always the assignment to the current medoids, so unchanged
    medoids mean converged labels."""
    n = rho.shape[0]
    if not 2 <= n_clusters <= n:
        raise UnsupportedConfigError("cluster count out of range")
    medoids = rng.choice(n, size=n_clusters, replace=False)
    medoids.sort()
    labels = rho[:, medoids].argmin(axis=1)
    for _ in range(100):
        if not np.bincount(labels, minlength=n_clusters).all():
            # repair empty clusters with the worst-assigned point
            for c in range(n_clusters):
                if not (labels == c).any():
                    worst = int(np.argmax(rho[np.arange(n), medoids[labels]]))
                    medoids[c] = worst
                    labels = np.argmin(rho[:, medoids], axis=1)
            if not np.bincount(labels, minlength=n_clusters).all():
                raise UnsupportedConfigError(
                    f"k-medoids with l={n_clusters}: a cluster stays empty "
                    "after the repair (l exceeds the distinct points)")
        new_medoids = medoids.copy()
        for c in range(n_clusters):
            members = (labels == c).nonzero()[0]
            # the members' rows in order, so the same pairwise row sums
            within = rho.take(members, 0).take(members, 1).sum(axis=1)
            new_medoids[c] = members[within.argmin()]
        if (new_medoids == medoids).all():
            return labels, ()
        medoids = new_medoids
        labels = rho[:, medoids].argmin(axis=1)
    return labels, (NONCONVERGED_FLAG,)


def contingency(sample_labels: np.ndarray, cluster_labels: np.ndarray,
                k: int, n_clusters: int) -> np.ndarray:
    cell = (np.asarray(sample_labels) - 1) * n_clusters + cluster_labels
    return np.bincount(cell, minlength=k * n_clusters).reshape(k, n_clusters)


def fs_from_table(table: np.ndarray) -> float:
    """Generalized Fisher statistic: -log multivariate hypergeometric
    probability of the contingency table given its margins."""
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    n = table.sum()
    if (cols > 0).sum() < 2:
        raise UnsupportedConfigError(
            "degenerate clustering: fewer than two occupied clusters")
    logp = (sum(math.lgamma(r + 1) for r in rows)
            + sum(math.lgamma(c + 1) for c in cols)
            - math.lgamma(n + 1)
            - sum(math.lgamma(t + 1) for t in table.ravel()))
    return -logp


def ri_from_table(table: np.ndarray) -> float:
    """Proportion of point pairs on which clustering and sample membership
    disagree (zero for a perfect clustering)."""
    n = table.sum()

    def c2(x):
        return x * (x - 1) / 2.0

    same_sample = sum(c2(r) for r in table.sum(axis=1))
    same_cluster = sum(c2(c) for c in table.sum(axis=0))
    same_both = sum(c2(t) for t in table.ravel())
    return float((same_sample + same_cluster - 2 * same_both) / c2(n))


def dunn_index(rho: np.ndarray, labels: np.ndarray) -> float:
    """Min inter-cluster distance over max intra-cluster diameter (a
    singleton has no diameter)."""
    n = len(labels)
    order = labels.argsort()
    ranked = labels[order]
    # first[i]: row i of `ranked` starts a cluster; first[n] ends the last
    first = np.ones(n + 1, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:n])
    starts = first[:n].nonzero()[0]
    if len(starts) < 2:
        raise UnsupportedConfigError("dunn index needs at least two clusters")
    multi = ~first[starts + 1]  # clusters of two or more points
    # One pass over the rows in label order gives, for each cluster and
    # point, the max and min over the cluster's rows; a second over those
    # gives the block of each cluster pair.  Neither depends on the order.
    rows = rho[order]
    hi = np.maximum.reduceat(rows, starts, axis=0)[:, order]
    lo = np.minimum.reduceat(rows, starts, axis=0)[:, order]
    del rows
    hi = np.maximum.reduceat(hi, starts, axis=1)
    lo = np.minimum.reduceat(lo, starts, axis=1)
    max_diam = max([0.0] + hi.diagonal()[multi].tolist())
    if max_diam == 0.0:
        return math.inf
    return float(squareform(lo, checks=False).min()) / max_diam


def _estimate_clusters(rho: np.ndarray, k: int, rng):
    """Cluster count from a Dunn-index sweep (ties go to fewer clusters).  A
    count whose k-medoids cannot fill every cluster is skipped and flagged."""
    best_ell, best_dunn = None, -math.inf
    all_flags: tuple[str, ...] = ()
    for ell in range(2, 2 * k + 1):
        if ell > rho.shape[0]:
            break
        try:
            labels, flags = cluster_madd(rho, ell, rng)
        except UnsupportedConfigError:
            all_flags += (CLUSTER_COUNT_SKIPPED_FLAG,)
            continue
        all_flags += flags
        if labels.min() == labels.max():
            continue
        d = dunn_index(rho, labels)
        if d > best_dunn:
            best_dunn, best_ell = d, ell
    if best_ell is None:
        raise UnsupportedConfigError("no usable clustering found")
    return best_ell, all_flags


def fs_ri_statistic(rho: np.ndarray, labels: np.ndarray, ell: int | None,
                    ri: bool, rng):
    """FS statistic, or RI if `ri`, from the pooled MADD matrix rho and the
    sample labels 1..k, clustering into `ell` clusters; `ell` None takes
    the count from a Dunn-index sweep (the modified statistics).  Returns
    (value, flags)."""
    k = int(labels.max())
    flags: tuple[str, ...] = ()
    if ell is None:
        ell, flags = _estimate_clusters(rho, k, rng)
    cl, fl = cluster_madd(rho, ell, rng)
    table = contingency(labels, cl, k, ell)
    return (ri_from_table(table) if ri else fs_from_table(table)), flags + fl


def aggregated_fs_ri_statistic(rhos, labels: np.ndarray, estimate: bool,
                               ri: bool, rng):
    """Aggregated FS, or RI if `ri`: the extreme pairwise statistic over all
    sample pairs.  `rhos` yields the MADD matrix of each pair (i, j), i < j,
    of labels 1..k in that order, over the pair's rows in pooled order.
    `estimate` sweeps the cluster count per pair instead of taking two.
    Returns (value, flags)."""
    k = int(labels.max())
    flags: tuple[str, ...] = ()
    vals = []
    for (i, j), rho in zip(combinations(range(1, k + 1), 2), rhos):
        pair = labels[(labels == i) | (labels == j)]
        v, f = fs_ri_statistic(rho, np.where(pair == i, 1, 2),
                               None if estimate else 2, ri, rng)
        vals.append(v)
        flags += f
    # the extreme pairwise statistic in the method's own direction
    return (min(vals) if ri else max(vals)), flags


def _stratified_split(labels: np.ndarray, rng):
    """50/50 train/test split stratified by the labels 1..k; odd counts
    favour train.  Raises UnsupportedConfigError on an empty test split or
    a training split without every label."""
    train = []
    test = []
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        perm = rng.permutation(len(idx))
        n_train = (len(idx) + 1) // 2
        train.append(idx[perm[:n_train]])
        test.append(idx[perm[n_train:]])
    train, test = np.sort(np.concatenate(train)), np.sort(np.concatenate(test))
    if len(test) == 0:
        raise UnsupportedConfigError("empty test split")
    if len(np.unique(labels[train])) < labels.max():
        raise UnsupportedConfigError("a class is missing from the training split")
    return train, test


def c2st_knn(order: np.ndarray, labels: np.ndarray, rng) -> float:
    """Test-set accuracy of a K-NN classifier for the sample membership.

    `order` is the pooled neighbour table (row i: the other points, nearest
    first, ties to the lower index).  A test point's neighbours are the
    first K training points of its row; the majority label wins, a vote
    tie going to the smaller label."""
    if len(labels) < 10:
        raise UnsupportedConfigError("c2st needs at least ten points")
    train, test = _stratified_split(labels, rng)
    k = int(labels.max())
    n_votes = max(1, int(math.isqrt(len(train))))
    is_train = np.zeros(len(labels), dtype=bool)
    is_train[train] = True
    rows = order[test]
    # every test row holds all the training points, in its own order
    nearest = rows[is_train[rows]].reshape(len(test), len(train))
    votes = labels[nearest[:, :n_votes]]
    cell = np.arange(len(test))[:, None] * (k + 1) + votes
    counts = np.bincount(cell.ravel(), minlength=len(test) * (k + 1))
    preds = np.argmax(counts.reshape(len(test), k + 1), axis=1)
    return float((preds == labels[test]).mean())


# ---------------------------------------------------------------------------
# CART with Gini splits (also reused by the harness for method-choice rules)


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    prediction: int = -1
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    frac = counts / n
    return 1.0 - float((frac ** 2).sum())


def _chosen_split(gain: np.ndarray) -> int:
    """Index of the split that a scan in order keeps, or -1: a gain
    replaces the kept one when it exceeds 1e-12 and the kept gain by more
    than 1e-12, so near-ties go to the earlier split."""
    best, bound = -1, 1e-12
    while True:
        later = np.flatnonzero(gain[best + 1:] > bound)
        if not later.size:
            return best
        best += 1 + int(later[0])
        bound = gain[best] + 1e-12


def cart_fit(x: np.ndarray, y: np.ndarray, max_depth: int = 10,
             min_leaf: int = 5) -> TreeNode:
    """CART classifier with Gini impurity; deterministic tie handling.

    Each feature is sorted once, by (value, row); a child keeps its
    parent's order.  At a node every split of every feature is scored at
    once, in (feature, position) order, and `_chosen_split` picks one."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    xt = np.ascontiguousarray(x.T)
    onehot = np.eye(n_classes)

    def build(rows, order, depth):
        # rows: the node's rows ascending; order: (p, n) its rows by feature
        n = len(rows)
        node = TreeNode(n_samples=n)
        counts = np.bincount(y[rows], minlength=n_classes)
        node.prediction = int(np.argmax(counts))
        parent_gini = _gini(counts)
        if depth >= max_depth or n < 2 * min_leaf or parent_gini == 0.0:
            return node
        # a split after sorted position i puts i + 1 rows on the left
        leaf = max(min_leaf, 1)
        lo, hi = leaf - 1, n - leaf
        xs = np.take_along_axis(xt, order, axis=1)
        left = np.cumsum(onehot[y[order[:, :hi]]], axis=1)[:, lo:]
        nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
        nr = n - nl
        gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=-1)
        gr = 1.0 - (((counts - left) / nr[:, None]) ** 2).sum(axis=-1)
        gain = parent_gini - (nl * gl + nr * gr) / n
        gain[xs[:, lo:hi] == xs[:, lo + 1:hi + 1]] = -np.inf
        best = _chosen_split(gain.ravel())
        if best < 0:
            return node
        feat, i = divmod(best, hi - lo)
        i += lo
        node.feature = feat
        node.threshold = (xs[feat, i] + xs[feat, i + 1]) / 2.0
        go_left = xt[feat] <= node.threshold
        mask, side = go_left[rows], go_left[order]
        p = len(order)
        node.left = build(rows[mask], order[side].reshape(p, -1), depth + 1)
        node.right = build(rows[~mask], order[~side].reshape(p, -1),
                           depth + 1)
        return node

    order = np.argsort(x, axis=0, kind="stable").T
    return build(np.arange(len(y)), order, 0)


def cart_predict(tree: TreeNode, x: np.ndarray) -> np.ndarray:
    """Route the row indices down the tree; a row goes left when its value
    is at most the node's threshold."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x), dtype=np.int64)
    stack = [(tree, np.arange(len(x)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.prediction
            continue
        mask = x[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def ymrzl(pooled_values: np.ndarray, labels: np.ndarray, rng) -> float:
    """Held-out classification error of a CART trained on sample membership
    (`labels`) of the pooled rows."""
    if len(labels) < 10:
        raise UnsupportedConfigError("ymrzl needs at least ten points")
    train, test = _stratified_split(labels, rng)
    tree = cart_fit(pooled_values[train], labels[train], max_depth=10,
                    min_leaf=5)
    preds = cart_predict(tree, pooled_values[test])
    return float((preds != labels[test]).mean())


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, each tie group given the mean of its first and last
    rank (``scipy.stats.rankdata``'s default, bitwise: every rank is an
    integer or a half)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    start = np.r_[True, xs[1:] != xs[:-1]]
    first = np.flatnonzero(start)
    last = np.r_[first[1:], x.size] - 1
    ranks = np.empty(x.size)
    ranks[order] = ((first + last) / 2.0 + 1.0)[np.cumsum(start) - 1]
    return ranks


def diproperm(ms: MultiSample, univariate: str = "md"):
    """Two-sample statistic of the pooled data projected onto the
    mean-difference direction.  Returns (value, flags)."""
    x1 = ms.samples[0].values
    x2 = ms.samples[1].values
    w = x2.mean(axis=0) - x1.mean(axis=0)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return 0.0, (ZERO_DIRECTION_FLAG,)
    w = w / norm
    p1 = x1 @ w
    p2 = x2 @ w
    if univariate == "md":
        return float(p2.mean() - p1.mean()), ()
    if univariate == "t":
        n1, n2 = len(p1), len(p2)
        sp2 = (((p1 - p1.mean()) ** 2).sum()
               + ((p2 - p2.mean()) ** 2).sum()) / (n1 + n2 - 2)
        if sp2 <= 0:
            return 0.0, (ZERO_DIRECTION_FLAG,)
        return float((p2.mean() - p1.mean())
                     / math.sqrt(sp2 * (1 / n1 + 1 / n2))), ()
    if univariate == "auc":
        n1, n2 = len(p1), len(p2)
        ranks = _average_ranks(np.concatenate([p1, p2]))
        u = ranks[n1:].sum() - n2 * (n2 + 1) / 2.0
        return float(u / (n1 * n2)), ()
    raise ValueError(f"unknown univariate statistic {univariate!r}")
