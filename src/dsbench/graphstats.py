"""Graph-based statistics: edge-count tests, nearest-neighbour tests,
cross-match family, and the kernel measure of multi-sample dissimilarity.
Edge-count and cross-match statistics read an edge set's pattern summary
(counts, mean, cov) from `Context.pattern_stats`."""

from __future__ import annotations

import numpy as np

from .core import UnsupportedConfigError
# knn_graph is not called here; it stays importable under this name so that
# call counters wrapping it would see a K-NN build outside Context.
from .graphs import knn_graph  # noqa: F401
from .permnull import moments_from_edges

PINV_FLAG = "pinv"
_COND_TOL = 1e-12


class DegenerateNullError(ValueError):
    """Raised when a null variance needed for standardization is zero."""


def null_moments(edges: np.ndarray, sizes):
    """Exact permutation-null mean and covariance of the pattern counts of
    an edge array over the N = sum(sizes) pooled nodes."""
    return moments_from_edges(edges, int(sum(sizes)), sizes)


def _safe_inverse_quadform(x: np.ndarray, mean: np.ndarray,
                           cov: np.ndarray) -> tuple[float, bool]:
    """(x - mean)' cov^{-1} (x - mean); pseudo-inverse on singular cov."""
    diff = x - mean
    w, v = np.linalg.eigh(cov)
    wmax = np.max(np.abs(w)) if w.size else 0.0
    if wmax == 0.0:
        return 0.0, True
    keep = w > _COND_TOL * wmax
    flagged = not keep.all()
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    y = v.T @ diff
    return float((y ** 2 * inv).sum()), flagged


def _std(value, mean, var):
    if var <= 0:
        raise DegenerateNullError("zero null variance")
    return (value - mean) / np.sqrt(var)


def edgecount_test(stats, sizes, variant: str, kappa: float = 1.0):
    """Two-sample edge-count statistics from a similarity graph's pattern
    summary `stats` = (counts, mean, cov).

    variant: 'fr' standardized between count, 'cf' quadratic form of the
    within counts, 'ccs' standardized weighted within count, 'zc' max-type
    combination.  Returns (value, flags)."""
    counts, mean, cov = stats
    n1, n2 = sizes
    n = n1 + n2
    flags: tuple[str, ...] = ()
    if variant == "fr":
        value = _std(counts[2], mean[2], cov[2, 2])
    elif variant == "cf":
        value, flagged = _safe_inverse_quadform(
            counts[:2], mean[:2], cov[:2, :2])
        if flagged:
            flags = (PINV_FLAG,)
    elif variant in ("ccs", "zc"):
        w = np.array([n1 / n, n2 / n])
        value = _std(w @ counts[:2], w @ mean[:2], w @ cov[:2, :2] @ w)
        if variant == "zc":
            v = np.array([1.0, -1.0])
            zd = _std(v @ counts[:2], v @ mean[:2], v @ cov[:2, :2] @ v)
            value = max(kappa * value, abs(zd))
    else:
        raise ValueError(f"unknown edge-count variant {variant!r}")
    return float(value), flags


def sc_test(stats, sizes, variant: str):
    """Multi-sample edge-count statistics (S and S_A quadratic forms) from
    a graph's pattern summary (counts, mean, cov)."""
    k = len(sizes)
    counts, mean, cov = stats
    flags: tuple[str, ...] = ()
    if variant == "s":
        sw, f1 = _safe_inverse_quadform(counts[:k], mean[:k], cov[:k, :k])
        sb, f2 = _safe_inverse_quadform(counts[k:], mean[k:], cov[k:, k:])
        if f1 or f2:
            flags = (PINV_FLAG,)
        return float(sw + sb), flags
    if variant == "sa":
        idx = np.arange(len(counts) - 1)
        value, flagged = _safe_inverse_quadform(
            counts[idx], mean[idx], cov[np.ix_(idx, idx)])
        if flagged:
            flags = (PINV_FLAG,)
        return float(value), flags
    raise ValueError(f"unknown sc variant {variant!r}")


def sh_statistic(edges: np.ndarray, labels: np.ndarray) -> float:
    """Within-sample proportion of the directed K-NN edges (i, neighbour)."""
    return float((labels[edges[:, 0]] == labels[edges[:, 1]]).mean())


def bqs_statistic(order: np.ndarray, labels: np.ndarray) -> float:
    """Sum of within-sample K-NN edge counts over all K = 1..N-1.

    Row i of the (N, N-1) `order` lists the other nodes nearest first."""
    n = order.shape[0]
    same = labels[order] == labels[:, None]
    weights = np.arange(n - 1, 0, -1, dtype=np.float64)
    return float((same @ weights).sum())


def rosenbaum_statistic(stats) -> float:
    """Raw cross-match count a12 (high values indicate similarity) from the
    matching's pattern summary (counts, mean, cov)."""
    return float(stats[0][2])


def petrie_statistic(stats, sizes) -> float:
    """Standardized total between-sample pair count of the matching."""
    k = len(sizes)
    counts, mean, cov = stats
    return float(_std(counts[k:].sum(), mean[k:].sum(), cov[k:, k:].sum()))


def mmcm_statistic(stats, sizes):
    """Mahalanobis cross-match statistic.

    For two samples the signed standardized deficit (E - a12)/sd is
    returned, which is a strictly monotone transform of the cross-match
    count; for four samples the quadratic form of (a12, a13, a23, a24).
    Returns (value, flags)."""
    k = len(sizes)
    counts, mean, cov = stats
    if k == 2:
        value = _std(mean[2] - counts[2], 0.0, cov[2, 2])
        return float(value), ()
    if k == 4:
        # between-pattern order: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
        sel = np.array([0, 1, 3, 4]) + k
        value, flagged = _safe_inverse_quadform(
            counts[sel], mean[sel], cov[np.ix_(sel, sel)])
        return float(value), ((PINV_FLAG,) if flagged else ())
    raise UnsupportedConfigError("mmcm is defined here for k = 2 or 4")


def kmd_statistic(edges: np.ndarray, labels: np.ndarray, sizes) -> float:
    """Graph-based estimate of the kernel measure of multi-sample
    dissimilarity with the discrete kernel, on directed edges (source,
    target); an undirected graph gives each edge in both directions."""
    n = len(labels)
    sizes = np.asarray(sizes)
    cross_mean = float((sizes * (sizes - 1)).sum()) / (n * (n - 1))
    denom = 1.0 - cross_mean
    if denom <= 0:
        raise UnsupportedConfigError("kmd undefined when all labels agree")
    src, dst = edges[:, 0], edges[:, 1]
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    same = (labels[src] == labels[dst]).astype(np.float64)
    per_node = np.bincount(src, weights=same, minlength=n)
    if (out_deg == 0).any():
        raise UnsupportedConfigError("kmd needs every node to have out-edges")
    t1 = float((per_node / out_deg).mean())
    return (t1 - cross_mean) / denom
