"""Statistics built directly from inter-point distances."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.spatial.distance import cdist

from .core import MultiSample, UnsupportedConfigError
from .graphs import assignment, halton_grid

def phi_kernel(kind: str, z: np.ndarray) -> np.ndarray:
    """Dissimilarity transforms applied to squared Euclidean distances.

    cramer is sqrt(z)/2 and bahr is 1 - exp(-z/2), the conventions of the
    classical Cramer-test implementations; with cramer the statistic is half
    the two-sample energy distance."""
    if kind == "cramer":
        return np.sqrt(z) / 2.0
    if kind == "bahr":
        return 1.0 - np.exp(-z / 2.0)
    if kind == "log":
        return np.log1p(z)
    if kind == "fraca":
        return 1.0 - 1.0 / (1.0 + z)
    if kind == "fracb":
        return 1.0 - 1.0 / (1.0 + z) ** 2
    raise ValueError(f"unknown phi kernel {kind!r}")


def _slices(sizes):
    return [slice(end - n, end) for n, end in zip(sizes, accumulate(sizes))]


def g_alpha(dist_block: np.ndarray, alpha: float) -> float:
    """Mean of pairwise distances raised to alpha (V-statistic mean)."""
    if alpha == 1.0:
        return float(dist_block.mean())
    return float((dist_block ** alpha).mean())


def energy(ms: MultiSample, dist: np.ndarray) -> float:
    """k-sample energy statistic on the pooled distance matrix."""
    sl = _slices(ms.sizes)
    sizes = ms.sizes
    g = [[dist[sl[i], sl[j]].mean() for j in range(ms.k)] for i in range(ms.k)]
    total = 0.0
    for i in range(ms.k):
        for j in range(i + 1, ms.k):
            ni, nj = sizes[i], sizes[j]
            total += ni * nj / (ni + nj) * (2 * g[i][j] - g[i][i] - g[j][j])
    return float(total)


def bf_statistic(ms: MultiSample, dist: np.ndarray, kind: str) -> float:
    """Two-sample energy-form statistic with phi(squared distance)."""
    return energy(ms, phi_kernel(kind, dist ** 2))


def bg2(ms: MultiSample, dist: np.ndarray) -> float:
    """Squared distance between the two mean within/cross distance vectors."""
    n1, n2 = ms.sizes
    if n1 < 2 or n2 < 2:
        raise UnsupportedConfigError("bg2 needs at least two points per sample")
    sl = _slices(ms.sizes)
    d11 = dist[sl[0], sl[0]]
    d22 = dist[sl[1], sl[1]]
    mu11 = d11.sum() / (n1 * (n1 - 1))
    mu22 = d22.sum() / (n2 * (n2 - 1))
    mu12 = dist[sl[0], sl[1]].mean()
    return float((mu11 - mu12) ** 2 + (mu12 - mu22) ** 2)


@dataclass(frozen=True)
class DiscoResult:
    total: float
    between: float
    within: float
    f_stat: float


def disco(ms: MultiSample, dist: np.ndarray, alpha: float) -> DiscoResult:
    """Distance-components decomposition of the pooled dispersion."""
    if not 0 < alpha <= 2:
        raise ValueError("alpha must be in (0, 2]")
    sl = _slices(ms.sizes)
    sizes = ms.sizes
    n = ms.total_n
    k = ms.k
    g = [[g_alpha(dist[sl[i], sl[j]], alpha) for j in range(k)]
         for i in range(k)]
    total = n / 2.0 * g_alpha(dist, alpha)
    within = sum(sizes[j] / 2.0 * g[j][j] for j in range(k))
    between = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            between += sizes[i] * sizes[j] / (2.0 * n) * (
                2 * g[i][j] - g[i][i] - g[j][j])
    f_stat = (between / (k - 1)) / (within / (n - k)) if within > 0 else math.inf
    return DiscoResult(total=float(total), between=float(between),
                       within=float(within), f_stat=float(f_stat))


def ds_rank_energy(ms: MultiSample, pooled_values: np.ndarray) -> float:
    """Rank energy: pooled points mapped to a Halton grid by optimal
    transport with squared-distance cost, then the energy statistic of the
    assigned grid points."""
    n = ms.total_n
    grid = halton_grid(n, ms.p)
    cost = cdist(pooled_values, grid) ** 2
    sigma = assignment(cost)
    ranks = grid[sigma]
    n1 = ms.sizes[0]
    r1, r2 = ranks[:n1], ranks[n1:]
    d12 = cdist(r1, r2).mean()
    d11 = cdist(r1, r1).mean()
    d22 = cdist(r2, r2).mean()
    n2 = n - n1
    return float(n1 * n2 / (n1 + n2) * (2 * d12 - d11 - d22))


def wasserstein1(ms: MultiSample, dist: np.ndarray) -> float:
    """Exact empirical 1-Wasserstein distance; needs equal sample sizes."""
    n1, n2 = ms.sizes
    if n1 != n2:
        raise UnsupportedConfigError(
            "wasserstein distance needs equal sample sizes")
    sl = _slices(ms.sizes)
    cost = dist[sl[0], sl[1]]
    sigma = assignment(cost)
    return float(cost[np.arange(n1), sigma].mean())


_BALL_BLOCK = 2 ** 18


def _ball_rows(dist, order, sample_of, sizes, a, rows, cols):
    """Row sums for the points `rows` of sample `a` (whose points are the
    pooled `cols`): entry (s, i) sums, over the points j of `a` in column
    order, the squared difference between the shares of `a` and of sample
    s in the ball around i through j.

    Row i is i itself, at distance 0, then its `order` row.  The ball
    through j (j = i too) holds the row up to the end of j's run of equal
    distances, so a running count of each sample but the last along the
    row, read at those run ends, counts its points in every ball; the last
    sample holds the rest of the ball."""
    width = len(order)
    nearest = np.empty((rows.stop - rows.start, width), order.dtype)
    nearest[:, 0] = np.arange(rows.start, rows.stop)
    nearest[:, 1:] = order[rows]
    d = np.take_along_axis(dist[rows], nearest, axis=1)
    run_end = np.ones(d.size, dtype=bool)
    np.not_equal(d[:, 1:], d[:, :-1], out=run_end.reshape(d.shape)[:, :-1])
    del d
    # a row's last position ends a run, so runs can be numbered over the
    # flattened rows; the run holding a position ends at ends[run]
    ends = np.flatnonzero(run_end).astype(np.int32)
    run = np.cumsum(run_end, dtype=np.int32)
    run -= run_end
    del run_end
    member = sample_of[nearest]
    q = np.flatnonzero(member == a)  # a's points, i among them
    # at[i, j]: the end of the run holding point j of `a` in row i
    at = np.empty((len(nearest), cols.stop - cols.start), dtype=np.int32)
    at[q // width, nearest.ravel()[q] - cols.start] = ends[run[q]]
    del nearest, ends, run, q
    counts = np.empty((len(sizes),) + at.shape, dtype=np.int32)
    last = len(sizes) - 1
    for s in range(last):
        counts[s] = np.cumsum(member == s, axis=1, dtype=np.int32).ravel()[at]
    del member
    # the row up to a run end at position at % width holds at % width + 1
    # points, and the last sample holds those the others do not
    np.remainder(at, width, out=counts[last])
    del at
    counts[last] += 1
    for s in range(last):
        counts[last] -= counts[s]
    shares = counts / np.asarray(sizes)[:, None, None]
    del counts
    diff = shares[a] - shares
    del shares
    diff **= 2
    return diff.sum(axis=2)


def ball_divergence(ms: MultiSample, dist: np.ndarray,
                    order: np.ndarray) -> float:
    """Sum of the pairwise empirical ball divergences over all sample pairs.

    `order` is the pooled neighbour order (row i: the other points, nearest
    first).  The number of a sample's points in the ball around point i
    through point j is the count of that sample's points in row i up to
    the last point as far from i as j, plus i itself.  Each sample's rows
    are taken once for every pair, in blocks of rows whose (sample, row,
    column of the sample) counts and (row, position) entries together
    hold at most about `_BALL_BLOCK` entries."""
    sl = _slices(ms.sizes)
    sample_of = np.repeat(np.arange(ms.k, dtype=np.min_scalar_type(ms.k)),
                          ms.sizes)
    sums = []  # (k,) per sample: its row sums against each sample
    for a, cols in enumerate(sl):
        n_a = ms.sizes[a]
        step = max(1, _BALL_BLOCK // (ms.k * n_a + len(order)))
        part = np.concatenate([
            _ball_rows(dist, order, sample_of, ms.sizes, a,
                       slice(r, min(r + step, cols.stop)), cols)
            for r in range(cols.start, cols.stop, step)], axis=1)
        # a running sum adds the points one by one in point order, which
        # fixes the last bits of the result
        sums.append(np.cumsum(part, axis=1)[:, -1].tolist())
    total = 0.0
    for i in range(ms.k):
        for j in range(i + 1, ms.k):
            n, m = ms.sizes[i], ms.sizes[j]
            total += sums[i][j] / (n * n) + sums[j][i] / (m * m)
    return float(total)


def lhz(ms: MultiSample, pooled_values: np.ndarray) -> float:
    """Plug-in estimate of the characteristic distance of two samples, from
    the pooled rows.

    Conditional characteristic functions are estimated by sample means of
    cos/sin inner products; both V-statistic terms are averaged over all
    within-sample index pairs."""
    gram = pooled_values @ pooled_values.T
    n1 = ms.sizes[0]
    first, second = slice(0, n1), slice(n1, ms.total_n)

    def cf_parts(source, target):
        # mean over k in source of exp(1i (G[k,i] - G[k,j])), for i,j in
        # target; built in place, one product at a time
        theta = gram[source, target]
        c = np.cos(theta)
        s = np.sin(theta)
        m = len(theta)
        real = c.T @ c
        real += s.T @ s
        real /= m
        imag = s.T @ c
        imag -= c.T @ s
        imag /= m
        return real, imag

    total = 0.0
    for target in (first, second):
        rx, ix = cf_parts(first, target)
        ry, iy = cf_parts(second, target)
        rx -= ry
        del ry
        rx **= 2
        ix -= iy
        del iy
        ix **= 2
        rx += ix
        del ix
        total += float(rx.mean())
    return total


def engineer_metric(ms: MultiSample) -> float:
    """L_2 engineer metric of the sample mean vectors."""
    m1 = ms.samples[0].values.mean(axis=0)
    m2 = ms.samples[1].values.mean(axis=0)
    # the L_q form (sum |d|^q)^min(q, 1/q) at q = 2
    return float((np.abs(m1 - m2) ** 2.0).sum() ** 0.5)


_BG_CELL_CAP = 10 ** 7


def bg_partition(ms: MultiSample, pooled_values: np.ndarray,
                 eps: float = 0.8) -> float:
    """L1 distance of the empirical distributions on a rectangle partition
    of the pooled rows.

    The pooled bounding box is split into roughly N^eps cells (equal per-axis
    counts).  Occupied cells are hashed instead of enumerating the partition;
    configurations whose full partition would exceed the enumeration cap are
    rejected, mirroring the method's breakdown for high dimensions."""
    n = ms.total_n
    p = ms.p
    per_axis = max(2, int(round(n ** (eps / p))))
    if per_axis ** p > _BG_CELL_CAP:
        raise UnsupportedConfigError(
            f"partition of {per_axis}^{p} cells exceeds the enumeration cap")
    lo = pooled_values.min(axis=0)
    hi = pooled_values.max(axis=0)
    width = np.where(hi > lo, hi - lo, 1.0)
    idx = np.floor((pooled_values - lo) / width * per_axis).astype(np.int64)
    np.clip(idx, 0, per_axis - 1, out=idx)
    keys = np.zeros(n, dtype=np.int64)
    for d in range(p):
        keys = keys * per_axis + idx[:, d]
    n1 = ms.sizes[0]
    u1, c1 = np.unique(keys[:n1], return_counts=True)
    u2, c2 = np.unique(keys[n1:], return_counts=True)
    f1 = dict(zip(u1.tolist(), (c1 / n1).tolist()))
    f2 = dict(zip(u2.tolist(), (c2 / (n - n1)).tolist()))
    cells = set(f1) | set(f2)
    return float(sum(abs(f1.get(c, 0.0) - f2.get(c, 0.0)) for c in cells))
