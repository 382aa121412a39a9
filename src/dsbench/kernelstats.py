"""Kernel statistics: Gaussian Gram machinery, unbiased MMD, block MMD,
and the generalized permutation kernel family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import squareform

from .core import MultiSample, UnsupportedConfigError
from .graphstats import DegenerateNullError
from .permnull import moments_from_weights

FALLBACK_BANDWIDTH_FLAG = "bandwidth_fallback"


@dataclass(frozen=True)
class GramMatrix:
    values: np.ndarray
    bandwidth: float
    flags: tuple[str, ...] = ()


def median_bandwidth(dist: np.ndarray) -> tuple[float, tuple[str, ...]]:
    h = float(np.median(squareform(dist, checks=False)))
    if h <= 0.0:
        return 1.0, (FALLBACK_BANDWIDTH_FLAG,)
    return h, ()


def gram(dist: np.ndarray) -> GramMatrix:
    """Gaussian kernel matrix exp(-d^2 / (2 h^2)) with the median heuristic."""
    if dist.shape[0] < 2:
        raise UnsupportedConfigError("gram needs at least two points")
    bandwidth, flags = median_bandwidth(dist)
    k = np.exp(-(dist ** 2) / (2.0 * bandwidth ** 2))
    return GramMatrix(values=k, bandwidth=bandwidth, flags=flags)


def _abg(kernel: np.ndarray, n1: int, n2: int):
    """alpha, beta (diagonal excluded) and gamma kernel means."""
    k11 = kernel[:n1, :n1]
    k22 = kernel[n1:, n1:]
    k12 = kernel[:n1, n1:]
    alpha = (k11.sum() - np.trace(k11)) / (n1 * (n1 - 1))
    beta = (k22.sum() - np.trace(k22)) / (n2 * (n2 - 1))
    gamma = k12.mean()
    return float(alpha), float(beta), float(gamma)


def mmd_ustat(gram_matrix: GramMatrix, sizes) -> float:
    """Unbiased squared-MMD estimate alpha + beta - 2 gamma."""
    n1, n2 = sizes
    if n1 < 2 or n2 < 2:
        raise UnsupportedConfigError("mmd needs at least two points per sample")
    alpha, beta, gamma = _abg(gram_matrix.values, n1, n2)
    return alpha + beta - 2.0 * gamma


def block_mmd(ms: MultiSample, gram_matrix: GramMatrix) -> float:
    """Mean of per-block unbiased MMD^2 estimates over disjoint blocks of
    floor(sqrt(min(n1, n2))) points per sample.

    Blocks are taken in input order; the bandwidth comes from the pooled
    Gram matrix so all blocks share one kernel."""
    n1, n2 = ms.sizes
    nmin = min(n1, n2)
    block = int(np.sqrt(nmin))
    if block < 2:
        raise UnsupportedConfigError("block size below two")
    nblocks = nmin // block
    kernel = gram_matrix.values
    vals = []
    for b in range(nblocks):
        i0 = b * block
        idx1 = np.arange(i0, i0 + block)
        idx2 = n1 + np.arange(i0, i0 + block)
        sub = kernel[np.ix_(np.concatenate([idx1, idx2]),
                            np.concatenate([idx1, idx2]))]
        alpha, beta, gamma = _abg(sub, block, block)
        vals.append(alpha + beta - 2.0 * gamma)
    return float(np.mean(vals))


@dataclass(frozen=True)
class GpkComponents:
    alpha: float
    beta: float
    gamma: float
    mean: np.ndarray      # E(alpha), E(beta) under the permutation null
    cov: np.ndarray       # Cov of (alpha, beta)
    z_d: float
    z_w: dict


# The weights r of the Z_W combinations that gpk_statistic reads.
_GPK_R = (1.0, 1.2, 0.8)


def gpk_components(gram_matrix: GramMatrix, sizes) -> GpkComponents:
    """alpha/beta with exact permutation moments and their standardized
    combinations."""
    n1, n2 = sizes
    if n1 < 2 or n2 < 2:
        raise UnsupportedConfigError("gpk needs at least two points per sample")
    n = n1 + n2
    kernel = gram_matrix.values.copy()
    np.fill_diagonal(kernel, 0.0)
    mean_s, cov_s = moments_from_weights(kernel, sizes)
    # pattern order for k=2: (1,1), (2,2), (1,2); alpha = 2 S11 / (n1 (n1-1))
    ca = 2.0 / (n1 * (n1 - 1))
    cb = 2.0 / (n2 * (n2 - 1))
    scale = np.array([ca, cb])
    mean_ab = mean_s[:2] * scale
    cov_ab = cov_s[:2, :2] * np.outer(scale, scale)
    alpha, beta, gamma = _abg(gram_matrix.values, n1, n2)
    ab = np.array([alpha, beta])

    def z_of(wvec):
        var = wvec @ cov_ab @ wvec
        if var <= 0:
            raise DegenerateNullError("zero null variance in gpk")
        return float((wvec @ ab - wvec @ mean_ab) / np.sqrt(var))

    d_vec = np.array([n1 * (n1 - 1.0), -n2 * (n2 - 1.0)])
    z_d = z_of(d_vec)
    z_w = {r: z_of(np.array([r * n1 / n, n2 / n])) for r in _GPK_R}
    return GpkComponents(alpha=alpha, beta=beta, gamma=gamma, mean=mean_ab,
                         cov=cov_ab, z_d=z_d, z_w=z_w)


def gpk_statistic(comp: GpkComponents, variant: str) -> float:
    """variant: 'gpk' (Z_W^2 + Z_D^2 with r=1), 'zd', 'zw1' (r=1.2),
    'zw2' (r=0.8)."""
    if variant == "gpk":
        return comp.z_w[1.0] ** 2 + comp.z_d ** 2
    if variant == "zd":
        return comp.z_d
    if variant == "zw1":
        return comp.z_w[1.2]
    if variant == "zw2":
        return comp.z_w[0.8]
    raise ValueError(f"unknown gpk variant {variant!r}")
