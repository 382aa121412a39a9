import itertools

import numpy as np
import pytest

from dsbench.core import (DataMatrix, MultiSample, UnsupportedConfigError,
                          distance_matrix, pool)
from dsbench.kernelstats import (FALLBACK_BANDWIDTH_FLAG, GramMatrix,
                                 block_mmd, gpk_components, gpk_statistic,
                                 gram, mmd_ustat)
from dsbench.permnull import pattern_sums


def make_ms(x, y):
    return MultiSample((DataMatrix(x), DataMatrix(y)))


def pooled_gram(ms):
    z, _ = pool(ms)
    return gram(distance_matrix(z))


class TestGram:
    def test_unit_diagonal(self):
        d = distance_matrix(np.array([[0.0], [1.0], [2.0]]))
        g = gram(d)
        assert (np.diag(g.values) == 1.0).all()

    def test_median_bandwidth_line(self):
        d = distance_matrix(np.array([[0.0], [1.0], [2.0]]))
        assert gram(d).bandwidth == 1.0

    def test_identical_points_fallback(self):
        d = np.zeros((3, 3))
        g = gram(d)
        assert g.bandwidth == 1.0
        assert FALLBACK_BANDWIDTH_FLAG in g.flags

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = distance_matrix(rng.normal(size=(12, 3)))
            g = gram(d)
            assert np.linalg.eigvalsh(g.values).min() >= -1e-8


class TestMmd:
    def test_matches_brute_force_sums(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 2)) + 1
        ms = make_ms(x, y)
        g = pooled_gram(ms)
        k = g.values
        alpha = sum(k[i, j] for i in range(4) for j in range(4) if i != j) / 12
        beta = sum(k[i + 4, j + 4] for i in range(4) for j in range(4)
                   if i != j) / 12
        gamma = k[:4, 4:].mean()
        assert abs(mmd_ustat(g, (4, 4)) - (alpha + beta - 2 * gamma)) < 1e-12

    def test_identical_sets_nonpositive_and_shrinking(self):
        rng = np.random.default_rng(2)
        vals = []
        for n in (10, 80):
            x = rng.normal(size=(n, 2))
            ms = make_ms(x, x)
            vals.append(mmd_ustat(pooled_gram(ms), (n, n)))
        assert vals[0] <= 0.0
        assert abs(vals[1]) < abs(vals[0])

    def test_separated_clusters_large(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2)) + 100
        ms = make_ms(x, y)
        assert mmd_ustat(pooled_gram(ms), (20, 20)) > 0.5

    def test_unbiased_under_null(self):
        rng = np.random.default_rng(4)
        vals = []
        for _ in range(1000):
            x = rng.normal(size=(6, 1))
            y = rng.normal(size=(6, 1))
            ms = make_ms(x, y)
            vals.append(mmd_ustat(pooled_gram(ms), (6, 6)))
        vals = np.array(vals)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se


class TestBlockMmd:
    def test_blocks_equal_mmd_of_sub_samples(self):
        # sizes 9 and 11 give three blocks of three points per sample
        rng = np.random.default_rng(5)
        ms = make_ms(rng.normal(size=(9, 2)), rng.normal(size=(11, 2)))
        g = pooled_gram(ms)
        per_block = []
        for b in range(3):
            rows = np.r_[3 * b:3 * b + 3, 9 + 3 * b:9 + 3 * b + 3]
            sub = GramMatrix(g.values[np.ix_(rows, rows)], g.bandwidth)
            per_block.append(mmd_ustat(sub, (3, 3)))
        assert block_mmd(ms, g) == float(np.mean(per_block))

    def test_null_mean_near_zero(self):
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(200):
            ms = make_ms(rng.normal(size=(36, 1)), rng.normal(size=(36, 1)))
            vals.append(block_mmd(ms, pooled_gram(ms)))
        assert abs(np.mean(vals)) < 0.02

    def test_too_small_blocks_rejected(self):
        rng = np.random.default_rng(7)
        ms = make_ms(rng.normal(size=(3, 1)), rng.normal(size=(3, 1)))
        with pytest.raises(UnsupportedConfigError):
            block_mmd(ms, pooled_gram(ms))


class TestGpk:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n1 = int(rng.integers(3, 9))
            n2 = int(rng.integers(3, 9))
            ms = make_ms(rng.normal(size=(n1, 2)),
                         rng.normal(size=(n2, 2)) * rng.uniform(0.5, 2))
            g = pooled_gram(ms)
            comp = gpk_components(g, (n1, n2))
            maha_input = np.array([comp.alpha, comp.beta]) - comp.mean
            maha = maha_input @ np.linalg.solve(comp.cov, maha_input)
            assert abs(gpk_statistic(comp, "gpk") - maha) < 1e-8

    def test_moments_match_enumeration(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 1))
        y = rng.normal(size=(4, 1))
        ms = make_ms(x, y)
        g = pooled_gram(ms)
        k0 = g.values.copy()
        np.fill_diagonal(k0, 0.0)
        base = [1] * 3 + [2] * 4
        sums = np.array([pattern_sums(k0, np.array(perm), 2)
                         for perm in set(itertools.permutations(base))])
        alphas = sums[:, 0] * 2 / (3 * 2)
        betas = sums[:, 1] * 2 / (4 * 3)
        comp = gpk_components(g, (3, 4))
        assert abs(alphas.mean() - comp.mean[0]) < 1e-12
        assert abs(betas.mean() - comp.mean[1]) < 1e-12
        assert abs(alphas.var() - comp.cov[0, 0]) < 1e-12
        assert abs(np.cov(alphas, betas, bias=True)[0, 1]
                   - comp.cov[0, 1]) < 1e-12

    def test_gpk_invariant_under_swap_when_balanced(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2)) + 0.5
        a = gpk_statistic(
            gpk_components(pooled_gram(make_ms(x, y)), (6, 6)), "gpk")
        b = gpk_statistic(
            gpk_components(pooled_gram(make_ms(y, x)), (6, 6)), "gpk")
        assert abs(a - b) < 1e-9

    def test_gpk_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ms = make_ms(rng.normal(size=(5, 2)), rng.normal(size=(7, 2)))
            comp = gpk_components(pooled_gram(ms), (5, 7))
            assert gpk_statistic(comp, "gpk") >= 0.0

    def test_variants_exist(self):
        rng = np.random.default_rng(12)
        ms = make_ms(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
        comp = gpk_components(pooled_gram(ms), (6, 6))
        for variant in ("gpk", "zd", "zw1", "zw2"):
            assert np.isfinite(gpk_statistic(comp, variant))
