import itertools

import numpy as np
import pytest
from scipy.stats import spearmanr

from dsbench.core import (DataMatrix, MultiSample, UnsupportedConfigError,
                          distance_matrix)
from dsbench.graphs import (kmst, knn_from_table, knn_graph,
                            min_weight_matching)
from dsbench.graphstats import (bqs_statistic, edgecount_test,
                                kmd_statistic, mmcm_statistic,
                                petrie_statistic, rosenbaum_statistic,
                                sc_test, sh_statistic)
from dsbench.methods import Context, evaluate
from dsbench.permnull import moments_from_edges, pattern_counts_from_edges


def knn(dist, k):
    """The directed K-NN graph of a distance matrix."""
    return knn_from_table(knn_graph(dist, k), k)


def line_dist(*points):
    return distance_matrix(np.array(points, dtype=float)[:, None])


def summary(edges, labels, sizes):
    """The (counts, mean, cov) pattern summary that Context builds."""
    mean, cov = moments_from_edges(edges, sum(sizes), sizes)
    return pattern_counts_from_edges(edges, labels, len(sizes)), mean, cov


def enumerate_count_distribution(edges, sizes):
    base = np.concatenate([np.full(n, i + 1) for i, n in enumerate(sizes)])
    k = len(sizes)
    out = []
    for perm in {p for p in itertools.permutations(base.tolist())}:
        out.append(pattern_counts_from_edges(edges, np.array(perm), k))
    return np.array(out)


class TestEdgeCounts:
    def test_path_example(self):
        g = kmst(line_dist(0, 1, 2, 3), 1)
        counts = pattern_counts_from_edges(g, np.array([1, 1, 2, 2]), 2)
        assert counts[:2].tolist() == [1, 1]
        assert counts[2:].tolist() == [1]

    def test_all_same_label(self):
        g = kmst(line_dist(0, 1, 2, 3), 1)
        counts = pattern_counts_from_edges(g, np.array([1, 1, 1, 1]), 2)
        assert counts[2:].tolist() == [0]

    def test_complete_graph_between(self):
        edges = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)])
        counts = pattern_counts_from_edges(edges, np.array([1, 1, 2, 2]), 2)
        assert counts[2:].tolist() == [4]


class TestEdgecountTests:
    def test_fr_path_matches_enumeration(self):
        g = kmst(line_dist(0, 1, 2, 3), 1)
        labels = np.array([1, 1, 2, 2])
        dist_counts = enumerate_count_distribution(g, (2, 2))
        between = dist_counts[:, 2]
        value, _ = edgecount_test(summary(g, labels, (2, 2)), (2, 2),
                                  "fr")
        expected = (1 - between.mean()) / between.std()
        assert abs(value - expected) < 1e-12

    def test_ccs_path_weighted_count(self):
        g = kmst(line_dist(0, 1, 2, 3), 1)
        counts = pattern_counts_from_edges(g, np.array([1, 1, 2, 2]), 2)
        rw = 0.5 * counts[0] + 0.5 * counts[1]
        assert rw == 1.0

    def test_zc_raw_composition(self):
        g = kmst(line_dist(0, 1, 2, 3), 1)
        counts = pattern_counts_from_edges(g, np.array([1, 1, 2, 2]), 2)
        rw = 0.5 * counts[0] + 0.5 * counts[1]
        assert max(1.0 * rw, abs(counts[0] - counts[1])) == 1.0

    def test_cf_nonnegative_and_swap_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = distance_matrix(rng.normal(size=(10, 2)))
            g = kmst(d, 2)
            labels = np.array([1] * 4 + [2] * 6)
            v1, _ = edgecount_test(summary(g, labels, (4, 6)),
                                   (4, 6), "cf")
            v2, _ = edgecount_test(summary(g, 3 - labels, (6, 4)),
                                   (6, 4), "cf")
            assert v1 >= 0.0
            assert abs(v1 - v2) < 1e-9

    def test_zc_standardized_against_hand_computation(self):
        rng = np.random.default_rng(1)
        d = distance_matrix(rng.normal(size=(8, 2)))
        g = kmst(d, 1)
        labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        counts, mean, cov = summary(g, labels, (4, 4))
        w = np.array([0.5, 0.5])
        zw = (w @ counts[:2] - w @ mean[:2]) / np.sqrt(w @ cov[:2, :2] @ w)
        v = np.array([1.0, -1.0])
        zd = (v @ counts[:2] - v @ mean[:2]) / np.sqrt(v @ cov[:2, :2] @ v)
        for kappa in (1.0, 1.14, 1.31):
            value, _ = edgecount_test((counts, mean, cov), (4, 4), "zc",
                                      kappa=kappa)
            assert abs(value - max(kappa * zw, abs(zd))) < 1e-12


class TestScTest:
    def test_sa_finite_nonnegative_k2(self):
        rng = np.random.default_rng(2)
        d = distance_matrix(rng.normal(size=(12, 2)))
        g = kmst(d, 5)
        labels = np.array([1] * 6 + [2] * 6)
        value, _ = sc_test(summary(g, labels, (6, 6)), (6, 6), "sa")
        assert np.isfinite(value) and value >= 0.0

    def test_sa_equals_cf_for_two_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = distance_matrix(rng.normal(size=(9, 2)))
            g = kmst(d, 2)
            labels = np.array([1] * 4 + [2] * 5)
            stats = summary(g, labels, (4, 5))
            sa, _ = sc_test(stats, (4, 5), "sa")
            cf, _ = edgecount_test(stats, (4, 5), "cf")
            assert abs(sa - cf) < 1e-9

    def test_quadratic_form_matches_enumerated_moments(self):
        rng = np.random.default_rng(4)
        d = distance_matrix(rng.normal(size=(6, 2)))
        g = kmst(d, 1)
        sizes = (2, 2, 2)
        labels = np.array([1, 1, 2, 2, 3, 3])
        dist_counts = enumerate_count_distribution(g, sizes)
        mean = dist_counts.mean(0)
        cov = np.cov(dist_counts.T, bias=True)
        counts = pattern_counts_from_edges(g, labels, 3)
        k = 3
        dw = counts[:k] - mean[:k]
        sw = dw @ np.linalg.pinv(cov[:k, :k]) @ dw
        db = counts[k:] - mean[k:]
        sb = db @ np.linalg.pinv(cov[k:, k:]) @ db
        value, _ = sc_test(summary(g, labels, sizes), sizes, "s")
        assert abs(value - (sw + sb)) < 1e-8

    def test_separated_samples_extreme_vs_permutations(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(size=(8, 2)),
                            rng.normal(size=(8, 2)) + 8,
                            rng.normal(size=(8, 2)) - 8])
        d = distance_matrix(x)
        g = kmst(d, 1)
        labels = np.array([1] * 8 + [2] * 8 + [3] * 8)
        observed, _ = sc_test(summary(g, labels, (8, 8, 8)),
                              (8, 8, 8), "s")
        perms = []
        for _ in range(1000):
            perm_labels = rng.permutation(labels)
            v, _ = sc_test(summary(g, perm_labels, (8, 8, 8)),
                           (8, 8, 8), "s")
            perms.append(v)
        assert observed >= np.quantile(perms, 0.99)


class TestNearestNeighbourTests:
    def test_sh_separated(self):
        g = knn(line_dist(0, 1, 10, 11), 1)
        assert sh_statistic(g, np.array([1, 1, 2, 2])) == 1.0

    def test_sh_interleaved(self):
        g = knn(line_dist(0, 1, 2, 3), 1)
        assert sh_statistic(g, np.array([1, 2, 1, 2])) == 0.0

    def test_bqs_equals_summing_sh_numerators(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 2))
        d = distance_matrix(x)
        labels = np.array([1] * 5 + [2] * 7)
        direct = 0.0
        for k in range(1, 12):
            g = knn(d, k)
            direct += (labels[g[:, 0]] == labels[g[:, 1]]).sum()
        assert bqs_statistic(knn_graph(d, 11), labels) == direct


class TestCrossmatch:
    def test_interleaved_pairs(self):
        d = line_dist(0, 0.1, 10, 10.1)
        m = min_weight_matching(d)
        stats = summary(m.pairs, np.array([1, 2, 1, 2]), (2, 2))
        assert rosenbaum_statistic(stats) == 2.0

    def test_separated_pairs(self):
        d = line_dist(0, 0.1, 10, 10.1)
        m = min_weight_matching(d)
        stats = summary(m.pairs, np.array([1, 1, 2, 2]), (2, 2))
        assert rosenbaum_statistic(stats) == 0.0

    def test_mmcm_monotone_in_rosenbaum_count(self):
        rng = np.random.default_rng(7)
        ros, mmcm = [], []
        for _ in range(100):
            n1 = int(rng.integers(3, 8))
            n2 = int(rng.integers(3, 8))
            shift = rng.uniform(0, 2)
            x = np.concatenate([rng.normal(size=(n1, 2)),
                                rng.normal(size=(n2, 2)) + shift])
            d = distance_matrix(x)
            m = min_weight_matching(d)
            labels = np.array([1] * n1 + [2] * n2)
            stats = summary(m.pairs, labels, (n1, n2))
            ros.append(rosenbaum_statistic(stats))
            v, _ = mmcm_statistic(stats, (n1, n2))
            mmcm.append(v)
        # fix the sizes for a clean monotone map: restrict to one size combo
        rho = spearmanr(ros, mmcm).statistic
        assert rho < 0  # deficit form decreases in the cross-match count

    def test_mmcm_exactly_monotone_at_fixed_sizes(self):
        rng = np.random.default_rng(8)
        ros, mmcm = [], []
        for _ in range(100):
            x = np.concatenate([rng.normal(size=(6, 2)),
                                rng.normal(size=(6, 2)) + rng.uniform(0, 2)])
            d = distance_matrix(x)
            m = min_weight_matching(d)
            labels = np.array([1] * 6 + [2] * 6)
            stats = summary(m.pairs, labels, (6, 6))
            ros.append(rosenbaum_statistic(stats))
            v, _ = mmcm_statistic(stats, (6, 6))
            mmcm.append(v)
        rho = spearmanr(ros, mmcm).statistic
        assert abs(rho) == 1.0

    def test_petrie_standardization(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 2))
        d = distance_matrix(x)
        m = min_weight_matching(d)
        labels = np.array([1] * 4 + [2] * 4)
        stats = summary(m.pairs, labels, (4, 4))
        dist_counts = enumerate_count_distribution(m.pairs, (4, 4))
        between = dist_counts[:, 2]
        expected = (stats[0][2] - between.mean()) / between.std()
        assert abs(petrie_statistic(stats, (4, 4)) - expected) < 1e-10

    def test_mmcm_k4_quadratic_form(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 2))
        d = distance_matrix(x)
        m = min_weight_matching(d)
        labels = np.array([1] * 3 + [2] * 3 + [3] * 3 + [4] * 3)
        value, _ = mmcm_statistic(summary(m.pairs, labels, (3, 3, 3, 3)),
                                  (3, 3, 3, 3))
        assert np.isfinite(value) and value >= 0.0

    def test_mmcm_k3_unsupported(self):
        d = line_dist(0, 1, 2, 3, 4, 5)
        m = min_weight_matching(d)
        with pytest.raises(UnsupportedConfigError):
            mmcm_statistic(summary(m.pairs, np.array([1, 1, 2, 2, 3, 3]),
                                   (2, 2, 2)), (2, 2, 2))


class TestKmd:
    def test_separated_is_one(self):
        d = line_dist(0, 1, 10, 11)
        g = knn(d, 1)
        assert kmd_statistic(g, np.array([1, 1, 2, 2]), (2, 2)) == 1.0

    def test_shuffled_labels_near_zero(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(200, 2))
            d = distance_matrix(x)
            g = knn(d, 20)
            labels = rng.permutation(np.array([1] * 100 + [2] * 100))
            if abs(kmd_statistic(g, labels, (100, 100))) < 0.1:
                hits += 1
        assert hits >= 19

    def test_affine_in_sh_at_fixed_sizes(self):
        rng = np.random.default_rng(11)
        n1, n2, k = 7, 9, 3
        pairs = []
        for _ in range(25):
            x = np.concatenate([rng.normal(size=(n1, 2)),
                                rng.normal(size=(n2, 2)) + rng.uniform(0, 3)])
            d = distance_matrix(x)
            g = knn(d, k)
            labels = np.array([1] * n1 + [2] * n2)
            eta = kmd_statistic(g, labels, (n1, n2))
            ell = sh_statistic(g, labels)
            pairs.append((ell, eta))
        ell, eta = np.array(pairs).T
        design = np.column_stack([np.ones_like(ell), ell])
        coef, *_ = np.linalg.lstsq(design, eta, rcond=None)
        residual = np.abs(design @ coef - eta).max()
        assert residual < 1e-10

    def test_mst_variant_runs(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 2))
        d = distance_matrix(x)
        g = kmst(d, 1)
        labels = np.array([1] * 10 + [2] * 10)
        # edges i < j only: node 19 has no out-edge
        with pytest.raises(UnsupportedConfigError, match="out-edges"):
            kmd_statistic(g, labels, (10, 10))
        value = kmd_statistic(np.concatenate([g, g[:, ::-1]]), labels,
                              (10, 10))
        assert np.isfinite(value)
        ctx = Context(MultiSample((DataMatrix(x[:10]), DataMatrix(x[10:]))))
        assert evaluate("kmd_mst", ctx).value == value

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(14, 2))
        d = distance_matrix(x)
        g = knn(d, 3)
        labels = np.array([1] * 6 + [2] * 8)
        a = kmd_statistic(g, labels, (6, 8))
        b = kmd_statistic(g, 3 - labels, (8, 6))
        assert abs(a - b) < 1e-12
