import itertools

import numpy as np
import pytest

from dsbench.graphstats import null_moments
from dsbench.permnull import (moments_from_edges, moments_from_weights,
                              pattern_counts_from_edges, pattern_sums,
                              patterns)


def label_arrangements(sizes):
    base = np.concatenate([np.full(n, i + 1) for i, n in enumerate(sizes)])
    return {perm for perm in itertools.permutations(base.tolist())}


def enumerate_edge_moments(edges, n, sizes):
    k = len(sizes)
    sums = [pattern_counts_from_edges(edges, np.array(lab), k)
            for lab in label_arrangements(sizes)]
    sums = np.array(sums)
    return sums.mean(0), np.cov(sums.T, bias=True)


def enumerate_weight_moments(weights, sizes):
    k = len(sizes)
    sums = [pattern_sums(weights, np.array(lab), k)
            for lab in label_arrangements(sizes)]
    sums = np.array(sums)
    return sums.mean(0), np.cov(sums.T, bias=True)


class TestPatterns:
    def test_order_k2(self):
        assert patterns(2) == [(0, 0), (1, 1), (0, 1)]

    def test_count_k4(self):
        assert len(patterns(4)) == 4 + 6


class TestEdgeMoments:
    def test_path_graph_expectation(self):
        edges = np.array([(0, 1), (1, 2), (2, 3)])
        mean, _ = moments_from_edges(edges, 4, (2, 2))
        # E[between] = 2 |E| n1 n2 / (N (N-1))
        assert abs(mean[2] - 2.0) < 1e-12

    def test_complete_graph_between_variance_zero(self):
        n = 5
        edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        _, cov = moments_from_edges(edges, n, (2, 3))
        assert abs(cov[2, 2]) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        sizes = tuple((rng.multinomial(n - k, np.ones(k) / k) + 1).tolist())
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        m = int(rng.integers(2, len(pairs) + 1))
        sel = rng.choice(len(pairs), size=m, replace=False)
        edges = np.array([pairs[s] for s in sel])
        mean_e, cov_e = enumerate_edge_moments(edges, n, sizes)
        mean_a, cov_a = moments_from_edges(edges, n, sizes)
        assert np.abs(mean_e - mean_a).max() < 1e-12
        assert np.abs(cov_e - cov_a).max() < 1e-12

    def test_null_moments_api_on_graph(self):
        edges = np.array([(0, 1), (1, 2), (2, 3)])
        mean, cov = null_moments(edges, (2, 2))
        mean_e, cov_e = enumerate_edge_moments(edges, 4, (2, 2))
        assert np.abs(mean - mean_e).max() < 1e-12
        assert np.abs(cov - cov_e).max() < 1e-12

    def test_covariance_psd(self):
        rng = np.random.default_rng(42)
        n = 7
        edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.6])
        _, cov = moments_from_edges(edges, n, (3, 4))
        assert np.linalg.eigvalsh(cov).min() > -1e-10


class TestWeightMoments:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        n1 = int(rng.integers(1, n))
        sizes = (n1, n - n1)
        w = rng.random((n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        mean_e, cov_e = enumerate_weight_moments(w, sizes)
        mean_a, cov_a = moments_from_weights(w, sizes)
        assert np.abs(mean_e - mean_a).max() < 1e-12
        assert np.abs(cov_e - cov_a).max() < 1e-12

    def test_directed_entries_collapse(self):
        # i->j and j->i entries behave like one pair of weight two
        edges = np.array([(0, 1), (1, 0), (1, 2)])
        mean, cov = moments_from_edges(edges, 3, (1, 2))
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        w[1, 2] = w[2, 1] = 1.0
        mean_w, cov_w = moments_from_weights(w, (1, 2))
        assert np.abs(mean - mean_w).max() < 1e-12
        assert np.abs(cov - cov_w).max() < 1e-12
