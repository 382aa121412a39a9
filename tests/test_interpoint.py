import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbench import interpoint
from dsbench.core import (DataMatrix, MultiSample, UnsupportedConfigError,
                          distance_matrix, pool)
from dsbench.interpoint import (ball_divergence, bf_statistic, bg2,
                                bg_partition, disco, ds_rank_energy, energy,
                                engineer_metric, g_alpha, lhz, phi_kernel,
                                wasserstein1)
from dsbench.methods import Context


def make_ms(*arrays):
    mats = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        mats.append(DataMatrix(a))
    return MultiSample(tuple(mats))


def pooled_dist(ms):
    z, _ = pool(ms)
    return distance_matrix(z)


def pooled(ms):
    return pool(ms)[0].values


def ball(ms):
    ctx = Context(ms)
    return ball_divergence(ms, ctx.dist, ctx.neighbour_order)


def energy_triple_sum(x, y):
    """Independent oracle: the displayed double sums, written out."""
    n1, n2 = len(x), len(y)
    cross = sum(np.linalg.norm(a - b) for a in x for b in y)
    within1 = sum(np.linalg.norm(a - b) for a in x for b in x)
    within2 = sum(np.linalg.norm(a - b) for a in y for b in y)
    return (n1 * n2 / (n1 + n2)) * (2 * cross / (n1 * n2)
                                    - within1 / n1 ** 2 - within2 / n2 ** 2)


class TestEnergy:
    def test_identical_sets_zero(self):
        ms = make_ms([1.0, 2.0], [1.0, 2.0])
        assert abs(energy(ms, pooled_dist(ms))) < 1e-12

    def test_single_points(self):
        ms = make_ms([0.0], [1.0])
        assert energy(ms, pooled_dist(ms)) == 1.0

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=(3, 1))
            y = rng.normal(size=(3, 1))
            ms = make_ms(x, y)
            assert abs(energy(ms, pooled_dist(ms))
                       - energy_triple_sum(x, y)) < 1e-10

    def test_k_sample_is_sum_of_pairwise_terms(self):
        rng = np.random.default_rng(1)
        xs = [rng.normal(size=(4, 2)) for _ in range(3)]
        ms = make_ms(*xs)
        total = energy(ms, pooled_dist(ms))
        parts = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                parts += energy_triple_sum(xs[i], xs[j])
        assert abs(total - parts) < 1e-10


class TestGAlpha:
    def test_two_points(self):
        assert g_alpha(np.array([[2.0]]), 1.0) == 2.0

    def test_alpha_half(self):
        assert g_alpha(np.array([[4.0]]), 0.5) == 2.0


class TestBf:
    def test_zero_for_identical(self):
        ms = make_ms([0.5, 1.5], [0.5, 1.5])
        d = pooled_dist(ms)
        for kind in ("cramer", "bahr", "log", "fraca", "fracb"):
            assert abs(bf_statistic(ms, d, kind)) < 1e-12

    def test_fraca_single_points(self):
        ms = make_ms([0.0], [1.0])
        assert abs(bf_statistic(ms, pooled_dist(ms), "fraca") - 0.5) < 1e-12

    def test_log_single_points(self):
        ms = make_ms([0.0], [1.0])
        assert abs(bf_statistic(ms, pooled_dist(ms), "log")
                   - math.log(2)) < 1e-12

    def test_cramer_kernel_is_half_energy(self):
        rng = np.random.default_rng(2)
        ms = make_ms(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
        d = pooled_dist(ms)
        assert abs(bf_statistic(ms, d, "cramer") - energy(ms, d) / 2) < 1e-10

    def test_phi_values_at_zero(self):
        z = np.array([0.0])
        for kind in ("cramer", "bahr", "log", "fraca", "fracb"):
            assert phi_kernel(kind, z)[0] == 0.0


class TestBg2:
    def test_identical_sets_small_bias_identity(self):
        # within-means exclude the diagonal while the cross-mean does not,
        # so identical multisets give exactly 2 (mu_hat / n)^2, not zero
        rng = np.random.default_rng(20)
        x = rng.normal(size=(30, 2))
        ms = make_ms(x, x)
        d = pooled_dist(ms)
        n = 30
        mu11 = d[:n, :n].sum() / (n * (n - 1))
        expected = 2 * (mu11 / n) ** 2
        assert abs(bg2(ms, d) - expected) < 1e-12

    def test_worked_example(self):
        ms = make_ms([0.0, 2.0], [1.0, 3.0])
        assert abs(bg2(ms, pooled_dist(ms)) - 0.5) < 1e-12

    def test_single_point_sample_errors(self):
        ms = make_ms([0.0], [1.0, 2.0])
        with pytest.raises(UnsupportedConfigError):
            bg2(ms, pooled_dist(ms))


class TestDisco:
    def test_between_zero_for_identical_samples(self):
        ms = make_ms([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
        r = disco(ms, pooled_dist(ms), 1.0)
        assert abs(r.between) < 1e-12

    def test_decomposition_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            ms = make_ms(*[rng.normal(size=(int(rng.integers(2, 6)), 2))
                           for _ in range(k)])
            alpha = float(rng.uniform(0.2, 1.9))
            r = disco(ms, pooled_dist(ms), alpha)
            assert abs(r.total - (r.between + r.within)) < 1e-10

    def test_two_sample_between_is_half_energy(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ms = make_ms(rng.normal(size=(int(rng.integers(2, 7)), 1)),
                         rng.normal(size=(int(rng.integers(2, 7)), 1)))
            d = pooled_dist(ms)
            r = disco(ms, d, 1.0)
            assert abs(r.between - energy(ms, d) / 2) < 1e-10


class TestDsRankEnergy:
    def test_monotone_rank_map_in_one_dim(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.normal(size=8))
        from dsbench.graphs import assignment, halton_grid
        grid = halton_grid(8, 1)
        cost = (x[:, None] - grid[None, :, 0]) ** 2
        sigma = assignment(cost)
        assert (np.argsort(grid[sigma, 0]) == np.arange(8)).all()

    def test_increasing_map_invariance_one_dim(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 1))
        y = rng.normal(size=(5, 1))
        ms = make_ms(x, y)
        base = ds_rank_energy(ms, pool(ms)[0].values)
        ms2 = make_ms(np.exp(x), np.exp(y))  # strictly increasing map
        mapped = ds_rank_energy(ms2, pool(ms2)[0].values)
        assert abs(base - mapped) < 1e-12

    def test_identical_multisets_near_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 2))
        ms = make_ms(x, x)
        value = ds_rank_energy(ms, pool(ms)[0].values)
        # ranks split arbitrarily between the two copies; the statistic is
        # bounded by the energy of random halves of the grid
        from dsbench.graphs import halton_grid
        grid = halton_grid(40, 2)
        worst = 0.0
        for _ in range(50):
            perm = rng.permutation(40)
            a, b = grid[perm[:20]], grid[perm[20:]]
            worst = max(worst, energy_triple_sum(a, b))
        assert value <= worst + 1e-9


class TestWasserstein:
    def test_shifted_pairs(self):
        ms = make_ms([0.0, 1.0], [2.0, 3.0])
        assert abs(wasserstein1(ms, pooled_dist(ms)) - 2.0) < 1e-12

    def test_identical_zero(self):
        ms = make_ms([0.0, 1.0], [0.0, 1.0])
        assert wasserstein1(ms, pooled_dist(ms)) == 0.0

    def test_sorted_coupling_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=6)
            y = rng.normal(size=6)
            ms = make_ms(x, y)
            oracle = np.abs(np.sort(x) - np.sort(y)).mean()
            assert abs(wasserstein1(ms, pooled_dist(ms)) - oracle) < 1e-12

    def test_unbalanced_unsupported(self):
        ms = make_ms([0.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(UnsupportedConfigError):
            wasserstein1(ms, pooled_dist(ms))


def ball_divergence_brute(x, y):
    n, m = len(x), len(y)

    def dist(a, b):
        return np.linalg.norm(a - b)

    a_term = 0.0
    for i in range(n):
        for j in range(n):
            r = dist(x[i], x[j])
            ax = sum(dist(x[u], x[i]) <= r for u in range(n)) / n
            ay = sum(dist(y[v], x[i]) <= r for v in range(m)) / m
            a_term += (ax - ay) ** 2
    c_term = 0.0
    for k in range(m):
        for l in range(m):
            r = dist(y[k], y[l])
            cx = sum(dist(x[u], y[k]) <= r for u in range(n)) / n
            cy = sum(dist(y[v], y[k]) <= r for v in range(m)) / m
            c_term += (cx - cy) ** 2
    return a_term / n ** 2 + c_term / m ** 2


def ball_divergence_loop(ms, dist):
    """Reference: for each point, sort its two distance rows and count
    with searchsorted; pairwise row sums added in point order."""
    total = 0.0
    starts = np.cumsum((0,) + ms.sizes)
    for a in range(ms.k):
        for b in range(a + 1, ms.k):
            sa = slice(starts[a], starts[a + 1])
            sb = slice(starts[b], starts[b + 1])
            dxx, dxy, dyy = dist[sa, sa], dist[sa, sb], dist[sb, sb]
            n, m = dxx.shape[0], dyy.shape[0]
            a_term = 0.0
            for i in range(n):
                ax = np.searchsorted(np.sort(dxx[i]), dxx[i], "right") / n
                ay = np.searchsorted(np.sort(dxy[i]), dxx[i], "right") / m
                a_term += float(((ax - ay) ** 2).sum())
            c_term = 0.0
            for j in range(m):
                cy = np.searchsorted(np.sort(dyy[j]), dyy[j], "right") / m
                cx = np.searchsorted(np.sort(dxy[:, j]), dyy[j], "right") / n
                c_term += float(((cx - cy) ** 2).sum())
            total += a_term / (n * n) + c_term / (m * m)
    return float(total)


def ball_inputs(rng, sizes, data):
    """One sample per size: normal points, points on a 3 x 3 lattice
    (tied distances), or draws from 4 shared points (zero distances)."""
    if data == "normal":
        return [rng.normal(size=(n, 3)) for n in sizes]
    if data == "lattice":
        return [rng.integers(0, 3, size=(n, 2)).astype(float) for n in sizes]
    base = rng.normal(size=(4, 2))
    return [base[rng.integers(0, 4, n)] for n in sizes]


class TestBallDivergence:
    @pytest.mark.parametrize("sizes", [(30, 30), (9, 41), (12, 12, 12, 12),
                                       (3, 17, 8, 25), (1, 1), (1,) * 130])
    @pytest.mark.parametrize("data", ["normal", "lattice", "duplicates"])
    def test_bitwise_equal_to_loop_reference(self, sizes, data):
        ms = make_ms(*ball_inputs(np.random.default_rng(sum(sizes)), sizes,
                                  data))
        assert ball(ms) == ball_divergence_loop(ms, pooled_dist(ms))

    @pytest.mark.parametrize("block", [1, 200, 600])
    @pytest.mark.parametrize("sizes, data", [
        ((13, 20), "lattice"), ((5, 1, 9, 4, 6, 2, 8), "lattice"),
        ((13, 20), "duplicates"), ((5, 1, 9, 4, 6, 2, 8), "duplicates"),
    ], ids=["sizes0", "sizes1", "duplicates-sizes0", "duplicates-sizes1"])
    def test_row_blocks_bitwise_equal_to_loop_reference(self, monkeypatch,
                                                        block, sizes, data):
        # rows taken a few (or one) at a time give the same sums, also
        # where zero-distance runs cross the samples and the blocks
        monkeypatch.setattr(interpoint, "_BALL_BLOCK", block)
        ms = make_ms(*ball_inputs(np.random.default_rng(block), sizes, data))
        assert ball(ms) == ball_divergence_loop(ms, pooled_dist(ms))

    def test_identical_zero(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2))
        ms = make_ms(x, x)
        assert ball(ms) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        ms = make_ms(rng.normal(size=(4, 2)), rng.normal(size=(7, 2)))
        assert ball(ms) >= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=(3, 1))
            y = rng.normal(size=(3, 1))
            ms = make_ms(x, y)
            assert abs(ball(ms)
                       - ball_divergence_brute(x, y)) < 1e-12

    def test_k_sample_sums_pairs(self):
        rng = np.random.default_rng(12)
        xs = [rng.normal(size=(4, 2)) for _ in range(3)]
        ms = make_ms(*xs)
        total = ball(ms)
        parts = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                sub = make_ms(xs[i], xs[j])
                parts += ball(sub)
        assert abs(total - parts) < 1e-12


class TestLhz:
    def test_duplicate_single_points_zero(self):
        ms = make_ms([0.5], [0.5])
        assert lhz(ms, pooled(ms)) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        ms = make_ms(rng.normal(size=(6, 2)), rng.normal(size=(5, 2)))
        assert lhz(ms, pooled(ms)) >= 0.0

    def test_shift_exceeds_null_for_most_seeds(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            null = make_ms(rng.normal(size=(100, 1)),
                           rng.normal(size=(100, 1)))
            alt = make_ms(rng.normal(size=(100, 1)),
                          rng.normal(size=(100, 1)) + 3.0)
            hits += lhz(alt, pooled(alt)) > lhz(null, pooled(null))
        assert hits >= 19


class TestEngineer:
    def test_euclidean_of_means(self):
        ms = MultiSample((DataMatrix(np.zeros((3, 2))),
                          DataMatrix(np.tile([3.0, 4.0], (3, 1)))))
        assert engineer_metric(ms) == 5.0

    def test_identical_zero(self):
        ms = make_ms([1.0, 2.0], [1.0, 2.0])
        assert engineer_metric(ms) == 0.0


class TestBgPartition:
    def test_two_cell_example(self):
        ms = make_ms([0.1, 0.2], [0.6, 0.9])
        assert bg_partition(ms, pooled(ms), eps=0.5) == 2.0

    def test_identical_zero(self):
        ms = make_ms([0.1, 0.6], [0.1, 0.6])
        assert bg_partition(ms, pooled(ms), eps=0.5) == 0.0

    def test_high_dimension_unsupported(self):
        rng = np.random.default_rng(14)
        ms = make_ms(rng.normal(size=(50, 50)), rng.normal(size=(50, 50)))
        with pytest.raises(UnsupportedConfigError):
            bg_partition(ms, pooled(ms), eps=0.8)


class TestSharedInvariants:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(5, 2))
        ms = make_ms(x, y)
        ms_p = make_ms(x[rng.permutation(6)], y[rng.permutation(5)])
        d, dp = pooled_dist(ms), pooled_dist(ms_p)
        for fn in (energy, bg2):
            assert abs(fn(ms, d) - fn(ms_p, dp)) < 1e-10
        assert abs(ball(ms) - ball(ms_p)) < 1e-10
        assert abs(lhz(ms, pooled(ms)) - lhz(ms_p, pooled(ms_p))) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2))
        ms, sw = make_ms(x, y), make_ms(y, x)
        d, dw = pooled_dist(ms), pooled_dist(sw)
        assert abs(energy(ms, d) - energy(sw, dw)) < 1e-10
        assert abs(bg2(ms, d) - bg2(sw, dw)) < 1e-10
        assert abs(wasserstein1(ms, d) - wasserstein1(sw, dw)) < 1e-10
        assert abs(engineer_metric(ms) - engineer_metric(sw)) < 1e-12
        for kind in ("log", "fraca", "fracb", "bahr"):
            assert abs(bf_statistic(ms, d, kind)
                       - bf_statistic(sw, dw, kind)) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        ms = make_ms(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
        d = pooled_dist(ms)
        assert energy(ms, d) >= 0.0
        assert bg2(ms, d) >= 0.0
        assert disco(ms, d, 0.7).between >= 0.0
        assert ball(ms) >= 0.0
        assert lhz(ms, pooled(ms)) >= 0.0
        assert engineer_metric(ms) >= 0.0
        for kind in ("log", "fraca", "fracb", "bahr", "cramer"):
            assert bf_statistic(ms, d, kind) >= 0.0
