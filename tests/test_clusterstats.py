import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from dsbench.clusterstats import (CLUSTER_COUNT_SKIPPED_FLAG, PSI_KINDS,
                                  MaddConfig, TreeNode, _average_ranks,
                                  _chosen_split, _estimate_clusters,
                                  _stratified_split,
                                  aggregated_fs_ri_statistic,
                                  c2st_knn, cart_fit, cart_predict,
                                  cluster_madd, contingency, diproperm,
                                  dunn_index, fs_from_table, fs_ri_statistic,
                                  madd, ri_from_table, ymrzl)
from dsbench.core import (DataMatrix, MultiSample, UnsupportedConfigError,
                          distance_matrix, pool)
from dsbench.graphs import knn_graph


def make_ms(*arrays):
    mats = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        mats.append(DataMatrix(a))
    return MultiSample(tuple(mats))


class TestMadd:
    def test_line_example(self):
        rho = madd(np.array([[0.0], [1.0], [2.0]]), MaddConfig("psi5", "h2"))
        assert rho[0, 1] == 1.0

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        rho = madd(rng.normal(size=(8, 3)), MaddConfig("psi2", "h1"))
        assert (np.diag(rho) == 0).all()
        assert np.abs(rho - rho.T).max() < 1e-12

    def test_invariant_under_other_point_permutation(self):
        # rho(0, 1) only depends on the set of other points
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 2))
        rho = madd(x, MaddConfig("psi4", "h1"))
        xp = np.concatenate([x[:2], x[2:][::-1]])
        rho_p = madd(xp, MaddConfig("psi4", "h1"))
        assert abs(rho[0, 1] - rho_p[0, 1]) < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(UnsupportedConfigError):
            madd(np.zeros((2, 1)), MaddConfig())

    @pytest.mark.parametrize("n, p", [(300, 4), (301, 1)])
    @pytest.mark.parametrize("psi, h", [("psi3", "h1"), ("psi5", "h2")])
    def test_working_set_two_square_arrays(self, n, p, psi, h):
        # the peak holds the square phi and the phi and rho triangles
        x = np.random.default_rng(7).normal(size=(n, p))
        tracemalloc.start()
        try:
            madd(x, MaddConfig(psi, h))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * n * n * 8

    def test_matches_brute_force_definition(self):
        psi = {"psi1": lambda t: t ** 2, "psi2": lambda t: 1 - math.exp(-t),
               "psi3": lambda t: 1 - math.exp(-t ** 2),
               "psi4": math.log1p, "psi5": lambda t: t}
        h = {"h1": math.sqrt, "h2": lambda t: t}
        rng = np.random.default_rng(5)
        for n in (3, 4, 9, 17):
            x = rng.normal(size=(n, 3)) * rng.uniform(0.2, 3.0)
            for psi_kind in psi:
                for h_kind in h:
                    phi = [[h[h_kind](sum(psi[psi_kind](abs(a - b))
                                          for a, b in zip(xi, xm)) / 3)
                            for xm in x] for xi in x]
                    rho = madd(x, MaddConfig(psi_kind, h_kind))
                    for i in range(n):
                        for j in range(n):
                            if i == j:
                                assert rho[i, j] == 0.0
                                continue
                            ref = sum(abs(phi[i][m] - phi[j][m])
                                      for m in range(n)
                                      if m not in (i, j)) / (n - 2)
                            assert abs(rho[i, j] - ref) < 1e-12


def madd_reference(values, cfg):
    """madd with a fresh array for every step of the column loop."""
    psi = {"psi1": lambda t: t ** 2, "psi2": lambda t: 1.0 - np.exp(-t),
           "psi3": lambda t: 1.0 - np.exp(-t ** 2), "psi4": np.log1p,
           "psi5": lambda t: t}[cfg.psi]
    n, p = values.shape
    acc = np.zeros((n, n))
    for col in range(p):
        acc += psi(np.abs(values[:, col, None] - values[None, :, col]))
    acc /= p
    phi = np.sqrt(acc) if cfg.h == "h1" else acc
    rho = cdist(phi, phi, "cityblock")
    rho -= 2.0 * phi
    rho /= n - 2
    np.fill_diagonal(rho, 0.0)
    return rho


class TestMaddReference:
    @pytest.mark.parametrize("psi", PSI_KINDS)
    @pytest.mark.parametrize("h", ["h1", "h2"])
    def test_bitwise_equal_to_out_of_place_loop(self, psi, h):
        rng = np.random.default_rng(6)
        # madd sums one triangle of the profile differences (pdist) and
        # mirrors it; the reference sums both triangles (cdist)
        inputs = [rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0)
                  for n, p in ((3, 1), (17, 3), (120, 10), (500, 2))]
        # lattice points with ties and duplicated rows at odd n: exact zeros
        # off the diagonal in phi and rho
        lattice = rng.integers(0, 3, size=(61, 4)) * 0.5
        inputs.append(np.concatenate([lattice, lattice[:40]]))
        inputs.append(rng.integers(0, 2, size=(33, 2)).astype(float))
        cfg = MaddConfig(psi, h)
        for x in inputs:
            assert madd(x, cfg).tobytes() == madd_reference(x, cfg).tobytes()


def reference_cluster_madd(rho, n_clusters, rng, repairs=None):
    """k-medoids as first written: np-level calls, an empty-cluster scan
    every iteration and a convergence test on medoids and labels both.
    `repairs`, if given, collects the iteration of each repair."""
    n = rho.shape[0]
    medoids = np.sort(rng.choice(n, size=n_clusters, replace=False))
    labels = np.argmin(rho[:, medoids], axis=1)
    for it in range(100):
        for c in range(n_clusters):
            if not (labels == c).any():
                if repairs is not None:
                    repairs.append(it)
                worst = int(np.argmax(rho[np.arange(n), medoids[labels]]))
                medoids[c] = worst
                labels = np.argmin(rho[:, medoids], axis=1)
        new_medoids = medoids.copy()
        for c in range(n_clusters):
            members = np.flatnonzero(labels == c)
            within = rho[members[:, None], members].sum(axis=1)
            new_medoids[c] = members[int(np.argmin(within))]
        new_labels = np.argmin(rho[:, new_medoids], axis=1)
        if (new_medoids == medoids).all() and (new_labels == labels).all():
            return labels, ()
        medoids, labels = new_medoids, new_labels
    return labels, ("kmedoids_nonconverged",)


def duplicated_rho(rng, n, n_distinct):
    """MADD of n points drawn from n_distinct, so that medoids tie."""
    x = rng.normal(size=(n_distinct, 2))[rng.integers(0, n_distinct, n)]
    return madd(x, MaddConfig("psi2", "h1"))


EMPTY_ARGMIN = repr(ValueError("attempt to get argmin of an empty sequence"))


def mended(outcome, ell):
    """The reference's outcome with its defect mended: where a cluster stays
    empty after the repair, the reference fails on numpy's empty argmin and
    cluster_madd raises UnsupportedConfigError naming l."""
    if outcome[0] != EMPTY_ARGMIN:
        return outcome
    error = UnsupportedConfigError(
        f"k-medoids with l={ell}: a cluster stays empty after the repair "
        "(l exceeds the distinct points)")
    return (repr(error),) + outcome[1:]


def kmedoids_outcome(fn, rho, ell, seed):
    """(labels or the error raised, flags, generator state after the call):
    the Dunn sweep keeps drawing from the generator."""
    rng = np.random.default_rng(seed)
    try:
        labels, flags = fn(rho, ell, rng)
        result = (labels.tolist(), flags)
    except ValueError as exc:
        result = (repr(exc), ())
    return result + (rng.bit_generator.state,)


class TestClusterMadd:
    @pytest.mark.parametrize("n", [5, 50, 200])
    @pytest.mark.parametrize("kind", ["normal", "duplicated"])
    def test_equals_reference(self, n, kind):
        for seed in range(4):
            data_rng = np.random.default_rng([seed, n])
            rho = (madd(data_rng.normal(size=(n, 3)), MaddConfig("psi5", "h2"))
                   if kind == "normal" else duplicated_rho(data_rng, n, 4))
            for ell in range(2, min(8, n) + 1):
                ref = kmedoids_outcome(reference_cluster_madd, rho, ell,
                                       [seed, ell])
                assert (kmedoids_outcome(cluster_madd, rho, ell, [seed, ell])
                        == mended(ref, ell))

    def test_tied_medoids_repaired_as_reference(self):
        """Four distinct points among 50: medoids drawn on equal points
        leave clusters empty, and the repair fires.  Beyond four clusters it
        cannot fill them all: that is an UnsupportedConfigError."""
        rho = duplicated_rho(np.random.default_rng(11), 50, 4)
        repaired = unfilled = 0
        for seed in range(20):
            for ell in range(2, 9):
                repairs = []
                ref = kmedoids_outcome(
                    lambda r, l, g: reference_cluster_madd(r, l, g, repairs),
                    rho, ell, seed)
                assert (kmedoids_outcome(cluster_madd, rho, ell, seed)
                        == mended(ref, ell))
                repaired += bool(repairs) and isinstance(ref[0], list)
                unfilled += ref[0] == EMPTY_ARGMIN
        assert repaired > 0
        assert unfilled > 0

    def test_separated_clusters_found(self):
        x = np.concatenate([np.zeros((5, 1)), np.full((5, 1), 10.0)])
        rho = madd(x, MaddConfig("psi5", "h2"))
        labels, flags = cluster_madd(rho, 2, np.random.default_rng(0))
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_every_point_own_cluster(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 1))
        rho = madd(x, MaddConfig("psi5", "h2"))
        labels, _ = cluster_madd(rho, 5, rng)
        assert len(set(labels.tolist())) == 5

    def test_deterministic_given_seed(self):
        rng_data = np.random.default_rng(3)
        x = rng_data.normal(size=(20, 2))
        rho = madd(x, MaddConfig("psi2", "h1"))
        a, _ = cluster_madd(rho, 3, np.random.default_rng(7))
        b, _ = cluster_madd(rho, 3, np.random.default_rng(7))
        assert (a == b).all()

class TestFsRi:
    def test_fs_perfect_table(self):
        table = np.array([[2, 0], [0, 2]])
        assert abs(fs_from_table(table) - (-math.log(1 / 6))) < 1e-12

    def test_fs_maximal_for_perfect_table(self):
        # among all 2x2 tables with margins (3,3)/(3,3) the diagonal table
        # has the smallest probability and hence the largest statistic
        best = fs_from_table(np.array([[3, 0], [0, 3]]))
        for a in range(4):
            table = np.array([[a, 3 - a], [3 - a, a]])
            assert fs_from_table(table) <= best + 1e-12

    def test_ri_perfect_zero(self):
        assert ri_from_table(np.array([[4, 0], [0, 5]])) == 0.0

    def test_ri_range_and_permutation_matrix_condition(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            table = rng.integers(0, 5, size=(2, 3))
            if table.sum() < 2:
                continue
            v = ri_from_table(table)
            assert 0.0 <= v <= 1.0

    def test_contingency_margins(self):
        sample = np.array([1, 1, 2, 2, 2])
        cluster = np.array([0, 1, 1, 1, 0])
        table = contingency(sample, cluster, 2, 2)
        assert table.sum() == 5
        assert table.sum(axis=1).tolist() == [2, 3]

    def test_contingency_equals_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n_clusters = int(rng.integers(1, 8))
            n = int(rng.integers(0, 40))
            # labels drawn from part of the range leave empty clusters
            sample = rng.integers(1, k + 1, size=n)
            cluster = rng.integers(0, max(1, n_clusters - 2), size=n)
            ref = np.zeros((k, n_clusters), dtype=np.int64)
            for s_lab, c_lab in zip(sample, cluster):
                ref[s_lab - 1, c_lab] += 1
            table = contingency(sample, cluster, k, n_clusters)
            assert table.dtype == np.int64
            assert np.array_equal(table, ref)

    def test_ri_zero_for_separated_samples(self):
        rng = np.random.default_rng(5)
        ms = make_ms(rng.normal(size=(10, 2)),
                     rng.normal(size=(10, 2)) + 50)
        z, labels = pool(ms)
        v, _ = fs_ri_statistic(madd(z.values, MaddConfig("psi5", "h2")),
                               labels, 2, True, np.random.default_rng(1))
        assert v == 0.0

    def test_null_ri_near_half(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 2))
        ms = make_ms(x[:50], x[50:])
        z, labels = pool(ms)
        v, _ = fs_ri_statistic(madd(z.values, MaddConfig("psi5", "h2")),
                               labels, 2, True, np.random.default_rng(2))
        assert 0.3 < v < 0.7

    def test_aggregated_two_of_three_separated(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(8, 2))
        c = rng.normal(size=(8, 2)) + 30
        ms = make_ms(a, b, c)
        z, labels = pool(ms)
        rhos = [madd(z.values[(labels == i) | (labels == j)],
                     MaddConfig("psi5", "h2"))
                for i, j in ((1, 2), (1, 3), (2, 3))]
        afs, _ = aggregated_fs_ri_statistic(rhos, labels, False, False,
                                            np.random.default_rng(3))
        ari, _ = aggregated_fs_ri_statistic(rhos, labels, False, True,
                                            np.random.default_rng(3))
        assert afs > 0.0
        assert ari == 0.0  # the separated pairs cluster perfectly

    def test_unfillable_cluster_count_skipped(self):
        """Three distinct points among twelve: k-medoids cannot fill l=4
        clusters, so the Dunn sweep over l = 2..4 skips l=4 and flags it;
        the statistic clusters at the best of l = 2, 3, drawing on after
        the sweep."""
        ms = make_ms([0, 0, 1, 1, 2, 2], [0, 1, 2, 0, 1, 2])
        z, labels = pool(ms)
        for ri, psi in ((False, "psi3"), (True, "psi2")):
            rho = madd(z.values, MaddConfig(psi, "h1"))
            value, flags = fs_ri_statistic(rho, labels, None, ri,
                                           np.random.default_rng(0))
            assert flags == (CLUSTER_COUNT_SKIPPED_FLAG,)
            rng = np.random.default_rng(0)
            ell, _ = _estimate_clusters(rho, 2, rng)
            assert ell in (2, 3)
            fixed, _ = fs_ri_statistic(rho, labels, ell, ri, rng)
            assert value == fixed


def dunn_reference(rho, labels):
    """Dunn index with one np.ix_ block per cluster and cluster pair."""
    clusters = np.unique(labels)
    max_diam = 0.0
    for c in clusters:
        members = np.flatnonzero(labels == c)
        if len(members) > 1:
            max_diam = max(max_diam,
                           float(rho[np.ix_(members, members)].max()))
    min_between = math.inf
    for i, a in enumerate(clusters):
        for b in clusters[i + 1:]:
            ma = np.flatnonzero(labels == a)
            mb = np.flatnonzero(labels == b)
            min_between = min(min_between, float(rho[np.ix_(ma, mb)].min()))
    if max_diam == 0.0:
        return math.inf
    return min_between / max_diam


class TestDunn:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 60), st.integers(2, 8),
           st.sampled_from(["random", "symmetric", "rounded"]))
    def test_equals_ix_blocks(self, seed, n, ell, kind):
        rng = np.random.default_rng(seed)
        rho = rng.random((n, n))
        if kind != "random":
            rho = rho + rho.T
            np.fill_diagonal(rho, 0.0)
        if kind == "rounded":
            rho = np.round(rho, 1)
        labels = rng.integers(0, min(ell, n), n) * 3  # not 0..l-1
        if len(np.unique(labels)) < 2:
            labels[0], labels[-1] = 0, 3
        assert dunn_index(rho, labels) == dunn_reference(rho, labels)

    def test_equals_ix_blocks_on_madd(self):
        rng = np.random.default_rng(7)
        rho = madd(rng.normal(size=(80, 3)), MaddConfig("psi2", "h1"))
        for ell in (2, 3, 5, 8):
            labels, _ = cluster_madd(rho, ell, rng)
            assert dunn_index(rho, labels) == dunn_reference(rho, labels)

    def test_two_tight_far_clusters(self):
        x = np.concatenate([np.zeros((4, 1)), np.full((4, 1), 100.0)])
        x = x + np.linspace(0, 0.1, 8)[:, None]
        rho = madd(x, MaddConfig("psi5", "h2"))
        labels = np.array([0] * 4 + [1] * 4)
        assert dunn_index(rho, labels) > 10.0

    def test_single_cluster_errors(self):
        rho = np.ones((4, 4))
        with pytest.raises(UnsupportedConfigError):
            dunn_index(rho, np.zeros(4, dtype=int))

    def test_equidistant_ratio_one(self):
        rho = np.ones((4, 4))
        np.fill_diagonal(rho, 0.0)
        assert dunn_index(rho, np.array([0, 0, 1, 1])) == 1.0

    def test_singleton_cluster_has_no_diameter(self):
        # clusters {0, 1}, {2}, {3, 4}: the singleton's nonzero diagonal
        # entry is not a diameter, but it bounds the distances between
        x = np.array([0.0, 1.0, 5.0, 9.0, 11.0])
        rho = np.abs(x[:, None] - x[None, :])
        rho[2, 2] = 50.0
        labels = np.array([4, 4, 1, 7, 7])
        assert dunn_index(rho, labels) == 4.0 / 2.0
        assert dunn_index(rho, labels) == dunn_reference(rho, labels)

    def test_singletons_flagged_infinite(self):
        rho = np.ones((3, 3))
        np.fill_diagonal(rho, 0.0)
        assert dunn_index(rho, np.array([0, 1, 2])) == math.inf


def c2st(ms, rng):
    """c2st_knn on the pooled neighbour table of ms, as Context builds it."""
    z, labels = pool(ms)
    return c2st_knn(knn_graph(distance_matrix(z), ms.total_n - 1), labels,
                    rng)


def reference_c2st(ms, rng):
    """The K-NN classifier on distances of its own: a cdist block from the
    test to the training points, a stable sort of each row (ties to the
    earlier training point) and a per-row bincount vote (ties to the
    smaller label)."""
    z, labels = pool(ms)
    train, test = _stratified_split(labels, rng)
    k = max(1, int(math.isqrt(len(train))))
    d = cdist(z.values[test], z.values[train])
    votes = labels[train][np.argsort(d, axis=1, kind="stable")[:, :k]]
    preds = [int(np.argmax(np.bincount(v, minlength=labels.max() + 1)))
             for v in votes]
    return float((np.array(preds) == labels[test]).mean())


class TestC2st:
    def test_separated_accuracy_one(self):
        rng = np.random.default_rng(9)
        ms = make_ms(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 50)
        assert c2st(ms, np.random.default_rng(0)) == 1.0

    def test_null_balanced_near_half(self):
        rng = np.random.default_rng(10)
        vals = [c2st(make_ms(rng.normal(size=(50, 2)),
                             rng.normal(size=(50, 2))),
                     np.random.default_rng(s)) for s in range(30)]
        assert abs(np.mean(vals) - 0.5) < 0.07

    def test_null_unbalanced_near_majority(self):
        rng = np.random.default_rng(11)
        vals = [c2st(make_ms(rng.normal(size=(20, 2)),
                             rng.normal(size=(80, 2))),
                     np.random.default_rng(s)) for s in range(30)]
        assert abs(np.mean(vals) - 0.8) < 0.07

    def test_k4_supported(self):
        rng = np.random.default_rng(12)
        ms = make_ms(*[rng.normal(size=(10, 2)) + 20 * i for i in range(4)])
        assert c2st(ms, np.random.default_rng(1)) == 1.0

    def test_small_n_rejected(self):
        rng = np.random.default_rng(13)
        ms = make_ms(rng.normal(size=(4, 1)), rng.normal(size=(4, 1)))
        with pytest.raises(UnsupportedConfigError):
            c2st(ms, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equals_classifier_on_own_distances(self, k):
        # lattice points and repeated rows tie many distances, so both
        # the neighbour order and the votes are decided by tie rules
        rng = np.random.default_rng(k)
        for case in range(130):
            sizes = rng.integers(2, 16, size=k)
            if sizes.sum() < 10:
                sizes[0] += 10
            p = int(rng.integers(1, 4))
            x = rng.integers(0, 3, size=(int(sizes.sum()), p)).astype(float)
            if case % 2:
                x = x[rng.integers(0, len(x) // 2, size=len(x))]
            ms = make_ms(*np.split(x, np.cumsum(sizes)[:-1]))
            assert (c2st(ms, np.random.default_rng(case))
                    == reference_c2st(ms, np.random.default_rng(case)))


def gini_reference(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    frac = counts / n
    return 1.0 - float((frac ** 2).sum())


def best_split_reference(x, y, n_classes, min_leaf):
    """Scalar split search: every sorted position of every feature in
    turn, keeping a gain above 1e-12 that beats the kept one by 1e-12."""
    n, p = x.shape
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_gini = gini_reference(parent_counts)
    best = None
    for feat in range(p):
        order = np.argsort(x[:, feat], kind="stable")
        xs = x[order, feat]
        ys = y[order]
        left_counts = np.zeros(n_classes)
        right_counts = parent_counts.astype(float).copy()
        for i in range(n - 1):
            left_counts[ys[i]] += 1
            right_counts[ys[i]] -= 1
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            gain = parent_gini - (nl * gini_reference(left_counts)
                                  + nr * gini_reference(right_counts)) / n
            if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                best = (gain, feat, (xs[i] + xs[i + 1]) / 2.0)
    return best


def cart_fit_reference(x, y, max_depth, min_leaf):
    """Recursive CART over row subsets with the scalar split search."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1

    def build(idx, depth):
        node = TreeNode(n_samples=len(idx))
        counts = np.bincount(y[idx], minlength=n_classes)
        node.prediction = int(np.argmax(counts))
        if (depth >= max_depth or len(idx) < 2 * min_leaf
                or gini_reference(counts) == 0.0):
            return node
        found = best_split_reference(x[idx], y[idx], n_classes, min_leaf)
        if found is None:
            return node
        _, node.feature, node.threshold = found
        mask = x[idx, node.feature] <= node.threshold
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(len(y)), 0)


def cart_predict_reference(tree, x):
    out = np.empty(len(x), dtype=np.int64)
    for i, row in enumerate(np.asarray(x, dtype=np.float64)):
        node = tree
        while not node.is_leaf:
            node = (node.left if row[node.feature] <= node.threshold
                    else node.right)
        out[i] = node.prediction
    return out


def assert_same_tree(a, b):
    assert a.n_samples == b.n_samples
    assert a.prediction == b.prediction
    assert a.is_leaf == b.is_leaf
    if a.is_leaf:
        return
    assert a.feature == b.feature
    assert (np.float64(a.threshold).tobytes()
            == np.float64(b.threshold).tobytes())
    assert_same_tree(a.left, b.left)
    assert_same_tree(a.right, b.right)


def assert_cart_matches_reference(x, y, max_depth, min_leaf):
    tree = cart_fit(x, y, max_depth=max_depth, min_leaf=min_leaf)
    assert_same_tree(tree, cart_fit_reference(x, y, max_depth, min_leaf))
    rng = np.random.default_rng(len(y))
    # midpoints of pairs of rows hit thresholds exactly on lattice data
    probe = np.concatenate([x, x + rng.normal(size=x.shape),
                            (x[:-1] + x[1:]) / 2.0])
    assert np.array_equal(cart_predict(tree, probe),
                          cart_predict_reference(tree, probe))
    return tree


DEPTH_LEAF = st.sampled_from([(10, 5), (64, 1), (3, 2)])


class TestCartReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 150), st.integers(1, 8),
           st.integers(2, 6), DEPTH_LEAF)
    def test_normal_data(self, seed, n, p, n_classes, depth_leaf):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = rng.integers(0, n_classes, size=n)
        assert_cart_matches_reference(x, y, *depth_leaf)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 150), st.integers(1, 8),
           st.integers(2, 6), st.integers(2, 5), DEPTH_LEAF)
    def test_lattice_ties(self, seed, n, p, n_classes, side, depth_leaf):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, side, size=(n, p)).astype(float)
        y = rng.integers(0, n_classes, size=n)
        assert_cart_matches_reference(x, y, *depth_leaf)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 100), st.integers(2, 6),
           DEPTH_LEAF)
    def test_constant_features(self, seed, n, p, depth_leaf):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        x[:, ::2] = 1.5
        y = rng.integers(0, 3, size=n)
        assert_cart_matches_reference(x, y, *depth_leaf)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 120), st.integers(7, 50))
    def test_many_classes_grown_to_purity(self, seed, n, n_classes):
        # the method-choice tree: three features, up to one class per row
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.choice([50, 100, 200, 500], size=n),
                             rng.choice([2, 10, 50], size=n),
                             rng.integers(0, 2, size=n)]).astype(float)
        y = rng.integers(0, n_classes, size=n)
        assert_cart_matches_reference(x, y, 64, 1)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_below_two_leaves_single_leaf(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        y = np.arange(n) % 2
        tree = assert_cart_matches_reference(x, y, 10, 5)
        assert tree.is_leaf and tree.n_samples == n

    def test_equal_gain_keeps_earlier_feature(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        tree = assert_cart_matches_reference(x, y, 5, 1)
        assert tree.feature == 0 and tree.threshold == 1.5

    def test_larger_later_gain_replaces(self):
        # feature 1 separates the classes, feature 0 only partly
        x = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        tree = assert_cart_matches_reference(x, y, 5, 1)
        assert tree.feature == 1 and tree.threshold == 1.5


def chosen_split_reference(gain):
    best = None
    for i, g in enumerate(gain):
        if g > 1e-12 and (best is None or g > gain[best] + 1e-12):
            best = i
    return -1 if best is None else best


class TestChosenSplit:
    @pytest.mark.parametrize("gain, expected", [
        ([0.0, -np.inf, 1e-12], -1),
        ([0.25, 0.25 + 5e-13, 0.25 + 1e-12], 0),
        ([0.1, 0.25, 0.25 + 9e-13, 0.2], 1),
        ([0.25, 0.25 + 3e-12, 0.25 + 3.5e-12], 1),
        ([-np.inf, 0.1, 0.3, 0.3 + 2e-12, 0.3 + 2.5e-12], 3),
    ])
    def test_tie_rule(self, gain, expected):
        gain = np.array(gain)
        assert _chosen_split(gain) == expected
        assert chosen_split_reference(gain) == expected

    def test_equals_scan_on_near_ties(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            gain = 0.2 + rng.integers(-3, 4, size=30) * 7e-13
            gain[rng.random(30) < 0.2] = -np.inf
            assert _chosen_split(gain) == chosen_split_reference(gain)


class TestCart:
    def test_pure_input_single_leaf(self):
        tree = cart_fit(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]))
        assert tree.is_leaf and tree.prediction == 1

    def test_separable_split_found(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = cart_fit(x, y, max_depth=5, min_leaf=1)
        assert (cart_predict(tree, x) == y).all()

    def test_depth_cap_respected(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(200, 2))
        y = rng.integers(0, 2, size=200)
        tree = cart_fit(x, y, max_depth=3, min_leaf=1)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree) <= 3

    def test_ymrzl_separated_error_zero(self):
        rng = np.random.default_rng(15)
        ms = make_ms(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)) + 50)
        z, labels = pool(ms)
        assert ymrzl(z.values, labels, np.random.default_rng(0)) == 0.0

    def test_ymrzl_null_near_half(self):
        rng = np.random.default_rng(16)
        pools = [pool(make_ms(rng.normal(size=(40, 2)),
                              rng.normal(size=(40, 2)))) for _ in range(30)]
        vals = [ymrzl(z.values, labels, np.random.default_rng(s))
                for s, (z, labels) in enumerate(pools)]
        assert abs(np.mean(vals) - 0.5) < 0.08


class TestAverageRanks:
    def test_bitwise_equal_to_rankdata(self):
        rng = np.random.default_rng(8)
        for x in (rng.normal(size=101),
                  rng.integers(0, 6, size=200).astype(float),
                  rng.integers(0, 2, size=7).astype(float),
                  np.full(9, 2.5), np.array([1.0]),
                  np.repeat(rng.normal(size=40), 3)):
            assert _average_ranks(x).tobytes() == rankdata(x).tobytes()


class TestDiproperm:
    def test_mean_difference_projection(self):
        ms = make_ms(np.zeros((5, 2)), np.tile([1.0, 1.0], (5, 1)))
        value, flags = diproperm(ms, "md")
        assert abs(value - math.sqrt(2)) < 1e-12 and flags == ()

    def test_identical_zero_with_flag(self):
        ms = make_ms(np.zeros((4, 2)), np.zeros((4, 2)))
        value, flags = diproperm(ms, "md")
        assert value == 0.0 and "zero_direction" in flags

    def test_auc_perfect_separation(self):
        rng = np.random.default_rng(17)
        ms = make_ms(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 50)
        value, _ = diproperm(ms, "auc")
        assert value == 1.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(12, 3)) + 1
        theta = 0.7
        rot = np.eye(3)
        rot[:2, :2] = [[math.cos(theta), -math.sin(theta)],
                       [math.sin(theta), math.cos(theta)]]
        a, _ = diproperm(make_ms(x, y), "md")
        b, _ = diproperm(make_ms(x @ rot.T, y @ rot.T), "md")
        assert abs(a - b) < 1e-10

    def test_t_statistic_finite(self):
        rng = np.random.default_rng(19)
        ms = make_ms(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
        value, _ = diproperm(ms, "t")
        assert np.isfinite(value)
