import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from dsbench._blossom import _Matcher, _assignment_duals
from dsbench.core import distance_matrix
from dsbench.graphs import (MstLayers, assignment, halton_grid, kmst,
                            knn_from_table, knn_graph, min_weight_matching)


def random_dist(rng, n, p=2):
    return squareform(pdist(rng.normal(size=(n, p))))


def brute_min_matching_weight(dist):
    n = dist.shape[0]

    def rec(rem):
        if not rem:
            return 0.0
        a = rem[0]
        best = np.inf
        for b in rem[1:]:
            rest = tuple(x for x in rem if x not in (a, b))
            best = min(best, dist[a, b] + rec(rest))
        return best

    return rec(tuple(range(n)))


def networkx_min_matching_weight(nx, dist):
    n = dist.shape[0]
    graph = nx.Graph()
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j, weight=dist[i, j])
    return sum(dist[i, j] for i, j in nx.min_weight_matching(graph))


def lattice_dist(rng, n, p=2, side=4):
    """Distances between integer lattice points: many tied edges."""
    return squareform(pdist(rng.integers(0, side, size=(n, p)).astype(float)))


def reference_knn_table(dist, k):
    """The neighbour table from a stable sort of each row with the
    diagonal set to infinity."""
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, :k]


class TestKnn:
    def test_line_example(self):
        d = distance_matrix(np.array([[0.0], [1.0], [3.0]]))
        assert knn_graph(d, 1).tolist() == [[1], [0], [1]]
        g = knn_from_table(knn_graph(d, 1), 1)
        assert g.tolist() == [[0, 1], [1, 0], [2, 1]]

    def test_complete_when_k_max(self):
        d = random_dist(np.random.default_rng(0), 5)
        table = knn_graph(d, 4)
        assert table.shape == (5, 4) and table.dtype == np.int32
        assert knn_from_table(table, 4).shape == (20, 2)
        for i, row in enumerate(table.tolist()):
            assert sorted(row) == [j for j in range(5) if j != i]

    def test_tie_goes_to_lower_index(self):
        # point 0 equidistant from 1 and 2
        d = distance_matrix(np.array([[0.0], [1.0], [-1.0]]))
        assert knn_graph(d, 1)[0].tolist() == [1]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 12), st.integers(1, 3))
    def test_out_degree_exactly_k(self, seed, n, k):
        d = random_dist(np.random.default_rng(seed), n)
        g = knn_from_table(knn_graph(d, k), k)
        deg = np.bincount(g[:, 0], minlength=n)
        assert (deg == k).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40), st.integers(2, 4),
           st.booleans())
    def test_equals_stable_sort_with_ties(self, seed, n, side, duplicates):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, side, size=(n, 2)).astype(float)
        if duplicates:  # zero distances off the diagonal
            x = x[rng.integers(0, max(1, n // 3), size=n)]
        d = squareform(pdist(x))
        for k in {1, n // 2, n - 1}:
            table = knn_graph(d, k)
            assert table.dtype == np.int32 and table.flags.c_contiguous
            assert np.array_equal(table, reference_knn_table(d, k))

    def test_k_out_of_range(self):
        d = random_dist(np.random.default_rng(1), 4)
        with pytest.raises(ValueError):
            knn_graph(d, 4)


def kruskal_kmst(dist, k):
    """Reference k-MST: Kruskal with union-find over the edges sorted by
    (distance, i, j), skipping edges of earlier layers.  Returns the int64
    edge array kmst builds, layer by layer."""
    n = dist.shape[0]
    iu, ju = np.triu_indices(n, 1)
    order = (iu * n + ju)[np.lexsort((ju, iu, dist[iu, ju]))]
    used = np.zeros(n * n, dtype=bool)
    edges = []
    for _ in range(k):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = []
        for f in order:
            if used[f]:
                continue
            i, j = divmod(int(f), n)
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            parent[ri] = rj
            chosen.append(int(f))
            if len(chosen) == n - 1:
                break
        if len(chosen) < n - 1:
            raise ValueError("graph disconnected before completing the layer")
        for f in chosen:
            used[f] = True
            edges.append(divmod(f, n))
    return np.array(edges, dtype=np.int64)


def assert_kmst_matches_kruskal(dist, k):
    try:
        edges = kruskal_kmst(dist, k)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            kmst(dist, k)
        return
    g = kmst(dist, k)
    assert g.dtype == edges.dtype
    assert np.array_equal(g, edges)


class TestKmst:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 120), st.integers(1, 5))
    def test_equals_kruskal_normal(self, seed, n, k):
        d = random_dist(np.random.default_rng(seed), n)
        assert_kmst_matches_kruskal(d, min(k, n // 2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 120), st.integers(1, 5),
           st.integers(2, 6))
    def test_equals_kruskal_lattice_ties(self, seed, n, k, side):
        d = lattice_dist(np.random.default_rng(seed), n, side=side)
        assert_kmst_matches_kruskal(d, min(k, n // 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 60), st.integers(1, 5))
    def test_equals_kruskal_duplicate_points(self, seed, n, k):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        x = x[rng.integers(0, max(2, n // 3), size=n)]
        d = squareform(pdist(x))
        assert (d[~np.eye(n, dtype=bool)] == 0.0).any()
        assert_kmst_matches_kruskal(d, min(k, n // 2))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 60), st.integers(1, 5))
    def test_given_layers_equal_kruskal(self, seed, n, k):
        d = lattice_dist(np.random.default_rng(seed), n, side=3)
        k = min(k, n // 2)
        try:
            edges = kruskal_kmst(d, k)
        except ValueError:
            return
        g = kmst(d, k, layers=MstLayers(d))
        assert np.array_equal(g, edges)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(4, 60), st.booleans())
    def test_resumed_layers_equal_fresh_build(self, seed, n, lattice):
        rng = np.random.default_rng(seed)
        d = lattice_dist(rng, n, side=3) if lattice else random_dist(rng, n)
        k = min(5, n // 2)
        try:
            fresh = kmst(d, k)
        except ValueError:
            return
        layers = MstLayers(d)
        first = kmst(d, 1, layers=layers)
        assert np.array_equal(first, kmst(d, 1))
        resumed = kmst(d, k, layers=layers)
        assert len(layers.trees) == k
        assert np.array_equal(resumed, fresh)
        # asking again for fewer layers reuses them
        assert np.array_equal(kmst(d, 1, layers=layers), first)

    def test_layers_of_another_size_rejected(self):
        rng = np.random.default_rng(0)
        d, other = random_dist(rng, 8), random_dist(rng, 9)
        with pytest.raises(ValueError, match="layers of 9 nodes"):
            kmst(d, 1, layers=MstLayers(other))

    def test_star_second_layer_disconnected(self):
        # the first layer is the star; the centre has no edge left
        angles = 2 * np.pi * np.arange(3) / 3
        x = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles),
                                                     np.sin(angles)])])
        d = distance_matrix(x)
        assert sorted(map(tuple, kmst(d, 1).tolist())) == [
            (0, 1), (0, 2), (0, 3)]
        with pytest.raises(ValueError, match="disconnected"):
            kmst(d, 2)
        with pytest.raises(ValueError, match="disconnected"):
            kruskal_kmst(d, 2)

    @pytest.mark.parametrize("k", [0, 4])
    def test_infeasible_k(self, k):
        with pytest.raises(ValueError, match="infeasible"):
            kmst(random_dist(np.random.default_rng(3), 6), k)

    def test_line_path(self):
        d = distance_matrix(np.array([[0.0], [1.0], [2.0], [3.0]]))
        g = kmst(d, 1)
        assert sorted(map(tuple, g.tolist())) == [(0, 1), (1, 2), (2, 3)]
        assert d[g[:, 0], g[:, 1]].sum() == 3.0

    def test_two_layers_structure(self):
        d = random_dist(np.random.default_rng(2), 8)
        g = kmst(d, 2)
        assert g.shape == (2 * 7, 2)
        assert len({tuple(e) for e in g.tolist()}) == 2 * 7
        # edges come layer by layer, each layer a spanning tree
        for layer in (g[:7], g[7:]):
            tree = np.zeros((8, 8))
            tree[layer[:, 0], layer[:, 1]] = 1.0
            assert connected_components(tree, directed=False)[0] == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(3, 20))
    def test_first_layer_matches_scipy(self, seed, n):
        d = random_dist(np.random.default_rng(seed), n)
        g = kmst(d, 1)
        ours = d[g[:, 0], g[:, 1]].sum()
        ref = minimum_spanning_tree(d).sum()
        assert abs(ours - ref) < 1e-12 * max(1.0, ref)


class TestMatching:
    def test_two_pairs(self):
        d = distance_matrix(np.array([[0.0], [0.1], [10.0], [10.1]]))
        m = min_weight_matching(d)
        assert sorted(map(tuple, m.pairs.tolist())) == [(0, 1), (2, 3)]
        assert abs(m.weight - 0.2) < 1e-12

    def test_equidistant_points(self):
        d = np.ones((4, 4))
        np.fill_diagonal(d, 0.0)
        m = min_weight_matching(d)
        assert abs(m.weight - 2.0) < 1e-12

    def test_odd_n_phantom(self):
        d = distance_matrix(np.array([[0.0], [1.0], [5.0]]))
        m = min_weight_matching(d)
        assert len(m.pairs) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([4, 6, 8, 10]))
    def test_equals_brute_force(self, seed, n):
        d = random_dist(np.random.default_rng(seed), n)
        m = min_weight_matching(d)
        assert abs(m.weight - brute_min_matching_weight(d)) < 1e-9

    def test_not_beaten_by_random_matchings(self):
        rng = np.random.default_rng(3)
        d = random_dist(rng, 20)
        m = min_weight_matching(d)
        idx = np.arange(20)
        for _ in range(10_000):
            perm = rng.permutation(idx)
            w = d[perm[0::2], perm[1::2]].sum()
            assert m.weight <= w + 1e-9

    def test_matches_networkx_on_larger_instances(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(4)
        for n in (30, 44, 60):
            d = random_dist(rng, n, p=3)
            ours = min_weight_matching(d).weight
            graph = nx.Graph()
            for i in range(n):
                for j in range(i + 1, n):
                    graph.add_edge(i, j, weight=d[i, j])
            ref = sum(d[i, j] for i, j in nx.min_weight_matching(graph))
            assert abs(ours - ref) < 1e-8

    def test_matches_networkx_on_lattice_ties(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        for n, p, side in ((20, 2, 3), (30, 2, 4), (40, 3, 2), (50, 1, 6)):
            d = lattice_dist(rng, n, p, side)
            m = min_weight_matching(d)
            assert sorted(m.pairs.ravel().tolist()) == list(range(n))
            assert abs(m.weight - networkx_min_matching_weight(nx, d)) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 5, 7, 9]),
           st.booleans())
    def test_odd_n_equals_brute_force(self, seed, n, lattice):
        rng = np.random.default_rng(seed)
        d = lattice_dist(rng, n) if lattice else random_dist(rng, n)
        m = min_weight_matching(d)
        assert len(m.pairs) == n // 2
        assert len(set(m.pairs.ravel().tolist())) == n - 1
        keep = [[j for j in range(n) if j != single] for single in range(n)]
        best = min(brute_min_matching_weight(d[np.ix_(k, k)]) for k in keep)
        assert abs(m.weight - best) < 1e-9

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_duplicate_points(self, n):
        m = min_weight_matching(np.zeros((n, n)))
        assert len(m.pairs) == n // 2
        assert len(set(m.pairs.ravel().tolist())) == 2 * (n // 2)
        assert m.weight == 0.0

    def test_mutual_nearest_pair_outside_optimum(self):
        # 1 and 1.9 are each other's nearest neighbour, but (0,1) + (1.9,2.9)
        # costs 2.0 against 0.9 + 2.9 for (1,1.9) + (0,2.9).
        d = distance_matrix(np.array([[0.0], [1.0], [1.9], [2.9]]))
        m = min_weight_matching(d)
        assert sorted(map(tuple, m.pairs.tolist())) == [(0, 1), (2, 3)]
        assert abs(m.weight - 2.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40), st.booleans())
    def test_warm_start_feasible_and_tight(self, seed, n, lattice):
        rng = np.random.default_rng(seed)
        d = lattice_dist(rng, n) if lattice else random_dist(rng, n)
        start = _Matcher(d.max() - d)
        slack = start.dualvar[:, None] + start.dualvar - start.wt2
        off = ~np.eye(n, dtype=bool)
        assert (slack[off] >= 0.0).all()
        matched = np.flatnonzero(start.mate >= 0)
        assert matched.size >= 2
        assert (start.mate[start.mate[matched]] == matched).all()
        assert (slack[matched, start.mate[matched]] == 0.0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 60), st.booleans())
    def test_start_pairs_are_assignment_cycle_edges(self, seed, n, lattice):
        rng = np.random.default_rng(seed)
        d = lattice_dist(rng, n) if lattice else random_dist(rng, n)
        w = d.max() - d
        sigma = _assignment_duals(w)[0]
        start = _Matcher(w)
        matched = np.flatnonzero(start.mate >= 0)
        partner = start.mate[matched]
        assert ((sigma[matched] == partner) | (sigma[partner] == matched)).all()
        again = _Matcher(w)
        assert start.mate.tobytes() == again.mate.tobytes()
        assert start.dualvar.tobytes() == again.dualvar.tobytes()

    def test_start_feasible_and_tight_on_ties(self):
        # few distinct points, so most edges tie and many have weight 0
        cases = ((3, 1, 2), (9, 1, 2), (21, 2, 2), (33, 3, 2), (45, 1, 3),
                 (61, 2, 3), (64, 2, 2), (99, 1, 4))
        for (n, p, side), seed in itertools.product(cases, range(5)):
            d = lattice_dist(np.random.default_rng(seed), n, p, side)
            start = _Matcher(d.max() - d)
            slack = start.dualvar[:, None] + start.dualvar - start.wt2
            np.fill_diagonal(slack, np.inf)
            assert (slack >= 0.0).all()
            matched = np.flatnonzero(start.mate >= 0)
            assert matched.size >= 2
            assert (start.mate[start.mate[matched]] == matched).all()
            assert (slack[matched, start.mate[matched]] == 0.0).all()

    def test_dual_recovery_ends_within_its_round_cap(self):
        # Points on scales from 1e-8 to 1e7: rounding leaves an ulp-sized
        # negative cycle in the residual graph, so the potentials never
        # settle and the recovery stops after n rounds.
        n = 10
        rng = np.random.default_rng(160)
        x = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        d = squareform(pdist(x))
        assert _assignment_duals(d.max() - d)[2] == n
        start = _Matcher(d.max() - d)
        slack = start.dualvar[:, None] + start.dualvar - start.wt2
        assert (slack[~np.eye(n, dtype=bool)] >= 0.0).all()
        m = min_weight_matching(d)
        assert m.weight == pytest.approx(brute_min_matching_weight(d),
                                         rel=1e-12)
        # on continuous data the potentials settle well before the cap
        for n in (20, 100):
            d = random_dist(np.random.default_rng(n), n)
            assert _assignment_duals(d.max() - d)[2] < n // 2

    @pytest.mark.parametrize("dgp, n, p", [
        ("t3", 200, 2), ("t3", 61, 50), ("lognormal", 120, 50),
        ("lognormal", 75, 2), ("chisq1", 151, 2), ("chisq1", 90, 50)])
    def test_pairs_equal_networkx_on_continuous_data(self, dgp, n, p):
        # continuous data: the optimum is unique, so the pairs must agree
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(n * p)
        x = {"t3": lambda: rng.standard_t(3, size=(n, p)),
             "lognormal": lambda: rng.lognormal(size=(n, p)),
             "chisq1": lambda: rng.chisquare(1, size=(n, p))}[dgp]()
        d = squareform(pdist(x))
        graph = nx.Graph()
        graph.add_weighted_edges_from(
            (i, j, d[i, j]) for i in range(n) for j in range(i + 1, n))
        ref = sorted(tuple(sorted(e)) for e in nx.min_weight_matching(graph))
        ours = sorted(map(tuple, min_weight_matching(d).pairs.tolist()))
        assert ours == ref

    def test_trees_kept_across_augmentations(self, monkeypatch):
        # Relabelling and rescanning every tree after each augmentation
        # made 2204 scans on this instance; the persistent forest makes 149
        # from the assignment start.
        calls = []
        scan = _Matcher.scan

        def counting(self, v):
            calls.append(v)
            return scan(self, v)
        monkeypatch.setattr(_Matcher, "scan", counting)
        n = 200
        d = random_dist(np.random.default_rng(11), n)
        min_weight_matching(d)
        assert 0 < len(calls) < 5 * n

    def test_least_slacks_read_from_best_equal_brute_force(self, monkeypatch):
        # Before every dual step, ``best`` of each unreached vertex leads to
        # an S-vertex, and of each S-vertex to an S-vertex of another
        # top-level blossom; the least slacks read from those edges (delta2,
        # and delta3 halved) equal the least over all such edges.  On
        # continuous data every step is exact.  Lattice ties can reorder by
        # an ulp, as each dual step rounds every vertex's dual on its own,
        # hence the 1e-12 allowance.
        steps = []
        dual_step = _Matcher.dual_step

        def least(slack):
            return slack.min() if slack.size else np.inf

        def checked(self):
            top = self.inblossom
            toplabel = self.label[top]
            slack = self.dualvar[:, None] + self.dualvar - self.wt2
            s, u = toplabel == 1, toplabel == 0
            cross = (top[:, None] != top) & s[:, None] & s
            far = self.best
            assert (far[u | s] >= 0).all()
            assert s[far[u]].all() and cross[s, far[s]].all()
            tol = 1e-12 * np.abs(self.wt2).max()
            exact = []
            for read, brute in ((slack[far[u], u], slack[np.ix_(s, u)]),
                                (slack[s, far[s]] / 2.0, slack[cross] / 2.0)):
                assert least(brute) <= least(read) <= least(brute) + tol
                exact.append(least(read) == least(brute))
            steps.append(all(exact))
            return dual_step(self)
        monkeypatch.setattr(_Matcher, "dual_step", checked)
        rng = np.random.default_rng(17)
        for n in (20, 41, 60, 99, 100, 151, 200):
            for _ in range(4):
                min_weight_matching(random_dist(rng, n))
        assert len(steps) > 1000 and all(steps)
        for n, p, side in ((20, 2, 3), (31, 2, 4), (40, 3, 2), (61, 1, 6),
                           (99, 2, 5)):
            for _ in range(10):
                min_weight_matching(lattice_dist(rng, n, p, side))
        assert len(steps) > 1100


class TestAssignment:
    def test_identity_optimal(self):
        assert assignment(np.array([[1.0, 2.0], [2.0, 1.0]])).tolist() == [0, 1]

    def test_tie_cost(self):
        sigma = assignment(np.array([[0.0, 1.0], [0.0, 1.0]]))
        cost = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert cost[np.arange(2), sigma].sum() == 1.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 7))
    def test_equals_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        cost = rng.random((n, n))
        sigma = assignment(cost)
        ours = cost[np.arange(n), sigma].sum()
        best = min(cost[np.arange(n), list(perm)].sum()
                   for perm in itertools.permutations(range(n)))
        assert abs(ours - best) < 1e-12


class TestHalton:
    def test_base_two_sequence(self):
        h = halton_grid(3, 1)
        assert h.ravel().tolist() == [0.5, 0.25, 0.75]

    def test_first_point_two_dims(self):
        h = halton_grid(1, 2)
        assert h.tolist() == [[0.5, 1 / 3]]

    def test_unit_cube(self):
        h = halton_grid(200, 5)
        assert (h > 0).all() and (h < 1).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 10))
    def test_equals_scalar_radical_inverse(self, n, p):
        bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29][:p]
        ref = np.empty((n, p))
        for dim, base in enumerate(bases):
            for idx in range(1, n + 1):
                f, r, i = 1.0, 0.0, idx
                while i > 0:
                    f /= base
                    r += f * (i % base)
                    i //= base
                ref[idx - 1, dim] = r
        assert halton_grid(n, p).tobytes() == ref.tobytes()
