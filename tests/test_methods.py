import hashlib

import numpy as np
import pytest

from dsbench import (clusterstats, graphs, graphstats, harness, interpoint,
                     kernelstats, methods, permnull)
from dsbench.core import DISSIMILARITY, SIMILARITY, DataMatrix, MultiSample
from dsbench.datagen import ScenarioSpec, rng_for, sample_scenario
from dsbench.methods import (BUILT_FROM_DIST, DEFAULT_FOUR_SAMPLE,
                             DEFAULT_TWO_SAMPLE, LARGE, REGISTRY, Context,
                             default_methods, evaluate, release_plan)


def make_ms(sizes, p=2, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    mats = []
    for i, n in enumerate(sizes):
        mats.append(DataMatrix(rng.normal(size=(n, p)) + shift * i))
    return MultiSample(tuple(mats))


def count_builds(monkeypatch) -> dict:
    """Wrap the builders of the shared structures; returns {builder: [args
    of each call]}."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = []

        def wrapped(*args, **kwargs):
            calls[key].append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    count(methods, "_distance_matrix")
    count(methods, "MstLayers")
    count(methods, "min_weight_matching")
    count(kernelstats, "gram")
    count(clusterstats, "madd")
    count(interpoint, "disco")
    count(kernelstats, "moments_from_weights")
    count(graphstats, "null_moments")
    count(graphstats, "moments_from_edges")
    count(permnull, "moments_from_edges")
    count(methods, "pattern_counts_from_edges")
    count(methods, "kmst")
    count(graphs, "edge_order")
    count(methods, "knn_graph")
    count(graphstats, "knn_graph")
    return calls


def describe(args) -> tuple:
    """A comparable summary of one call's arguments: arrays by shape and
    bytes, samples by their rows."""
    out = []
    for a in args:
        if isinstance(a, DataMatrix):
            a = a.values
        if isinstance(a, MultiSample):
            a = np.concatenate([m.values for m in a.samples])
        if isinstance(a, np.ndarray):
            a = (a.shape, hashlib.sha256(
                np.ascontiguousarray(a).tobytes()).hexdigest())
        out.append(a)
    return tuple(out)


def built(ctx: Context) -> set[str]:
    """The large structures `ctx` holds."""
    held = {name for name in LARGE if name in vars(ctx)}
    return held | {"madd"} if ctx._madd else held


class TestRegistry:
    def test_directions_valid_and_unique(self):
        assert len(REGISTRY) > 100
        for mid, method in REGISTRY.items():
            assert method.method_id == mid
            assert method.direction in (DISSIMILARITY, SIMILARITY)

    def test_default_sets_are_registered(self):
        for mid in DEFAULT_TWO_SAMPLE:
            assert mid in REGISTRY
            assert REGISTRY[mid].applicable(2)
        for mid in DEFAULT_FOUR_SAMPLE:
            assert mid in REGISTRY
            assert REGISTRY[mid].applicable(4)

    def test_similarity_direction_members(self):
        for mid in ("fr_5mst", "rosenbaum", "petrie", "ymrzl", "ri_psi2_h1",
                    "mri_psi2_h1"):
            assert REGISTRY[mid].direction == SIMILARITY
        for mid in ("energy", "mmd", "sh_5nn", "kmd_mst", "mmcm", "c2st_knn",
                    "fs_psi2_h1"):
            assert REGISTRY[mid].direction == DISSIMILARITY

    def test_default_methods_by_k(self):
        assert default_methods(2) == DEFAULT_TWO_SAMPLE
        assert default_methods(4) == DEFAULT_FOUR_SAMPLE

    @pytest.mark.parametrize("k", [2, 4])
    def test_reads_are_exact(self, k):
        """Alone on a fresh context, a method builds exactly the large
        structures it declares, and `dist` when one of them is built from
        it."""
        s = ScenarioSpec("normal", "shift", 0.5, 40, 3, "balanced", k=k,
                         grouping="1+1" if k == 2 else "1+1+1+1")
        ms = sample_scenario(s, rng_for(3, 0, 0))
        wrong = []
        for mid, method in REGISTRY.items():
            if not method.applicable(k):
                continue
            ctx = Context(ms, seed=5)
            evaluate(mid, ctx)
            expected = set(method.reads)
            if expected & set(BUILT_FROM_DIST):
                expected.add("dist")
            if built(ctx) != expected:
                wrong.append((mid, sorted(built(ctx)), sorted(expected)))
        assert wrong == []

    def test_release_plan(self):
        plan = dict(zip(DEFAULT_TWO_SAMPLE,
                        release_plan(DEFAULT_TWO_SAMPLE)))
        assert {mid: names for mid, names in plan.items() if names} == {
            "mmcm": ("matching",), "kmd_mst": ("mst_layers",),
            # after the first reader of the Gram matrix, the last
            # structure built from dist
            "mmd": ("dist",), "gpk_zw2": ("gram",),
            "mri_psi2_h1": ("madd",), "c2st_knn": ("neighbour_order",)}
        # dist outlives its direct readers until the matching is built
        assert release_plan(("energy", "rosenbaum", "ds")) == (
            (), ("dist", "matching"), ())
        assert release_plan(("lhz", "engineer")) == ((), ())

    def test_release_then_read_rebuilds_the_same(self):
        ctx = Context(make_ms((12, 13), p=3), seed=4)
        before = {mid: evaluate(mid, ctx).value
                  for mid in ("energy", "fr_1mst", "sh_5nn", "mmd",
                              "fs_psi2_h1", "rosenbaum")}
        dist = ctx.dist
        # the layers grow to the 5-MST without dist
        ctx.release(("dist",))
        five = ctx.graph("5mst")
        assert "dist" not in vars(ctx)
        assert np.array_equal(five, graphs.kmst(dist, 5))
        ctx.release(LARGE)
        assert built(ctx) == set()
        for mid, value in before.items():
            assert evaluate(mid, ctx).value == value, mid
        assert np.array_equal(ctx.dist, dist)
        with pytest.raises(ValueError, match="not a large structure"):
            ctx.release(("gpk",))


class TestEvaluate:
    def test_all_two_sample_defaults_run_clean(self):
        ctx = Context(make_ms((20, 20)), seed=1)
        for mid in DEFAULT_TWO_SAMPLE:
            sv = evaluate(mid, ctx)
            assert sv.ok, (mid, sv.error)

    def test_all_four_sample_defaults_run_clean(self):
        ctx = Context(make_ms((10, 10, 10, 10)), seed=2)
        for mid in DEFAULT_FOUR_SAMPLE:
            sv = evaluate(mid, ctx)
            assert sv.ok, (mid, sv.error)

    @pytest.mark.parametrize("sizes,mids", [
        ((20, 20), DEFAULT_TWO_SAMPLE),
        ((10, 10, 10, 10), DEFAULT_FOUR_SAMPLE)])
    def test_only_context_pools_the_samples(self, monkeypatch, sizes, mids):
        """Every default method reads the pooled rows from the Context:
        evaluating them all builds no DataMatrix."""
        ctx = Context(make_ms(sizes), seed=6)
        built = []
        post_init = DataMatrix.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DataMatrix, "__post_init__", counting)
        for mid in mids:
            assert evaluate(mid, ctx).ok, mid
        assert len(built) == 0

    def test_wasserstein_unbalanced_captured_as_error(self):
        ctx = Context(make_ms((10, 20)), seed=3)
        sv = evaluate("wasserstein", ctx)
        assert not sv.ok
        assert "equal sample sizes" in sv.error

    @pytest.mark.parametrize("mid", sorted(REGISTRY))
    def test_two_sample_only_method_at_k4(self, mid):
        """The registry's k range is the only gate: at k=4 a method whose
        range excludes 4 is not applicable, and no other method says so."""
        sv = evaluate(mid, Context(make_ms((5, 5, 5, 5)), seed=4))
        if REGISTRY[mid].applicable(4):
            assert sv.error != "not applicable for k=4"
        else:
            assert sv.error == "not applicable for k=4"

    def test_stochastic_methods_deterministic_given_seed(self):
        ms = make_ms((15, 15), seed=5)
        a = evaluate("c2st_knn", Context(ms, seed=9)).value
        b = evaluate("c2st_knn", Context(ms, seed=9)).value
        c = evaluate("c2st_knn", Context(ms, seed=10)).value
        assert a == b
        assert isinstance(c, float)

    def test_error_never_raises(self):
        # single-observation samples break several methods; all must be
        # captured as error values
        ctx = Context(make_ms((1, 9)), seed=6)
        for mid in DEFAULT_TWO_SAMPLE:
            sv = evaluate(mid, ctx)
            assert sv.value == sv.value or sv.error  # NaN only with error

    def test_kernel_methods_carry_bandwidth_fallback(self):
        # most pooled distances are zero, so the median bandwidth falls
        # back to 1 and every kernel statistic must say so
        ms = MultiSample((DataMatrix(np.zeros((4, 1))),
                          DataMatrix(np.array([[0.0], [0.0], [1.0], [2.0]]))))
        ctx = Context(ms, seed=1)
        assert ctx.gram.flags == (kernelstats.FALLBACK_BANDWIDTH_FLAG,)
        for mid in ("mmd", "blockmmd", "gpk", "gpk_zd", "gpk_zw1",
                    "gpk_zw2"):
            assert evaluate(mid, ctx).flags == ctx.gram.flags, mid
        assert evaluate("energy", ctx).flags == ()

    def test_context_shares_graphs(self):
        ctx = Context(make_ms((10, 10)), seed=7)
        g1 = ctx.graph("5mst")
        g2 = ctx.graph("5mst")
        assert g1 is g2
        m1, m2 = ctx.pattern_stats("5mst"), ctx.pattern_stats("5mst")
        assert m1 is m2
        assert ctx.pattern_stats("matching") is ctx.pattern_stats("matching")

    def test_pattern_stats_equal_direct_builds(self):
        ctx = Context(make_ms((6, 7, 5, 8)), seed=7)
        for spec, edges in (("5mst", ctx.graph("5mst")),
                            ("heuristic_nn", ctx.graph("3nn")),
                            ("matching", ctx.matching.pairs)):
            counts, mean, cov = ctx.pattern_stats(spec)
            assert np.array_equal(counts, permnull.pattern_counts_from_edges(
                edges, ctx.labels, 4))
            ref_mean, ref_cov = permnull.moments_from_edges(
                edges, 26, (6, 7, 5, 8))
            assert np.array_equal(mean, ref_mean)
            assert np.array_equal(cov, ref_cov)

    def test_pair_madd_equals_direct_build(self):
        ctx = Context(make_ms((6, 7, 5), p=3), seed=7)
        cfg = clusterstats.MaddConfig("psi2", "h1")
        rows = (ctx.labels == 1) | (ctx.labels == 3)
        rho = ctx.madd(cfg, (1, 3))
        assert rho is ctx.madd(cfg, (1, 3))
        assert rho is not ctx.madd(cfg)
        assert rho.shape == (11, 11)
        assert rho.tobytes() == clusterstats.madd(
            ctx.pooled.values[rows], cfg).tobytes()

    def test_knn_graphs_equal_direct_builds(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(13, 2)), rng.normal(size=(17, 2))
        b[:4] = a[:4]  # tied and zero distances
        ctx = Context(MultiSample((DataMatrix(a), DataMatrix(b))), seed=3)
        d = ctx.dist.copy()
        np.fill_diagonal(d, np.inf)
        reference = np.argsort(d, axis=1, kind="stable")[:, :-1]
        assert ctx.neighbour_order.dtype == np.int32
        assert np.array_equal(ctx.neighbour_order, reference)
        for spec, k in (("1nn", 1), ("5nn", 5), ("heuristic_nn", 3),
                        ("29nn", 29), ("99nn", 29)):
            g = ctx.graph(spec)
            ref = graphs.knn_from_table(graphs.knn_graph(ctx.dist, k), k)
            assert g.shape == (30 * k, 2)
            assert np.array_equal(g[:, 0], np.repeat(np.arange(30), k))
            assert g.dtype == ref.dtype == np.int64
            assert np.array_equal(g, ref)
            assert np.array_equal(g[:, 1].reshape(30, k),
                                  reference[:, :k])

    def test_shared_structures_built_once(self, monkeypatch):
        calls = count_builds(monkeypatch)
        ctx = Context(make_ms((25, 25)), seed=8)
        for mid in DEFAULT_TWO_SAMPLE:
            assert evaluate(mid, ctx).ok, mid
        assert sorted((cfg.psi, cfg.h)
                      for _, cfg in calls["dsbench.clusterstats.madd"]) == [
            ("psi2", "h1"), ("psi3", "h1")]
        # disco_f_0.5 and disco_b_0.5 read one decomposition
        assert [a for _, _, a in calls["dsbench.interpoint.disco"]] == [0.5]
        assert len(calls["dsbench.kernelstats.moments_from_weights"]) == 1
        # one pattern summary per edge set: 1-MST, 5-MST and the matching
        edge_sets = [len(edges) for edges, _ in
                     calls["dsbench.graphstats.null_moments"]]
        assert edge_sets == [49, 5 * 49, 25]
        assert len(calls["dsbench.graphstats.moments_from_edges"]) == 3
        assert calls["dsbench.permnull.moments_from_edges"] == []
        assert len(calls["dsbench.methods.pattern_counts_from_edges"]) == 3
        assert sorted(k for _, k in calls["dsbench.methods.kmst"]) == [1, 5]
        # both k-MST builds share one ranking of the edges
        assert len(calls["dsbench.graphs.edge_order"]) == 1
        # one full neighbour ordering serves sh_1nn, sh_5nn,
        # kmd_heuristic_nn (0.1 N = 5 neighbours) and bqs
        assert [k for _, k in calls["dsbench.methods.knn_graph"]] == [49]
        assert calls["dsbench.graphstats.knn_graph"] == []
        for name in ("methods._distance_matrix", "methods.MstLayers",
                     "methods.min_weight_matching", "kernelstats.gram"):
            assert len(calls[f"dsbench.{name}"]) == 1, name

    @pytest.mark.parametrize("k, methods_", [
        (2, DEFAULT_TWO_SAMPLE), (4, DEFAULT_FOUR_SAMPLE)],
        ids=["two_sample", "four_sample"])
    def test_release_path_rebuilds_nothing(self, monkeypatch, k, methods_):
        """`run_scenario` releases each large structure after its last
        reader; every build still happens once per repetition, on the same
        inputs as on a context that keeps everything."""
        s = ScenarioSpec("normal", "shift", 0.5, 40, 3, "balanced", k=k,
                         grouping="1+1" if k == 2 else "1+1+1+1")
        calls = count_builds(monkeypatch)
        plain = {key: [] for key in calls}
        for rep in range(2):
            ms = sample_scenario(s, rng_for(7, 0, rep))
            ctx = Context(ms, seed=harness._context_seed(7, 0, rep))
            for mid in methods_:
                assert evaluate(mid, ctx).ok, mid
            for key, args in calls.items():
                plain[key] += [describe(a) for a in args]
                args.clear()
        harness.run_scenario(s, methods_, 2, 7)
        released = {key: [describe(a) for a in args]
                    for key, args in calls.items()}
        assert released == plain
        assert len(plain["dsbench.methods._distance_matrix"]) == 2

    def test_kmst_resumes_from_first_layer(self, monkeypatch):
        layers = []
        grow = graphs.MstLayers.grow

        def counting(self, k):
            before = len(self.trees)
            grow(self, k)
            layers.append(len(self.trees) - before)
        monkeypatch.setattr(graphs.MstLayers, "grow", counting)
        ctx = Context(make_ms((30, 30)), seed=1)
        one = ctx.graph("1mst")
        five = ctx.graph("5mst")
        assert layers == [1, 4]
        fresh = graphs.kmst(ctx.dist, 5)
        assert np.array_equal(five, fresh)
        assert np.array_equal(one, graphs.kmst(ctx.dist, 1))

    def test_kmst_ranks_the_edges(self, monkeypatch):
        # the ranking runs inside the first kmst call, so a trace of
        # methods.kmst charges it to the k-MST, not to the first method
        ranked, inside = [], []
        kmst, edge_order = methods.kmst, graphs.edge_order

        def traced_kmst(*args, **kwargs):
            inside.append(True)
            try:
                return kmst(*args, **kwargs)
            finally:
                inside.pop()

        def counted(dist):
            ranked.append(bool(inside))
            return edge_order(dist)
        monkeypatch.setattr(methods, "kmst", traced_kmst)
        monkeypatch.setattr(graphs, "edge_order", counted)
        ctx = Context(make_ms((15, 15)), seed=1)
        assert ctx.mst_layers.trees == []
        assert ranked == []
        ctx.graph("1mst")
        ctx.graph("5mst")
        assert ranked == [True]

    def test_four_sample_madds_built_once(self, monkeypatch):
        builds = []
        original = clusterstats.madd

        def wrapped(values, cfg):
            builds.append((cfg.psi, cfg.h, len(values),
                           hash(values.tobytes())))
            return original(values, cfg)
        monkeypatch.setattr(clusterstats, "madd", wrapped)
        ctx = Context(make_ms((10, 10, 10, 10), p=3), seed=2)
        for mid in DEFAULT_FOUR_SAMPLE:
            assert evaluate(mid, ctx).ok, mid
        # (psi2, h1), (psi3, h1) and (psi3, h2) on the pooled rows, and
        # (psi2, h1) on each of the 6 sample pairs, shared by afs and ari
        assert len(builds) == len(set(builds)) == 9
        assert sorted(rows for _, _, rows, _ in builds) == (
            [20] * 6 + [40] * 3)
