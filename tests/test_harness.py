import hashlib
import itertools
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from dsbench.core import DISSIMILARITY, SIMILARITY
from dsbench.datagen import ScenarioSpec
from dsbench.harness import (BenchRow, MissingNullError, acceptable, bench,
                             choice_tree, greedy_cover, mean_diff_to_ideal,
                             pesr, pesr_table, run_scenario, scale_bench)
from dsbench.methods import (DEFAULT_FOUR_SAMPLE, DEFAULT_TWO_SAMPLE,
                             REGISTRY)


def spec(**kw):
    base = dict(dgp="normal", deviation="null", magnitude=0.0, n_total=20,
                p=2, balance="balanced")
    base.update(kw)
    return ScenarioSpec(**base)


class TestMonteCarloErrorBudget:
    def test_worst_case_proportion_se_at_500_reps(self):
        assert abs(np.sqrt(0.25 / 500) - 0.0224) < 5e-4

    def test_null_rate_se_at_500_reps(self):
        assert abs(np.sqrt(0.05 * 0.95 / 500) - 0.01) < 3e-4


class TestPesr:
    def test_null_vs_null_near_alpha(self):
        rng = np.random.default_rng(0)
        vals = [pesr(rng.normal(size=500), rng.normal(size=500),
                     DISSIMILARITY) for _ in range(20)]
        assert 0.02 < np.mean(vals) < 0.08

    def test_all_alt_beyond_threshold(self):
        null = np.linspace(0, 1, 500)
        alt = np.full(500, 5.0)
        assert pesr(null, alt, DISSIMILARITY) == 1.0

    def test_similarity_uses_low_tail(self):
        null = np.linspace(0, 1, 500)
        assert pesr(null, np.full(500, -1.0), SIMILARITY) == 1.0
        assert pesr(null, np.full(500, 2.0), SIMILARITY) == 0.0

    def test_missing_rule_alt(self):
        null = np.linspace(0, 1, 500)
        alt = np.full(500, 5.0)
        alt[:101] = np.nan
        assert pesr(null, alt, DISSIMILARITY) is None
        alt[:100] = 5.0  # exactly 100 invalid is still allowed
        alt[100] = np.nan
        assert pesr(null, alt, DISSIMILARITY) is not None

    def test_missing_rule_null(self):
        null = np.linspace(0, 1, 500)
        null[:150] = np.nan
        assert pesr(null, np.full(500, 5.0), DISSIMILARITY) is None

    def test_ties_not_extreme(self):
        null = np.full(500, 3.0)
        alt = np.full(500, 3.0)
        assert pesr(null, alt, DISSIMILARITY) == 0.0
        assert pesr(null, alt, SIMILARITY) == 0.0


def pesr_matrix(values_by_magnitude):
    """values_by_magnitude: {magnitude: {method: pesr or None}}, the same
    methods at every magnitude.  Returns (specs, (A, M) table, methods)."""
    methods = list(next(iter(values_by_magnitude.values())))
    specs = [spec(deviation="shift", magnitude=mag)
             for mag in values_by_magnitude]
    table = np.array([[np.nan if by_method[m] is None else by_method[m]
                       for m in methods]
                      for by_method in values_by_magnitude.values()])
    return specs, table, methods


class TestMeanDiff:
    def test_worked_example(self):
        specs, table, methods = pesr_matrix({0.5: {"m1": 0.9, "m2": 0.7},
                                             1.0: {"m1": 0.8, "m2": 0.9}})
        groups, diffs = mean_diff_to_ideal(specs, table)
        assert diffs.shape == (len(groups), 2) == (1, 2)
        by_method = dict(zip(methods, diffs[0]))
        assert abs(by_method["m1"] - 0.05) < 1e-12
        assert abs(by_method["m2"] - 0.10) < 1e-12

    def test_single_method_diff_zero(self):
        specs, table, _ = pesr_matrix({0.5: {"m1": 0.4}, 1.0: {"m1": 0.9}})
        _, diffs = mean_diff_to_ideal(specs, table)
        assert (diffs == 0.0).all()

    def test_missing_cell_penalized(self):
        by_mag = {m: {"m1": 0.5, "m2": 0.5} for m in
                  (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)}
        by_mag[0.1] = {"m1": 0.5, "m2": None}
        specs, table, methods = pesr_matrix(by_mag)
        _, diffs = mean_diff_to_ideal(specs, table)
        by_method = dict(zip(methods, diffs[0]))
        assert abs(by_method["m2"] - 1.0 / 6.0) < 1e-12
        assert by_method["m1"] == 0.0

    def test_groups_sorted_and_scenario_without_value_penalized(self):
        specs = [spec(deviation="shift", magnitude=0.5, p=10),
                 spec(deviation="shift", magnitude=0.5),
                 spec(deviation="shift", magnitude=1.0)]
        table = np.array([[np.nan, np.nan], [0.2, 0.6], [0.8, 0.4]])
        groups, diffs = mean_diff_to_ideal(specs, table)
        assert groups == sorted(groups) and [g[3] for g in groups] == [2, 10]
        assert np.allclose(diffs, [[0.2, 0.2], [1.0, 1.0]], atol=1e-12)


class TestAcceptable:
    def test_cutoff_example(self):
        cov = acceptable(np.array([[0.02, 0.12, 0.13]]))
        assert cov[0, 0] and cov[0, 1]
        assert not cov[0, 2]

    def test_unique_best_with_gap(self):
        cov = acceptable(np.array([[0.0, 0.5]]))
        assert cov[0, 0] and not cov[0, 1]

    def test_tied_best_both_acceptable(self):
        cov = acceptable(np.array([[0.3, 0.3]]))
        assert cov[0, 0] and cov[0, 1]


class TestGreedyCover:
    def test_worked_example(self):
        sets = {"a": {1, 2, 3}, "b": {3, 4}, "c": {4}}
        cover = np.array([[g in covered for covered in sets.values()]
                          for g in (1, 2, 3, 4)])
        order = greedy_cover(cover, list(sets))
        assert [m for m, _, _ in order] == ["a", "b"]
        assert order[-1][2] == 1.0

    def test_tie_broken_by_mean_diff(self):
        cover = np.array([[True, False], [False, True]])  # x: 1, y: 2
        order = greedy_cover(cover, ["x", "y"],
                             tie_break=np.array([0.9, 0.1]))
        assert order[0][0] == "y"

    def test_cumulative_nondecreasing(self):
        rng = np.random.default_rng(1)
        cover = rng.random((30, 8)) < 0.3
        order = greedy_cover(cover, [f"m{m}" for m in range(8)])
        fracs = [c for _, _, c in order]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))

    def test_approximation_guarantee_small(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cover = rng.random((20, 6)) < 0.25
            order = greedy_cover(cover, [f"m{m}" for m in range(6)])
            for t in (1, 2, 3):
                greedy_cov = order[t - 1][2] if len(order) >= t else \
                    (order[-1][2] if order else 0.0)
                best = 0
                for combo in itertools.combinations(range(6), t):
                    got = int(cover[:, combo].any(axis=1).sum())
                    best = max(best, got)
                assert greedy_cov >= (1 - 1 / np.e) * best / 20 - 1e-12


class TestPipelineInvariants:
    def test_ideal_dominates_and_one_method_acceptable(self):
        rng = np.random.default_rng(7)
        by_mag = {m: {f"m{j}": float(rng.random()) for j in range(5)}
                  for m in (0.1, 0.5, 1.0)}
        specs, table, _ = pesr_matrix(by_mag)
        _, diffs = mean_diff_to_ideal(specs, table)
        assert (diffs.min(axis=1) >= 0.0).all()
        cov = acceptable(diffs)
        assert cov.any(axis=1).all()

    def test_greedy_reaches_one_when_union_covers(self):
        rng = np.random.default_rng(8)
        cover = rng.random((25, 6)) < 0.4
        cover[~cover.any(axis=1), 0] = True  # patch union coverage
        order = greedy_cover(cover, [f"m{m}" for m in range(6)])
        assert order[-1][2] == 1.0


class TestChoiceTree:
    def _cover(self, best_by_cell):
        groups, cover = [], []
        for (n, p, bal), best in best_by_cell.items():
            for dev in ("shift", "scale"):
                groups.append(("normal", dev, n, p, bal, "1+1", 2))
                cover.append([m == best for m in ("m1", "m2")])
        return groups, np.array(cover), ["m1", "m2"]

    def test_single_method_single_leaf(self):
        tree = choice_tree(*self._cover({(50, 2, "balanced"): "m1",
                                         (100, 2, "balanced"): "m1"}))
        assert tree["method"] == "m1"
        assert 0.0 <= tree["coverage"] <= 1.0

    def test_split_on_p_when_best_flips(self):
        tree = choice_tree(*self._cover({(100, 2, "balanced"): "m1",
                                         (100, 50, "balanced"): "m2"}))
        assert tree["feature"] == "p"
        leaves = {tree["left"]["method"], tree["right"]["method"]}
        assert leaves == {"m1", "m2"}

    def test_leaf_coverages_in_unit_interval(self):
        rng = np.random.default_rng(3)
        cells = {(n, p, bal): rng.choice(["m1", "m2"])
                 for n in (50, 100) for p in (2, 10)
                 for bal in ("balanced", "unbalanced")}
        tree = choice_tree(*self._cover(cells))

        def walk(node):
            if "method" in node:
                assert 0.0 <= node["coverage"] <= 1.0
                return
            walk(node["left"])
            walk(node["right"])

        walk(tree)


class TestRunScenario:
    def test_values_shape_and_determinism(self):
        s = spec(n_total=30)
        r1 = run_scenario(s, ("energy", "mmd"), 8, 99, scenario_index=3)
        r2 = run_scenario(s, ("energy", "mmd"), 8, 99, scenario_index=3)
        assert r1.values.shape == (8, 2)
        assert (r1.values == r2.values).all()

    def test_parallel_matches_serial(self):
        """A scenario run in a forked pool worker, as `simulate --jobs N`
        runs it, equals the same call in process."""
        s = spec(n_total=30)
        r1 = run_scenario(s, ("energy", "sh_1nn"), 8, 5, scenario_index=1)
        with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
            r2 = pool.submit(run_scenario, s, ("energy", "sh_1nn"), 8, 5,
                             scenario_index=1).result()
        assert (r1.values == r2.values).all()
        assert r1.errors == r2.errors

    def test_failing_method_isolated(self):
        s = spec(n_total=30, balance="unbalanced")  # 6 / 24 split
        r = run_scenario(s, ("wasserstein", "energy"), 5, 1)
        assert all(err[0] for err in r.errors)          # wasserstein fails
        assert np.isfinite(r.values[:, 1]).all()        # energy unaffected

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            run_scenario(spec(), ("no_such_method",), 2, 0)


class TestPinnedAtPaperScale:
    """sha256 of `values.tobytes()` plus `repr(errors)` of one repetition,
    seed 1, of the largest two-sample and four-sample cells of the design.

    The N=20 goldens never reach the paths that run only at scale: the
    `_BALL_BLOCK` row blocks, the matching's start from the optimal
    assignment with hundreds of vertices, MADD at N=1000.  A change that moves a digest must say
    why; a numpy or scipy upgrade re-pins them on its own."""

    @pytest.mark.parametrize("cell, methods, digest", [
        (dict(n_total=1000, p=50), DEFAULT_TWO_SAMPLE,
         "73467c6b04a3364e4512b509fab387f4859da43da6b85d5a16ad8159c238975e"),
        (dict(n_total=400, p=50, k=4, grouping="1+1+1+1"),
         DEFAULT_FOUR_SAMPLE,
         "4475ddfc2a0b3af2a33eb6674de378b287fc2bca8213bfd99e5482c9b75edb11"),
    ], ids=["two_n1000_p50", "four_n400_p50"])
    def test_values_and_errors(self, cell, methods, digest):
        r = run_scenario(spec(deviation="shift", magnitude=0.5, **cell),
                         methods, 1, 1)
        payload = r.values.tobytes() + repr(r.errors).encode()
        assert hashlib.sha256(payload).hexdigest() == digest

    @pytest.mark.parametrize("cell, digest", [
        (dict(n_total=40, p=3),
         "611b78cb10771fe40271e1ee8f9737087f544ecc3c4e8ec2f0c9cba6c3c4e38b"),
        (dict(n_total=50, p=2, balance="unbalanced"),
         "08a503a7a57cb6384748018b3e0792f51633254d78190ee82c70b9b68b7af245"),
        (dict(n_total=100, p=3, k=4, grouping="1+1+1+1"),
         "2efb07d781383a181a65dddf1b25c4fd81ef3c43583db4c0ce8625d4e086acc0"),
        (dict(n_total=100, p=2, k=4, grouping="3+1", balance="unbalanced"),
         "7445521bb67c4175fd42fe08958d7bdee40c3910d4491c6e6c458e47eb62eb2d"),
    ], ids=["two_n40_p3", "two_n50_p2_unbalanced", "four_n100_p3",
            "four_n100_p2_31_unbalanced"])
    def test_every_registered_method(self, cell, digest):
        """Every method registered for the cell's k, 3 repetitions, seed 2:
        the defaults above leave most graph variants (the K-NN edge-count
        tests, kmd_1nn, sc_1mst_*) unpinned."""
        s = spec(deviation="shift", magnitude=0.5, **cell)
        methods = tuple(m for m in REGISTRY if REGISTRY[m].applicable(s.k))
        r = run_scenario(s, methods, 3, 2, scenario_index=0)
        payload = r.values.tobytes() + repr(r.errors).encode()
        assert hashlib.sha256(payload).hexdigest() == digest


class TestPesrTable:
    def test_requires_matching_null(self):
        s = spec(deviation="shift", magnitude=1.0)
        res = run_scenario(s, ("energy",), 5, 2)
        with pytest.raises(MissingNullError):
            pesr_table(("energy",), [res])

    def test_rows_equal_per_call_pesr(self):
        methods = ("energy", "engineer", "fr_1mst", "wasserstein")
        results = [
            run_scenario(spec(), methods, 12, 5, scenario_index=0),
            run_scenario(spec(deviation="shift", magnitude=0.5), methods,
                         12, 5, scenario_index=1),
            run_scenario(spec(deviation="shift", magnitude=1.5), methods,
                         12, 5, scenario_index=2),
            run_scenario(spec(balance="unbalanced"), methods, 12, 5,
                         scenario_index=3),
            run_scenario(spec(deviation="shift", magnitude=1.0,
                              balance="unbalanced"), methods, 12, 5,
                         scenario_index=4)]
        null_of = {r.spec.balance: r for r in results
                   if r.spec.deviation == "null"}
        specs, table = pesr_table(methods, results)
        assert table.shape == (3, len(methods))
        assert np.isnan(table).any()  # wasserstein
        alts = [r for r in results if r.spec.deviation != "null"]
        for (a, res), m in itertools.product(enumerate(alts),
                                             range(len(methods))):
            assert specs[a] == res.spec
            null = null_of[res.spec.balance]
            value = None if np.isnan(table[a, m]) else table[a, m]
            assert value == pesr(null.values[:, m], res.values[:, m],
                                 REGISTRY[methods[m]].direction)

    def test_missing_null_raised_after_the_input_is_exhausted(self):
        """The error names the alternative once both results are drawn,
        also when its own null comes second: a null serves only the
        alternatives after it."""
        for null in (spec(n_total=24), spec()):
            drawn = []

            def results():
                for s in (spec(deviation="shift", magnitude=1.0), null):
                    drawn.append(s)
                    yield run_scenario(s, ("energy",), 5, 2)

            with pytest.raises(MissingNullError, match="m1-N20"):
                pesr_table(("energy",), results())
            assert len(drawn) == 2

    def test_streamed_results_freed_one_at_a_time(self):
        """Given the nulls first, each alternative's result is freed before
        the next one is drawn, and the table is the one of the list."""
        methods = ("energy", "engineer", "wasserstein")
        magnitudes = (0.5, 1.0, 1.5, 2.0)
        refs = []

        def results(track):
            yield run_scenario(spec(), methods, 12, 4, scenario_index=0)
            for i, m in enumerate(magnitudes, 1):
                assert all(ref() is None for ref in refs)
                res = run_scenario(spec(deviation="shift", magnitude=m),
                                   methods, 12, 4, scenario_index=i)
                if track:
                    refs.append(weakref.ref(res))
                yield res
                del res

        specs, table = pesr_table(methods, results(track=True))
        assert len(refs) == len(magnitudes)
        list_specs, list_table = pesr_table(methods,
                                            list(results(track=False)))
        assert specs == list_specs
        assert table.tobytes() == list_table.tobytes()

    def test_null_and_alt_produce_rows(self):
        null = run_scenario(spec(), ("energy",), 30, 3, scenario_index=0)
        alt = run_scenario(spec(deviation="shift", magnitude=2.0),
                           ("energy",), 30, 3, scenario_index=1)
        specs, table = pesr_table(("energy",), [null, alt])
        assert len(specs) == 1 and table.shape == (1, 1)
        assert not np.isnan(table[0, 0]) and table[0, 0] > 0.5


class TestBench:
    def test_contract_and_scaling(self):
        rows = bench(("engineer", "energy"), [(30, 2)], master_seed=0,
                     min_reps=10, min_total=0.05)
        assert all(r.runs >= 10 for r in rows)
        by_method = {r.method: r for r in rows}
        assert set(by_method) == {"energy", "engineer"}
        scaled, summary = scale_bench(rows)
        values = sorted(scaled.values())
        assert values[0] == 0.0 and values[-1] == 1.0
        assert set(summary) == {"energy", "engineer"}

    def test_single_method_scales_to_zero(self):
        rows = bench(("engineer",), [(20, 2)], master_seed=0, min_reps=3,
                     min_total=0.0)
        scaled, summary = scale_bench(rows)
        assert set(scaled.values()) == {0.0}
        assert summary["engineer"] == 0.0

    def test_untimed_rows_left_out_of_scaling(self):
        rows = [BenchRow("a", 10, 2, 3, 1.0, 3.0),
                BenchRow("b", 10, 2, 3, 3.0, 9.0),
                BenchRow("c", 10, 2, 0, float("nan"), 0.0),
                BenchRow("a", 20, 2, 0, float("nan"), 0.0),
                BenchRow("b", 20, 2, 3, 2.0, 6.0),
                BenchRow("c", 20, 2, 3, 4.0, 12.0)]
        scaled, summary = scale_bench(rows)
        assert scaled[("a", 10, 2)] == 0.0 and scaled[("b", 10, 2)] == 1.0
        assert scaled[("b", 20, 2)] == 0.0 and scaled[("c", 20, 2)] == 1.0
        assert np.isnan(scaled[("c", 10, 2)])
        assert np.isnan(scaled[("a", 20, 2)])
        assert summary == {"a": 0.0, "b": 0.5, "c": 1.0}
        _, summary = scale_bench([BenchRow("a", 10, 2, 0, float("nan"), 0.0)])
        assert np.isnan(summary["a"])

    def test_min_total_enforced(self):
        rows = bench(("engineer",), [(20, 2)], master_seed=0, min_reps=3,
                     min_total=0.2)
        row = rows[0]
        assert row.runs * row.median_seconds >= 0.05  # comfortably beyond 3
