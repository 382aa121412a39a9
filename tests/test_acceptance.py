"""Acceptance criteria, one test per criterion, each printing a PASS line.

The heavy simulation fixtures are session-scoped and shared between
criteria; everything is seeded, so reruns are deterministic.
"""

import itertools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from dsbench.cli import main as cli_main
from dsbench.core import DataMatrix, MultiSample, distance_matrix, pool
from dsbench.datagen import (GRIDS, ScenarioSpec, scale_factor,
                             shift_offset)
from dsbench.graphs import (assignment, knn_from_table, knn_graph,
                            min_weight_matching)
from dsbench.graphstats import (kmd_statistic, mmcm_statistic,
                                rosenbaum_statistic, sh_statistic)
from dsbench.harness import bench, greedy_cover, pesr, run_scenario, scale_bench
from dsbench.interpoint import disco, wasserstein1
from dsbench.kernelstats import gpk_components, gpk_statistic, gram
from dsbench.methods import DEFAULT_TWO_SAMPLE, REGISTRY
from dsbench.permnull import (moments_from_edges, moments_from_weights,
                              pattern_counts_from_edges, pattern_sums)

SEED = 20240809
JOBS = 2


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def null_spec(n_total, p=2):
    return ScenarioSpec("normal", "null", 0.0, n_total, p, "balanced")


@pytest.fixture(scope="session")
def pool_map():
    """The ordered `map` of one fork pool of JOBS workers, which runs one
    scenario per task as `simulate --jobs JOBS` does."""
    with ProcessPoolExecutor(JOBS, mp_context=get_context("fork")) as pool:
        yield pool.map


@pytest.fixture(scope="session")
def null_runs_n100(pool_map):
    """Two independent 500-rep null runs of every registered two-sample
    method at N=100, p=2, balanced."""
    t0 = time.perf_counter()
    run1, run2 = pool_map(run_scenario, [null_spec(100)] * 2,
                          itertools.repeat(DEFAULT_TWO_SAMPLE),
                          itertools.repeat(500), itertools.repeat(SEED),
                          [0, 1])
    elapsed = time.perf_counter() - t0
    return run1, run2, elapsed


@pytest.fixture(scope="session")
def shift_scale_runs_n200(pool_map):
    """Null plus shift and scale alternatives at N=200, p=2 for the
    power-surrogate criteria."""
    methods = ("energy", "bf_fraca", "disco_b_0.5", "mmd", "sh_5nn", "ball")
    jobs = {"null": (null_spec(200), 10)}  # key -> (spec, scenario index)
    for i, delta in enumerate(GRIDS["full"]["shift"]):
        spec = ScenarioSpec("normal", "shift", delta, 200, 2, "balanced")
        jobs[("shift", delta)] = (spec, 11 + i)
    for i, s in enumerate((1 / 3, 3.0)):
        spec = ScenarioSpec("normal", "scale", s, 200, 2, "balanced")
        jobs[("scale", s)] = (spec, 20 + i)
    specs, indices = zip(*jobs.values())
    runs = dict(zip(jobs, pool_map(run_scenario, specs,
                                   itertools.repeat(methods),
                                   itertools.repeat(500),
                                   itertools.repeat(SEED), indices)))
    return methods, runs


def test_criterion_1_null_calibration(null_runs_n100):
    run1, run2, elapsed = null_runs_n100
    failures = []
    for m, mid in enumerate(DEFAULT_TWO_SAMPLE):
        value = pesr(run1.values[:, m], run2.values[:, m],
                     REGISTRY[mid].direction)
        if value is None or not 0.02 <= value <= 0.08:
            failures.append((mid, value))
    ok = not failures and elapsed < 600
    report("1 null-calibration", ok,
           f"({len(DEFAULT_TWO_SAMPLE)} methods, {elapsed:.0f}s)"
           + (f" out-of-range: {failures}" if failures else ""))


def test_criterion_2_monotone_power(shift_scale_runs_n200):
    methods, runs = shift_scale_runs_n200
    null = runs["null"]
    problems = []
    for mid in ("energy", "bf_fraca", "disco_b_0.5", "mmd", "sh_5nn"):
        m = methods.index(mid)
        curve = []
        for delta in GRIDS["full"]["shift"]:
            alt = runs[("shift", delta)]
            curve.append(pesr(null.values[:, m], alt.values[:, m],
                              REGISTRY[mid].direction))
        if any(v is None for v in curve):
            problems.append((mid, "missing", curve))
            continue
        if any(b < a - 0.05 for a, b in zip(curve, curve[1:])):
            problems.append((mid, "not monotone", curve))
        if curve[-1] < 0.9:
            problems.append((mid, "weak at 1.5", curve[-1]))
    report("2 monotone-power-surrogate", not problems, str(problems))


def test_criterion_3_scale_ordering(shift_scale_runs_n200):
    methods, runs = shift_scale_runs_n200
    null = runs["null"]
    gaps = []
    for s in (1 / 3, 3.0):
        alt = runs[("scale", s)]
        values = {}
        for mid in ("ball", "energy"):
            m = methods.index(mid)
            values[mid] = pesr(null.values[:, m], alt.values[:, m],
                               REGISTRY[mid].direction)
        gaps.append((s, values["ball"], values["energy"]))
    ok = all(ball >= energy - 0.05 for _, ball, energy in gaps)
    report("3 scale-detector-ordering", ok, str(gaps))


def test_criterion_4_exact_oracles():
    rng = np.random.default_rng(SEED)
    worst_moment = 0.0
    # permutation-null moments vs exhaustive enumeration (counts + kernels)
    for _ in range(6):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        sizes = tuple((rng.multinomial(n - k, np.ones(k) / k) + 1).tolist())
        base = np.concatenate([np.full(c, i + 1) for i, c in enumerate(sizes)])
        perms = {p for p in itertools.permutations(base.tolist())}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        sel = rng.choice(len(pairs), size=int(rng.integers(2, len(pairs) + 1)),
                         replace=False)
        edges = np.array([pairs[i] for i in sel])
        counts = np.array([pattern_counts_from_edges(edges, np.array(lab), k)
                           for lab in perms])
        mean_a, cov_a = moments_from_edges(edges, n, sizes)
        worst_moment = max(worst_moment,
                           np.abs(counts.mean(0) - mean_a).max(),
                           np.abs(np.cov(counts.T, bias=True) - cov_a).max())
        w = rng.random((n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        sums = np.array([pattern_sums(w, np.array(lab), k) for lab in perms])
        mean_w, cov_w = moments_from_weights(w, sizes)
        worst_moment = max(worst_moment,
                           np.abs(sums.mean(0) - mean_w).max(),
                           np.abs(np.cov(sums.T, bias=True) - cov_w).max())
    ok_moments = worst_moment < 1e-12

    # matching vs brute force, n <= 10
    def brute_matching(dist):
        idx = tuple(range(dist.shape[0]))

        def rec(rem):
            if not rem:
                return 0.0
            a = rem[0]
            return min(dist[a, b] + rec(tuple(x for x in rem
                                              if x not in (a, b)))
                       for b in rem[1:])

        return rec(idx)

    worst_match = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6)) * 2
        d = distance_matrix(rng.normal(size=(n, 2)))
        m = min_weight_matching(d)
        worst_match = max(worst_match, abs(m.weight - brute_matching(d)))
    ok_matching = worst_match < 1e-9

    # assignment vs brute force, n <= 7
    worst_assign = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        cost = rng.random((n, n))
        sigma = assignment(cost)
        ours = cost[np.arange(n), sigma].sum()
        best = min(cost[np.arange(n), perm].sum()
                   for perm in itertools.permutations(range(n)))
        worst_assign = max(worst_assign, abs(ours - best))
    ok_assign = worst_assign < 1e-12

    # one-dimensional wasserstein vs sorted coupling
    worst_w1 = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 10))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        ms = MultiSample((DataMatrix(x[:, None]), DataMatrix(y[:, None])))
        z, _ = pool(ms)
        w1 = wasserstein1(ms, distance_matrix(z))
        worst_w1 = max(worst_w1,
                       abs(w1 - np.abs(np.sort(x) - np.sort(y)).mean()))
    ok_w1 = worst_w1 < 1e-12

    report("4 exact-oracle-suites",
           ok_moments and ok_matching and ok_assign and ok_w1,
           f"(moments {worst_moment:.1e}, matching {worst_match:.1e}, "
           f"assignment {worst_assign:.1e}, wasserstein {worst_w1:.1e})")


def test_criterion_5_identity_suites():
    rng = np.random.default_rng(SEED + 1)
    # DISCO decomposition
    worst_disco = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        ms = MultiSample(tuple(
            DataMatrix(rng.normal(size=(int(rng.integers(2, 7)), 2)))
            for _ in range(k)))
        z, _ = pool(ms)
        r = disco(ms, distance_matrix(z), float(rng.uniform(0.2, 1.9)))
        worst_disco = max(worst_disco, abs(r.total - r.between - r.within))
    ok_disco = worst_disco < 1e-10

    # GPK decomposition
    worst_gpk = 0.0
    for _ in range(50):
        n1, n2 = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        ms = MultiSample((DataMatrix(rng.normal(size=(n1, 2))),
                          DataMatrix(rng.normal(size=(n2, 2)))))
        z, _ = pool(ms)
        g = gram(distance_matrix(z))
        comp = gpk_components(g, (n1, n2))
        total = gpk_statistic(comp, "gpk")
        worst_gpk = max(worst_gpk,
                        abs(total - (comp.z_w[1.0] ** 2 + comp.z_d ** 2)))
    ok_gpk = worst_gpk < 1e-8

    # MMCM <-> Rosenbaum monotone equivalence at k=2
    from scipy.stats import spearmanr
    ros, mmcm = [], []
    for _ in range(100):
        x = np.concatenate([rng.normal(size=(6, 2)),
                            rng.normal(size=(6, 2)) + rng.uniform(0, 2)])
        d = distance_matrix(x)
        m = min_weight_matching(d)
        labels = np.array([1] * 6 + [2] * 6)
        stats = (pattern_counts_from_edges(m.pairs, labels, 2),
                 *moments_from_edges(m.pairs, 12, (6, 6)))
        ros.append(rosenbaum_statistic(stats))
        v, _ = mmcm_statistic(stats, (6, 6))
        mmcm.append(v)
    rho = spearmanr(ros, mmcm).statistic
    ok_mmcm = abs(abs(rho) - 1.0) < 1e-12

    # KMD affine in the within-edge proportion at fixed (n1, n2, K)
    n1, n2, k_nn = 8, 12, 4
    ells, etas = [], []
    for _ in range(30):
        x = np.concatenate([rng.normal(size=(n1, 2)),
                            rng.normal(size=(n2, 2)) + rng.uniform(0, 3)])
        d = distance_matrix(x)
        g = knn_from_table(knn_graph(d, k_nn), k_nn)
        labels = np.array([1] * n1 + [2] * n2)
        etas.append(kmd_statistic(g, labels, (n1, n2)))
        ells.append(sh_statistic(g, labels))
    design = np.column_stack([np.ones(len(ells)), ells])
    coef, *_ = np.linalg.lstsq(design, np.array(etas), rcond=None)
    residual = float(np.abs(design @ coef - etas).max())
    ok_kmd = residual < 1e-10

    report("5 identity-suites", ok_disco and ok_gpk and ok_mmcm and ok_kmd,
           f"(disco {worst_disco:.1e}, gpk {worst_gpk:.1e}, "
           f"spearman {rho:+.3f}, kmd residual {residual:.1e})")


def test_criterion_6_construction_identities():
    worst_shift = 0.0
    worst_scale = 0.0
    for p in (2, 10, 50):
        for delta in GRIDS["full"]["shift"]:
            mu = np.full(p, shift_offset(p, delta))
            worst_shift = max(worst_shift,
                              abs(np.linalg.norm(mu) - delta))
        for s in GRIDS["full"]["scale"]:
            prod = float(np.prod(np.full(p, scale_factor(p, s))))
            worst_scale = max(worst_scale, abs(prod - s) / max(1.0, s))
    ok = worst_shift < 1e-12 and worst_scale < 1e-12
    report("6 construction-identities", ok,
           f"(shift {worst_shift:.1e}, scale {worst_scale:.1e})")


def test_criterion_7_pipeline_determinism(tmp_path):
    config = {
        "methods": ["energy", "c2st_knn", "rosenbaum"],
        "reps": 20,
        "scenarios": [
            ScenarioSpec("normal", "null", 0.0, 30, 2, "balanced").to_dict(),
            ScenarioSpec("normal", "shift", 1.0, 30, 2,
                         "balanced").to_dict(),
        ],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for tag in ("a", "b"):
        dump = tmp_path / f"dump_{tag}"
        rep = tmp_path / f"rep_{tag}"
        assert cli_main(["simulate", "--config", str(cfg), "--seed", "77",
                         "--out", str(dump)]) == 0
        assert cli_main(["report", "--dump", str(dump),
                         "--out", str(rep)]) == 0
        blob = b""
        for f in sorted(dump.iterdir()) + sorted(rep.iterdir()):
            blob += f.name.encode() + f.read_bytes()
        outputs.append(blob)
    ok_bytes = outputs[0] == outputs[1]

    rng = np.random.default_rng(SEED + 2)
    ok_greedy = True
    worst_ratio = 1.0
    for _ in range(50):
        cover = rng.random((40, 10)) < 0.2
        order = greedy_cover(cover, [f"m{m}" for m in range(10)])
        cumulative = {}
        for t in range(1, 11):
            if t <= len(order):
                cumulative[t] = order[t - 1][2]
            else:
                cumulative[t] = order[-1][2] if order else 0.0
        for t in (1, 2, 3):
            best = 0
            for combo in itertools.combinations(range(10), t):
                got = int(cover[:, combo].any(axis=1).sum())
                best = max(best, got)
            if best == 0:
                continue
            ratio = cumulative[t] * 40 / best
            worst_ratio = min(worst_ratio, ratio)
            if cumulative[t] < (1 - 1 / math.e) * best / 40 - 1e-12:
                ok_greedy = False
    report("7 pipeline-determinism", ok_bytes and ok_greedy,
           f"(byte-identical {ok_bytes}, worst greedy/opt {worst_ratio:.3f})")


def test_criterion_8_bench_contract():
    rows = bench(("energy", "engineer", "mmd"), [(50, 2)],
                 master_seed=SEED, min_reps=10, min_total=1.0)
    ok_runs = all(r.runs >= 10 for r in rows)
    ok_total = all(r.total_seconds >= 1.0 for r in rows)
    scaled, _ = scale_bench(rows)
    per_row = sorted(scaled.values())
    ok_scale = (all(0.0 <= v <= 1.0 for v in per_row)
                and per_row.count(0.0) == 1 and per_row.count(1.0) == 1)
    report("8 bench-contract", ok_runs and ok_total and ok_scale,
           f"(runs {[r.runs for r in rows]}, scaled {per_row})")
