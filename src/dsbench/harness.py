"""Evaluation pipeline: repetition engine, extreme-repetition proportions,
ranking against the pointwise-best method, acceptability coverage, greedy
method-combination search, method-choice trees, and runtime benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .clusterstats import TreeNode, cart_fit
from .core import DISSIMILARITY, SIMILARITY
from .datagen import ScenarioSpec, rng_for, sample_scenario
from .methods import REGISTRY, Context, evaluate

MISSING_FRACTION_LIMIT = 0.2  # more than this fraction invalid -> missing


class MissingNullError(ValueError):
    """An alternative scenario has no matching null dump."""


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's values, columns in the order of the method list that
    made or read it.  `errors` holds, per rep and method, the error text
    ('' if ok); only `run_scenario` sets it, a result read back from a dump
    leaves it empty."""
    spec: ScenarioSpec
    values: np.ndarray   # (reps, n_methods), NaN for errors
    errors: tuple[tuple[str, ...], ...] = ()


def _context_seed(master_seed: int, scenario_index: int, rep: int) -> int:
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(scenario_index, rep, 1))
    return int(ss.generate_state(1)[0])


def _run_rep(spec: ScenarioSpec, methods, master_seed, scenario_index, rep):
    ms = sample_scenario(spec, rng_for(master_seed, scenario_index, rep))
    ctx = Context(ms, seed=_context_seed(master_seed, scenario_index, rep))
    stats = [evaluate(mid, ctx) for mid in methods]
    return (np.array([sv.value if sv.ok else np.nan for sv in stats]),
            tuple(sv.error or "" for sv in stats))


def run_scenario(spec: ScenarioSpec, methods, reps: int, master_seed: int,
                 scenario_index: int = 0) -> ScenarioResult:
    """Evaluate all methods, in process, on `reps` independent draws of the
    scenario, each drawn from the stream keyed by (scenario_index, rep)."""
    methods = tuple(methods)
    rows = [_run_rep(spec, methods, master_seed, scenario_index, rep)
            for rep in range(reps)]
    return ScenarioResult(
        spec=spec,
        values=np.array([v for v, _ in rows]).reshape(reps, len(methods)),
        errors=tuple(e for _, e in rows))


# ---------------------------------------------------------------------------
# PESR and its aggregation


def _high(directions) -> np.ndarray:
    """Per column: True where a dissimilarity is beyond its null at the high
    end, False where a similarity is beyond it at the low end."""
    if not set(directions) <= {DISSIMILARITY, SIMILARITY}:
        raise ValueError(f"unknown direction in {directions!r}")
    return np.array([d == DISSIMILARITY for d in directions], dtype=bool)


def _valid(values: np.ndarray):
    """Per column of (R, M) `values`: the valid cells, their count, and
    whether the column is kept: some cell valid and at most the tolerated
    fraction invalid."""
    ok = np.isfinite(values)
    n_ok = ok.sum(axis=0)
    return ok, n_ok, (n_ok > 0) & (
        len(values) - n_ok <= MISSING_FRACTION_LIMIT * len(values))


def _null_thresholds(null: np.ndarray, high: np.ndarray):
    """(threshold, kept) per column of the (R0, M) `null`: its 95% quantile
    for a dissimilarity, 5% for a similarity, NaN where it is not kept."""
    ok, _, kept = _valid(null)
    threshold = np.full(len(high), np.nan)
    for m in np.flatnonzero(kept):
        level = 0.95 if high[m] else 0.05
        threshold[m] = np.quantile(null[ok[:, m], m], level)
    return threshold, kept


def _pesr_row(alt: np.ndarray, high: np.ndarray, threshold: np.ndarray,
              null_kept: np.ndarray) -> np.ndarray:
    """(M,) PESR of each column of the (R, M) `alt` against its null's
    `threshold`.  NaN where the null or the alternative column is not
    kept."""
    ok, n_ok, kept = _valid(alt)
    beyond = np.where(high, alt > threshold, alt < threshold) & ok
    out = np.full(len(high), np.nan)
    np.divide(beyond.sum(axis=0), n_ok, out=out, where=kept & null_kept)
    return out


def pesr(null_values: np.ndarray, alt_values: np.ndarray,
         direction: str) -> float | None:
    """Proportion of alternative repetitions strictly beyond the empirical
    null-quantile threshold (95% for dissimilarity, 5% for similarity).

    Returns None when more than the tolerated fraction of either run's
    repetitions is invalid."""
    high = _high([direction])
    null = np.asarray(null_values, dtype=float)[:, None]
    alt = np.asarray(alt_values, dtype=float)[:, None]
    value = _pesr_row(alt, high, *_null_thresholds(null, high))[0]
    return None if np.isnan(value) else float(value)


def null_key(spec: ScenarioSpec) -> tuple:
    return (spec.dgp, spec.k, spec.n_total, spec.p, spec.balance)


def group_key(spec: ScenarioSpec) -> tuple:
    """Scenario group over which magnitudes are averaged."""
    return (spec.dgp, spec.deviation, spec.n_total, spec.p, spec.balance,
            spec.grouping, spec.k)


def pesr_table(methods, results) -> tuple[list[ScenarioSpec], np.ndarray]:
    """PESR per (alternative scenario, method), thresholded against the
    matching null scenario of the same (dgp, k, N, p, balance).

    `results` is any iterable of results whose value columns are
    `methods`, each null before the alternatives it serves.  Only each
    null's thresholds and each alternative's PESR row are kept, so it
    holds one result at a time.  A null whose key an earlier null holds
    replaces it for the alternatives after it.  Returns the alternative
    specs in result order and their (A, M) PESR matrix, columns in method
    order, NaN where the missing-value rule removed a cell.  Raises
    MissingNullError, once the input is exhausted, naming the first
    alternative that no earlier null served."""
    high = _high([REGISTRY[mid].direction for mid in methods])
    nulls: dict = {}  # null key -> (thresholds, kept)
    specs, rows, orphan = [], [], None
    for res in results:
        key = null_key(res.spec)
        if res.spec.deviation == "null":
            nulls[key] = _null_thresholds(res.values, high)
        elif key in nulls:
            specs.append(res.spec)
            rows.append(_pesr_row(res.values, high, *nulls[key]))
        elif orphan is None:
            orphan = res.spec
        del res  # freed before the next result is read
    if orphan is not None:
        raise MissingNullError(f"no null dump for {orphan.scenario_id} "
                               f"(key {null_key(orphan)})")
    return specs, np.array(rows, dtype=float).reshape(len(rows), len(methods))


def mean_diff_to_ideal(specs, table: np.ndarray):
    """Average over magnitudes of (pointwise best PESR - method PESR);
    missing PESR values are penalized with the maximum difference of one.
    Returns the sorted scenario groups and their (G, M) mean differences."""
    ideal = np.fmax.reduce(table, axis=1, initial=-np.inf)
    diff = np.where(np.isnan(table), 1.0, ideal[:, None] - table)
    rows_of: dict = {}  # group -> rows of its scenarios
    for a, spec in enumerate(specs):
        rows_of.setdefault(group_key(spec), []).append(a)
    groups = sorted(rows_of)
    means = np.empty((len(groups), table.shape[1]))
    for g, group in enumerate(groups):  # one contiguous run per column
        # adds the values in the order np.mean adds them as a list
        means[g] = np.ascontiguousarray(diff[rows_of[group]].T).mean(axis=1)
    return groups, means


def acceptable(diffs: np.ndarray, cutoff: float = 0.1) -> np.ndarray:
    """Method is acceptable for a group iff its mean difference is within
    `cutoff` of the group minimum.  Returns a (G, M) bool matrix."""
    return diffs <= diffs.min(axis=1, initial=np.inf)[:, None] + cutoff


def overall_mean_diff(diffs: np.ndarray) -> np.ndarray:
    """Each method's mean difference over all groups; NaN with no groups."""
    if not len(diffs):
        return np.full(diffs.shape[1], np.nan)
    return np.ascontiguousarray(diffs.T).mean(axis=1)  # as in the groups


def _best_method(counts, methods, tie_break) -> int:
    """Column with the largest count; ties broken by lower tie-break value,
    then by method id."""
    return min(range(len(methods)), key=lambda m: (
        -counts[m], 0.0 if tie_break is None else tie_break[m], methods[m]))


def greedy_cover(cover: np.ndarray, methods, tie_break=None):
    """Greedy max-coverage over a (G, M) bool matrix: repeatedly pick the
    method covering the most not-yet-covered groups; ties broken by lower
    overall mean difference, then by method id.  Returns [(method,
    newly_covered, cumulative_frac)]."""
    n_groups = len(cover)
    covered = np.zeros(n_groups, dtype=bool)
    order = []
    while not covered.all():
        gains = (cover & ~covered[:, None]).sum(axis=0)
        m = _best_method(gains, methods, tie_break)
        if gains[m] == 0:
            break
        covered |= cover[:, m]
        order.append((methods[m], int(gains[m]),
                      int(covered.sum()) / n_groups))
    return order


def choice_tree(groups, cover: np.ndarray, methods, tie_break=None):
    """Decision tree predicting the best-covering method from (N, p,
    balance), grown to purity; leaves annotated with the proportion of
    their groups covered by the leaf's method.  None for no groups."""
    if not groups:
        return None
    # group = (dgp, deviation, N, p, balance, grouping, k)
    feats = [(float(g[2]), float(g[3]), 1.0 if g[4] == "balanced" else 0.0)
             for g in groups]
    cells = sorted(set(feats))
    cell_of = np.array([cells.index(f) for f in feats])
    labels = [_best_method(cover[cell_of == c].sum(axis=0), methods,
                           tie_break) for c in range(len(cells))]
    classes = sorted(set(labels), key=methods.__getitem__)
    y = np.array([classes.index(m) for m in labels])
    x = np.array(cells)
    tree = cart_fit(x, y, max_depth=64, min_leaf=1)

    def annotate(node: TreeNode, idx: np.ndarray):
        if node.is_leaf:
            m = classes[node.prediction]
            in_leaf = np.isin(cell_of, idx)
            coverage = int(cover[in_leaf, m].sum()) / int(in_leaf.sum())
            return {"method": methods[m], "coverage": coverage,
                    "n_cells": int(len(idx))}
        mask = x[idx, node.feature] <= node.threshold
        return {"feature": ("n", "p", "balanced")[node.feature],
                "threshold": node.threshold,
                "left": annotate(node.left, idx[mask]),
                "right": annotate(node.right, idx[~mask])}

    return annotate(tree, np.arange(len(cells)))


# ---------------------------------------------------------------------------
# runtime benchmark


@dataclass(frozen=True)
class BenchRow:
    method: str
    n_total: int
    p: int
    runs: int
    median_seconds: float
    total_seconds: float


def bench_scenario(n_total: int, p: int) -> ScenarioSpec:
    """The scenario `bench` times at grid cell (n_total, p): normal null data
    of balanced sizes.  Raises ConfigError for a cell no scenario allows."""
    return ScenarioSpec("normal", "null", 0.0, n_total, p, "balanced")


def bench(methods, grid, master_seed: int = 0, min_reps: int = 10,
          min_total: float = 1.0) -> list[BenchRow]:
    """Median runtime per (method, N, p) on normal null data with equal
    sizes.  Every method runs at least min_reps times and for at least
    min_total seconds; each method is called once to warm caches before
    timing.  A method whose warm-up call returns an error is not timed: its
    row has 0 runs and a NaN median."""
    rows = []
    for n_total, p in grid:
        ms = sample_scenario(bench_scenario(n_total, p),
                             rng_for(master_seed, 0, 0))
        for mid in sorted(methods):
            if evaluate(mid, Context(ms, seed=master_seed)).error:  # warm-up
                rows.append(BenchRow(mid, n_total, p, 0, float("nan"), 0.0))
                continue
            times = []
            total = 0.0
            while len(times) < min_reps or total < min_total:
                ctx = Context(ms, seed=master_seed)
                t0 = time.perf_counter()
                evaluate(mid, ctx)
                dt = time.perf_counter() - t0
                times.append(dt)
                total += dt
            rows.append(BenchRow(mid, n_total, p, len(times),
                                 float(np.median(times)), float(total)))
    return rows


def scale_bench(rows: list[BenchRow]):
    """Min-max scale medians within each (N, p) cell; per-method median of
    the scaled values.  A single-method cell scales to zero by convention.
    A row with no timed runs scales to NaN and is left out of its cell's
    range and of its method's median, which is NaN if no cell is left.
    Returns ({(method, n, p): scaled}, {method: median_scaled})."""
    cells: dict = {}
    for row in rows:
        if row.runs:
            cells.setdefault((row.n_total, row.p), []).append(row)
    scaled = {(r.method, r.n_total, r.p): float("nan") for r in rows}
    for cell_rows in cells.values():
        med = [r.median_seconds for r in cell_rows]
        lo, hi = min(med), max(med)
        for r in cell_rows:  # a single-method cell has hi == lo
            scaled[(r.method, r.n_total, r.p)] = (
                0.0 if hi == lo else (r.median_seconds - lo) / (hi - lo))
    summary = {}
    for method in sorted({r.method for r in rows}):
        vals = [s for (m, _, _), s in scaled.items()
                if m == method and not np.isnan(s)]
        summary[method] = float(np.median(vals)) if vals else float("nan")
    return scaled, summary
