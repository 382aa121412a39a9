"""Evaluation pipeline: repetition engine, extreme-repetition proportions,
ranking against the pointwise-best method, acceptability coverage, greedy
method-combination search, method-choice trees, and runtime benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import get_context

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
    spec: ScenarioSpec
    scenario_index: int
    methods: tuple[str, ...]
    values: np.ndarray   # (reps, n_methods), NaN for errors
    errors: tuple[tuple[str, ...], ...]  # per rep, per method ('' if ok)


def _context_seed(master_seed: int, scenario_index: int, rep: int) -> int:
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(scenario_index, rep, 1))
    return int(ss.generate_state(1)[0])


def _run_rep(spec: ScenarioSpec, methods, master_seed, scenario_index, rep):
    rng = rng_for(master_seed, scenario_index, rep)
    ms = sample_scenario(spec, rng)
    ctx = Context(ms, seed=_context_seed(master_seed, scenario_index, rep))
    values = np.empty(len(methods))
    errors = []
    for m, mid in enumerate(methods):
        sv = evaluate(mid, ctx)
        values[m] = sv.value if sv.ok else np.nan
        errors.append(sv.error or "")
    return values, tuple(errors)


def _run_rep_packed(args):
    spec, methods, master_seed, scenario_index, rep = args
    return rep, _run_rep(spec, methods, master_seed, scenario_index, rep)


def run_scenario(spec: ScenarioSpec, methods, reps: int, master_seed: int,
                 scenario_index: int = 0, jobs: int = 1) -> ScenarioResult:
    """Evaluate all methods on `reps` independent draws of the scenario.

    Repetition streams are keyed by (scenario_index, rep), so results do
    not depend on the worker layout."""
    for mid in methods:
        if mid not in REGISTRY:
            raise KeyError(f"unknown method id {mid!r}")
    methods = tuple(methods)
    values = np.empty((reps, len(methods)))
    errors: list[tuple[str, ...]] = [()] * reps
    if jobs > 1 and reps > 1:
        tasks = [(spec, methods, master_seed, scenario_index, rep)
                 for rep in range(reps)]
        with get_context("fork").Pool(jobs) as pool:
            for rep, (vals, errs) in pool.imap_unordered(
                    _run_rep_packed, tasks, chunksize=max(1, reps // (4 * jobs))):
                values[rep] = vals
                errors[rep] = errs
    else:
        for rep in range(reps):
            values[rep], errors[rep] = _run_rep(
                spec, methods, master_seed, scenario_index, rep)
    return ScenarioResult(spec=spec, scenario_index=scenario_index,
                          methods=methods, values=values,
                          errors=tuple(errors))


# ---------------------------------------------------------------------------
# PESR and its aggregation


def pesr_threshold(null_values: np.ndarray, direction: str) -> float | None:
    """Empirical null-quantile threshold of PESR: the 95% quantile for
    dissimilarity, the 5% quantile for similarity.

    Returns None when more than the tolerated fraction of the null
    repetitions is invalid, or none is valid."""
    null_values = np.asarray(null_values, dtype=float)
    null_ok = null_values[np.isfinite(null_values)]
    if (len(null_values) - len(null_ok)) > MISSING_FRACTION_LIMIT * len(null_values):
        return None
    if len(null_ok) == 0:
        return None
    if direction == DISSIMILARITY:
        return np.quantile(null_ok, 0.95)
    if direction == SIMILARITY:
        return np.quantile(null_ok, 0.05)
    raise ValueError(f"unknown direction {direction!r}")


def _pesr_beyond(threshold: float | None, alt_values: np.ndarray,
                 direction: str) -> float | None:
    """Share of valid alternative repetitions strictly beyond threshold;
    None under the same missing-value rule as the null."""
    alt_values = np.asarray(alt_values, dtype=float)
    alt_ok = alt_values[np.isfinite(alt_values)]
    if (len(alt_values) - len(alt_ok)) > MISSING_FRACTION_LIMIT * len(alt_values):
        return None
    if threshold is None or len(alt_ok) == 0:
        return None
    if direction == DISSIMILARITY:
        return float((alt_ok > threshold).mean())
    return float((alt_ok < threshold).mean())


def pesr(null_values: np.ndarray, alt_values: np.ndarray,
         direction: str) -> float | None:
    """Proportion of alternative repetitions strictly beyond the empirical
    null-quantile threshold (95% for dissimilarity, 5% for similarity).

    Returns None when more than the tolerated fraction of either run's
    repetitions is invalid."""
    return _pesr_beyond(pesr_threshold(null_values, direction), alt_values,
                        direction)


def null_key(spec: ScenarioSpec) -> tuple:
    return (spec.dgp, spec.k, spec.n_total, spec.p, spec.balance)


def group_key(spec: ScenarioSpec) -> tuple:
    """Scenario group over which magnitudes are averaged."""
    return (spec.dgp, spec.deviation, spec.n_total, spec.p, spec.balance,
            spec.grouping, spec.k)


@dataclass(frozen=True)
class PesrRow:
    spec: ScenarioSpec
    method: str
    value: float | None


def pesr_table(results) -> list[PesrRow]:
    """PESR per (alternative scenario, method), thresholded against the
    matching null scenario of the same (dgp, k, N, p, balance)."""
    nulls = {}
    for res in results:
        if res.spec.deviation == "null":
            nulls[null_key(res.spec)] = res
    rows: list[PesrRow] = []
    thresholds = {}  # (null key, method) -> threshold
    for res in results:
        if res.spec.deviation == "null":
            continue
        key = null_key(res.spec)
        if key not in nulls:
            raise MissingNullError(
                f"no null dump for {res.spec.scenario_id} (key {key})")
        null_res = nulls[key]
        for m, mid in enumerate(res.methods):
            if mid not in null_res.methods:
                raise MissingNullError(
                    f"method {mid} missing from the null dump of {key}")
            direction = REGISTRY[mid].direction
            if (key, mid) not in thresholds:
                mn = null_res.methods.index(mid)
                thresholds[key, mid] = pesr_threshold(
                    null_res.values[:, mn], direction)
            value = _pesr_beyond(thresholds[key, mid], res.values[:, m],
                                 direction)
            rows.append(PesrRow(res.spec, mid, value))
    return rows


@dataclass(frozen=True)
class MeanDiffRow:
    group: tuple
    method: str
    mean_diff: float


def mean_diff_to_ideal(rows: list[PesrRow]) -> list[MeanDiffRow]:
    """Average over magnitudes of (pointwise best PESR - method PESR);
    missing PESR values are penalized with the maximum difference of one."""
    by_scenario: dict = {}
    for row in rows:
        by_scenario.setdefault(row.spec, {})[row.method] = row.value
    by_group: dict = {}
    for spec, method_vals in by_scenario.items():
        finite = [v for v in method_vals.values() if v is not None]
        ideal = max(finite) if finite else None
        for method, value in method_vals.items():
            diff = 1.0 if (value is None or ideal is None) else ideal - value
            by_group.setdefault(group_key(spec), {}).setdefault(
                method, []).append(diff)
    out = []
    for group in sorted(by_group):
        for method, diffs in sorted(by_group[group].items()):
            out.append(MeanDiffRow(group, method,
                                   float(np.mean(diffs))))
    return out


def acceptable(rows: list[MeanDiffRow], cutoff: float = 0.1):
    """Method is acceptable for a group iff its mean difference is within
    `cutoff` of the group minimum.  Returns {(group, method): bool}."""
    by_group: dict = {}
    for row in rows:
        by_group.setdefault(row.group, []).append(row)
    out = {}
    for group, group_rows in by_group.items():
        best = min(r.mean_diff for r in group_rows)
        for r in group_rows:
            out[(group, r.method)] = bool(r.mean_diff <= best + cutoff)
    return out


def overall_mean_diff(rows: list[MeanDiffRow]) -> dict[str, float]:
    acc: dict[str, list[float]] = {}
    for row in rows:
        acc.setdefault(row.method, []).append(row.mean_diff)
    return {m: float(np.mean(v)) for m, v in acc.items()}


def greedy_cover(cover: dict, tie_break: dict[str, float] | None = None):
    """Greedy max-coverage: repeatedly pick the method covering the most
    not-yet-covered groups; ties broken by lower overall mean difference,
    then by method id.  Returns [(method, newly_covered, cumulative_frac)]."""
    groups = sorted({g for g, _ in cover})
    methods = sorted({m for _, m in cover})
    if not groups:
        return []
    tie_break = tie_break or {}
    covered: set = set()
    order = []
    while len(covered) < len(groups):
        best = None
        for m in methods:
            gain = sum(1 for g in groups
                       if g not in covered and cover.get((g, m), False))
            key = (-gain, tie_break.get(m, float("inf")), m)
            if best is None or key < best[0]:
                best = (key, m, gain)
        _, method, gain = best
        if gain == 0:
            break
        covered.update(g for g in groups if cover.get((g, method), False))
        order.append((method, gain, len(covered) / len(groups)))
    return order


def _dimension_features(group: tuple) -> tuple[float, float, float]:
    # group = (dgp, deviation, N, p, balance, grouping, k)
    return (float(group[2]), float(group[3]),
            1.0 if group[4] == "balanced" else 0.0)


def choice_tree(cover: dict, tie_break: dict[str, float] | None = None):
    """Decision tree predicting the best-covering method from (N, p,
    balance), grown to purity; leaves annotated with the proportion of
    their groups covered by the leaf's method.  None for an empty cover."""
    if not cover:
        return None
    tie_break = tie_break or {}
    cells: dict = {}
    for (group, method), ok in cover.items():
        cells.setdefault(_dimension_features(group), {}).setdefault(
            method, []).append((group, ok))
    feats = sorted(cells)
    labels = []
    for f in feats:
        best = None
        for method, pairs in sorted(cells[f].items()):
            n_cov = sum(1 for _, ok in pairs if ok)
            key = (-n_cov, tie_break.get(method, float("inf")), method)
            if best is None or key < best[0]:
                best = (key, method)
        labels.append(best[1])
    method_ids = sorted(set(labels))
    y = np.array([method_ids.index(lab) for lab in labels])
    x = np.array(feats)
    tree = cart_fit(x, y, max_depth=64, min_leaf=1)

    feature_names = ("n", "p", "balanced")

    def annotate(node: TreeNode, idx: np.ndarray):
        if node.is_leaf:
            method = method_ids[node.prediction]
            pairs = [pr for i in idx for pr in cells[feats[i]].get(method, [])]
            coverage = (sum(1 for _, ok in pairs if ok) / len(pairs)
                        if pairs else 0.0)
            return {"method": method, "coverage": coverage,
                    "n_cells": int(len(idx))}
        mask = x[idx, node.feature] <= node.threshold
        return {"feature": feature_names[node.feature],
                "threshold": node.threshold,
                "left": annotate(node.left, idx[mask]),
                "right": annotate(node.right, idx[~mask])}

    return annotate(tree, np.arange(len(feats)))


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


def bench(methods, grid, master_seed: int = 0, min_reps: int = 10,
          min_total: float = 1.0) -> list[BenchRow]:
    """Median runtime per (method, N, p) on normal null data with equal
    sizes.  Every method runs at least min_reps times and for at least
    min_total seconds; each method is called once to warm caches before
    timing."""
    rows = []
    for n_total, p in grid:
        spec = ScenarioSpec("normal", "null", 0.0, n_total, p, "balanced")
        ms = sample_scenario(spec, rng_for(master_seed, 0, 0))
        for mid in sorted(methods):
            if mid not in REGISTRY:
                raise KeyError(f"unknown method id {mid!r}")
            evaluate(mid, Context(ms, seed=master_seed))  # warm-up call
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
    Returns ({(method, n, p): scaled}, {method: median_scaled})."""
    cells: dict = {}
    for row in rows:
        cells.setdefault((row.n_total, row.p), []).append(row)
    scaled = {}
    for cell_rows in cells.values():
        med = [r.median_seconds for r in cell_rows]
        lo, hi = min(med), max(med)
        for r in cell_rows:
            if len(cell_rows) == 1 or hi == lo:
                s = 0.0
            else:
                s = (r.median_seconds - lo) / (hi - lo)
            scaled[(r.method, r.n_total, r.p)] = s
    summary = {}
    for method in sorted({r.method for r in rows}):
        vals = [s for (m, _, _), s in scaled.items() if m == method]
        summary[method] = float(np.median(vals))
    return scaled, summary
