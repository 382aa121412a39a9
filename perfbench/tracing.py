"""Spans around dsbench's layers, recorded from outside the package.

A `Tracer` replaces the module-level names that dsbench's callers look up
(for example `dsbench.methods.min_weight_matching`, which `Context.matching`
calls) with wrappers that record a span: name, start, end, parent span and
repetition id.  Spans stay in memory until `write` is called.  Nothing under
`src/` is changed; `uninstall` puts the original names back.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import FAMILIES, FAMILY, TWO_SAMPLE_46

SHARED = "shared"      # a Context structure build, once per repetition
UNCACHED = "uncached"  # a structure rebuilt outside the Context cache

# (module, name looked up there, span name, kind)
SITES = (
    ("dsbench.cli", "run_scenario", "harness.run_scenario", None),
    ("dsbench.harness", "_run_rep", "harness.rep", None),
    ("dsbench.harness", "sample_scenario", "datagen.sample", None),
    ("dsbench.harness", "evaluate", "method", None),
    ("dsbench.methods", "_distance_matrix", "core.dist", SHARED),
    ("dsbench.methods", "kmst", "graphs.kmst", SHARED),
    ("dsbench.methods", "knn_graph", "graphs.knn", SHARED),
    ("dsbench.methods", "min_weight_matching", "graphs.matching", SHARED),
    ("dsbench.kernelstats", "gram", "kernelstats.gram", SHARED),
    ("dsbench.graphstats", "null_moments", "permnull.edge_moments", SHARED),
    ("dsbench.graphstats", "knn_graph", "graphs.knn", UNCACHED),
    ("dsbench.interpoint", "halton_grid", "graphs.halton", UNCACHED),
    ("dsbench.interpoint", "assignment", "graphs.assignment", None),
    ("dsbench.clusterstats", "madd", "clusterstats.madd", None),
    ("dsbench.clusterstats", "cluster_madd", "clusterstats.kmedoids", None),
    ("dsbench.clusterstats", "cart_fit", "clusterstats.cart", None),
    ("dsbench.kernelstats", "moments_from_weights", "permnull.moments", None),
    ("dsbench.cli", "pesr_table", "harness.pesr_table", None),
    ("dsbench.cli", "mean_diff_to_ideal", "harness.meandiff", None),
    ("dsbench.cli", "acceptable", "harness.cover", None),
    ("dsbench.cli", "overall_mean_diff", "harness.cover", None),
    ("dsbench.cli", "greedy_cover", "harness.cover", None),
    ("dsbench.cli", "choice_tree", "harness.tree", None),
)

# Layers that do work of their own inside a repetition, in metric order.
LEAF_LAYERS = (
    "graphs.matching", "graphs.kmst", "graphs.knn", "graphs.halton",
    "graphs.assignment", "clusterstats.madd", "clusterstats.kmedoids",
    "clusterstats.cart", "permnull.moments", "permnull.edge_moments",
    "core.dist", "kernelstats.gram", "datagen.sample",
)
REPORT_LAYERS = ("harness.pesr_table", "harness.meandiff", "harness.cover",
                 "harness.tree")
ERROR_KINDS = ("UnsupportedConfigError", "DegenerateNullError", "nonfinite",
               "other")
FLAGS = ("pinv", "kmedoids_nonconverged", "zero_direction",
         "bandwidth_fallback")

# Every per-layer metric with its unit, in the order they are reported.
PER_LAYER = (
    [(f"{layer}_s", "s/rep") for layer in LEAF_LAYERS]
    + [("graphs.matching_calls", "1/rep"), ("graphs.knn_calls", "1/rep"),
       ("graphs.knn_uncached_calls", "1/rep"),
       ("graphs.halton_calls", "1/rep"),
       ("clusterstats.madd_calls", "1/rep"),
       ("clusterstats.madd_distinct", "1/rep"),
       ("permnull.moments_calls", "1/rep"),
       ("permnull.moments_distinct", "1/rep")]
    + [(f"method.{mid}.self_s", "s/rep") for mid in TWO_SAMPLE_46]
    + [(f"{family}.self_s", "s/rep") for family in FAMILIES]
    + [("methods.shared_s", "s/rep"), ("methods.self_s", "s/rep"),
       ("harness.rep_s.p50", "s"), ("harness.rep_s.tail", "s"),
       ("harness.rep_s.tail_pct", "%"), ("harness.reps", "count")]
    + [(f"{layer}_s", "s") for layer in REPORT_LAYERS]
    + [("cli.dump_write_s", "s"), ("cli.report_load_s", "s"),
       ("trace.overhead_frac", "frac"), ("trace.top_share", "frac"),
       ("diag.cells", "count"), ("diag.error_frac", "frac")]
    + [(f"diag.errors.{kind}", "count") for kind in ERROR_KINDS]
    + [(f"diag.flags.{flag}", "count") for flag in FLAGS]
)


def _digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a.tobytes(), digest_size=16).digest() + bytes(
        str(a.shape), "ascii")


def error_type(error: str) -> str:
    """Exception type name of a captured per-cell error."""
    if error == "non-finite statistic":
        return "nonfinite"
    return error.split(":", 1)[0]


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (percentile 100) when fewer than twenty
    samples leave no such percentile at or above the median."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


class Tracer:
    """Records spans at the layer boundaries listed in SITES."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, rep, kind)
        self.rep_ids = []    # (scenario_index, repetition) per rep id
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.errors = Counter()  # by exception type
        self.flags = Counter()
        self._rep = -1
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, name, kind in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, kind))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, kind):
        def wrapped(*args, **kwargs):
            span = name
            if name == "method":
                span = f"method.{args[0]}"
            elif name == "harness.rep":
                self._rep = len(self.rep_ids)
                self.rep_ids.append((args[3], args[4]))
            elif name == "clusterstats.madd":
                cfg = args[1]
                self.distinct[name].add(
                    (self._rep, _digest(args[0]), cfg.psi, cfg.h))
            elif name == "permnull.moments":
                self.distinct[name].add(
                    (self._rep, _digest(args[0]), tuple(args[1])))
            self.counts[name] += 1
            if kind == UNCACHED:
                self.counts[f"{name}.uncached"] += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span, start, end, parent, self._rep,
                                     kind)
                if name == "harness.rep":
                    self._rep = -1
            if name == "method":
                if result.error:
                    self.errors[error_type(result.error)] += 1
                self.flags.update(result.flags)
            elif name == "kernelstats.gram":
                self.flags.update(result.flags)
            return result
        return wrapped

    def write(self, path):
        """Write the spans as JSON lines; `rep` is (scenario index,
        repetition) and `parent` the line index of the enclosing span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rep, kind in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "kind": kind,
                     "rep": self.rep_ids[rep] if rep >= 0 else None}) + "\n")

    def metrics(self, simulate_s: float, report_s: float):
        """(per-layer metrics, shares of mean repetition time) from the
        recorded spans; per-repetition values are means over all
        scenario-repetitions."""
        durations = [end - start for _, start, end, *_ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        total = Counter()
        self_time = Counter()
        shared = 0.0
        rep_times = []
        for (name, _, _, _, _, kind), dur, sub in zip(self.spans, durations,
                                                      child):
            total[name] += dur
            self_time[name] += dur - sub
            if kind == SHARED:
                shared += dur
            if name == "harness.rep":
                rep_times.append(dur)
        reps = len(rep_times)
        if reps == 0:
            raise RuntimeError("the traced run recorded no repetitions")
        out = {f"{layer}_s": total[layer] / reps for layer in LEAF_LAYERS}
        for name in ("graphs.matching", "graphs.knn", "graphs.halton",
                     "clusterstats.madd", "permnull.moments"):
            out[f"{name}_calls"] = self.counts[name] / reps
        out["graphs.knn_uncached_calls"] = (
            self.counts["graphs.knn.uncached"] / reps)
        for name in ("clusterstats.madd", "permnull.moments"):
            out[f"{name}_distinct"] = len(self.distinct[name]) / reps
        family = Counter()
        for mid in TWO_SAMPLE_46:
            value = self_time[f"method.{mid}"] / reps
            out[f"method.{mid}.self_s"] = value
            family[FAMILY[mid]] += value
        for name in FAMILIES:
            out[f"{name}.self_s"] = family[name]
        out["methods.shared_s"] = shared / reps
        out["methods.self_s"] = sum(family.values())
        out["harness.rep_s.p50"] = float(np.median(rep_times))
        out["harness.rep_s.tail"], out["harness.rep_s.tail_pct"] = tail(
            rep_times)
        out["harness.reps"] = reps
        for layer in REPORT_LAYERS:
            out[f"{layer}_s"] = total[layer]
        out["cli.dump_write_s"] = simulate_s - total["harness.run_scenario"]
        out["cli.report_load_s"] = report_s - sum(
            total[layer] for layer in REPORT_LAYERS)
        mean_rep = sum(rep_times) / reps
        shares = {layer: total[layer] / reps / mean_rep
                  for layer in LEAF_LAYERS}
        shares.update({f"method.{mid}.self": out[f"method.{mid}.self_s"]
                       / mean_rep for mid in TWO_SAMPLE_46})
        out["trace.top_share"] = max(shares.values())
        cells = self.counts["method"]
        out["diag.cells"] = cells
        out["diag.error_frac"] = sum(self.errors.values()) / cells
        for kind in ERROR_KINDS[:-1]:
            out[f"diag.errors.{kind}"] = self.errors[kind]
        out["diag.errors.other"] = sum(
            n for kind, n in self.errors.items() if kind not in ERROR_KINDS)
        for flag in FLAGS:
            out[f"diag.flags.{flag}"] = self.flags[flag]
        return out, shares
