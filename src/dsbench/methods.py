"""Method registry: every statistic under a canonical id with its
extremeness direction, evaluated against a per-repetition context that
caches the shared heavy structures (distance matrix, graphs, matching, the
pattern summary of each of their edge sets, Gram matrix, GPK components,
the DISCO decomposition of each alpha, and the MADD matrices of the pooled
sample and of each sample pair).  Each method declares which large
structures it reads, so a caller that runs a fixed method list can release
each one after its last reader."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable

import numpy as np

from . import clusterstats, graphstats, interpoint, kernelstats
from .core import (DISSIMILARITY, SIMILARITY, MultiSample, StatValue, pool)
from .core import distance_matrix as _distance_matrix
from .graphs import (Matching, MstLayers, kmst, knn_from_table, knn_graph,
                     min_weight_matching)
from .permnull import pattern_counts_from_edges

# The large structures of a Context (N x N or close), the names a method's
# `reads` and `Context.release` take; "madd" covers every MADD matrix.
LARGE = ("dist", "neighbour_order", "mst_layers", "matching", "gram", "madd")
# The large structures built from `dist`: once each of them is built, `dist`
# is read only by the methods that read it directly.
BUILT_FROM_DIST = ("neighbour_order", "mst_layers", "matching", "gram")


class Context:
    """Per-repetition cache of structures shared between methods; the only
    place they are built."""

    def __init__(self, ms: MultiSample, seed: int = 0):
        self.ms = ms
        self.seed = seed
        self.pooled, self.labels = pool(ms)
        self._graphs: dict = {}
        self._pattern_stats: dict = {}
        self._disco: dict = {}
        self._madd: dict = {}

    @cached_property
    def dist(self) -> np.ndarray:
        return _distance_matrix(self.pooled)

    def _graph_key(self, spec: str) -> tuple[str, int]:
        """Resolve '1mst', '5mst', '1nn', '5nn' or 'heuristic_nn' to
        ('mst', k) or ('nn', k), so equal constructions share one build."""
        n = self.ms.total_n
        if spec == "heuristic_nn":
            return "nn", min(max(1, round(0.1 * n)), n - 1)
        if spec.endswith("mst"):
            return "mst", int(spec[:-3])
        if spec.endswith("nn"):
            return "nn", min(int(spec[:-2]), n - 1)
        raise ValueError(f"unknown graph spec {spec!r}")

    @cached_property
    def neighbour_order(self) -> np.ndarray:
        """(N, N-1) int32 neighbour table: row i lists the other nodes
        nearest first, ties to the lower index."""
        return knn_graph(self.dist, self.ms.total_n - 1)

    @cached_property
    def mst_layers(self) -> MstLayers:
        """The k-MST layers of `dist`, ranked by the first build; every
        k-MST extends the layers of the smaller ones."""
        return MstLayers(self.dist)

    def graph(self, spec: str) -> np.ndarray:
        """(m, 2) int64 edges of graph `spec`: a k-MST's edges i < j, layer
        by layer, or a K-NN graph's edges (i, neighbour), row by row."""
        key = self._graph_key(spec)
        if key not in self._graphs:
            kind, k = key
            self._graphs[key] = (
                kmst(None, k, layers=self.mst_layers) if kind == "mst"
                else knn_from_table(self.neighbour_order, k))
        return self._graphs[key]

    @cached_property
    def matching(self) -> Matching:
        return min_weight_matching(self.dist)

    def pattern_stats(self, spec: str):
        """(counts, mean, cov): label-pattern counts of the edges of graph
        `spec` or "matching", with their exact permutation-null moments."""
        key = "matching" if spec == "matching" else self._graph_key(spec)
        if key not in self._pattern_stats:
            edges = (self.matching.pairs if spec == "matching"
                     else self.graph(spec))
            mean, cov = graphstats.null_moments(edges, self.ms.sizes)
            counts = pattern_counts_from_edges(edges, self.labels, self.ms.k)
            self._pattern_stats[key] = (counts, mean, cov)
        return self._pattern_stats[key]

    @cached_property
    def gram(self) -> kernelstats.GramMatrix:
        return kernelstats.gram(self.dist)

    @cached_property
    def gpk(self) -> kernelstats.GpkComponents:
        return kernelstats.gpk_components(self.gram, self.ms.sizes)

    def disco(self, alpha: float) -> interpoint.DiscoResult:
        """DISCO decomposition of `dist` at `alpha`, for its F and B
        statistics."""
        if alpha not in self._disco:
            self._disco[alpha] = interpoint.disco(self.ms, self.dist, alpha)
        return self._disco[alpha]

    def madd(self, cfg: clusterstats.MaddConfig,
             pair: tuple[int, int] | None = None) -> np.ndarray:
        """MADD matrix of the pooled rows or, for `pair` = (i, j), of the
        rows of samples i and j, in pooled order."""
        key = (cfg.psi, cfg.h, pair)
        if key not in self._madd:
            values = self.pooled.values
            if pair is not None:
                values = values[np.isin(self.labels, pair)]
            self._madd[key] = clusterstats.madd(values, cfg)
        return self._madd[key]

    def release(self, names) -> None:
        """Drop the large structures `names` (see LARGE).  One read again is
        rebuilt by the code that built it, so values never depend on when a
        structure was released."""
        for name in names:
            if name not in LARGE:
                raise ValueError(f"{name!r} is not a large structure")
            if name == "madd":
                self._madd.clear()
            else:
                self.__dict__.pop(name, None)

    def method_rng(self, method_id: str):
        """Deterministic per-(repetition, method) generator."""
        tag = zlib.crc32(method_id.encode())
        ss = np.random.SeedSequence(self.seed, spawn_key=(tag,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class Method:
    method_id: str
    direction: str
    fn: Callable[[Context], float | tuple]
    reads: frozenset[str]  # the LARGE structures fn reads
    min_k: int = 2
    max_k: int = 2

    def applicable(self, k: int) -> bool:
        return self.min_k <= k <= self.max_k


REGISTRY: dict[str, Method] = {}


def _register(method_id, direction, fn, *, reads, min_k=2, max_k=2):
    if method_id in REGISTRY:
        raise ValueError(f"duplicate method id {method_id!r}")
    REGISTRY[method_id] = Method(method_id, direction, fn, frozenset(reads),
                                 min_k, max_k)


def release_plan(method_ids) -> tuple[tuple[str, ...], ...]:
    """Per method of `method_ids`, the large structures to release once it
    has run: each one after its last reader, and `dist` no earlier than the
    first reader of each structure built from it."""
    first, last = {}, {}
    for i, mid in enumerate(method_ids):
        for name in REGISTRY[mid].reads:
            first.setdefault(name, i)
            last[name] = i
    if "dist" in last or any(name in first for name in BUILT_FROM_DIST):
        last["dist"] = max([last.get("dist", 0)] + [
            first[name] for name in BUILT_FROM_DIST if name in first])
    plan = [[] for _ in method_ids]
    for name in LARGE:
        if name in last:
            plan[last[name]].append(name)
    return tuple(map(tuple, plan))


def evaluate(method_id: str, ctx: Context) -> StatValue:
    """Evaluate one method, capturing computational errors as flagged
    missing values instead of raising."""
    method = REGISTRY[method_id]
    if not method.applicable(ctx.ms.k):
        return StatValue(method_id, float("nan"), method.direction,
                         error=f"not applicable for k={ctx.ms.k}")
    try:
        result = method.fn(ctx)
    except Exception as exc:  # captured per repetition, never fatal
        return StatValue(method_id, float("nan"), method.direction,
                         error=f"{type(exc).__name__}: {exc}")
    if isinstance(result, tuple):
        value, flags = result
    else:
        value, flags = result, ()
    if not np.isfinite(value):
        return StatValue(method_id, float("nan"), method.direction,
                         error="non-finite statistic", flags=tuple(flags))
    return StatValue(method_id, float(value), method.direction,
                     flags=tuple(flags))


# ---------------------------------------------------------------------------
# registrations

_register("energy", DISSIMILARITY,
          lambda c: interpoint.energy(c.ms, c.dist), reads={"dist"},
          max_k=99)

for _kind in ("log", "fraca", "fracb"):
    _register(f"bf_{_kind}", DISSIMILARITY,
              lambda c, kind=_kind: interpoint.bf_statistic(c.ms, c.dist,
                                                            kind),
              reads={"dist"})
_register("bahr", DISSIMILARITY,
          lambda c: interpoint.bf_statistic(c.ms, c.dist, "bahr"),
          reads={"dist"})

_register("bg2", DISSIMILARITY, lambda c: interpoint.bg2(c.ms, c.dist),
          reads={"dist"})

for _v in ("f", "b"):
    for _a in (0.5, 1.0, 1.5):
        def _disco_fn(c, v=_v, a=_a):
            r = c.disco(a)
            return r.f_stat if v == "f" else r.between
        _register(f"disco_{_v}_{_a:g}", DISSIMILARITY, _disco_fn,
                  reads={"dist"}, max_k=99)

_register("ds", DISSIMILARITY,
          lambda c: interpoint.ds_rank_energy(c.ms, c.pooled.values),
          reads=())
_register("wasserstein", DISSIMILARITY,
          lambda c: interpoint.wasserstein1(c.ms, c.dist), reads={"dist"})
_register("ball", DISSIMILARITY,
          lambda c: interpoint.ball_divergence(c.ms, c.dist,
                                               c.neighbour_order),
          reads={"dist", "neighbour_order"}, max_k=99)
_register("lhz", DISSIMILARITY,
          lambda c: interpoint.lhz(c.ms, c.pooled.values), reads=())
_register("engineer", DISSIMILARITY,
          lambda c: interpoint.engineer_metric(c.ms), reads=())

for _e in (0.5, 0.8, 0.9):
    _register(f"bg_{_e:g}", DISSIMILARITY,
              lambda c, e=_e: interpoint.bg_partition(c.ms, c.pooled.values,
                                                      e), reads=())


def _graph_reads(spec: str) -> set[str]:
    """The large structure that `Context.graph(spec)` builds its edges
    from."""
    return {"mst_layers" if spec.endswith("mst") else "neighbour_order"}


for _g in ("1mst", "5mst", "1nn", "5nn"):
    for _v, _dir in (("fr", SIMILARITY), ("cf", DISSIMILARITY),
                     ("ccs", DISSIMILARITY)):
        _register(f"{_v}_{_g}", _dir,
                  lambda c, g=_g, v=_v: graphstats.edgecount_test(
                      c.pattern_stats(g), c.ms.sizes, v),
                  reads=_graph_reads(_g))
    for _kap in (1.0, 1.14, 1.31):
        _register(f"zc_{_g}_k{_kap:g}", DISSIMILARITY,
                  lambda c, g=_g, kap=_kap: graphstats.edgecount_test(
                      c.pattern_stats(g), c.ms.sizes, "zc", kappa=kap),
                  reads=_graph_reads(_g))

for _g in ("1mst", "5mst"):
    for _v in ("s", "sa"):
        _register(f"sc_{_g}_{_v}", DISSIMILARITY,
                  lambda c, g=_g, v=_v: graphstats.sc_test(
                      c.pattern_stats(g), c.ms.sizes, v),
                  reads=_graph_reads(_g), max_k=99)

for _k in (1, 5):
    _register(f"sh_{_k}nn", DISSIMILARITY,
              lambda c, k=_k: graphstats.sh_statistic(
                  c.graph(f"{k}nn"), c.labels), reads={"neighbour_order"})
_register("bqs", DISSIMILARITY,
          lambda c: graphstats.bqs_statistic(c.neighbour_order, c.labels),
          reads={"neighbour_order"})

_register("rosenbaum", SIMILARITY,
          lambda c: graphstats.rosenbaum_statistic(
              c.pattern_stats("matching")), reads={"matching"})
_register("petrie", SIMILARITY,
          lambda c: graphstats.petrie_statistic(
              c.pattern_stats("matching"), c.ms.sizes),
          reads={"matching"}, max_k=99)
_register("mmcm", DISSIMILARITY,
          lambda c: graphstats.mmcm_statistic(
              c.pattern_stats("matching"), c.ms.sizes),
          reads={"matching"}, max_k=4)

for _g in ("1nn", "5nn", "heuristic_nn"):
    _register(f"kmd_{_g}", DISSIMILARITY,
              lambda c, g=_g: graphstats.kmd_statistic(
                  c.graph(g), c.labels, c.ms.sizes),
              reads=_graph_reads(_g), max_k=99)


def _kmd_mst(c):
    e = c.graph("1mst")
    return graphstats.kmd_statistic(np.concatenate([e, e[:, ::-1]]),
                                    c.labels, c.ms.sizes)


_register("kmd_mst", DISSIMILARITY, _kmd_mst, reads={"mst_layers"},
          max_k=99)

_register("mmd", DISSIMILARITY,
          lambda c: (kernelstats.mmd_ustat(c.gram, c.ms.sizes), c.gram.flags),
          reads={"gram"})
_register("blockmmd", DISSIMILARITY,
          lambda c: (kernelstats.block_mmd(c.ms, c.gram), c.gram.flags),
          reads={"gram"})
for _v in ("gpk", "zd", "zw1", "zw2"):
    _register("gpk" if _v == "gpk" else f"gpk_{_v}", DISSIMILARITY,
              lambda c, v=_v: (kernelstats.gpk_statistic(c.gpk, v),
                               c.gram.flags), reads={"gram"})

# Clustering tests: the discordance statistics (RI family) point down under
# alternatives (perfect clustering gives zero), so they carry the
# similarity direction; the FS family points up.
_FS_DIR = {"fs": DISSIMILARITY, "mfs": DISSIMILARITY, "msfs": DISSIMILARITY,
           "afs": DISSIMILARITY, "ri": SIMILARITY, "mri": SIMILARITY,
           "msri": SIMILARITY, "ari": SIMILARITY}


def _fsri_fn(variant, psi, h, ms_clusters=None):
    """fs / ri cluster into the k samples, mfs / mri into a swept count,
    the multi-scale msfs / msri into `ms_clusters`."""
    cfg = clusterstats.MaddConfig(psi, h)
    ri = _FS_DIR[variant] == SIMILARITY
    sweep = variant in ("mfs", "mri")

    def fn(c):
        rng = c.method_rng(f"{variant}_{cfg.psi}_{cfg.h}_{ms_clusters}")
        ell = None if sweep else ms_clusters or c.ms.k
        return clusterstats.fs_ri_statistic(c.madd(cfg), c.labels, ell, ri,
                                            rng)
    return fn


for _variant in ("fs", "ri", "mfs", "mri"):
    for _psi in clusterstats.PSI_KINDS:
        for _hh in clusterstats.H_KINDS:
            _register(f"{_variant}_{_psi}_{_hh}", _FS_DIR[_variant],
                      _fsri_fn(_variant, _psi, _hh), reads={"madd"},
                      max_k=99)

for _variant in ("msfs", "msri"):
    for _psi in ("psi2", "psi3"):
        for _hh in clusterstats.H_KINDS:
            for _kp in (1, 2, 3, 4, 5, 6, 7):
                _register(f"{_variant}_{_psi}_{_hh}_k{_kp}",
                          _FS_DIR[_variant],
                          _fsri_fn(_variant, _psi, _hh, ms_clusters=_kp + 1),
                          reads={"madd"}, min_k=4, max_k=99)

def _aggregated_fn(variant, mode, psi):
    cfg = clusterstats.MaddConfig(psi, "h1")
    ri = _FS_DIR[variant] == SIMILARITY

    def fn(c):
        # lazy, so that a failing pair stops the statistic before the next
        # pair's MADD is built
        rhos = (c.madd(cfg, pair)
                for pair in combinations(range(1, c.ms.k + 1), 2))
        # the rng tag keeps _fsri_fn's "{variant}_{psi}_{h}_{clusters}" form
        return clusterstats.aggregated_fs_ri_statistic(
            rhos, c.labels, mode == "est", ri,
            c.method_rng(f"{variant}_{mode}_{psi}_h1_None"))
    return fn


for _variant in ("afs", "ari"):
    for _mode in ("knw", "est"):
        for _psi in ("psi2", "psi3"):
            _register(f"{_variant}_{_mode}_{_psi}_h1", _FS_DIR[_variant],
                      _aggregated_fn(_variant, _mode, _psi),
                      reads={"madd"}, min_k=3, max_k=99)

_register("c2st_knn", DISSIMILARITY,
          lambda c: clusterstats.c2st_knn(c.neighbour_order, c.labels,
                                          c.method_rng("c2st_knn")),
          reads={"neighbour_order"}, max_k=99)
_register("ymrzl", SIMILARITY,
          lambda c: clusterstats.ymrzl(c.pooled.values, c.labels,
                                       c.method_rng("ymrzl")), reads=())
for _u in ("md", "t", "auc"):
    _register(f"diproperm_{_u}", DISSIMILARITY,
              lambda c, u=_u: clusterstats.diproperm(c.ms, u), reads=())


# Curated default method sets: one entry per method family and
# pre-selected variant, mirroring the study's choices.
DEFAULT_TWO_SAMPLE = (
    "energy", "bf_log", "bf_fraca", "bf_fracb", "bahr", "bg2",
    "disco_f_0.5", "disco_b_0.5", "ds", "wasserstein", "ball", "lhz",
    "engineer", "bg_0.8",
    "fr_1mst", "fr_5mst", "cf_5mst", "ccs_5mst",
    "zc_5mst_k1", "zc_5mst_k1.31",
    "sc_5mst_s", "sc_5mst_sa",
    "sh_1nn", "sh_5nn", "bqs",
    "rosenbaum", "petrie", "mmcm",
    "kmd_heuristic_nn", "kmd_mst",
    "mmd", "blockmmd", "gpk", "gpk_zd", "gpk_zw1", "gpk_zw2",
    "fs_psi2_h1", "fs_psi3_h1", "mfs_psi3_h1", "ri_psi2_h1", "mri_psi2_h1",
    "c2st_knn", "ymrzl", "diproperm_md", "diproperm_t", "diproperm_auc",
)

DEFAULT_FOUR_SAMPLE = (
    "energy", "disco_f_0.5", "disco_b_0.5", "ball",
    "sc_5mst_s", "sc_5mst_sa", "petrie", "mmcm",
    "kmd_heuristic_nn", "kmd_mst",
    "fs_psi2_h1", "fs_psi3_h1", "mfs_psi3_h1", "ri_psi2_h1", "mri_psi2_h1",
    "msfs_psi3_h1_k4", "msri_psi3_h2_k7",
    "afs_knw_psi2_h1", "ari_knw_psi2_h1",
    "c2st_knn",
)


def default_methods(k: int) -> tuple[str, ...]:
    if k == 2:
        return DEFAULT_TWO_SAMPLE
    return DEFAULT_FOUR_SAMPLE
