"""The benchmark's workloads: the `dsbench simulate` configs they generate.

Method lists and scenario sets are pinned here, not read from the program,
so a change to the program's defaults or grids cannot silently change what
a workload measures.  The desk grid is generated through the public
`scenario_grid` and checked against a pinned digest for the same reason.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# dsbench.methods.DEFAULT_TWO_SAMPLE, in order, at the commit that defined
# the benchmark.
TWO_SAMPLE_46 = (
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
MATCHING_METHODS = ("rosenbaum", "petrie", "mmcm")
NO_MATCHING_43 = tuple(m for m in TWO_SAMPLE_46 if m not in MATCHING_METHODS)

# Statistic family of each method, for the per-family self-time sums.
FAMILY = {}
for _family, _ids in (
        ("interpoint", ("energy", "bf_log", "bf_fraca", "bf_fracb", "bahr",
                        "bg2", "disco_f_0.5", "disco_b_0.5", "ds",
                        "wasserstein", "ball", "lhz", "engineer", "bg_0.8")),
        ("graphstats", ("fr_1mst", "fr_5mst", "cf_5mst", "ccs_5mst",
                        "zc_5mst_k1", "zc_5mst_k1.31", "sc_5mst_s",
                        "sc_5mst_sa", "sh_1nn", "sh_5nn", "bqs", "rosenbaum",
                        "petrie", "mmcm", "kmd_heuristic_nn", "kmd_mst")),
        ("kernelstats", ("mmd", "blockmmd", "gpk", "gpk_zd", "gpk_zw1",
                         "gpk_zw2")),
        ("clusterstats", ("fs_psi2_h1", "fs_psi3_h1", "mfs_psi3_h1",
                          "ri_psi2_h1", "mri_psi2_h1", "c2st_knn", "ymrzl",
                          "diproperm_md", "diproperm_t", "diproperm_auc"))):
    for _mid in _ids:
        FAMILY[_mid] = _family
FAMILIES = ("interpoint", "graphstats", "kernelstats", "clusterstats")

# sha256 of the canonical JSON of the 156 N=50 two-sample desk scenarios.
DESK_N50_DIGEST = (
    "02bbcf19af9c9bef4e6222d80026a476f279a94861d03b257c1c88c83cbeae0f")


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    reps: int
    check_matching: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("two_n100_matching", TWO_SAMPLE_46, reps=4,
             check_matching=True),
    Workload("two_n500_nomatch", NO_MATCHING_43, reps=1),
    Workload("desk_n50_grid", NO_MATCHING_43, reps=1),
)}


def _two_sample(deviation, magnitude, n_total, p):
    return {"dgp": "normal", "deviation": deviation, "magnitude": magnitude,
            "n_total": n_total, "p": p, "balance": "balanced", "k": 2,
            "grouping": "1+1", "with_target": False}


def _desk_n50(tiny: bool) -> list[dict]:
    from dsbench.datagen import scenario_grid

    specs = [s.to_dict() for s in scenario_grid("two_sample")
             if s.n_total == 50]
    digest = hashlib.sha256(
        json.dumps(specs, sort_keys=True).encode()).hexdigest()
    if digest != DESK_N50_DIGEST:
        raise RuntimeError(
            "scenario_grid('two_sample') no longer yields the pinned N=50 "
            f"desk scenarios (sha256 {digest})")
    if tiny:
        first = specs[0]
        specs = [s for s in specs
                 if (s["dgp"], s["p"], s["balance"])
                 == (first["dgp"], first["p"], first["balance"])]
    return specs


def build_config(name: str, tiny: bool = False) -> dict:
    """The `dsbench simulate` config of a workload.  `tiny` shrinks it to a
    size the smoke test runs in seconds while keeping its code path."""
    w = WORKLOADS[name]
    if name == "two_n100_matching":
        n, p = (20, 2) if tiny else (100, 2)
        scenarios = [_two_sample("null", 0.0, n, p),
                     _two_sample("shift", 0.5, n, p)]
    elif name == "two_n500_nomatch":
        n, p = (30, 10) if tiny else (500, 10)
        scenarios = [_two_sample("null", 0.0, n, p),
                     _two_sample("shift", 0.5, n, p)]
    else:
        scenarios = _desk_n50(tiny)
    return {"methods": list(w.methods), "reps": 1 if tiny else w.reps,
            "scenarios": scenarios}
