#!/usr/bin/env python3
"""Desk-scale end-to-end run: build a scenario config, simulate, report.

Writes the scenario dumps and aggregate tables under --out and prints the
greedy method-combination summary.  The full-paper grid is enormous; this
driver runs the thinned desk grid by default (see --full).
"""

import argparse
import json
import sys
from pathlib import Path

from dsbench.cli import main as cli_main
from dsbench.datagen import scenario_grid
from dsbench.methods import default_methods


def build_config(case: str, reps: int, full: bool, max_scenarios: int | None,
                 dgp: str | None = None, max_n: int | None = None):
    specs = scenario_grid(case, full=full)
    if dgp is not None:
        specs = [s for s in specs if s.dgp == dgp]
    if max_n is not None:
        specs = [s for s in specs if s.n_total <= max_n]
    if max_scenarios is not None:
        specs = specs[:max_scenarios]
    k = 4 if case == "four_sample" else 2
    return {
        "methods": list(default_methods(k)),
        "reps": reps,
        "scenarios": [s.to_dict() for s in specs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="two_sample",
                        choices=["two_sample", "four_sample"])
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default="desk_run")
    parser.add_argument("--full", action="store_true",
                        help="use the full factorial grid instead of the "
                             "thinned desk grid")
    parser.add_argument("--max-scenarios", type=int, default=None,
                        help="truncate the grid (smoke runs)")
    parser.add_argument("--dgp", default=None,
                        choices=["normal", "t3", "lognormal", "chisq1"],
                        help="restrict to one distribution family")
    parser.add_argument("--max-n", type=int, default=None,
                        help="drop scenarios with larger total sample size")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = build_config(args.case, args.reps, args.full, args.max_scenarios,
                          dgp=args.dgp, max_n=args.max_n)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    print(f"{len(config['scenarios'])} scenarios x {args.reps} reps, "
          f"{len(config['methods'])} methods")

    rc = cli_main(["simulate", "--config", str(cfg_path),
                   "--seed", str(args.seed), "--out", str(out / "dump"),
                   "--jobs", str(args.jobs)])
    if rc != 0:
        return rc
    rc = cli_main(["report", "--dump", str(out / "dump"),
                   "--out", str(out / "report")])
    if rc != 0:
        return rc

    cover = json.loads((out / "report" / "cover.json").read_text())
    print("\ngreedy method combination (cumulative coverage):")
    for step in cover:
        print(f"  {step['method']:24s} +{step['new_groups']:3d} "
              f"-> {step['cumulative_coverage']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
