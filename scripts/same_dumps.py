#!/usr/bin/env python3
"""Check that two source trees write byte-identical `simulate` dumps and
`report` files.

Usage: python scripts/same_dumps.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `dsbench` package (a checkout's
`src`).  The script runs `python -m dsbench.cli simulate --seed 1`, then
`report` on that dump, with each as PYTHONPATH, in a temporary directory,
on six configs:

- the two golden configs, rebuilt from their committed manifests;
- the three perfbench workload configs (`perfbench/workloads.py`);
- a 12-scenario four-sample config: N=100, p 2 and 10, both balances, and
  a null `3+1`, a shift 0.5 `2+2` and a scale 2 `1+1+1+1` scenario, at 3
  repetitions of the golden four-sample methods.

It prints one line per config and exits 1 if any file's sha256 or the
`report` exit code differs between the two trees, or if a `simulate` run
fails.  `golden_two` has no null, so its `report` exits 3 and writes
nothing.  The configs are built with PARENT_SRC's `dsbench` (the desk grid
needs its `scenario_grid`).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def configs() -> dict:
    """Config name -> `simulate` config."""
    from perfbench.workloads import WORKLOADS, build_config

    out = {}
    for name in ("golden_two", "golden_four"):
        manifest = json.loads(
            (ROOT / "tests" / "data" / name / "manifest.json").read_text())
        out[name] = {"methods": manifest["methods"], "reps": manifest["reps"],
                     "scenarios": [s["spec"] for s in manifest["scenarios"]]}
    for name in WORKLOADS:
        out[name] = build_config(name)
    out["four_n100"] = {
        "methods": out["golden_four"]["methods"], "reps": 3,
        "scenarios": [
            {"dgp": "normal", "deviation": deviation, "magnitude": magnitude,
             "n_total": 100, "p": p, "balance": balance, "k": 4,
             "grouping": grouping, "with_target": False}
            for p in (2, 10) for balance in ("balanced", "unbalanced")
            for deviation, magnitude, grouping in (
                ("null", 0.0, "3+1"), ("shift", 0.5, "2+2"),
                ("scale", 2.0, "1+1+1+1"))]}
    return out


def digests(out: Path) -> dict:
    """sha256 of each file under `out`; none if there is no `out`."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} if out.is_dir() else {}


def run_side(src: Path, config: Path, out: Path):
    """(dump digests, report exit code, report digests) of `simulate` and
    `report` under `out` with `src` as PYTHONPATH; None, after printing
    why, if `simulate` fails."""
    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "dsbench.cli", *args],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})

    run = cli("simulate", "--config", str(config), "--seed", "1",
              "--out", str(out / "dump"))
    if run.returncode != 0:
        print(f"{config.stem}: simulate under {src} exited "
              f"{run.returncode}: {run.stderr.strip()}")
        return None
    report = cli("report", "--dump", str(out / "dump"),
                 "--out", str(out / "report"))
    return digests(out / "dump"), report.returncode, digests(out / "report")


def differing(a: dict, b: dict) -> str | None:
    """None if the two digest maps are equal, else what differs."""
    bad = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
    if bad:
        return (f"{len(bad)} of {len(a.keys() | b.keys())} files differ, "
                f"the first {bad[0]}")
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: same_dumps.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    sys.path[:0] = [str(parent), str(ROOT)]
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, config in configs().items():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(config))
            a = run_side(parent, path, tmp / name / "parent")
            b = run_side(change, path, tmp / name / "change")
            if a is None or b is None:
                same = False
                continue
            dump = differing(a[0], b[0])
            report = (f"exits {a[1]} vs {b[1]}" if a[1] != b[1]
                      else differing(a[2], b[2]))
            same = same and not (dump or report)
            dump = dump or f"{len(a[0])} files identical"
            report = report or f"exits {a[1]}, {len(a[2])} files identical"
            print(f"{name}: dump {dump}; report {report}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
