"""Layered benchmark of dsbench's `simulate` + `report` pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The second form runs every workload in both modes and prints every metric
as a table before the combined JSON.

Every workload runs through the public CLI path (`dsbench simulate` then
`dsbench report`) in fresh worker processes with `--jobs 1` and BLAS
threads pinned to one.  The seed is passed to `simulate`; the workload
itself is a fixed config (see workloads.py).

--trace 0  untraced workers run one after another for about S seconds,
           at least three; the last line of standard output holds the
           end-to-end metrics as medians over the workers.
--trace 1  one untraced and one traced worker; the last line holds the
           per-layer metrics of the traced one (see tracing.py).

The workers' dumps must pass the correctness gates (row counts, PESR range,
identical bytes across workers, traced and untraced, and for the matching
workload the matching weight against networkx).  A failed gate exits 1
without metrics; missing dsbench sources exit 2.  Outputs of the last run of
each workload stay in `.perfbench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_WORKERS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
MATCHING_TOLERANCE = 1e-9


class GateError(Exception):
    """A correctness gate failed."""


def run_worker(work: Path, job: dict, timeout: float) -> dict:
    work.mkdir(parents=True)
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    job = dict(job, dir=str(work), spawned_at=time.monotonic())
    (work / "job.json").write_text(json.dumps(job))
    with open(work / "stdout.txt", "w") as out, \
            open(work / "stderr.txt", "w") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
            cwd=ROOT, env=env, stdout=out, stderr=err, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write((work / "stderr.txt").read_text()[-4000:])
        raise GateError(f"worker in {work} exited {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def dump_digest(dump: Path) -> str:
    """sha256 over the manifest and the scenario CSVs, in name order."""
    h = hashlib.sha256()
    names = ["manifest.json"] + sorted(
        p.name for p in dump.glob("scenario_*.csv"))
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((dump / name).read_bytes())
    return h.hexdigest()


def check_dump(work: Path) -> None:
    """Row counts of the dump and the PESR range of the report."""
    config = json.loads((work / "config.json").read_text())
    manifest = json.loads((work / "dump" / "manifest.json").read_text())
    n_methods = len(config["methods"])
    if len(manifest["scenarios"]) != len(config["scenarios"]):
        raise GateError("dump has the wrong number of scenarios")
    rows = 0
    for entry in manifest["scenarios"]:
        with open(work / "dump" / entry["file"], encoding="utf-8") as fh:
            rows += sum(1 for _ in fh) - 1
    expected = len(config["scenarios"]) * config["reps"] * n_methods
    if rows != expected:
        raise GateError(f"dump has {rows} rows, expected {expected}")
    n_alt = sum(s["deviation"] != "null" for s in config["scenarios"])
    with open(work / "report" / "pesr.csv", encoding="utf-8") as fh:
        pesr = [row["pesr"] for row in csv.DictReader(fh)]
    if len(pesr) != n_alt * n_methods:
        raise GateError(f"pesr.csv has {len(pesr)} rows, "
                        f"expected {n_alt * n_methods}")
    bad = [v for v in pesr if v != "NA" and not 0.0 <= float(v) <= 1.0]
    if bad:
        raise GateError(f"PESR outside [0, 1]: {bad[:5]}")


def check_run(works: list[Path], results: list[dict]) -> None:
    check_dump(works[0])
    digests = {dump_digest(w / "dump") for w in works}
    if len(digests) != 1:
        raise GateError("dumps differ at the same seed between "
                        + ", ".join(w.name for w in works))
    for work, result in zip(works, results):
        src = str((ROOT / "src" / "dsbench").resolve())
        if result["environment"]["dsbench_path"] != src:
            raise GateError(f"{work} imported dsbench from "
                            f"{result['environment']['dsbench_path']}")
        if "matching_weights" in result:
            ours, reference = result["matching_weights"]
            if abs(ours - reference) > MATCHING_TOLERANCE:
                raise GateError(f"matching weight {ours!r} differs from "
                                f"networkx {reference!r}")


def host_environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        # the ceiling keeps git from finding a repository above the root
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"git_commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": model,
            "blas_threads": BLAS_THREADS}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Run one benchmark invocation; returns the result line's object."""
    start = time.monotonic()
    out = ROOT / ".perfbench_out" / workload
    shutil.rmtree(out, ignore_errors=True)
    job = {"workload": workload, "seed": seed, "tiny": tiny,
           "check_matching": WORKLOADS[workload].check_matching}
    works, results = [], []

    def add(traced: bool) -> None:
        work = out / f"w{len(works)}{'_traced' if traced else ''}"
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - start))
        results.append(run_worker(work, dict(job, trace=traced), timeout))
        works.append(work)
        job["check_matching"] = False  # once per run is enough

    if trace:
        add(False)
        add(True)
    else:
        # Start another worker while it would end nearer to S seconds than
        # stopping now does, so a run overshoots S by at most half a worker.
        last = 0.0
        while (len(works) < MIN_WORKERS
               or time.monotonic() - start + last / 2 < seconds):
            t = time.monotonic()
            add(False)
            last = time.monotonic() - t
    check_run(works, results)

    untraced = results[:1] if trace else results
    if trace:
        metrics = dict(results[-1]["layers"])
        metrics["trace.overhead_frac"] = (
            results[-1]["wall_s"] / untraced[0]["wall_s"] - 1.0)
        from tracing import PER_LAYER
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "reps_per_s": statistics.median(
                r["scenario_reps"] / r["simulate_s"] for r in results),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in results),
        }
        units = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s",
                 "peak_rss_mb": "MB"}
    environment = dict(results[0]["environment"], **host_environment())
    record = {"workload": workload, "seed": seed, "trace": trace,
              "environment": environment, "workers": results}
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": environment}))
    if trace:
        top = sorted(results[-1]["shares"].items(), key=lambda kv: -kv[1])
        print(json.dumps({"shares_of_rep_time": dict(top[:8]),
                          "errors_by_type": results[-1]["errors_by_type"],
                          "flags": results[-1]["flags"]}))
    return {"correct": True,
            "attempted": sum(r["scenario_reps"] for r in untraced),
            "failed": 0,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "both when omitted")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: same code path, seconds long")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dsbench" / "cli.py").is_file():
        print(f"error: no dsbench sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    try:
        for name in names:
            for mode in modes:
                results[f"{name}/trace{mode}"] = run(
                    name, args.seed, args.seconds, bool(mode),
                    tiny=args.tiny)
    except (GateError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(*results.values()))
        return 0
    for key, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{key:26s} {metric:36s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
