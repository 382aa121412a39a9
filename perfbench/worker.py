"""One benchmark process: set up dsbench, run `dsbench simulate` and
`dsbench report` once through the CLI entry point, write `result.json`.

Usage: python3 perfbench/worker.py JOB_JSON

run.py starts each worker in a fresh interpreter, so set-up time includes
the imports a user pays on every invocation.  Set-up is measured from the
moment run.py spawned the process, on the system-wide monotonic clock.
"""

import json
import resource
import sys
import time
from pathlib import Path


def warm_up(config: dict, seed: int) -> None:
    """One untimed N=20 repetition of every method of the workload."""
    from dsbench.datagen import ScenarioSpec
    from dsbench.harness import run_scenario

    p = config["scenarios"][0]["p"]
    run_scenario(ScenarioSpec("normal", "null", 0.0, 20, p, "balanced"),
                 config["methods"], 1, seed)


def matching_weights(config: dict, seed: int):
    """Weights of dsbench's and networkx's minimum-weight perfect matching
    on the first repetition of the first scenario, drawn as the harness
    draws it."""
    import networkx as nx
    from dsbench.core import distance_matrix, pool
    from dsbench.datagen import ScenarioSpec, rng_for, sample_scenario
    from dsbench.graphs import min_weight_matching

    spec = ScenarioSpec.from_dict(config["scenarios"][0])
    pooled, _ = pool(sample_scenario(spec, rng_for(seed, 0, 0)))
    dist = distance_matrix(pooled)
    n = dist.shape[0]
    graph = nx.Graph()
    graph.add_weighted_edges_from(
        (i, j, dist[i, j]) for i in range(n) for j in range(i + 1, n))
    reference = sum(dist[i, j] for i, j in nx.min_weight_matching(graph))
    return min_weight_matching(dist).weight, float(reference)


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    import dsbench
    import dsbench._blossom

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dsbench": dsbench.__version__,
        "dsbench_path": str(Path(dsbench.__file__).parent),
        "numba": importlib.util.find_spec("numba") is not None,
        # a numba dispatcher keeps the Python function as .py_func
        "blossom_compiled": hasattr(
            dsbench._blossom.max_weight_matching_dense, "py_func"),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    work = Path(job["dir"])
    import dsbench.cli

    import workloads
    config = workloads.build_config(job["workload"], tiny=job["tiny"])
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    warm_up(config, job["seed"])
    setup_s = time.monotonic() - job["spawned_at"]

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    dump, report = work / "dump", work / "report"
    t0 = time.perf_counter()
    rc_simulate = dsbench.cli.main(
        ["simulate", "--config", str(config_path), "--seed",
         str(job["seed"]), "--out", str(dump), "--jobs", "1"])
    t1 = time.perf_counter()
    rc_report = dsbench.cli.main(
        ["report", "--dump", str(dump), "--out", str(report)])
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    if rc_simulate or rc_report:
        print(f"simulate exited {rc_simulate}, report exited {rc_report}",
              file=sys.stderr)
        return 1

    result = {
        "setup_s": setup_s,
        "simulate_s": t1 - t0,
        "report_s": t2 - t1,
        "wall_s": t2 - t0,
        "scenario_reps": len(config["scenarios"]) * config["reps"],
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"], result["shares"] = tracer.metrics(t1 - t0, t2 - t1)
        result["errors_by_type"] = dict(tracer.errors)
        result["flags"] = dict(tracer.flags)
        tracer.write(work / "spans.jsonl")
    if job["check_matching"]:
        result["matching_weights"] = matching_weights(config, job["seed"])
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
