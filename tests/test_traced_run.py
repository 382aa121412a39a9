"""A traced `simulate` + `report` run counts each shared build once per
repetition.

perfbench's tracer finds the shared structures by the module-level names
that `Context` calls (`dsbench.methods.knn_graph`, `min_weight_matching`,
...).  A `Context` that stopped calling one of them would zero its layer
metric while every other test still passed; this run catches that.  The
tracer is loaded from `perfbench/tracing.py` by file path, so nothing from
perfbench goes on the import path.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

from dsbench.cli import main

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name, monkeypatch):
    """Import perfbench/<name>.py as `name` until the test ends (tracing.py
    imports its sibling as `workloads`)."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_shared_builds_once_per_repetition(tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    tracing = _load("tracing", monkeypatch)
    # N=20 p=2, null and shift 0.5, the 46 two-sample methods, one rep
    config = workloads.build_config("two_n100_matching", tiny=True)
    assert len(config["methods"]) == 46
    assert [s["n_total"] for s in config["scenarios"]] == [20, 20]
    (tmp_path / "config.json").write_text(json.dumps(config))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        assert main(["simulate", "--config", str(tmp_path / "config.json"),
                     "--seed", "1", "--out", str(tmp_path / "dump")]) == 0
        t1 = time.perf_counter()
        assert main(["report", "--dump", str(tmp_path / "dump"),
                     "--out", str(tmp_path / "report")]) == 0
        t2 = time.perf_counter()
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics(t1 - t0, t2 - t1)
    # `simulate --jobs 1` calls `cli.run_scenario` once per scenario, in
    # process, so its repetitions are traced under their scenario index
    assert tracer.counts["harness.run_scenario"] == 2
    assert tracer.rep_ids == [(0, 0), (1, 0)]
    assert metrics["harness.reps"] == 2
    assert metrics["graphs.knn_calls"] == 1
    assert metrics["graphs.knn_uncached_calls"] == 0
    assert metrics["graphs.matching_calls"] == 1
    assert metrics["clusterstats.madd_distinct"] == 2
