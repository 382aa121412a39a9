"""Smoke test of the benchmark itself: every workload's code path at a tiny
size, untraced and traced, must print every metric BENCHMARK.json names.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in named})


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk_n50_grid", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _fake_run(tmp_path, pesr_values, extra_rows=0):
    """A work directory holding a one-scenario-pair dump and its report."""
    config = {"methods": ["energy"], "reps": 1, "scenarios": [
        {"deviation": "null"}, {"deviation": "shift"}]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "dump").mkdir()
    (tmp_path / "report").mkdir()
    files = []
    for index in range(2):
        name = f"scenario_{index:04d}.csv"
        rows = ["repetition,method,value,error"]
        rows += ["0,energy,0.5,"] * (1 + extra_rows)
        (tmp_path / "dump" / name).write_text("\n".join(rows) + "\n")
        files.append({"file": name})
    (tmp_path / "dump" / "manifest.json").write_text(
        json.dumps({"scenarios": files}))
    with open(tmp_path / "report" / "pesr.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "pesr"])
        writer.writerows(["energy", v] for v in pesr_values)
    return tmp_path


def test_gate_accepts_valid_dump(tmp_path):
    run.check_dump(_fake_run(tmp_path, ["0.25"]))


@pytest.mark.parametrize("pesr, extra_rows", [
    (["1.5"], 0), (["-0.1"], 0), (["0.5", "0.5"], 0), (["NA"], 1)])
def test_gate_rejects_bad_dump(tmp_path, pesr, extra_rows):
    with pytest.raises(run.GateError):
        run.check_dump(_fake_run(tmp_path, pesr, extra_rows))
