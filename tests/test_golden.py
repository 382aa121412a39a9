"""Regression test against committed `simulate` dumps.

tests/data/golden_two holds N=20, 2 repetitions of a balanced null and an
unbalanced shift scenario (where wasserstein records an error) for
DEFAULT_TWO_SAMPLE; tests/data/golden_four a four-sample null for
DEFAULT_FOUR_SAMPLE.  Each was written by `dsbench simulate --seed 1`
on the config its manifest records (methods, reps, scenario specs).  A
refactor must reproduce the error strings exactly and every value within a
relative tolerance of 1e-9.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from dsbench.cli import main

DATA = Path(__file__).parent / "data"


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", ["golden_two", "golden_four"])
def test_simulate_matches_golden_dump(tmp_path, name):
    golden = DATA / name
    manifest = json.loads((golden / "manifest.json").read_text())
    config = {"methods": manifest["methods"], "reps": manifest["reps"],
              "scenarios": [s["spec"] for s in manifest["scenarios"]]}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    rc = main(["simulate", "--config", str(tmp_path / "cfg.json"),
               "--seed", str(manifest["seed"]), "--out", str(tmp_path / "d")])
    assert rc == 0
    assert json.loads((tmp_path / "d" / "manifest.json").read_text()) \
        == manifest
    for entry in manifest["scenarios"]:
        expected = read_rows(golden / entry["file"])
        actual = read_rows(tmp_path / "d" / entry["file"])
        assert actual[0] == expected[0]
        assert len(actual) == len(expected)
        for exp, act in zip(expected[1:], actual[1:]):
            rep, method, value, error = exp
            assert act[:2] == [rep, method]
            assert act[3] == error, (entry["file"], rep, method)
            if value == "NA":
                assert act[2] == "NA", (entry["file"], rep, method)
            else:
                assert math.isclose(float(act[2]), float(value),
                                    rel_tol=1e-9), (entry["file"], rep, method)
