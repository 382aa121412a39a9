import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import pytest

import dsbench
from dsbench.cli import _load_results, main
from dsbench.datagen import GRIDS, ScenarioSpec
from dsbench.methods import DEFAULT_TWO_SAMPLE


def write_config(path: Path, scenarios, methods, reps=10):
    config = {"methods": list(methods), "reps": reps,
              "scenarios": [s.to_dict() for s in scenarios]}
    path.write_text(json.dumps(config))
    return str(path)


def null_spec(**kw):
    base = dict(dgp="normal", deviation="null", magnitude=0.0, n_total=20,
                p=2, balance="balanced")
    base.update(kw)
    return ScenarioSpec(**base)


def simulate_losing_workers(tmp_path: Path, cfg: str, jobs: str):
    """(exit code, stderr) of `simulate --jobs jobs` on `cfg`, run in a
    subprocess with method `lose_worker` registered: it SIGKILLs its own
    process when that is a pool worker.  Fails the test if the run has not
    ended within 30 s."""
    code = textwrap.dedent("""
        import multiprocessing, os, signal, sys
        from dsbench.cli import main
        from dsbench.core import DISSIMILARITY
        from dsbench.methods import _register

        def lose_worker(ctx):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return 0.0

        _register("lose_worker", DISSIMILARITY, lose_worker, reads=())
        sys.exit(main(sys.argv[1:]))
    """)
    src = str(Path(dsbench.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "simulate", "--config", cfg,
         "--seed", "1", "--out", str(tmp_path / "d"), "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "PYTHONPATH": src})
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("simulate did not end within 30 s")
    return proc.returncode, err


@pytest.fixture
def minimal_config(tmp_path):
    return write_config(
        tmp_path / "cfg.json",
        [null_spec(), null_spec(deviation="shift", magnitude=1.5)],
        ["energy", "engineer"])


class TestSimulate:
    def test_minimal_run_row_counts(self, tmp_path, minimal_config):
        rc = main(["simulate", "--config", minimal_config, "--seed", "1",
                   "--out", str(tmp_path / "dump")])
        assert rc == 0
        lines = (tmp_path / "dump" / "scenario_0000.csv").read_text().strip()
        rows = lines.splitlines()
        assert rows[0] == "repetition,method,value,error"
        assert len(rows) == 1 + 10 * 2

    def test_unknown_method_exit_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", [null_spec()], ["foo"])
        rc = main(["simulate", "--config", cfg, "--seed", "1",
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_config_is_a_directory_exit_two(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path), "--seed", "1",
                   "--out", str(tmp_path / "d")])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_out_is_a_file_exit_two(self, tmp_path, capsys, minimal_config):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["simulate", "--config", minimal_config, "--seed", "1",
                   "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["methods", "scenarios"])
    def test_missing_key_exit_two(self, tmp_path, capsys, key):
        config = {"methods": ["energy"], "reps": 2,
                  "scenarios": [null_spec().to_dict()]}
        del config[key]
        (tmp_path / "c.json").write_text(json.dumps(config))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text('{"methods": [')
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_overlong_integer_exit_two(self, tmp_path, capsys):
        # json refuses to convert an integer of more than 4300 digits
        scenario = json.dumps(null_spec().to_dict()).replace(
            '"n_total": 20', '"n_total": ' + "9" * 5000)
        (tmp_path / "c.json").write_text(
            '{"methods": ["energy"], "scenarios": [' + scenario + "]}")
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "c.json is not valid JSON" in capsys.readouterr().err

    def test_unknown_scenario_key_exit_two(self, tmp_path, capsys):
        scenario = dict(null_spec().to_dict(), colour="red")
        (tmp_path / "c.json").write_text(json.dumps(
            {"methods": ["energy"], "reps": 2, "scenarios": [scenario]}))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "'colour'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_total", "abc"), ("n_total", 20.0), ("n_total", True),
        ("p", "abc"), ("magnitude", "abc"), ("magnitude", False),
        ("dgp", 1), ("deviation", None), ("balance", ["balanced"]),
        ("k", "2"), ("grouping", 11), ("with_target", 0)])
    def test_bad_scenario_field_type_exit_two(self, tmp_path, capsys, key,
                                              value):
        scenario = dict(null_spec().to_dict(), **{key: value})
        (tmp_path / "c.json").write_text(json.dumps(
            {"methods": ["energy"], "reps": 2, "scenarios": [scenario]}))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("fields, key", [
        (dict(n_total=0), "n_total"), (dict(p=-1), "p"),
        (dict(deviation="shift", magnitude=float("nan")), "magnitude"),
        (dict(deviation="scale", magnitude=0.0), "magnitude"),
        (dict(deviation="normal_vs_t", magnitude=2.0), "magnitude"),
        (dict(deviation="normal_vs_t", magnitude=1.0), "magnitude"),
        (dict(dgp="t3", deviation="kurtosis", magnitude=1.5), "magnitude"),
        (dict(dgp="chisq1", deviation="skew_kurtosis", magnitude=0.0),
         "magnitude"),
        (dict(deviation="correlation", magnitude=-0.5, p=10), "magnitude"),
        # in range, but the equicorrelation matrix has no Cholesky factor
        (dict(deviation="correlation", magnitude=0.9999999999999999, p=50),
         "magnitude"),
        # integers beyond the float range
        (dict(deviation="shift", magnitude=10 ** 400), "magnitude"),
        (dict(deviation="shift", magnitude=0.5, n_total=10 ** 400),
         "n_total"),
        (dict(deviation="correlation", magnitude=0.1, p=10 ** 400), "p"),
        # arrays beyond MAX_ENTRIES: the p x p factor, the N x p draw and
        # the N x N distance matrix
        (dict(deviation="correlation", magnitude=0.1, p=10 ** 9), "p"),
        (dict(deviation="shift", magnitude=0.5, p=10 ** 12), "p"),
        (dict(n_total=10 ** 6), "n_total"),
        # no statistic reads a target
        (dict(with_target=True), "with_target")])
    def test_out_of_range_scenario_exit_two(self, tmp_path, capsys, fields,
                                            key):
        scenario = dict(null_spec().to_dict(), **fields)
        (tmp_path / "c.json").write_text(json.dumps(
            {"methods": ["energy"], "reps": 2, "scenarios": [scenario]}))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err

    def test_non_integral_split_exit_two_before_any_scenario(self, tmp_path,
                                                             capsys):
        # 0.2 * 21 is no whole group size
        scenarios = [null_spec().to_dict(),
                     dict(null_spec().to_dict(), deviation="shift",
                          magnitude=0.5, n_total=21, balance="unbalanced")]
        (tmp_path / "c.json").write_text(json.dumps(
            {"methods": ["energy"], "reps": 2, "scenarios": scenarios}))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "'n_total'" in capsys.readouterr().err
        assert not list((tmp_path / "d").glob("*.csv"))

    @pytest.mark.parametrize("key, value, message", [
        ("methods", {"energy": 1}, "'methods' must be a list"),
        ("methods", "energy", "'methods' must be a list"),
        ("scenarios", {"a": 1}, "'scenarios' must be a list"),
        ("scenarios", ["normal"], "scenario must be an object"),
        ("methods", [], "'methods' must name at least one method"),
        ("methods", ["energy", "energy"], "method id 'energy' appears twice")])
    def test_malformed_list_exit_two(self, tmp_path, capsys, key, value,
                                     message):
        config = {"methods": ["energy"], "reps": 2,
                  "scenarios": [null_spec().to_dict()]}
        config[key] = value
        (tmp_path / "c.json").write_text(json.dumps(config))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "5", 2.0, True, 0, -1, None])
    def test_bad_reps_exit_two(self, tmp_path, capsys, value):
        config = {"methods": ["energy"], "reps": value,
                  "scenarios": [null_spec().to_dict()]}
        (tmp_path / "c.json").write_text(json.dumps(config))
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--seed", "1", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "'reps'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--jobs", "0"), ("--jobs", "-4")])
    def test_bad_flag_exit_two(self, tmp_path, capsys, minimal_config,
                               flag, value):
        args = {"--config": minimal_config, "--seed": "1",
                "--out": str(tmp_path / "d"), flag: value}
        rc = main(["simulate", *(x for kv in args.items() for x in kv)])
        assert rc == 2
        assert repr(flag) in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_repeated_scenario_exit_two(self, tmp_path, capsys):
        shift = null_spec(deviation="shift", magnitude=0.5)
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(), shift, null_spec(p=3), shift],
                           ["energy"])
        rc = main(["simulate", "--config", cfg, "--seed", "2",
                   "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert repr(shift.scenario_id) in err and "indices 1 and 3" in err
        assert not (tmp_path / "d").exists()

    def test_same_seed_byte_identical(self, tmp_path, minimal_config):
        for name in ("d1", "d2"):
            main(["simulate", "--config", minimal_config, "--seed", "7",
                  "--out", str(tmp_path / name)])
        for fname in ("manifest.json", "scenario_0000.csv",
                      "scenario_0001.csv"):
            a = (tmp_path / "d1" / fname).read_bytes()
            b = (tmp_path / "d2" / fname).read_bytes()
            assert a == b

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        """Every file of the dump, the manifest and each scenario CSV, is
        the same at --jobs 1, 2 and 3: one pool serves every scenario.
        `wasserstein` fails on the unbalanced split, so error cells are
        compared too."""
        cfg = write_config(
            tmp_path / "c.json",
            [null_spec(), null_spec(deviation="shift", magnitude=1.5),
             null_spec(balance="unbalanced")],
            ["energy", "engineer", "wasserstein"], reps=5)
        dumps = {}
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["simulate", "--config", cfg, "--seed", "7",
                         "--out", str(out), "--jobs", jobs]) == 0
            dumps[jobs] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(dumps["1"]) == ["manifest.json", "scenario_0000.csv",
                                      "scenario_0001.csv",
                                      "scenario_0002.csv"]
        assert b"UnsupportedConfigError" in dumps["1"]["scenario_0002.csv"]
        assert dumps["2"] == dumps["1"] and dumps["3"] == dumps["1"]

    def test_reps_beyond_max_entries_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [null_spec()],
                           ["energy", "engineer"], reps=10 ** 12)
        rc = main(["simulate", "--config", cfg, "--seed", "1",
                   "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"'reps' {10 ** 12} x 2 methods" in err
        assert not (tmp_path / "d").exists()

    def test_huge_jobs_starts_one_worker_per_scenario(self, tmp_path):
        """A --jobs beyond any worker count the platform can start runs
        min(--jobs, scenarios) workers and writes what --jobs 1 writes."""
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(), null_spec(p=3)],
                           ["energy", "engineer"], reps=3)
        dumps = {}
        for jobs in ("1", "100000000000000000000"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["simulate", "--config", cfg, "--seed", "7",
                         "--out", str(out), "--jobs", jobs]) == 0
            dumps[jobs] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(dumps["1"]) == 3
        assert dumps["100000000000000000000"] == dumps["1"]

    def test_lost_worker_ends_the_run(self, tmp_path):
        """A method that SIGKILLs the pool worker running it: `simulate
        --jobs 2` exits 1 with one error line naming the first scenario
        not written, and writes no manifest."""
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(), null_spec(p=3)],
                           ["energy", "lose_worker"], reps=4)
        returncode, err = simulate_losing_workers(tmp_path, cfg, "2")
        assert returncode == 1, err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert repr(null_spec().scenario_id) in lines[0]
        assert "the ones after it were not written" in lines[0]
        assert not (tmp_path / "d" / "manifest.json").exists()

    def test_stopped_rerun_leaves_no_stale_manifest(self, tmp_path, capsys):
        """A rerun into a complete dump removes its manifest before the
        first scenario file: a lost worker then leaves a dump that `report`
        rejects, not the old manifest over a mix of old and new files.  A
        config error touches nothing."""
        dump = tmp_path / "d"
        scenarios = [null_spec(), null_spec(p=3)]
        cfg = write_config(tmp_path / "a.json", scenarios,
                           ["energy", "engineer"], reps=4)
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(dump)]) == 0
        bad = write_config(tmp_path / "b.json", scenarios, ["no_such"])
        assert main(["simulate", "--config", bad, "--seed", "2",
                     "--out", str(dump)]) == 2
        assert (dump / "manifest.json").exists()
        cfg = write_config(tmp_path / "c.json", scenarios,
                           ["energy", "lose_worker"], reps=4)
        returncode, err = simulate_losing_workers(tmp_path, cfg, "2")
        assert returncode == 1, err
        assert not (dump / "manifest.json").exists()
        capsys.readouterr()
        assert main(["report", "--dump", str(dump),
                     "--out", str(tmp_path / "rep")]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_rerun_removes_an_earlier_runs_scenario_files(self, tmp_path):
        """A 2-scenario run into the dump of a 3-scenario run leaves the
        files of a fresh 2-scenario dump; a file whose name `simulate`
        would not write stays."""
        methods = ["energy", "engineer"]
        big = write_config(tmp_path / "a.json",
                           [null_spec(), null_spec(p=3), null_spec(p=4)],
                           methods, reps=3)
        small = write_config(tmp_path / "b.json",
                             [null_spec(), null_spec(p=3)], methods, reps=3)
        dump, fresh = tmp_path / "d", tmp_path / "fresh"
        assert main(["simulate", "--config", big, "--seed", "1",
                     "--out", str(dump)]) == 0
        kept = ("notes.txt", "scenario_12.csv", "scenario_0002.csv.bak")
        for name in kept:
            (dump / name).write_text("kept\n")
        (dump / "scenario_10000.csv").write_text("stale\n")
        for out in (dump, fresh):
            assert main(["simulate", "--config", small, "--seed", "1",
                         "--out", str(out)]) == 0

        def files(d):
            return {f.name: f.read_bytes() for f in d.iterdir()}

        assert files(dump) == {**files(fresh),
                               **{name: b"kept\n" for name in kept}}

    def test_one_scenario_runs_in_process(self, tmp_path):
        """With one scenario there is one task, so `simulate --jobs 2`
        opens no pool: the worker-killing method never fires."""
        cfg = write_config(tmp_path / "c.json", [null_spec()],
                           ["energy", "lose_worker"], reps=2)
        returncode, err = simulate_losing_workers(tmp_path, cfg, "2")
        assert returncode == 0, err
        assert err == ""
        assert (tmp_path / "d" / "manifest.json").exists()


class TestReport:
    def test_full_chain_outputs(self, tmp_path, minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        for fname in ("pesr.csv", "meandiff.csv", "acceptable.csv",
                      "cover.json", "tree.json"):
            assert (tmp_path / "rep" / fname).exists()
        pesr = (tmp_path / "rep" / "pesr.csv").read_text().splitlines()
        assert len(pesr) == 1 + 2  # two methods, one alternative scenario
        group = "dgp,deviation,n,p,balance,grouping,k"
        for fname, header in (
                ("pesr.csv", "scenario_id,dgp,deviation,magnitude,n,p,"
                             "balance,grouping,k,method,pesr"),
                ("meandiff.csv", f"{group},method,mean_diff"),
                ("acceptable.csv", f"{group},method,acceptable")):
            lines = (tmp_path / "rep" / fname).read_text().splitlines()
            assert lines[0] == header, fname

    def test_report_files_pinned(self, tmp_path):
        """sha256 of the five report files of a 136-scenario dump: normal
        and lognormal, N 20 and 40, p=2, both balances, each with its null,
        the 6 full-grid shifts and the 10 full-grid scales.  Scale groups
        of 10 scenarios pin the order in which a group mean adds its
        values; `wasserstein` is NA when unbalanced; the choice tree has
        four (N, p, balance) cells."""
        specs = []
        for dgp in ("normal", "lognormal"):
            for n in (20, 40):
                for balance in ("balanced", "unbalanced"):
                    specs.append(null_spec(dgp=dgp, n_total=n,
                                           balance=balance))
                    specs += [null_spec(dgp=dgp, n_total=n, balance=balance,
                                        deviation=dev, magnitude=m)
                              for dev in ("shift", "scale")
                              for m in GRIDS["full"][dev]]
        cfg = write_config(tmp_path / "c.json", specs,
                           ["energy", "fr_1mst", "wasserstein", "engineer",
                            "sh_1nn", "mmd"])
        assert main(["simulate", "--config", cfg, "--seed", "4",
                     "--out", str(tmp_path / "dump")]) == 0
        assert main(["report", "--dump", str(tmp_path / "dump"),
                     "--out", str(tmp_path / "rep")]) == 0
        digests = {
            "pesr.csv": "4926dde0633b260ef8c68a18c1b09f5b"
                        "fb8db792eb5d192e9615a0f674724209",
            "meandiff.csv": "8c9b7024d426f7426fb2a140986c0814"
                            "cd86aefeb27cf3394c84397b365907a7",
            "acceptable.csv": "4804e671bcea3db7486f6b22d72c555c"
                              "686eae50dd6dc36c73c22bc61e8d2da9",
            "cover.json": "b4a9b0e44f0c0382e0676804d24cf513"
                          "a8a91b2e47fc4703313b941630ab0d95",
            "tree.json": "dcd718e312ca56a7470d4706375dde40"
                         "2790f8549660229752d143dff11c473e"}
        for fname, digest in digests.items():
            data = (tmp_path / "rep" / fname).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, fname

    def test_missing_null_exit_three(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(deviation="shift", magnitude=1.0)],
                           ["energy"])
        main(["simulate", "--config", cfg, "--seed", "2",
              "--out", str(tmp_path / "dump")])
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 3
        assert not (tmp_path / "rep").exists()

    def test_malformed_row_before_missing_null_exit_two(self, tmp_path,
                                                        capsys):
        # a malformed file is found before a missing null is reported
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(deviation="shift", magnitude=1.0)],
                           ["energy"])
        main(["simulate", "--config", cfg, "--seed", "2",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / "scenario_0000.csv"
        lines = scenario.read_text().splitlines()
        lines[1] = "0,energy,abc,"
        scenario.write_text("\n".join(lines) + "\n")
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert str(scenario) in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_malformed_null_after_alternatives_exit_two(self, tmp_path,
                                                        capsys):
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(deviation="shift", magnitude=1.0),
                            null_spec(deviation="scale", magnitude=1.5),
                            null_spec()], ["energy", "engineer"])
        main(["simulate", "--config", cfg, "--seed", "2",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / "scenario_0002.csv"
        lines = scenario.read_text().splitlines()
        scenario.write_text("\n".join(lines[:-1]) + "\n")
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and "has no row" in err
        assert not (tmp_path / "rep").exists()

    def test_report_peak_grows_less_than_one_scenario(self, tmp_path):
        """The traced peak of `report` on 32 scenarios exceeds the one on 8
        by less than one scenario file's bytes.  The dumps hold a simulated
        null and its simulated alternative (300 repetitions of 8 methods),
        the alternative's file copied under 7 or 31 shift magnitudes."""
        methods = ["energy", "engineer", "mmd", "bg2", "bf_log", "bahr",
                   "bf_fraca", "disco_f_0.5"]
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(),
                            null_spec(deviation="shift", magnitude=0.5)],
                           methods, reps=300)
        source = tmp_path / "dump"
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(source)]) == 0
        manifest = json.loads((source / "manifest.json").read_text())
        null, alt = manifest["scenarios"]
        for n in (8, 32):
            dump = tmp_path / f"dump{n}"
            dump.mkdir()
            shutil.copy(source / null["file"], dump / null["file"])
            entries = [null]
            for i in range(1, n):
                spec = dict(alt["spec"], magnitude=i / 10)
                fname = f"scenario_{i:04d}.csv"
                shutil.copy(source / alt["file"], dump / fname)
                entries.append({"index": i, "file": fname, "spec": spec,
                                "id": ScenarioSpec(**spec).scenario_id})
            (dump / "manifest.json").write_text(
                json.dumps(dict(manifest, scenarios=entries)))
        # leaves out what a first report allocates once
        assert main(["report", "--dump", str(source),
                     "--out", str(tmp_path / "warm")]) == 0
        peaks = {}
        for n in (8, 32):
            tracemalloc.start()
            try:
                assert main(["report", "--dump", str(tmp_path / f"dump{n}"),
                             "--out", str(tmp_path / f"rep{n}")]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32] - peaks[8] < (source / alt["file"]).stat().st_size

    def test_read_result_holds_little_beyond_its_values(self, tmp_path):
        """A result read back from a 500-repetition 46-method scenario file
        holds its values and little else: no per-repetition error text."""
        methods = DEFAULT_TWO_SAMPLE
        dump = tmp_path / "dump"
        dump.mkdir()
        with open(dump / "scenario_0000.csv", "w", encoding="utf-8") as fh:
            fh.write("repetition,method,value,error\n")
            for rep in range(500):
                for m, mid in enumerate(methods):
                    fh.write(f"{rep},{mid},NA,ValueError: rep {rep}\n"
                             if (rep + m) % 7 == 0 else
                             f"{rep},{mid},{(rep * m) / 3!r},\n")
        (dump / "manifest.json").write_text(json.dumps(
            {"seed": 1, "reps": 500, "methods": list(methods),
             "scenarios": [{"index": 0, "file": "scenario_0000.csv",
                            "spec": null_spec(n_total=100).to_dict()}]}))
        _, results = _load_results(dump)
        tracemalloc.start()
        try:
            result = next(results)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result.values.shape == (500, 46)
        assert held < 1.2 * result.values.nbytes
        assert result.errors == ()

    def test_manifest_reps_beyond_max_entries_exit_two(self, tmp_path,
                                                       capsys,
                                                       minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        content = json.loads(manifest.read_text())
        content["reps"] = 10 ** 12
        manifest.write_text(json.dumps(content))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and f"'reps' {10 ** 12} x 2 methods" in err
        assert not (tmp_path / "rep").exists()

    def test_null_only_dump_warns_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [null_spec()], ["energy"])
        main(["simulate", "--config", cfg, "--seed", "2",
              "--out", str(tmp_path / "dump")])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["report", "--dump", str(tmp_path / "dump"),
                       "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        pesr = (tmp_path / "rep" / "pesr.csv").read_text().splitlines()
        assert len(pesr) == 1  # header only

    def test_null_only_report_has_the_full_report_headers(self, tmp_path,
                                                          minimal_config):
        null_only = write_config(tmp_path / "c.json", [null_spec()],
                                 ["energy", "engineer"])
        for cfg, name in ((minimal_config, "full"), (null_only, "null")):
            main(["simulate", "--config", cfg, "--seed", "2",
                  "--out", str(tmp_path / name / "dump")])
            assert main(["report", "--dump", str(tmp_path / name / "dump"),
                         "--out", str(tmp_path / name / "rep")]) == 0
        for fname in ("pesr.csv", "meandiff.csv", "acceptable.csv"):
            full, null = (
                (tmp_path / name / "rep" / fname).read_text().splitlines()
                for name in ("full", "null"))
            assert len(full) > 1 and null == full[:1]
        rep = tmp_path / "null" / "rep"
        assert json.loads((rep / "cover.json").read_text()) == []
        assert json.loads((rep / "tree.json").read_text()) is None

    def test_report_deterministic(self, tmp_path, minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "5",
              "--out", str(tmp_path / "dump")])
        for name in ("r1", "r2"):
            main(["report", "--dump", str(tmp_path / "dump"),
                  "--out", str(tmp_path / name)])
        for fname in ("pesr.csv", "meandiff.csv", "acceptable.csv",
                      "cover.json", "tree.json"):
            assert ((tmp_path / "r1" / fname).read_bytes()
                    == (tmp_path / "r2" / fname).read_bytes())

    def test_alternatives_listed_before_their_null_same_report(self,
                                                                tmp_path):
        """A manifest that lists the alternatives before their null reports
        the same five files as the null-first one: `_load_results` alone
        puts the nulls first."""
        cfg = write_config(tmp_path / "c.json",
                           [null_spec(),
                            null_spec(deviation="shift", magnitude=1.0),
                            null_spec(deviation="scale", magnitude=1.5)],
                           ["energy", "engineer"])
        assert main(["simulate", "--config", cfg, "--seed", "2",
                     "--out", str(tmp_path / "first")]) == 0
        shutil.copytree(tmp_path / "first", tmp_path / "last")
        path = tmp_path / "last" / "manifest.json"
        manifest = json.loads(path.read_text())
        entries = manifest["scenarios"]
        assert entries[0]["spec"]["deviation"] == "null"
        manifest["scenarios"] = entries[1:] + entries[:1]
        path.write_text(json.dumps(manifest))
        for name in ("first", "last"):
            assert main(["report", "--dump", str(tmp_path / name),
                         "--out", str(tmp_path / name / "rep")]) == 0
        for fname in ("pesr.csv", "meandiff.csv", "acceptable.csv",
                      "cover.json", "tree.json"):
            assert ((tmp_path / "first" / "rep" / fname).read_bytes()
                    == (tmp_path / "last" / "rep" / fname).read_bytes())

    def test_malformed_manifest_exit_two(self, tmp_path, capsys,
                                         minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        manifest.write_text(manifest.read_text()[:-20])
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert str(manifest) in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_manifest_repeated_scenario_exit_two(self, tmp_path, capsys,
                                                 minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["scenarios"].append(dict(payload["scenarios"][0], index=2))
        manifest.write_text(json.dumps(payload))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "indices 0 and 2" in err
        assert not (tmp_path / "rep").exists()

    def test_unknown_method_in_dump_exit_two(self, tmp_path, capsys,
                                             minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / "scenario_0001.csv"
        scenario.write_text(scenario.read_text().replace(",engineer,",
                                                         ",mmd,"))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and "'mmd'" in err

    @pytest.mark.parametrize("key", ["reps", "methods", "scenarios"])
    def test_manifest_missing_key_exit_two(self, tmp_path, capsys,
                                           minimal_config, key):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        content = json.loads(manifest.read_text())
        del content[key]
        manifest.write_text(json.dumps(content))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(key) in err

    @pytest.mark.parametrize("methods, message", [
        (5, "'methods' must be a list"),
        (["energy", "engineer", "nope"], "unknown method id 'nope'"),
        ([], "'methods' must name at least one method"),
        (["energy", "energy"], "method id 'energy' appears twice")])
    def test_manifest_bad_methods_exit_two(self, tmp_path, capsys,
                                           minimal_config, methods, message):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        content = json.loads(manifest.read_text())
        content["methods"] = methods
        manifest.write_text(json.dumps(content))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and message in err

    @pytest.mark.parametrize("reps", ["4", 0, 2.5])
    def test_manifest_bad_reps_exit_two(self, tmp_path, capsys,
                                        minimal_config, reps):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        content = json.loads(manifest.read_text())
        content["reps"] = reps
        manifest.write_text(json.dumps(content))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert str(manifest) in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        "0,energy,0.5,,extra",  # five fields
        "0,energy,0.5",         # three fields
        "1.5,energy,0.5,",      # repetition not an integer
        "10,energy,0.5,",       # repetition at reps
        "-1,energy,0.5,",       # negative repetition
    ], ids=["five_fields", "three_fields", "non_integer_rep", "rep_at_reps",
            "negative_rep"])
    def test_malformed_row_exit_two(self, tmp_path, capsys, minimal_config,
                                    row):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / "scenario_0001.csv"
        lines = scenario.read_text().splitlines()
        lines[1] = row
        scenario.write_text("\n".join(lines) + "\n")
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert str(scenario) in capsys.readouterr().err

    @pytest.mark.parametrize("fname, edit, message", [
        ("scenario_0001.csv", lambda lines: lines[:2] + lines[3:],
         "has no row for repetition 0 of method 'engineer'"),
        ("scenario_0000.csv", lambda lines: lines + lines[1:2],
         "repetition 0 of method 'energy' appears twice"),
    ], ids=["deleted_row", "repeated_row"])
    def test_cell_not_once_exit_two(self, tmp_path, capsys, minimal_config,
                                    fname, edit, message):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / fname
        lines = scenario.read_text().splitlines()
        assert lines[1].startswith("0,energy,")
        assert lines[2].startswith("0,engineer,")
        scenario.write_text("\n".join(edit(lines)) + "\n")
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and message in err

    @pytest.mark.parametrize("key", ["file", "spec", "index"])
    def test_scenario_entry_missing_key_exit_two(self, tmp_path, capsys,
                                                 minimal_config, key):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        content = json.loads(manifest.read_text())
        del content["scenarios"][1][key]
        manifest.write_text(json.dumps(content))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(key) in err

    @pytest.mark.parametrize("file", [5, None, "./scenario_0000.csv"])
    def test_scenario_entry_bad_file_exit_two(self, tmp_path, capsys,
                                              minimal_config, file):
        # a file that is not a string, or one an earlier entry names too
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        manifest = tmp_path / "dump" / "manifest.json"
        content = json.loads(manifest.read_text())
        content["scenarios"][1]["file"] = file
        manifest.write_text(json.dumps(content))
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(content["scenarios"][1]) in err
        assert not (tmp_path / "rep").exists()

    def test_non_numeric_value_exit_two(self, tmp_path, capsys,
                                        minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / "scenario_0001.csv"
        lines = scenario.read_text().splitlines()
        lines[1] = "0,energy,abc,"
        scenario.write_text("\n".join(lines) + "\n")
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and "'abc'" in err
        assert not (tmp_path / "rep").exists()

    def test_dump_is_a_file_exit_two(self, tmp_path, capsys):
        dump = tmp_path / "dump"
        dump.write_text("")
        rc = main(["report", "--dump", str(dump),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert str(dump) in capsys.readouterr().err

    def test_empty_scenario_file_exit_two(self, tmp_path, capsys,
                                          minimal_config):
        main(["simulate", "--config", minimal_config, "--seed", "3",
              "--out", str(tmp_path / "dump")])
        scenario = tmp_path / "dump" / "scenario_0001.csv"
        scenario.write_text("")
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and "no header line" in err

    def test_na_written_for_missing_cells(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            [null_spec(n_total=25, balance="unbalanced"),
             null_spec(n_total=25, balance="unbalanced",
                       deviation="shift", magnitude=1.0)],
            ["wasserstein", "energy"])  # wasserstein fails on 5/20 split
        main(["simulate", "--config", cfg, "--seed", "2",
              "--out", str(tmp_path / "dump")])
        rc = main(["report", "--dump", str(tmp_path / "dump"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        pesr = (tmp_path / "rep" / "pesr.csv").read_text()
        assert ",wasserstein,NA" in pesr


class TestBenchCommand:
    def test_bench_outputs(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "methods": ["energy", "engineer"], "grid": [[20, 2]],
            "min_reps": 10, "min_total_s": 0.02}))
        rc = main(["bench", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        lines = (tmp_path / "b" / "bench.csv").read_text().splitlines()
        assert lines[0] == "record,method,n,p,runs,median_seconds,scaled"
        cells = [ln for ln in lines[1:] if ln.startswith("cell")]
        assert len(cells) == 2
        scaled = sorted(float(ln.split(",")[-1]) for ln in cells)
        assert scaled == [0.0, 1.0]
        methods = [ln.split(",")[1] for ln in cells]
        assert methods == sorted(methods)
        runs = [int(ln.split(",")[4]) for ln in cells]
        assert all(r >= 10 for r in runs)

    @pytest.mark.parametrize("key", ["methods", "grid"])
    def test_bench_missing_key_exit_two(self, tmp_path, capsys, key):
        config = {"methods": ["energy"], "grid": [[20, 2]]}
        del config[key]
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("grid", [5]), ("grid", [[20]]), ("grid", [[20, 2, 1]]),
        ("grid", [[20, "2"]]), ("grid", [[20.0, 2]]), ("grid", [[True, 2]]),
        ("grid", [[0, 2]]), ("grid", [{"n": 20, "p": 2}]),
        ("min_reps", "abc"), ("min_reps", 2.5), ("min_reps", True),
        ("min_reps", 0), ("min_total_s", "abc"), ("min_total_s", False),
        ("min_total_s", -1.0), ("min_total_s", None), ("methods", []),
        ("methods", ["energy", "energy"])])
    def test_bench_bad_value_exit_two(self, tmp_path, capsys, key, value):
        config = {"methods": ["energy"], "grid": [[20, 2]], "min_reps": 2,
                  "min_total_s": 0.0}
        config[key] = value
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err

    def test_bench_negative_seed_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": ["energy"], "grid": [[20, 2]]}))
        rc = main(["bench", "--config", str(cfg), "--seed", "-1",
                   "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "'--seed'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bench_unknown_method(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": ["nope"], "grid": [[20, 2]]}))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 2

    def test_bench_failing_cell_written_as_na(self, tmp_path):
        # bg_0.8 cannot partition 2^50 cells: its (50, 50) cell is not timed
        # and leaves energy alone in that cell's scaling
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "methods": ["bg_0.8", "energy"], "grid": [[50, 50], [50, 2]],
            "min_reps": 2, "min_total_s": 0.0}))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 0
        rows = (tmp_path / "b" / "bench.csv").read_text().splitlines()[1:]
        rows = {tuple(r.split(",")[:4]): r.split(",")[4:] for r in rows}
        assert rows["cell", "bg_0.8", "50", "50"] == ["0", "NA", "NA"]
        assert rows["cell", "energy", "50", "50"][2] == "0.0"
        bg_p2 = rows["cell", "bg_0.8", "50", "2"][2]
        assert {bg_p2, rows["cell", "energy", "50", "2"][2]} == {"0.0", "1.0"}
        assert rows["summary", "bg_0.8", "NA", "NA"] == ["NA", "NA", bg_p2]

    def test_bench_distance_cap_exit_two_before_any_work(self, tmp_path,
                                                         capsys):
        # an N x N distance matrix of 2.1e9 entries (~17 GB)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": ["energy"],
                                   "grid": [[20, 2], [46342, 1]]}))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 2
        assert "'grid' cell [46342, 1]" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bench_bad_cell_exit_two_before_any_timing(self, tmp_path, capsys,
                                                       monkeypatch):
        # a 2 x 1073741825 draw exceeds MAX_ENTRIES; its N x N matrix does not
        def fail(*args, **kwargs):
            raise AssertionError("bench ran")
        monkeypatch.setattr("dsbench.cli.bench", fail)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": ["energy"],
                                   "grid": [[200, 2], [2, 1073741825]]}))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 2
        assert "'grid' cell [2, 1073741825]" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bench_repeated_cell_exit_two_before_any_timing(
            self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("bench ran")
        monkeypatch.setattr("dsbench.cli.bench", fail)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": ["energy", "mmd"],
                                   "grid": [[20, 2], [20, 2]]}))
        rc = main(["bench", "--config", str(cfg), "--out",
                   str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cell (20, 2) appears twice in 'grid', at indices 0 and 1" in err
        assert not (tmp_path / "b" / "bench.csv").exists()


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs ~0.2 s of start-up; nothing the CLI runs needs it
    src = str(Path(dsbench.__file__).resolve().parent.parent)
    code = "import sys, dsbench.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_desk_scale_script_end_to_end(tmp_path):
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_desk_scale.py"),
         "--dgp", "normal", "--max-n", "50", "--max-scenarios", "3",
         "--reps", "3", "--jobs", "1", "--out", str(out)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.stdout.startswith("3 scenarios x 3 reps, 46 methods")
    # the script's --reps reaches simulate through the config alone
    config = json.loads((out / "config.json").read_text())
    manifest = json.loads((out / "dump" / "manifest.json").read_text())
    assert config["reps"] == manifest["reps"] == 3
    cover = json.loads((out / "report" / "cover.json").read_text())
    assert cover and cover[-1]["cumulative_coverage"] == 1.0
    assert {step["method"] for step in cover} <= set(config["methods"])
