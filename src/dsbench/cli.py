"""Command-line front end: simulate / report / bench subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import nullcontext
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .datagen import MAX_ENTRIES, ConfigError, ScenarioSpec
from .harness import (MissingNullError, ScenarioResult, acceptable, bench,
                      bench_scenario, choice_tree, greedy_cover,
                      mean_diff_to_ideal, overall_mean_diff, pesr_table,
                      run_scenario, scale_bench)
from .methods import REGISTRY

_GROUP_FIELDS = ("dgp", "deviation", "n", "p", "balance", "grouping", "k")
_SCENARIO_FILE = re.compile(r"scenario_[0-9]{4,}\.csv")  # as simulate names


def _fmt(x) -> str:
    if x is None or x != x:  # None or NaN
        return "NA"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:  # also an integer too long to convert
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return config


def _required(config: dict, key: str) -> list:
    if key not in config:
        raise ConfigError(f"config has no {key!r} entry")
    if not isinstance(config[key], list):
        raise ConfigError(f"config {key!r} must be a list, "
                          f"got {config[key]!r}")
    return config[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(key: str, value) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{key!r} must be a positive integer, "
                          f"got {value!r}")
    return value


def _non_negative_int(key: str, value) -> int:
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{key!r} must be a non-negative integer, "
                          f"got {value!r}")
    return value


def _non_negative_number(key: str, value) -> float:
    if (not (_is_int(value) or isinstance(value, float))
            or not 0 <= value < float("inf")):
        raise ConfigError(f"{key!r} must be a finite non-negative number, "
                          f"got {value!r}")
    return float(value)


def _check_distance_entries(n_total: int, what: str) -> None:
    """Reject, before any work, an N x N distance matrix beyond
    MAX_ENTRIES."""
    if n_total ** 2 > MAX_ENTRIES:
        raise ConfigError(f"{what} needs an N x N distance matrix of more "
                          f"than {MAX_ENTRIES} entries")


def _grid_cell(cell) -> tuple[int, int]:
    if (not isinstance(cell, list) or len(cell) != 2
            or not all(_is_int(x) and x >= 1 for x in cell)):
        raise ConfigError(f"'grid' entries must be [n, p] pairs of positive "
                          f"integers, got {cell!r}")
    _check_distance_entries(cell[0], f"'grid' cell {cell!r}")
    try:
        bench_scenario(cell[0], cell[1])
    except ConfigError as exc:
        raise ConfigError(f"'grid' cell {cell!r}: {exc}") from None
    return cell[0], cell[1]


def _check_methods(methods) -> None:
    if not methods:
        raise ConfigError("'methods' must name at least one method")
    for mid in methods:
        if not isinstance(mid, str) or mid not in REGISTRY:
            raise ConfigError(f"unknown method id {mid!r}")
    _check_once(methods, "method id", "methods")


def _check_once(keys, name: str, field: str) -> None:
    """Reject a key of config list `field` that appears twice."""
    first: dict = {}  # key -> index of its first entry
    for i, key in enumerate(keys):
        j = first.setdefault(key, i)
        if j != i:
            raise ConfigError(f"{name} {key!r} appears twice in {field!r}, "
                              f"at indices {j} and {i}")


def _reps(value, methods) -> int:
    """A positive `reps` whose (reps x methods) values fit MAX_ENTRIES."""
    reps = _positive_int("reps", value)
    if reps * len(methods) > MAX_ENTRIES:
        raise ConfigError(f"'reps' {reps} x {len(methods)} methods is more "
                          f"than {MAX_ENTRIES} values")
    return reps


def _write_scenario(out: Path, index: int, methods,
                    result: ScenarioResult) -> dict:
    """Write one scenario's CSV under `out`; return its manifest entry."""
    fname = f"scenario_{index:04d}.csv"
    _write_csv(out / fname, ("repetition", "method", "value", "error"),
               ((rep, mid, None if err else float(result.values[rep, m]), err)
                for rep, errs in enumerate(result.errors)
                for m, (mid, err) in enumerate(zip(methods, errs))))
    return {"index": index, "id": result.spec.scenario_id, "file": fname,
            "spec": result.spec.to_dict()}


def cmd_simulate(args) -> int:
    _non_negative_int("--seed", args.seed)
    _positive_int("--jobs", args.jobs)
    config = _load_json(args.config)
    methods = tuple(_required(config, "methods"))
    _check_methods(methods)
    reps = _reps(config.get("reps", 500), methods)
    specs = [ScenarioSpec.from_dict(d) for d in _required(config, "scenarios")]
    _check_once((s.scenario_id for s in specs), "scenario", "scenarios")
    for spec in specs:
        _check_distance_entries(spec.n_total,
                                f"scenario 'n_total' {spec.n_total}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a run that stops early must not leave an earlier run's manifest over
    # a mix of old and new scenario files, nor any run an earlier one's
    (out / "manifest.json").unlink(missing_ok=True)
    for path in out.iterdir():
        if _SCENARIO_FILE.fullmatch(path.name):
            path.unlink()
    manifest = {"seed": args.seed, "reps": reps, "methods": list(methods),
                "scenarios": []}
    workers = min(args.jobs, len(specs))  # one task per scenario
    pool, map_fn, lost = nullcontext(), map, ()  # in process: no workers
    if workers > 1:
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)
        from multiprocessing import get_context
        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
        map_fn, lost = pool.map, BrokenProcessPool
    with pool:
        try:  # each result is written, in manifest order, as it arrives
            for index, result in enumerate(map_fn(
                    run_scenario, specs, repeat(methods), repeat(reps),
                    repeat(args.seed), range(len(specs)))):
                manifest["scenarios"].append(
                    _write_scenario(out, index, methods, result))
        except lost:  # the pool is broken for good
            missing = specs[len(manifest["scenarios"])].scenario_id
            print(f"error: a worker process was lost; scenario {missing!r} "
                  "and the ones after it were not written", file=sys.stderr)
            return 1
    _write_json(out / "manifest.json", manifest)
    return 0


def _load_results(dump_dir: Path):
    """(methods, results) of a dump.  The manifest is checked here; each
    scenario file is read and checked only when its result is drawn from
    the `results` generator: the null scenarios first, as `pesr_table`
    needs them, then the alternatives, each in manifest order."""
    manifest_path = str(dump_dir / "manifest.json")
    manifest = _load_json(manifest_path)
    try:
        methods = tuple(_required(manifest, "methods"))
        _check_methods(methods)
        reps = _reps(manifest.get("reps"), methods)
        entries = _required(manifest, "scenarios")
        for entry in entries:
            for key in ("file", "spec", "index"):
                if not isinstance(entry, dict) or key not in entry:
                    raise ConfigError(f"scenario entry {entry!r} has no "
                                      f"{key!r}")
        specs = [ScenarioSpec.from_dict(entry["spec"]) for entry in entries]
        _check_once((s.scenario_id for s in specs), "scenario",
                    "scenarios")
        files = set()
        for entry in entries:
            if not isinstance(entry["file"], str):
                raise ConfigError(f"scenario entry {entry!r}: 'file' is not "
                                  "a string")
            # a second entry on the same file would read the first's rows
            name = Path(entry["file"])
            if name in files:
                raise ConfigError(f"scenario entry {entry!r} names a file "
                                  "that an earlier entry names")
            files.add(name)
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    # only what the reads need is kept, not the manifest's entries
    todo = sorted(((entry["file"], spec)
                   for entry, spec in zip(entries, specs)),
                  key=lambda job: job[1].deviation != "null")
    return methods, (_read_scenario(dump_dir / name, spec, methods, reps)
                     for name, spec in todo)


def _read_scenario(path: Path, spec: ScenarioSpec, methods,
                   reps: int) -> ScenarioResult:
    """The scenario file at `path`, every row checked against the
    manifest's methods and repetitions."""
    column = {mid: m for m, mid in enumerate(methods)}
    values = np.full((reps, len(methods)), np.nan)
    seen = np.zeros((reps, len(methods)), dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ConfigError(f"{path} has no header line")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != 4:
                raise ConfigError(f"{where} has {len(row)} fields, "
                                  "expected 4")
            rep_s, mid, value, _ = row  # the error text is not read back
            if mid not in column:
                raise ConfigError(f"{path} names method {mid!r}, which "
                                  "is not in the manifest")
            try:
                rep = int(rep_s)
            except ValueError:
                raise ConfigError(f"{where}: repetition {rep_s!r} is not "
                                  "an integer") from None
            if not 0 <= rep < reps:
                raise ConfigError(f"{where}: repetition {rep} is outside "
                                  f"0..{reps - 1}")
            m = column[mid]
            if seen[rep, m]:
                raise ConfigError(f"{where}: repetition {rep} of method "
                                  f"{mid!r} appears twice")
            seen[rep, m] = True
            if value != "NA":
                try:
                    values[rep, m] = float(value)
                except ValueError:
                    raise ConfigError(f"{where}: value {value!r} is not "
                                      "a number") from None
    if not seen.all():
        rep, m = np.argwhere(~seen)[0]
        raise ConfigError(f"{path} has no row for repetition {rep} of "
                          f"method {methods[m]!r}")
    return ScenarioResult(spec=spec, values=values)


def cmd_report(args) -> int:
    methods, results = _load_results(Path(args.dump))
    try:
        specs, table = pesr_table(methods, results)
    except MissingNullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "pesr.csv",
               ("scenario_id", "dgp", "deviation", "magnitude", "n", "p",
                "balance", "grouping", "k", "method", "pesr"),
               ((s.scenario_id, s.dgp, s.deviation, s.magnitude, s.n_total,
                 s.p, s.balance, s.grouping, s.k, mid, float(table[a, m]))
                for a, s in enumerate(specs)
                for m, mid in enumerate(methods)))
    if not specs:
        print("warning: no alternative scenarios in dump; the report "
              "tables are empty", file=sys.stderr)
    groups, diffs = mean_diff_to_ideal(specs, table)
    by_id = sorted(range(len(methods)), key=methods.__getitem__)
    _write_csv(out / "meandiff.csv",
               _GROUP_FIELDS + ("method", "mean_diff"),
               ((*group, methods[m], float(diffs[g, m]))
                for g, group in enumerate(groups) for m in by_id))
    cover = acceptable(diffs)
    _write_csv(out / "acceptable.csv",
               _GROUP_FIELDS + ("method", "acceptable"),
               ((*group, methods[m], int(cover[g, m]))
                for g, group in enumerate(groups) for m in by_id))
    tie = overall_mean_diff(diffs)
    _write_json(out / "cover.json",
                [{"method": m, "new_groups": g, "cumulative_coverage": c}
                 for m, g, c in greedy_cover(cover, methods, tie)])
    _write_json(out / "tree.json", choice_tree(groups, cover, methods, tie))
    return 0


def cmd_bench(args) -> int:
    _non_negative_int("--seed", args.seed)
    config = _load_json(args.config)
    methods = tuple(_required(config, "methods"))
    _check_methods(methods)
    grid = [_grid_cell(cell) for cell in _required(config, "grid")]
    # a repeated cell would be timed twice and scaled against itself
    _check_once(grid, "cell", "grid")
    rows = bench(methods, grid, master_seed=args.seed,
                 min_reps=_positive_int("min_reps",
                                        config.get("min_reps", 10)),
                 min_total=_non_negative_number(
                     "min_total_s", config.get("min_total_s", 1.0)))
    scaled, summary = scale_bench(rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cells = (("cell", row.method, row.n_total, row.p, row.runs,
              row.median_seconds, scaled[(row.method, row.n_total, row.p)])
             for row in sorted(rows, key=lambda r: (r.method, r.n_total, r.p)))
    summaries = (("summary", method, None, None, None, None, summary[method])
                 for method in sorted(summary))
    _write_csv(out / "bench.csv",
               ("record", "method", "n", "p", "runs", "median_seconds",
                "scaled"), chain(cells, summaries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsbench",
        description="dataset-similarity statistics simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scenarios, dump statistics")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="aggregate dumps into tables")
    p_rep.add_argument("--dump", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    p_bench = sub.add_parser("bench", help="runtime benchmark")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
