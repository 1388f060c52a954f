"""Command-line front end.

Subcommands:

* ``run`` executes one configured simulation and writes its artifact set.
* ``sweep`` runs a protocol x density x seed matrix and adds comparison
  and aggregate CSVs on top of the per-run artifacts.
* ``oracle`` brute-forces the optimal broadcast schedule of the small
  slotted problem and prints the winning per-slot table.
* ``reproduce-tables`` replays the two reference schedules of the
  analytical example and diffs every cell against the embedded expected
  values, exiting nonzero on any mismatch.

Configs are flat JSON objects; every key maps onto one field of the
nested config dataclasses (road_*/channel/driver/safety constants share
one namespace). ``TAOI_SIM_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import difflib
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .engine import (PROTOCOLS, RunReport, SimConfig, _config_echo,
                     run_simulation)
from .errors import ConfigError, SimError
from .metrics import SafetyParams
from .mobility import KraussParams, RoadConfig
from .channel import ChannelConfig
from .oracle import (ALTERNATING_SCHEDULE, OBJECTIVES, SINGLE_SHOT_SCHEDULE,
                     TABLE_ALTERNATING, TABLE_SINGLE_SHOT, enumerate_optimal,
                     reference_rows, replay_schedule, toy_problem)

logger = logging.getLogger("taoi_sim.cli")

_SECTIONS = {
    "road": RoadConfig,
    "krauss": KraussParams,
    "channel": ChannelConfig,
    "safety": SafetyParams,
}


def _flat_keys() -> dict:
    """One flat config namespace over SimConfig and its nested sections.
    Road fields carry a road_ prefix; the other sections' field names are
    already distinct."""
    table = {}
    for f in dataclasses.fields(SimConfig):
        if f.name not in _SECTIONS:
            table[f.name] = ("", f.name)
    for f in dataclasses.fields(RoadConfig):
        table["road_" + f.name] = ("road", f.name)
    for section in ("krauss", "channel", "safety"):
        for f in dataclasses.fields(_SECTIONS[section]):
            if f.name in table:
                raise AssertionError(f"config key collision: {f.name}")
            table[f.name] = (section, f.name)
    return table


FLAT_KEYS = _flat_keys()


def _coerce(key: str, value):
    # JSON has no tuples; the two structured keys arrive as nested lists
    if key == "forced_schedule" and value is not None:
        return tuple(tuple(entry) for entry in value)
    if key == "nakagami_bins":
        return tuple((float(cut), float(m)) for cut, m in value)
    return value


def parse_config(path) -> SimConfig:
    """Load a flat JSON config into a validated SimConfig.

    Absent keys keep the built-in defaults; unknown keys fail with the
    offending name (and the closest valid key, when one is plausible).
    """
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw) if raw.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: root must be a JSON object")

    top: dict = {}
    nested: dict = {name: {} for name in _SECTIONS}
    for key, value in data.items():
        target = FLAT_KEYS.get(key)
        if target is None:
            near = difflib.get_close_matches(key, FLAT_KEYS, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        section, field_name = target
        if section:
            nested[section][field_name] = _coerce(key, value)
        else:
            top[field_name] = _coerce(key, value)
    try:
        kwargs = dict(top)
        for name, cls in _SECTIONS.items():
            if nested[name]:
                kwargs[name] = cls(**nested[name])
        cfg = SimConfig(**kwargs)
        cfg.validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    logger.info("effective config: %s",
                json.dumps(_config_echo(cfg), sort_keys=True))
    return cfg


# ---------------------------------------------------------------- emission

SUMMARY_FIELDS = ("protocol", "n_vehicles", "seed", "system_aoi_s",
                  "system_taoi_s", "collision_risk_count", "mean_interval_ms",
                  "overall_pdr")


def _summary_row(rep: RunReport) -> list:
    return [rep.protocol, rep.n_vehicles, rep.seed, rep.system_aoi_s,
            rep.system_taoi_s, rep.collision_risk_count, rep.mean_interval_ms,
            "" if rep.overall_pdr is None else rep.overall_pdr]


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _emit_one(rep: RunReport, out: Path) -> list:
    written = []
    written.append(_write_csv(
        out / "timeseries.csv",
        ("t", "vehicle_id", "delta_ms", "flag", "aoi_v", "taoi_v"),
        (( t, vid, delta, flag,
           "" if a is None else a, "" if ta is None else ta)
         for t, vid, delta, flag, a, ta in rep.timeseries)))
    written.append(_write_csv(
        out / "pdr_bins.csv",
        ("bin_lo_m", "bin_hi_m", "pdr"),
        ((lo, hi, succ / opp) for lo, hi, succ, opp in rep.pdr_bins)))
    written.append(_write_csv(
        out / "te_pairs.csv",
        ("receiver_id", "sender_id", "mean_te_m", "samples"),
        rep.te_pairs))
    path = out / "report.json"
    path.write_text(json.dumps(rep.json_dict(), sort_keys=True, indent=2)
                    + "\n")
    written.append(path)
    return written


def run_dir_name(rep: RunReport) -> str:
    return f"{rep.protocol}_n{rep.n_vehicles}_s{rep.seed}"


def emit_reports(reports, out_dir=".") -> list:
    """Write the artifact set for each completed run.

    A single report lands directly in ``out_dir``; several reports get one
    subdirectory each plus a shared summary.csv with one row per run. An
    empty report list writes nothing.
    """
    reports = list(reports)
    if not reports:
        logger.warning("no reports to emit; nothing written")
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for rep in reports:
        d = out / run_dir_name(rep) if len(reports) > 1 else out
        d.mkdir(parents=True, exist_ok=True)
        written.extend(_emit_one(rep, d))
    written.append(_write_csv(out / "summary.csv", SUMMARY_FIELDS,
                              [_summary_row(r) for r in reports]))
    return written


# ------------------------------------------------------------ subcommands

def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    report = run_simulation(cfg)
    emit_reports([report], args.out)
    print(f"{report.protocol} n={report.n_vehicles} seed={report.seed}: "
          f"system_aoi={report.system_aoi_s:.6f} s "
          f"system_taoi={report.system_taoi_s:.6f} s "
          f"risk={report.collision_risk_count} "
          f"mean_interval={report.mean_interval_ms:.2f} ms")
    print(f"artifacts in {Path(args.out).resolve()}")
    return 0


@dataclasses.dataclass
class SweepSpec:
    """One comparison matrix: every protocol at every density, each run
    repeated over the seed list on top of a shared base config."""

    protocols: tuple
    vehicle_counts: tuple
    seeds: tuple
    base: SimConfig

    def __post_init__(self):
        if not (self.protocols and self.vehicle_counts and self.seeds):
            raise ConfigError("sweep needs protocols, densities and seeds")
        bad = [p for p in self.protocols if p not in PROTOCOLS]
        if bad:
            raise ConfigError(f"unknown protocols {bad}; pick from {PROTOCOLS}")
        low = [n for n in self.vehicle_counts if n < 2]
        if low:
            raise ConfigError(f"densities must be >= 2 vehicles, got {low}")

    def configs(self) -> list:
        out = []
        for protocol in self.protocols:
            for count in self.vehicle_counts:
                for seed in self.seeds:
                    cfg = dataclasses.replace(
                        self.base, protocol=protocol, vehicle_count=count,
                        seed=seed)
                    cfg.validate()
                    out.append(cfg)
        return out


def _run_worker(cfg: SimConfig) -> RunReport:
    return run_simulation(cfg)


def _aggregate_rows(reports):
    """Mean metrics per protocol x density, plus pooled per-bin PDR."""
    groups: dict = {}
    for rep in reports:
        groups.setdefault((rep.protocol, rep.n_vehicles), []).append(rep)
    agg_rows, bin_rows = [], []
    for (protocol, count), reps in sorted(groups.items()):
        k = len(reps)
        succ_total = opp_total = 0
        bins: dict = {}
        for rep in reps:
            for lo, hi, succ, opp in rep.pdr_bins:
                cell = bins.setdefault((lo, hi), [0, 0])
                cell[0] += succ
                cell[1] += opp
                succ_total += succ
                opp_total += opp
        agg_rows.append([
            protocol, count, k,
            sum(r.system_aoi_s for r in reps) / k,
            sum(r.system_taoi_s for r in reps) / k,
            sum(r.collision_risk_count for r in reps) / k,
            sum(r.mean_interval_ms for r in reps) / k,
            succ_total / opp_total if opp_total else "",
        ])
        for (lo, hi), (succ, opp) in sorted(bins.items()):
            bin_rows.append([protocol, count, lo, hi, succ / opp])
    return agg_rows, bin_rows


def _cmd_sweep(args) -> int:
    base = parse_config(args.config)
    spec = SweepSpec(
        protocols=tuple(args.protocols.split(",")),
        vehicle_counts=tuple(int(x) for x in args.densities.split(",")),
        seeds=tuple(int(x) for x in args.seeds.split(",")),
        base=base)
    configs = spec.configs()
    logger.info("sweep: %d runs, %d job(s)", len(configs), args.jobs)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_run_worker, configs))
    else:
        reports = [run_simulation(cfg) for cfg in configs]
    out = Path(args.out)
    emit_reports(reports, out)
    agg_rows, bin_rows = _aggregate_rows(reports)
    _write_csv(out / "aggregates.csv",
               ("protocol", "n_vehicles", "runs", "mean_system_aoi_s",
                "mean_system_taoi_s", "mean_collision_risk_count",
                "mean_interval_ms", "overall_pdr"),
               agg_rows)
    _write_csv(out / "aggregate_pdr_bins.csv",
               ("protocol", "n_vehicles", "bin_lo_m", "bin_hi_m", "pdr"),
               bin_rows)
    print(f"{len(reports)} runs; artifacts in {out.resolve()}")
    return 0


TABLE_COLUMNS = ("slot", "tx", "aoi_uv", "y_u", "yhat_uv", "te_uv",
                 "aoi_vu", "y_v", "yhat_vu", "te_vu")


def _table_lines(tables, schedule) -> list:
    """Flatten a two-vehicle replay into the reference table layout."""
    uv = reference_rows(tables, 0, 1)
    vu = reference_rows(tables, 1, 0)
    lines = [",".join(TABLE_COLUMNS)]
    for k in range(len(schedule)):
        tx = "+".join(f"v{i}" for i in schedule[k]) or "-"
        cells = [str(k + 1), tx,
                 str(uv["aoi"][k]), str(uv["y"][k]), str(uv["yhat"][k]),
                 str(uv["te"][k]),
                 str(vu["aoi"][k]), str(vu["y"][k]), str(vu["yhat"][k]),
                 str(vu["te"][k])]
        lines.append(",".join(cells))
    auv = tables.pair_averages[(0, 1)]
    avu = tables.pair_averages[(1, 0)]
    lines.append(",".join(["avg", "", str(auv["aoi"]), "", "",
                           str(auv["te"]), str(avu["aoi"]), "", "",
                           str(avu["te"])]))
    lines.append(f"system_aoi,{tables.system_aoi}")
    return lines


def _cmd_oracle(args) -> int:
    problem = toy_problem(objective=args.objective, slots=args.slots)
    solution = enumerate_optimal(problem)
    sched = " ".join(
        "+".join(f"v{i}" for i in slot) or "-" for slot in solution.assignment)
    print(f"objective {solution.objective}: optimum {solution.value} "
          f"at schedule [{sched}]")
    for line in _table_lines(solution.tables, solution.assignment):
        print(line)
    return 0


def _expected_cells(tables, schedule, expected) -> list:
    """Diff one replay against its frozen expectation, cell by cell."""
    uv = reference_rows(tables, 0, 1)
    vu = reference_rows(tables, 1, 0)
    actual = {
        "aoi_uv": uv["aoi"], "y_u": uv["y"], "yhat_uv": uv["yhat"],
        "te_uv": uv["te"],
        "aoi_vu": vu["aoi"], "y_v": vu["y"], "yhat_vu": vu["yhat"],
        "te_vu": vu["te"],
        "avg_aoi_uv": tables.pair_averages[(0, 1)]["aoi"],
        "avg_aoi_vu": tables.pair_averages[(1, 0)]["aoi"],
        "avg_te_uv": tables.pair_averages[(0, 1)]["te"],
        "avg_te_vu": tables.pair_averages[(1, 0)]["te"],
        "system_aoi": tables.system_aoi,
    }
    diffs = []
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, tuple):
            for k, (w, g) in enumerate(zip(want, got)):
                if w != g:
                    diffs.append(f"{key}[slot {k + 1}]: expected {w}, got {g}")
            if len(want) != len(got):
                diffs.append(f"{key}: expected {len(want)} slots, got {len(got)}")
        elif want != got:
            diffs.append(f"{key}: expected {want}, got {got}")
    return diffs


def _cmd_reproduce_tables(_args) -> int:
    failures = 0
    cases = (("alternating", ALTERNATING_SCHEDULE, TABLE_ALTERNATING),
             ("single_shot", SINGLE_SHOT_SCHEDULE, TABLE_SINGLE_SHOT))
    for name, schedule, expected in cases:
        tables = replay_schedule(toy_problem(), schedule)
        print(f"# schedule: {name}")
        for line in _table_lines(tables, schedule):
            print(line)
        diffs = _expected_cells(tables, schedule, expected)
        if diffs:
            failures += 1
            for d in diffs:
                print(f"FAIL {name}: {d}")
        else:
            print(f"PASS {name}: all cells match")
    return 1 if failures else 0


# --------------------------------------------------------------- dispatch

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="taoi-sim",
        description="V2V broadcast simulator with age-aware rate control")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="execute one configured simulation")
    p.add_argument("--config", required=True, help="flat JSON config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    p.add_argument("--out", default="out", help="artifact directory")

    p = sub.add_parser("sweep", help="protocol x density x seed matrix")
    p.add_argument("--config", required=True, help="base flat JSON config")
    p.add_argument("--protocols", default=",".join(PROTOCOLS),
                   help="comma list, e.g. fixed10hz,taoi")
    p.add_argument("--densities", default="150",
                   help="comma list of vehicle counts")
    p.add_argument("--seeds", default="0", help="comma list of seeds")
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent runs (processes)")
    p.add_argument("--out", default="sweep", help="artifact directory")

    p = sub.add_parser("oracle",
                       help="enumerate the optimal small-problem schedule")
    p.add_argument("--slots", type=int, default=6)
    p.add_argument("--objective", choices=OBJECTIVES, default="system_aoi")

    sub.add_parser("reproduce-tables",
                   help="replay the reference schedules and diff every cell")
    return top


_HANDLERS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "reproduce-tables": _cmd_reproduce_tables,
}


def run_command(args) -> int:
    """Dispatch one parsed command; SimError family maps to exit code 2."""
    try:
        return _HANDLERS[args.cmd](args)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    level = os.environ.get("TAOI_SIM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
