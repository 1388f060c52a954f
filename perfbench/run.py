#!/usr/bin/env python3
"""taoi-sim benchmark: host time per simulated second on four traffic
workloads, plus an outside-in per-layer trace.

One run is what ``taoi-sim run`` does after parsing its config: build the
``SimConfig``, construct ``Simulation(cfg)``, call ``.run()`` and write the
artifacts with ``cli.emit_reports``. Runs form a closed loop in this one
process: the next starts when the previous returns, if one as long still
ends inside ``--seconds``. Every run's report.json is checked and hashed.

Host times are scaled to a reference machine speed. The shared 2-vCPU
Xeon virtual machine these bounds were set on changes speed by about
1.5x in phases of 5 to 15 seconds, so a median of raw wall times moves
with the phase an invocation lands in. Each timed run is therefore
bracketed by a fixed pure-Python loop, and its wall time is multiplied
by ``CALIBRATION_REF_S / (mean time of the two loops)``. The raw medians
are printed beside the scaled ones.

    python3 perfbench/run.py --workload light_n60_taoi --seed 1 --seconds 20
    python3 perfbench/run.py --workload jam_n300_taoi --seed 1 --trace 1
    python3 perfbench/run.py --seconds 20     # every workload, both modes

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced runs of the same config and
reports the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Run it
from anywhere; it builds nothing and imports the simulator from ``src/``
of the checkout it lives in, writing scratch files under
``.perfbench_work/`` there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
# setup_s is a median over at least this many constructions per process
MIN_SETUPS = 11
# calibration_loop()'s duration in the fast phase of the 2-vCPU Xeon
# virtual machine the bounds were set on; scaled times are host times at
# that speed
CALIBRATION_REF_S = 0.030

clock = time.perf_counter


class Results:
    """Timings and verdicts of every run in one process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []    # scaled to the reference speed
        self.host_s: list[float] = []     # scaled to the reference speed
        self.raw_host_s: list[float] = []
        self.calibration_s: list[float] = []
        self.digest: str | None = None


def calibration_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's momentary
    speed, independent of the code under test."""
    t0 = clock()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    return clock() - t0


def one_run(res: Results, wl, seed: int, out_dir: Path):
    """One checked run; returns (raw host seconds, parsed report) or None
    when the run raised or its report failed a check."""
    from checks import report_problems
    from taoi_sim import cli, engine

    res.attempted += 1
    gc.collect()
    try:
        before = calibration_loop()
        t0 = clock()
        sim = engine.Simulation(wl.config(seed))
        t1 = clock()
        report = sim.run()
        cli.emit_reports([report], out_dir)
        t2 = clock()
        after = calibration_loop()
        del sim, report
        data = (out_dir / "report.json").read_bytes()
    except Exception:
        res.failed += 1
        res.problems.append("run raised:\n" + traceback.format_exc())
        return None
    parsed = json.loads(data)
    problems = report_problems(parsed)
    digest = hashlib.sha256(data).hexdigest()
    if res.digest is None:
        res.digest = digest
    elif digest != res.digest:
        problems.append(f"report.json sha256 {digest} differs from the "
                        f"first run's {res.digest}")
    if problems:
        res.failed += 1
        res.problems += problems
        return None
    calibration = (before + after) / 2.0
    res.calibration_s.append(calibration)
    res.setup_s.append((t1 - t0) * CALIBRATION_REF_S / calibration)
    res.host_s.append((t2 - t1) * CALIBRATION_REF_S / calibration)
    res.raw_host_s.append(t2 - t1)
    return t2 - t1, parsed


def extra_setups(res: Results, wl, seed: int) -> None:
    """Top the setup samples up to MIN_SETUPS with constructions alone."""
    from taoi_sim import engine

    while res.setup_s and len(res.setup_s) < MIN_SETUPS:
        gc.collect()
        before = calibration_loop()
        t0 = clock()
        engine.Simulation(wl.config(seed))
        t1 = clock()
        calibration = (before + calibration_loop()) / 2.0
        res.setup_s.append((t1 - t0) * CALIBRATION_REF_S / calibration)


def spread(values: list, fmt: str) -> str:
    return (f"median {statistics.median(values):{fmt}} over {len(values)} "
            f"runs (min {min(values):{fmt}}, max {max(values):{fmt}})")


def end_to_end(wl, seed: int, seconds: float, out_dir: Path) -> dict:
    res = Results()
    # start a run only if one as long as the last still ends in time
    begin, took = clock(), 0.0
    while res.attempted == 0 or clock() - begin + took <= seconds:
        started = clock()
        one_run(res, wl, seed, out_dir)
        took = clock() - started
    extra_setups(res, wl, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    if res.host_s:
        per_sim_s = [h * 1000.0 / wl.duration_s for h in res.host_s]
        raw = [h * 1000.0 / wl.duration_s for h in res.raw_host_s]
        metrics["host_ms_per_sim_s"] = statistics.median(per_sim_s)
        metrics["setup_s"] = statistics.median(res.setup_s)
        print(f"  host_ms_per_sim_s  {spread(per_sim_s, '.3f')} ms/s")
        print(f"    unscaled         {spread(raw, '.3f')} ms/s")
        print(f"    calibration loop {spread(res.calibration_s, '.5f')} s, "
              f"reference {CALIBRATION_REF_S} s")
        print(f"  setup_s            {spread(res.setup_s, '.5f')} s")
    metrics["peak_rss_mb"] = peak_rss_mb
    print(f"  peak_rss_mb        {peak_rss_mb:.1f} MB")
    return finish(res, metrics)


def traced(wl, seed: int, seconds: float, out_dir: Path) -> dict:
    """Alternate untraced and traced runs of one config; per-layer times
    and the overhead ratio are medians over the pairs, counts must repeat
    exactly."""
    from tracer import Tracer, cross_check, layer_metrics

    res = Results()
    pairs: list[dict] = []
    kept = None   # the tracer of the last pair that passed
    begin, took = clock(), 0.0
    while res.attempted == 0 or clock() - begin + took <= seconds:
        started = clock()
        plain = one_run(res, wl, seed, out_dir)
        tracer = Tracer()
        with tracer:
            done = one_run(res, wl, seed, out_dir)
        took = clock() - started
        if plain is None or done is None:
            continue
        metrics = layer_metrics(tracer)
        problems = cross_check(metrics, done[1], wl.config(seed))
        if problems:
            res.failed += 1
            res.problems += ["trace cross-check: " + p for p in problems]
            continue
        metrics["trace.overhead_ratio"] = (done[0] / plain[0], "ratio")
        pairs.append(metrics)
        kept = tracer

    merged: dict = {}
    for name, (_, unit) in sorted(pairs[0].items()) if pairs else ():
        values = [m[name][0] for m in pairs if name in m]
        if unit == "s" or name == "trace.overhead_ratio":
            merged[name] = (statistics.median(values), unit)
        else:
            if values != values[:1] * len(pairs):
                res.problems.append(
                    f"{name} differs between traced runs: {values}")
            merged[name] = (values[0], unit)

    print(f"  per-layer table: {len(pairs)} traced run(s), self times are "
          f"medians, counts repeat exactly")
    for name, (value, unit) in merged.items():
        shown = f"{value:.6f}" if isinstance(value, float) else f"{value}"
        print(f"    {name:<44} {shown:>16} {unit}")
    if kept is not None:
        called = kept.boundary_stats()
        for name in kept.names:
            if name not in called:
                print(f"    {name:<44} {'absent':>16}")
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"{wl.name}.npz"
        count = kept.write_spans(path)
        print(f"  spans: {count} from the last traced run in {path}")
    return finish(res, {name: value for name, (value, _) in merged.items()})


def finish(res: Results, measured: dict) -> dict:
    ratio = res.failed / res.attempted
    print(f"  failed_run_ratio   {res.failed}/{res.attempted} = {ratio:g}")
    print(f"  report_sha256      {res.digest}")
    for p in res.problems:
        print(f"  FAILED: {p}")
    return {"correct": not res.problems, "attempted": res.attempted,
            "failed": res.failed, "measured": measured}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    print(f"workload {wl.name} seed {seed}: n={wl.vehicles} {wl.protocol} "
          f"{'replayed trace' if wl.replay else 'krauss'}, "
          f"{wl.duration_s:g} s simulated per run, "
          f"{'traced' if trace else 'untraced'}, {seconds:g} s budget")
    out_dir = WORK / f"run_{os.getpid()}"
    try:
        wl.prepare(seed)
        if trace:
            outcome = traced(wl, seed, seconds, out_dir)
        else:
            outcome = end_to_end(wl, seed, seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if wl.replay:
            Path(wl.trace_path(seed)).unlink(missing_ok=True)
    # a per-layer boundary the program no longer calls is reported as
    # absent (null), never as a measured 0
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = outcome["measured"].get(m["name"])
        if value is None:
            print(f"  {m['name']}: absent")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def run_every_workload(seed: int, seconds: float, spec: dict) -> dict:
    """Each workload and mode in a process of its own, so peak_rss_mb is
    the workload's alone; the summary prefixes metrics with the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", w["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                print(f"  FAILED: {w['name']} exited {proc.returncode} "
                      f"without a result")
                summary["correct"] = False
                continue
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][f"{w['name']}.{name}"] = m
    return summary


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "taoi_sim" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'taoi_sim'}",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    ap.add_argument("--workload", choices=names,
                    help="one workload; default: every workload, untraced "
                         "then traced, each in its own process")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (non-negative), default 1")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time per workload and mode")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced runs")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.workload is None:
        result = run_every_workload(args.seed, args.seconds, spec)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
