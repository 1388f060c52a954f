#!/usr/bin/env python3
"""Head-to-head protocol comparison at one traffic density.

Runs fixed10hz, aoi and taoi over a common seed list, then prints a
median-of-seeds summary table and a per-distance reception profile.
This is the experiment the package exists to support: does gating the
age signal on tracking riskiness buy collision-risk reduction without
paying for it in channel load?

Usage:
    python3 scripts/compare_protocols.py --vehicles 60 --duration 60 \
        --seeds 1,2,3,4,5 --out comparison.csv
"""

import argparse
import csv
import statistics
import sys
import time

from taoi_sim.cli import _aggregate_rows
from taoi_sim.engine import PROTOCOLS, SimConfig, run_simulation
from taoi_sim.metrics import SafetyParams


def run_matrix(vehicles: int, duration: float, seeds, te_threshold: float):
    reports = {}
    for protocol in PROTOCOLS:
        for seed in seeds:
            cfg = SimConfig(vehicle_count=vehicles, duration_s=duration,
                            protocol=protocol, seed=seed,
                            safety=SafetyParams(te_threshold=te_threshold))
            t0 = time.perf_counter()
            rep = run_simulation(cfg)
            print(f"  {protocol:<9} seed={seed:<3d} risk={rep.collision_risk_count:<5d} "
                  f"aoi={rep.system_aoi_s * 1000:7.2f} ms "
                  f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
            reports.setdefault(protocol, []).append(rep)
    return reports


def median_summary(reports):
    rows = []
    for protocol, reps in reports.items():
        med = lambda key: statistics.median(key(r) for r in reps)
        rows.append({
            "protocol": protocol,
            "risk_events": med(lambda r: r.collision_risk_count),
            "system_aoi_ms": med(lambda r: r.system_aoi_s * 1000.0),
            "system_taoi_ms": med(lambda r: r.system_taoi_s * 1000.0),
            "overall_pdr": med(lambda r: r.overall_pdr or 0.0),
            "mean_interval_ms": med(lambda r: r.mean_interval_ms),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vehicles", type=int, default=60)
    ap.add_argument("--duration", type=float, default=60.0)
    ap.add_argument("--seeds", default="1,2,3,4,5",
                    help="comma list of RNG seeds")
    ap.add_argument("--te-threshold", type=float, default=0.5,
                    help="tracking error bound used by the riskiness flag (m)")
    ap.add_argument("--out", default=None,
                    help="optional CSV path for the summary table")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    print(f"running {len(PROTOCOLS)} protocols x {len(seeds)} seeds at "
          f"n={args.vehicles}, T={args.duration} s", file=sys.stderr)
    reports = run_matrix(args.vehicles, args.duration, seeds,
                         args.te_threshold)

    rows = median_summary(reports)
    header = list(rows[0].keys())
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [row["protocol"].ljust(widths[0])]
        cells += [f"{row[h]:.4f}".ljust(w)
                  for h, w in zip(header[1:], widths[1:])]
        print("  ".join(cells))

    print("\nreception rate by distance (taoi, pooled over seeds):")
    _, bin_rows = _aggregate_rows(reports["taoi"])
    for _, _, lo, hi, rate in bin_rows:
        bar = "#" * round(rate * 40)
        print(f"  {lo:5.0f}-{hi:5.0f} m  {rate:6.3f}  {bar}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=header)
            w.writeheader()
            w.writerows(rows)
        print(f"\nsummary written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
