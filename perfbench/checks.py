"""Invariants every benchmark run's report.json must satisfy. A run that
breaks one counts as failed in ``failed_run_ratio``."""

from __future__ import annotations


def report_problems(report: dict) -> list:
    """Return a description of each violated invariant (empty when the
    report is sound)."""
    problems = []
    c = report["counts"]
    if c["generated"] != c["dropped"] + c["sent"] + c["in_flight"]:
        problems.append(
            f"frame conservation: generated={c['generated']} but dropped="
            f"{c['dropped']} + sent={c['sent']} + in_flight={c['in_flight']}")
    aoi_s, taoi_s = report["system_aoi_s"], report["system_taoi_s"]
    if not 0.0 <= taoi_s <= aoi_s:
        problems.append(f"need 0 <= system_taoi_s={taoi_s} <= "
                        f"system_aoi_s={aoi_s}")
    pdr = report["overall_pdr"]
    if pdr is None or not 0.0 <= pdr <= 1.0:
        problems.append(f"overall_pdr={pdr} is not in [0, 1]")
    for lo, hi, successes, opportunities in report["pdr_bins"]:
        if successes > opportunities:
            problems.append(f"PDR bin [{lo}, {hi}): {successes} successes > "
                            f"{opportunities} opportunities")
    if report["negative_gap_events"] != 0:
        problems.append(
            f"negative_gap_events={report['negative_gap_events']}")
    return problems
