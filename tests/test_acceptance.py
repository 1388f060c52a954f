"""End-to-end acceptance gates.

Each test pins one externally meaningful property of the whole artifact:
the analytic reference tables, the brute-force optimality claims, the
gated-age identities, the protocol-level safety and channel-load effects,
and bit-level reproducibility. The heavyweight simulation batches are
module-scoped fixtures so the suite pays for each of them exactly once.
"""

import json
import math
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from taoi_sim import aoi
from taoi_sim.cli import main
from taoi_sim.engine import SimConfig, run_simulation
from taoi_sim.metrics import Bsm, SafetyParams
from taoi_sim.mobility import write_trace
from taoi_sim.oracle import (
    ALTERNATING_SCHEDULE,
    SINGLE_SHOT_SCHEDULE,
    enumerate_optimal,
    reference_rows,
    replay_schedule,
    toy_problem,
)
from test_aoi import receive

MS = 1e-3


# ------------------------------------------------------------ references


def test_reference_tables_reproduce_exactly(capsys):
    t0 = time.perf_counter()
    rc = main(["reproduce-tables"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS alternating: all cells match" in out
    assert "PASS single_shot: all cells match" in out
    assert elapsed < 1.0

    # belt and braces: the headline cells, re-derived here from literals
    alt = replay_schedule(toy_problem(), ALTERNATING_SCHEDULE)
    assert reference_rows(alt, 0, 1)["aoi"] == tuple(
        Fraction(v) for v in (0, 1, 0, 1, 0, 1))
    assert reference_rows(alt, 1, 0)["te"] == tuple(
        Fraction(v) for v in (1, 4, 1, 4, 1, 4))
    assert alt.system_aoi == Fraction(1, 2)
    assert alt.pair_averages[(1, 0)]["te"] == Fraction(5, 2)
    single = replay_schedule(toy_problem(), SINGLE_SHOT_SCHEDULE)
    assert float(single.system_aoi) == pytest.approx(1.334, abs=1e-3)
    assert single.pair_averages[(1, 0)]["te"] == Fraction(3, 2)


def test_exhaustive_search_recovers_both_optima():
    t0 = time.perf_counter()
    aoi_opt = enumerate_optimal(toy_problem(objective="system_aoi"))
    te_opt = enumerate_optimal(toy_problem(objective="sum_te"))
    elapsed = time.perf_counter() - t0

    assert aoi_opt.value == Fraction(1, 2)
    assert aoi_opt.assignment == ALTERNATING_SCHEDULE
    assert te_opt.tables.pair_averages[(1, 0)]["te"] <= Fraction(3, 2)
    # the regression the toy exists for: optimizing freshness alone is
    # measurably bad for tracking
    assert aoi_opt.tables.pair_averages[(1, 0)]["te"] == Fraction(5, 2)
    assert elapsed < 10.0


# ---------------------------------------------- gated-age identities


LINK = np.array([1])   # receiver 0's record of sender 1


def _fresh_link():
    """A two-vehicle pair table whose one link starts fresh at t=0 with
    the flag raised."""
    table = aoi.PairTable(2)
    aoi.record_from_bsm(table, LINK, (0.0, 0.0, 0.0, 0.0, 0.0, 1, 0.1), 0.0)
    return table


def _random_log(rng, horizon_ms):
    n_rx = rng.randrange(1, 25)
    rx_ms = sorted(rng.sample(range(1, horizon_ms), n_rx))
    gens_ms = []
    for r in rx_ms:
        g = r - rng.randrange(0, 40)
        gens_ms.append(max(g, 0, gens_ms[-1] if gens_ms else 0))
    return rx_ms, gens_ms


def test_zero_threshold_collapses_taoi_to_aoi():
    rng = random.Random(0x7A01)
    n_pairs = 120
    aoi_avgs, taoi_avgs = [], []
    for _ in range(n_pairs):
        horizon_ms = rng.randrange(1500, 6001)
        rx_ms, gens_ms = _random_log(rng, horizon_ms)
        rec = _fresh_link()
        # threshold zero means every flag assessment returns risky, so every
        # BSM raises the flag and the gate is open on every stretch of
        # every link; the whole log goes through one flush
        receive(rec, [(Bsm(1, g * MS, 0.0, 0.0, 0.0, 0.0, riskiness_flag=1),
                       r * MS, [0]) for r, g in zip(rx_ms, gens_ms)])
        aoi.advance(rec, LINK, horizon_ms * MS)
        assert abs(rec.taoi_run[1] - rec.aoi_run[1]) <= 1e-9
        window = horizon_ms * MS
        aoi_avgs.append(rec.aoi_run[1] / window)
        taoi_avgs.append(rec.taoi_run[1] / window)
    n = 12  # treat the logs as the ordered pairs of a 12-vehicle system
    assert len(aoi_avgs) <= n * (n - 1)
    assert abs(sum(aoi_avgs) - sum(taoi_avgs)) / (n * (n - 1)) <= 1e-9


def test_zero_threshold_end_to_end():
    rep = run_simulation(SimConfig(vehicle_count=10, duration_s=5.0,
                                   protocol="taoi", seed=7,
                                   safety=SafetyParams(te_threshold=0.0)))
    assert rep.system_taoi_s == pytest.approx(rep.system_aoi_s, abs=1e-9)
    ideal = run_simulation(SimConfig(vehicle_count=3, duration_s=3.0,
                                     protocol="taoi",
                                     channel_mode="idealized_slotted", seed=1,
                                     safety=SafetyParams(te_threshold=0.0)))
    assert ideal.system_taoi_s == pytest.approx(ideal.system_aoi_s, abs=1e-9)


def test_pairwise_area_matches_a_millisecond_riemann_sum():
    rng = random.Random(0xA04)
    for _ in range(100):
        horizon_ms = rng.randrange(1500, 6001)
        rx_ms, gens_ms = _random_log(rng, horizon_ms)
        gen_s = [g * MS for g in gens_ms]
        rx_s = [r * MS for r in rx_ms]

        rec = _fresh_link()
        for g, r in zip(gen_s, rx_s):
            receive(rec, [(Bsm(1, g, 0.0, 0.0, 0.0, 0.0, 1), r, [0])])
        aoi.advance(rec, LINK, horizon_ms * MS)

        # receptions sit on the grid, so the age is linear inside every
        # cell and the midpoint rule integrates it without error
        riemann = 0.0
        nxt, gen = 0, 0.0
        for cell in range(horizon_ms):
            while nxt < len(rx_ms) and rx_ms[nxt] <= cell:
                gen = gen_s[nxt]
                nxt += 1
            riemann += ((cell + 0.5) * MS - gen) * MS
        assert abs(rec.aoi_run[1] - riemann) < 1e-6


# ------------------------------------------------- simulation batches


RISK_SEEDS = tuple(range(1, 11))
PROTOCOLS = ("fixed10hz", "aoi", "taoi")


def _batch(duration_s: float) -> dict:
    """The n=60 report of every protocol and seed, by protocol in seed
    order, run on two processes as ``taoi-sim sweep --jobs 2`` runs them."""
    configs = [SimConfig(vehicle_count=60, duration_s=duration_s,
                         protocol=p, seed=s)
               for p in PROTOCOLS for s in RISK_SEEDS]
    with ProcessPoolExecutor(max_workers=2) as pool:
        reports = iter(pool.map(run_simulation, configs))
        return {p: [next(reports) for _ in RISK_SEEDS] for p in PROTOCOLS}


@pytest.fixture(scope="module")
def risk_batch():
    t0 = time.perf_counter()
    reports = _batch(60.0)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pdr_batch():
    pooled = {}
    for p, reports in _batch(15.0).items():
        bins: dict = {}
        for rep in reports:
            for lo, hi, succ, opp in rep.pdr_bins:
                cell = bins.setdefault((lo, hi), [0, 0])
                cell[0] += succ
                cell[1] += opp
        pooled[p] = bins
    return pooled


def test_interval_control_reduces_collision_risk(risk_batch):
    reports, elapsed = risk_batch
    med = {p: statistics.median(r.collision_risk_count for r in reps)
           for p, reps in reports.items()}
    assert med["taoi"] < med["aoi"] < med["fixed10hz"]
    assert med["taoi"] <= 0.9 * med["fixed10hz"]
    assert elapsed < 600.0


def test_reception_rate_falls_with_distance(pdr_batch):
    bins = pdr_batch["fixed10hz"]
    rows = sorted((lo, hi, c[0], c[1]) for (lo, hi), c in bins.items()
                  if c[1] > 0)
    assert len(rows) >= 5
    mids = [(lo + hi) / 2.0 for lo, hi, _, _ in rows]
    rates = [succ / opp for _, _, succ, opp in rows]
    rho, p = stats.spearmanr(mids, rates)
    assert rho < 0.0
    assert p < 0.05


def test_taoi_does_not_pay_for_safety_with_channel_load(pdr_batch):
    def overall(bins):
        succ = sum(c[0] for c in bins.values())
        opp = sum(c[1] for c in bins.values())
        return succ / opp
    assert overall(pdr_batch["taoi"]) >= overall(pdr_batch["aoi"])


# ------------------------------------------------- targeted-rate fixture


WEAVE_CRUISERS = 30
WEAVER_IDS = (30, 31, 32)
WEAVE_T = 30.0
WEAVE_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def weave_runs(tmp_path_factory):
    # one straight lane of evenly spaced constant-speed cruisers, plus
    # three well-separated vehicles whose speed oscillates hard enough to
    # break constant-velocity extrapolation several times per period
    rows = []
    for k in range(int(WEAVE_T / 0.1) + 1):
        t = k * 0.1
        for i in range(WEAVE_CRUISERS):
            rows.append((t, i, 65.0 * i + 15.0 * t, 2.0, 15.0, 0.0, 0))
        for j, x0 in enumerate((325.0, 975.0, 1625.0)):
            x = x0 + 15.0 * t + (12.0 / math.pi) * (1.0 - math.cos(math.pi * t / 4.0))
            v = 15.0 + 3.0 * math.sin(math.pi * t / 4.0)
            rows.append((t, WEAVE_CRUISERS + j, x, 6.0, v, 0.0, 1))
    path = tmp_path_factory.mktemp("weave") / "weave_trace.csv"
    write_trace(path, rows)
    n = WEAVE_CRUISERS + len(WEAVER_IDS)
    out = {}
    for protocol in ("taoi", "aoi"):
        for seed in WEAVE_SEEDS:
            out[(protocol, seed)] = run_simulation(
                SimConfig(vehicle_count=n, duration_s=WEAVE_T,
                          protocol=protocol, seed=seed,
                          trace_path=str(path)))
    return out


def test_interval_tightens_only_where_tracking_fails(weave_runs):
    for seed in WEAVE_SEEDS:
        taoi_rep = weave_runs[("taoi", seed)]
        aoi_rep = weave_runs[("aoi", seed)]
        t_pv = {d["vehicle_id"]: d for d in taoi_rep.per_vehicle}
        a_pv = {d["vehicle_id"]: d for d in aoi_rep.per_vehicle}

        congested_total = sum(d["congested_mis"] for d in taoi_rep.per_vehicle)
        all_mis = sum(d["mi_count"] for d in taoi_rep.per_vehicle)
        assert congested_total < 0.03 * all_mis

        quiet = [i for i in range(WEAVE_CRUISERS)
                 if t_pv[i]["congested_mis"] == 0]
        assert len(quiet) >= 25
        for i in range(WEAVE_CRUISERS):
            assert t_pv[i]["risky_mis"] == 0
        # steady vehicles, absent congestion, never leave the default rate
        held = {row[2] for row in taoi_rep.timeseries if row[1] in quiet}
        assert held == {0.1 * 1000.0}
        for i in quiet:
            assert t_pv[i]["mean_interval_ms"] == pytest.approx(100.0)

        for w in WEAVER_IDS:
            assert t_pv[w]["risky_mis"] > 0
            assert t_pv[w]["mean_interval_ms"] < a_pv[w]["mean_interval_ms"]


# ------------------------------------------------------- reproducibility


def test_identical_configs_produce_identical_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"vehicle_count": 12, "duration_s": 5.0,
                                    "protocol": "taoi", "seed": 11}))
    for sub in ("a", "b"):
        rc = main(["run", "--config", str(cfg_path),
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("report.json", "timeseries.csv", "te_pairs.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_traffic_stays_physical_at_scale():
    rep = run_simulation(SimConfig(vehicle_count=150, duration_s=100.0,
                                   protocol="fixed10hz", seed=5))
    assert rep.negative_gap_events == 0
