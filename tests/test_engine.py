"""Event-driven simulation core.

The heart of this file is the analytic cross-check: the engine, driven
by a trace of the two reference motions and a forced slot schedule, must
land on exactly the same per-slot ages and tracking errors as the
exact-arithmetic replay oracle. Everything else covers lifecycle,
bookkeeping, and configuration guards.
"""

import math

import pytest

from taoi_sim import aoi
from taoi_sim.channel import ChannelConfig
from taoi_sim.engine import SimConfig, Simulation, run_simulation
from taoi_sim.errors import ConfigError, TraceError
from taoi_sim.metrics import Bsm, SafetyParams
from taoi_sim.mobility import KraussParams, RoadConfig, write_trace
from taoi_sim.oracle import (
    ALTERNATING_SCHEDULE,
    SINGLE_SHOT_SCHEDULE,
    replay_schedule,
    toy_problem,
)


@pytest.fixture(scope="module")
def toy_trace(tmp_path_factory):
    # the reference motions laid along the x axis (heading exactly 0):
    # a linear drifter at 2 m/s and a unit-acceleration vehicle
    rows = []
    for k in range(13):
        t = k * 0.5
        rows.append((t, 0, 2.0 * t, 0.0, 2.0, 0.0, 0))
        rows.append((t, 1, t * t, 0.0, 2.0 * t, 0.0, 0))
    path = tmp_path_factory.mktemp("toy") / "toy_trace.csv"
    write_trace(path, rows)
    return str(path)


def _brake_x(t: float) -> tuple[float, float]:
    """Cruise at 15, shed 3 m/s over [3, 4], cruise at 12. Returns (x, v)
    relative to the segment start. The braking window sits well past the
    cold-start interval so the flag episode lands in an otherwise clean
    measurement window."""
    if t <= 3.0:
        return 15.0 * t, 15.0
    if t <= 4.0:
        u = t - 3.0
        return 45.0 + 15.0 * u - 1.5 * u * u, 15.0 - 3.0 * u
    return 58.5 + 12.0 * (t - 4.0), 12.0


@pytest.fixture(scope="module")
def braking_trace(tmp_path_factory):
    rows = []
    for k in range(61):
        t = k * 0.1
        rows.append((t, 0, 15.0 * t, 2.0, 15.0, 0.0, 0))
        rows.append((t, 1, 30.0 + 15.0 * t, 2.0, 15.0, 0.0, 0))
        dx, v = _brake_x(t)
        rows.append((t, 2, 60.0 + dx, 2.0, v, 0.0, 0))
    path = tmp_path_factory.mktemp("brake") / "brake_trace.csv"
    write_trace(path, rows)
    return str(path)


def _trace_cfg(path, protocol, **kw):
    base = dict(vehicle_count=3, duration_s=6.0, protocol=protocol,
                seed=0, trace_path=path)
    base.update(kw)
    return SimConfig(**base)


class TestOracleEquivalence:
    @pytest.mark.parametrize("schedule", [ALTERNATING_SCHEDULE,
                                          SINGLE_SHOT_SCHEDULE],
                             ids=["alternating", "single_shot"])
    def test_slot_tables_match_exact_replay(self, toy_trace, schedule):
        cfg = SimConfig(vehicle_count=2, duration_s=6.0, protocol="fixed10hz",
                        channel_mode="idealized_slotted", slot_s=1.0,
                        mobility_tick_s=0.5, forced_schedule=schedule,
                        trace_path=toy_trace, collect_pair_tables=True,
                        seed=0)
        rep = run_simulation(cfg)
        oracle = replay_schedule(toy_problem(), schedule)
        for pair in ((0, 1), (1, 0)):
            for key in ("aoi", "te"):
                exact = [float(v) for v in oracle.pairs[pair][key]]
                assert rep.pair_tables[pair][key] == exact
        # double division vs Fraction->float both round to the same double
        assert rep.system_aoi_s == float(oracle.system_aoi)

    def test_alternating_headline_numbers(self, toy_trace):
        cfg = SimConfig(vehicle_count=2, duration_s=6.0, protocol="fixed10hz",
                        channel_mode="idealized_slotted", slot_s=1.0,
                        mobility_tick_s=0.5,
                        forced_schedule=ALTERNATING_SCHEDULE,
                        trace_path=toy_trace, seed=0)
        rep = run_simulation(cfg)
        assert rep.system_aoi_s == 0.5
        assert rep.te_pairs == [(0, 1, 2.5, 6),
                                (1, 0, pytest.approx(1.0 / 3.0), 6)]

    def test_single_shot_headline_numbers(self, toy_trace):
        cfg = SimConfig(vehicle_count=2, duration_s=6.0, protocol="fixed10hz",
                        channel_mode="idealized_slotted", slot_s=1.0,
                        mobility_tick_s=0.5,
                        forced_schedule=SINGLE_SHOT_SCHEDULE,
                        trace_path=toy_trace, seed=0)
        rep = run_simulation(cfg)
        assert rep.system_aoi_s == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert rep.te_pairs[0] == (0, 1, 1.5, 6)


class TestLifecycle:
    def test_zero_duration_yields_an_empty_report(self):
        rep = run_simulation(SimConfig(vehicle_count=2, duration_s=0.0))
        assert rep.system_aoi_s == 0.0
        assert rep.collision_risk_count == 0
        assert rep.timeseries == []
        assert rep.counts["generated"] == 0
        assert rep.overall_pdr is None
        assert rep.mean_interval_ms == pytest.approx(100.0)

    def test_frame_conservation(self):
        rep = run_simulation(SimConfig(vehicle_count=10, duration_s=3.0,
                                       protocol="taoi", seed=4))
        c = rep.counts
        assert c["generated"] == c["dropped"] + c["sent"] + c["in_flight"]
        assert c["generated"] > 0

    def test_same_config_same_report(self):
        cfg = dict(vehicle_count=8, duration_s=3.0, protocol="taoi", seed=3)
        a = run_simulation(SimConfig(**cfg)).json_dict()
        b = run_simulation(SimConfig(**cfg)).json_dict()
        assert a == b

    def test_protocols_share_the_mobility_stream(self, tmp_path):
        dumps = {}
        for protocol in ("aoi", "taoi"):
            out = tmp_path / f"{protocol}.csv"
            run_simulation(SimConfig(vehicle_count=8, duration_s=3.0,
                                     protocol=protocol, seed=6,
                                     dump_trace_path=str(out)))
            dumps[protocol] = out.read_bytes()
        assert dumps["aoi"] == dumps["taoi"]

    def test_measurement_cadence(self):
        rep = run_simulation(SimConfig(vehicle_count=8, duration_s=3.0,
                                       protocol="taoi", seed=3))
        assert len(rep.timeseries) == 8 * 3
        assert sum(d["mi_count"] for d in rep.per_vehicle) == 8 * 3
        assert sum(count for _, count in rep.interval_histogram) == 8 * 3

    def test_small_traffic_run_stays_physical(self):
        rep = run_simulation(SimConfig(vehicle_count=20, duration_s=10.0,
                                       protocol="fixed10hz", seed=2))
        assert rep.negative_gap_events == 0
        assert 0.0 < rep.overall_pdr <= 1.0
        for lo, hi, succ, opp in rep.pdr_bins:
            assert 0 <= succ <= opp
            assert lo < hi

    def test_idealized_self_clocked_smoke(self):
        rep = run_simulation(SimConfig(vehicle_count=3, duration_s=3.0,
                                       protocol="taoi",
                                       channel_mode="idealized_slotted",
                                       seed=1))
        c = rep.counts
        assert c["generated"] == c["dropped"] + c["sent"] + c["in_flight"]
        assert rep.system_aoi_s > 0.0

    def test_long_frames_stay_sound(self):
        # frames long enough that fresher BSMs queue behind the airing one
        # and replace each other there
        cfg = dict(vehicle_count=12, duration_s=3.0, protocol="taoi", seed=2,
                   bsm_size_bytes=30000)
        rep = run_simulation(SimConfig(**cfg))
        c = rep.counts
        assert c["generated"] == c["dropped"] + c["sent"] + c["in_flight"]
        assert c["generated"] > 0
        assert c["dropped"] > 0
        assert 0.0 <= rep.system_taoi_s <= rep.system_aoi_s
        assert run_simulation(SimConfig(**cfg)).json_dict() == rep.json_dict()


    def test_co_located_vehicles_in_a_trace(self, tmp_path):
        # two parked vehicles on one spot: every link is zero metres long
        # and takes the reference loss instead of failing mid-run
        rows = [(k * 0.1, vid, 100.0, 2.0, 0.0, 0.0, 0)
                for k in range(11) for vid in range(2)]
        path = tmp_path / "parked.csv"
        write_trace(path, rows)
        rep = run_simulation(SimConfig(vehicle_count=2, duration_s=1.0,
                                       protocol="taoi", seed=0,
                                       trace_path=str(path)))
        c = rep.counts
        assert c["generated"] == c["dropped"] + c["sent"] + c["in_flight"]
        assert rep.pdr_bins[0][:2] == (0.0, 25.0)
        assert rep.overall_pdr > 0.5
        assert [p[:2] for p in rep.te_pairs] == [(0, 1), (1, 0)]


class TestReceptionBookkeeping:
    """Decoded frames wait in the reception log until the next flush;
    receiver 0's record of sender 1 is cell 1 of the 3-vehicle table."""

    @pytest.fixture
    def sim(self):
        return Simulation(SimConfig(vehicle_count=3, duration_s=2.0, seed=0))

    @staticmethod
    def _receive(sim, bsm, t_s):
        sim._rx_log.append(aoi.log_entry(bsm, t_s, {0}))

    def test_age_resets_to_in_flight_delay(self, sim):
        bsm = Bsm(1, 0.0985, 30.0, 2.0, 15.0, 0.0, riskiness_flag=1,
                  interval=0.08)
        self._receive(sim, bsm, 0.1)
        assert len(sim.vehicles[0].records) == 0
        sim._flush_receptions()
        assert len(sim.vehicles[0].records) == 1
        assert aoi.instantaneous_aoi(sim.pairs, [1], 0.1)[0] == \
            pytest.approx(0.0015)
        assert sim.pairs.risky[1] == 1
        assert sim.pairs.interval[1] == 0.08

    def test_followup_reception_accumulates_the_closed_tooth(self, sim):
        # both receptions in one flush: applied in two rounds
        self._receive(sim, Bsm(1, 0.0985, 30.0, 2.0, 15.0, 0.0), 0.1)
        self._receive(sim, Bsm(1, 0.2, 31.5, 2.0, 15.0, 0.0), 0.2)
        sim._flush_receptions()
        assert sim.pairs.aoi_run[1] == pytest.approx(0.00515)

    def test_snapshot_from_the_future_rejected(self, sim):
        self._receive(sim, Bsm(1, 0.2, 30.0, 2.0, 15.0, 0.0), 0.1)
        with pytest.raises(ValueError):
            sim._flush_receptions()


class TestFlagDynamics:
    def test_steady_traffic_never_flags(self, tmp_path):
        rows = [(k * 0.1, vid, 40.0 * vid + 15.0 * (k * 0.1), 2.0, 15.0,
                 0.0, 0)
                for k in range(51) for vid in range(3)]
        path = tmp_path / "steady.csv"
        write_trace(path, rows)
        rep = run_simulation(SimConfig(vehicle_count=3, duration_s=5.0,
                                       protocol="taoi", seed=0,
                                       trace_path=str(path)))
        assert all(d["risky_mis"] == 0 for d in rep.per_vehicle)
        assert all(row[3] == 0 for row in rep.timeseries)
        assert {row[2] for row in rep.timeseries} == {0.1 * 1000.0}

    def test_braking_vehicle_flagged_exactly_once(self, braking_trace):
        rep = run_simulation(_trace_cfg(braking_trace, "taoi"))
        risky = {d["vehicle_id"]: d["risky_mis"] for d in rep.per_vehicle}
        assert risky == {0: 0, 1: 0, 2: 1}
        flagged = [(row[0], row[1]) for row in rep.timeseries if row[3] == 1]
        assert flagged == [(4.0, 2)]

    def test_lone_risky_vehicle_tightens_then_freezes(self, braking_trace):
        rep = run_simulation(_trace_cfg(braking_trace, "taoi"))
        mine = [row[2] for row in rep.timeseries if row[1] == 2]
        relaxed = 100.0 / 1.1
        # flagged with nobody else risky in sight: back off by one beta step
        assert mine[:4] == pytest.approx([100.0, 100.0, 100.0, relaxed])
        # flag drops back at t=5; the interval freezes where it landed
        assert mine[4:] == pytest.approx([relaxed, relaxed])
        others = [row[2] for row in rep.timeseries if row[1] != 2]
        assert all(d == pytest.approx(100.0) for d in others)

    def test_fixed_rate_reports_flags_but_never_moves(self, braking_trace):
        rep = run_simulation(_trace_cfg(braking_trace, "fixed10hz"))
        assert sum(d["risky_mis"] for d in rep.per_vehicle) == 1
        assert {row[2] for row in rep.timeseries} == {0.1 * 1000.0}

    def test_flag_count_monotone_in_threshold(self, braking_trace):
        totals = []
        for th in (0.25, 0.5, 5.0):
            rep = run_simulation(_trace_cfg(
                braking_trace, "fixed10hz",
                safety=SafetyParams(te_threshold=th)))
            totals.append(sum(d["risky_mis"] for d in rep.per_vehicle))
        assert totals[0] >= totals[1] >= totals[2]
        assert totals[2] == 0


class TestConfigGuards:
    @pytest.mark.parametrize("kw", [
        dict(vehicle_count=1),
        dict(duration_s=-1.0),
        dict(protocol="laplace"),
        dict(channel_mode="perfect"),
        dict(mobility_tick_s=0.0),
        dict(seed=-1),
        dict(t_mi_s=0.25),              # not a multiple of the 0.1 tick
        dict(beta=1.0),
        dict(delta_init_s=0.01),        # below delta_min_s
        dict(neighbor_timeout_s=0.0),
        dict(slot_capacity=0),
        dict(forced_schedule=((0,), (1,))),  # realistic mode cannot force
        dict(safety=SafetyParams(decel=0.0)),
        dict(safety=SafetyParams(decel=-1.0)),
        dict(safety=SafetyParams(rel_speed_floor=0.0)),
        dict(safety=SafetyParams(t_react=-0.5)),
        dict(channel=ChannelConfig(nakagami_m_far=0.0)),
        dict(channel=ChannelConfig(nakagami_bins=((80.0, 3.0), (200.0, 0.0)))),
        dict(channel=ChannelConfig(nakagami_bins=((80.0, -1.0),))),
        dict(duration_s=math.nan),
        dict(mobility_tick_s=math.nan),
        dict(t_mi_s=math.inf),
        dict(beta=math.nan),
        dict(delta_max_s=math.inf),
        dict(vehicle_count=4.5),
        dict(seed=1.5),
        dict(slot_capacity=2.5),
        dict(bsm_size_bytes=100.5),
        dict(bsm_size_bytes=0),
        dict(safety=SafetyParams(te_threshold=math.nan)),
        dict(channel=ChannelConfig(nakagami_m_far=math.inf)),
        dict(channel=ChannelConfig(nakagami_bins=((80.0, math.inf),))),
        dict(channel=ChannelConfig(range_m=400.0)),
        dict(channel=ChannelConfig(nakagami_bins=((200.0, 1.5), (80.0, 3.0)))),
        dict(channel=ChannelConfig(nakagami_bins=((80.0, 3.0), (80.0, 1.5)))),
        dict(channel=ChannelConfig(nakagami_bins=((math.nan, 3.0),))),
        dict(road=RoadConfig(length=math.inf)),
        dict(road=RoadConfig(lanes=2.5)),
        dict(krauss=KraussParams(max_accel=math.nan)),
        dict(trace_path=5),             # open(5) would open a descriptor
        dict(dump_trace_path=["out.csv"]),
    ])
    def test_invalid_configs_rejected(self, kw):
        base = dict(vehicle_count=2, duration_s=1.0)
        base.update(kw)
        with pytest.raises(ConfigError):
            SimConfig(**base).validate()

    def test_trace_identity_mismatch(self, braking_trace):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(vehicle_count=4, duration_s=5.0,
                                     trace_path=braking_trace))

    def test_trace_span_too_short(self, braking_trace):
        with pytest.raises(TraceError):
            run_simulation(SimConfig(vehicle_count=3, duration_s=60.0,
                                     trace_path=braking_trace))
