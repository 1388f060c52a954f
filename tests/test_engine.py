"""Event-driven simulation core.

The heart of this file is the analytic cross-check: the engine, driven
by a trace of the two reference motions and a forced slot schedule, must
land on exactly the same per-slot ages and tracking errors as the
exact-arithmetic replay oracle. Everything else covers lifecycle,
bookkeeping, and configuration guards.
"""

import ast
import bisect
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taoi_sim import aoi, engine, mobility, slotted
from taoi_sim.channel import ChannelConfig
from taoi_sim.cli import parse_config
from taoi_sim.engine import NS, SimConfig, Simulation, run_simulation
from taoi_sim.errors import ConfigError, TraceError
from taoi_sim.metrics import Bsm, SafetyParams
from taoi_sim.mobility import KraussParams, RoadConfig, write_trace
from taoi_sim.oracle import (
    ALTERNATING_SCHEDULE,
    SINGLE_SHOT_SCHEDULE,
    replay_schedule,
    toy_problem,
)
from test_mobility import lane_pose


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
    def test_slot_tables_match_exact_replay(self, toy_trace, schedule,
                                            monkeypatch):
        # the per-slot values, read through spies on the two samplers each
        # slot runs: phase 1's tracking errors and phase 3's ages. Cell
        # r * n + s is receiver r's record of sender s, the oracle's pair
        # (s, r)
        n = 2
        tables = {(s, r): {"aoi": [], "te": []}
                  for s in range(n) for r in range(n) if s != r}

        def record(key, cells, values):
            for c, value in zip(cells.tolist(), values.tolist()):
                tables[(c % n, c // n)][key].append(value)

        sweep, slot_sample = slotted.sample_te_and_risk, slotted.slot_sample

        def spy_sweep(table, *args, **kwargs):
            # each sample is what the sweep adds to its cell's running sum:
            # the toy values are exact in binary, so the difference is too
            cells = np.flatnonzero(table.live)
            before = table.te_sum[cells]
            result = sweep(table, *args, **kwargs)
            record("te", cells, table.te_sum[cells] - before)
            return result

        def spy_slot_sample(table, cells, t, slot):
            ages = slot_sample(table, cells, t, slot)
            record("aoi", cells, ages)
            return ages

        monkeypatch.setattr(slotted, "sample_te_and_risk", spy_sweep)
        monkeypatch.setattr(slotted, "slot_sample", spy_slot_sample)
        cfg = SimConfig(vehicle_count=n, duration_s=6.0, protocol="fixed10hz",
                        channel_mode="idealized_slotted", slot_s=1.0,
                        mobility_tick_s=0.5, forced_schedule=schedule,
                        trace_path=toy_trace, seed=0)
        rep = run_simulation(cfg)
        oracle = replay_schedule(toy_problem(), schedule)
        for pair in ((0, 1), (1, 0)):
            for key in ("aoi", "te"):
                exact = [float(v) for v in oracle.pairs[pair][key]]
                assert tables[pair][key] == exact
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

    def test_a_road_of_2_62_lanes_runs(self):
        # nothing in a run is sized by the road's lane count
        rep = run_simulation(SimConfig(
            vehicle_count=6, duration_s=1.0,
            road=RoadConfig(lanes=2**62, lane_width=1e-20)))
        assert rep.negative_gap_events == 0
        assert rep.counts["generated"] > 0

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

    def test_a_replay_dumps_the_trace_it_replays(self, tmp_path):
        # a replay holds the trace's columns as its ground truth, so its
        # own dump is the Krauss run's dump byte for byte
        base = dict(vehicle_count=12, duration_s=3.0, seed=1)
        krauss, replay = tmp_path / "krauss.csv", tmp_path / "replay.csv"
        run_simulation(SimConfig(**base, dump_trace_path=str(krauss)))
        run_simulation(SimConfig(**base, trace_path=str(krauss),
                                 dump_trace_path=str(replay)))
        assert replay.read_bytes() == krauss.read_bytes()

    @pytest.mark.parametrize("kw", [
        dict(mobility_tick_s=0.0005, t_mi_s=0.1, duration_s=0.3),
        dict(mobility_tick_s=1 / 3, t_mi_s=1 / 3, duration_s=0.999999999),
        dict(duration_s=0.0),
    ], ids=["half_ms_tick", "third_s_tick", "zero_s"])
    def test_a_dump_at_any_tick_replays(self, tmp_path, kw):
        # t is dumped on the nanosecond grid: written to the millisecond, a
        # 0.5 ms tick gave duplicate timestamps and a 1/3 s tick uneven ones.
        # A 0 s run dumps its t=0 rows, the one instant it reads
        base = dict(vehicle_count=4, seed=1, **kw)
        krauss, replay = tmp_path / "krauss.csv", tmp_path / "replay.csv"
        run_simulation(SimConfig(**base, dump_trace_path=str(krauss)))
        run_simulation(SimConfig(**base, trace_path=str(krauss),
                                 dump_trace_path=str(replay)))
        assert replay.read_bytes() == krauss.read_bytes()

    def test_measurement_cadence(self):
        rep = run_simulation(SimConfig(vehicle_count=8, duration_s=3.0,
                                       protocol="taoi", seed=3))
        assert len(rep.timeseries) == 8 * 3
        assert sum(d["mi_count"] for d in rep.per_vehicle) == 8 * 3
        assert sum(count for _, count in rep.interval_histogram) == 8 * 3

    def test_cold_start_is_the_first_boundary_only(self):
        # with a 1 ns window the second boundary lies 1 ns after the
        # first: only the first one closes a window nobody broadcast into
        sim = Simulation(SimConfig(vehicle_count=2, duration_s=4e-9, seed=1,
                                   mobility_tick_s=1e-9, t_mi_s=1e-9))
        steps = []
        control_step = sim._control_step

        def spy(v, t_s, first_boundary, *rest):
            steps.append((t_s, first_boundary))
            control_step(v, t_s, first_boundary, *rest)

        sim._control_step = spy
        sim.run()
        assert steps == [(k / NS, k == 1) for k in range(1, 5)
                         for _ in range(2)]

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

    def test_the_channel_mode_picks_the_class(self):
        for mode, cls in (("realistic", Simulation),
                          ("idealized_slotted", slotted.SlottedSimulation)):
            sim = Simulation(SimConfig(vehicle_count=2, duration_s=1.0,
                                       channel_mode=mode))
            assert type(sim) is cls

    def test_long_frames_stay_sound(self):
        # frames long enough that fresher BSMs queue behind the airing one
        # and replace each other there
        cfg = dict(vehicle_count=12, duration_s=3.0, protocol="taoi", seed=2,
                   bsm_size_bytes=30000, delta_min_s=0.05)
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


class TestGapAudit:
    """``_check_gaps`` over hand-set arcs on the default road. Vehicle 0
    leaves lane 1 at arc 100, which ``lane_remap`` puts at arc 104 of
    lane 0; vehicle 1 drives in lane 0 just ahead of that."""

    @staticmethod
    def _events(moves):
        """Negative-gap events of one tick; ``moves``: one (lane before,
        arc before, lane after, arc after) per vehicle."""
        sim = Simulation(SimConfig(vehicle_count=len(moves), seed=0))
        old_lanes, old_arcs, lanes, arcs = (np.array(c) for c in zip(*moves))
        zero = np.zeros(len(moves))
        sim._refresh_arrays(zero, zero, zero + 10.0, zero, lanes, arcs)
        sim._check_gaps(old_arcs, old_lanes)
        return sim.negative_gap_events

    def test_the_lane_change_starts_at_the_remapped_arc(self):
        assert RoadConfig().lane_remap(100.0, 1, 0) == 104.0

    def test_a_lane_changer_that_lands_past_a_vehicle_counts(self):
        # from arc 104, behind vehicle 1 at 106, to 110, ahead of it at 107
        assert self._events([(1, 100.0, 0, 110.0), (0, 106.0, 0, 107.0)]) == 1

    def test_a_lane_changer_that_stays_behind_counts_nothing(self):
        assert self._events([(1, 100.0, 0, 105.0), (0, 106.0, 0, 107.0)]) == 0

    def test_a_follower_that_passes_its_leader_counts(self):
        assert self._events([(0, 100.0, 0, 110.0), (0, 106.0, 0, 107.0)]) == 1

    @given(st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 60.0),
                              st.integers(-1, 1), st.floats(-10.0, 30.0)),
                    min_size=2, max_size=12))
    def test_every_tick_counts_like_the_scalar_audit(self, draws):
        # arcs bunched near the start of each ring, so that vehicles pass
        # each other, tie and wrap round; lane moves of at most one lane
        road = RoadConfig()
        moves = []
        for lane, arc, move, step in draws:
            new = min(max(lane + move, 0), road.lanes - 1)
            moves.append((lane, arc, new,
                          (arc + step) % road.perimeter(new)))
        assert self._events(moves) == scalar_gap_events(road, moves)


def scalar_gap_events(road, moves) -> int:
    """The gap audit one lane and one follower at a time: the reference
    for ``Simulation._check_gaps``. ``moves`` as in ``TestGapAudit``."""
    start = [arc if old == new else road.lane_remap(arc, old, new)
             for old, arc, new, _ in moves]
    by_lane: dict = {}
    for i, (_, _, lane, _) in enumerate(moves):
        by_lane.setdefault(lane, []).append(i)
    events = 0
    for lane, members in by_lane.items():
        if len(members) < 2:
            continue
        P = road.perimeter(lane)
        members.sort(key=start.__getitem__)
        for a, b in zip(members, members[1:] + members[:1]):
            gap_old = (start[b] - start[a]) % P
            disp_a = (moves[a][3] - start[a]) % P
            disp_b = (moves[b][3] - start[b]) % P
            events += gap_old + disp_b - disp_a < 0
    return events


class TestMediumRecord:
    @pytest.mark.xfail(strict=True, reason=(
        "_on_tx_end keeps only frames with end > now in active_txs. At 1000 "
        "bytes a frame's float end lies after its own end event, so it "
        "survives that prune and leaves at the next frame's end: a frame "
        "that overlapped it and ends after that one never sees it as an "
        "interferer"))
    def test_every_overlapping_frame_is_concurrent(self, monkeypatch):
        calls = []
        deliver = engine.delivery_outcome

        def spy(tx, receivers, concurrent, rng, cfg):
            calls.append((tx, list(concurrent)))
            return deliver(tx, receivers, concurrent, rng, cfg)

        monkeypatch.setattr(engine, "delivery_outcome", spy)
        sim = Simulation(SimConfig(vehicle_count=60, duration_s=2.0,
                                   protocol="fixed10hz", seed=1))
        sim.run()
        frames = sorted((tx for tx, _ in calls), key=lambda f: f.start)
        starts = [f.start for f in frames]
        overlapping, missed = 0, []
        for tx, concurrent in calls:
            seen = {id(c) for c in concurrent}
            # every frame of a run has the same airtime, so an overlapping
            # frame starts within one airtime before this one
            lo = bisect.bisect_right(starts, tx.start - sim.tx_dur_s)
            hi = bisect.bisect_left(starts, tx.end)
            for f in frames[lo:hi]:
                if f is not tx and f.end > tx.start:
                    overlapping += 1
                    if id(f) not in seen:
                        missed.append((f.sender, f.start, tx.sender, tx.start))
        assert overlapping > 0
        assert missed == []


class TestBatchedDelivery:
    def test_frames_are_decided_where_their_receivers_stood(self,
                                                            monkeypatch):
        # a frame is decided at the next flush, after its end: it must see
        # every receiver where it stood when the frame ended
        sim = Simulation(SimConfig(vehicle_count=30, duration_s=2.0,
                                   protocol="fixed10hz", seed=2))
        at_end, decided = {}, []
        on_tx_end = sim._on_tx_end

        def record_end(t_ns, idx):
            at_end[id(sim.vehicles[idx].airing)] = (
                sim._xs.copy(), sim._ys.copy(), sim._dist[idx].copy())
            on_tx_end(t_ns, idx)

        deliver = engine.delivery_outcome

        def spy(tx, links, concurrent, rng, cfg):
            xs, ys, drow = at_end[id(tx)]
            near = [j for j, d in enumerate(drow.tolist())
                    if j != tx.sender and d <= cfg.max_reception_range_m]
            ids = links.ids.tolist()
            assert len(links) == len(near) and set(ids) <= set(near)
            assert links.x.tolist() == xs[ids].tolist()
            assert links.y.tolist() == ys[ids].tolist()
            decided.append(len(concurrent))
            return deliver(tx, links, concurrent, rng, cfg)

        monkeypatch.setattr(sim, "_on_tx_end", record_end)
        monkeypatch.setattr(engine, "delivery_outcome", spy)
        report = sim.run()
        assert len(decided) == report.counts["sent"] > 100
        # both paths ran: frames that overlap nothing and frames that do
        assert 0 < decided.count(0) < len(decided)


class TestAiringRule:
    """A frame airs the last payload its sender generated at or before the
    frame's start: a fresher BSM replaces one still queued, and a
    generation at the start instant itself wins the tie, because
    generations sort before transmission starts at one timestamp."""

    @staticmethod
    def _airings(sim, extra_generation=False):
        """Run ``sim`` and check the rule on every frame that starts. With
        ``extra_generation``, vehicle 0 also generates at the instant its
        first frame starts. Returns (start ns, sender, generation ns) per
        aired frame and the run's report."""
        generated = [[] for _ in range(sim.n)]   # (t_ns, payload) per sender
        aired = []
        on_generation, on_tx_start = sim._on_generation, sim._on_tx_start

        def generation(t_ns, idx):
            on_generation(t_ns, idx)
            generated[idx].append((t_ns, sim.vehicles[idx].queued))
            if extra_generation and idx == 0 and len(generated[0]) == 1:
                start, = [t for t, kind, vid in sim._heap
                          if kind == engine.EV_TX_START and vid == 0]
                sim._push(start, engine.EV_GEN, 0)

        def tx_start(t_ns, idx):
            aired.append((t_ns, idx, sim.vehicles[idx].queued))
            on_tx_start(t_ns, idx)

        sim._on_generation, sim._on_tx_start = generation, tx_start
        report = sim.run()
        rows = []
        for t_ns, idx, payload in aired:
            times = [t for t, _ in generated[idx]]
            k = bisect.bisect_right(times, t_ns) - 1
            assert payload is generated[idx][k][1]
            rows.append((t_ns, idx, times[k]))
        return rows, report

    def test_a_frame_airs_its_senders_last_payload(self):
        # 40 ms frames against a 41 ms floor: queued BSMs are often
        # replaced before they air
        sim = Simulation(SimConfig(vehicle_count=12, duration_s=3.0,
                                   protocol="taoi", seed=1,
                                   bsm_size_bytes=30000, delta_min_s=0.041))
        rows, report = self._airings(sim)
        assert len(rows) == 242
        assert report.counts["dropped"] == 102
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "83311aaa4c39048ab7aa77488245e5ff95460bcc4e1d6925814c8f9f95d4ad09")

    def test_a_generation_at_the_start_instant_wins(self):
        sim = Simulation(SimConfig(vehicle_count=2, duration_s=0.3, seed=1))
        rows, _ = self._airings(sim, extra_generation=True)
        first = min(r for r in rows if r[1] == 0)
        assert first[0] == first[2]


def _snapshot_bsm(sim, idx: int, t_ns: int) -> Bsm:
    """Exact ground truth at the (sub-tick) generation instant, one
    vehicle at a time: the scalar reference of the poses that
    ``Simulation._pose_payloads`` fills in bulk."""
    t_s = t_ns / NS
    if sim.trace is not None:
        s = sim.trace.state_at(idx, t_s)
        x, y, speed, heading = s.x, s.y, s.speed, s.heading
    else:
        dt = (t_ns - sim._last_tick_ns) / NS
        speed, heading = sim._speeds[idx], sim._headings[idx]
        lane = int(sim._lanes[idx])
        if dt == 0.0:
            x, y = sim._xs[idx], sim._ys[idx]
        else:
            arc = (sim._arcs[idx] + speed * dt) % sim.cfg.road.perimeter(lane)
            x, y, heading = lane_pose(sim.cfg.road, arc, lane)
    ctrl = sim.vehicles[idx].ctrl
    return Bsm(idx, t_s, x, y, speed, heading, ctrl.riskiness_flag,
               ctrl.delta)


def _bits(values) -> list:
    """The IEEE bit patterns of floats, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestPayloadPoses:
    """A realistic run's MAC payloads take their poses in one pass at the
    next flush, a vector pose under Krauss and a trace query in a replay:
    each must be what ``_snapshot_bsm`` computes at its generation
    instant, bit for bit, and a payload replaced in the queue is never
    computed."""

    @staticmethod
    def _assert_bulk_poses_match(placements, last_tick, generations):
        """``placements``: one (lane, arc, speed) per vehicle, the arc
        kept as given, not reduced; ``generations``: (offset ns from the
        last tick, vehicle) pairs. Each vehicle carries its arc and
        stands at its pose, as under Krauss, so a payload generated at
        the tick itself must take the tick's own pose."""
        sim = Simulation(SimConfig(vehicle_count=len(placements),
                                   duration_s=100.0, seed=0))
        road = sim.cfg.road
        truth = [(*lane_pose(road, arc, lane), speed, lane, arc)
                 for lane, arc, speed in placements]
        x, y, heading, speed, lane, arc = (np.array(c) for c in zip(*truth))
        sim._refresh_arrays(x, y, speed, heading, lane, arc)
        sim._last_tick_ns = last_tick
        replaced = []
        for offset, idx in sorted(generations):
            if sim.vehicles[idx].queued is not None:
                replaced.append(sim.vehicles[idx].queued)
            sim._on_generation(last_tick + offset, idx)
        sim._flush_receptions()
        queued = [v.queued for v in sim.vehicles if v.queued is not None]
        assert queued
        for p in queued:
            want = _snapshot_bsm(sim, p.sender, p.t_ns)
            assert _bits([p.x, p.y, p.speed, p.heading]) == \
                _bits([want.x, want.y, want.speed, want.heading])
            assert (p.gen_time, p.riskiness_flag, p.interval) == \
                (want.gen_time, want.riskiness_flag, want.interval)
        assert not any(hasattr(p, "x") for p in replaced)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(
        [0, 1, 10 ** 8 // 3, 10 ** 8 // 2, 10 ** 8 - 1]), st.integers(0, 2)),
        min_size=1, max_size=12))
    def test_replay_payloads_take_the_trace_pose(self, braking_trace,
                                                 generations):
        # a replayed BSM is posed at the next flush from one trace query:
        # at a sample, between samples and at the span's end it must be
        # what the scalar ``state_at`` gives at its generation instant
        sim = Simulation(_trace_cfg(braking_trace, "taoi"))
        posed = []
        for k, offset, idx in generations:
            sim._on_generation(min(k * sim.tick_ns + offset, sim.T_ns), idx)
            posed.append(sim.vehicles[idx].queued)
            sim._flush_receptions()
        for p in posed:
            want = _snapshot_bsm(sim, p.sender, p.t_ns)
            assert _bits([p.x, p.y, p.speed, p.heading]) == \
                _bits([want.x, want.y, want.speed, want.heading])

    def test_every_lane_corner_and_perimeter_multiple(self):
        road = RoadConfig()
        placements = []
        for lane in range(road.lanes):
            _, long, short, perimeter = road.lane_geometry(lane)
            for arc in (0.0, long, long + short, 2.0 * long + short,
                        perimeter, 2.0 * perimeter, perimeter - 1.0):
                for speed in (0.0, 10.0):
                    placements.append((lane, arc, speed))
        tick = 10 ** 8
        # at the tick itself, mid-tick, and a full tick on, where
        # perimeter - 1 m at 10 m/s lands on the perimeter
        generations = [((0, tick // 2, tick)[i % 3], i)
                       for i in range(len(placements))]
        self._assert_bulk_poses_match(placements, 7 * tick, generations)

    @settings(max_examples=150)
    @given(st.data())
    def test_bulk_poses_equal_the_scalar_snapshot(self, data):
        road = RoadConfig()
        placements = []
        for _ in range(data.draw(st.integers(2, 8))):
            lane = data.draw(st.integers(0, road.lanes - 1))
            _, long, short, perimeter = road.lane_geometry(lane)
            arc = data.draw(st.one_of(
                st.floats(0.0, perimeter, exclude_max=True),
                st.sampled_from([0.0, long, long + short, 2.0 * long + short,
                                 perimeter - 1.0]),
                st.integers(1, 3).map(lambda k: k * perimeter)))
            speed = data.draw(st.one_of(st.sampled_from([0.0, 10.0]),
                                        st.floats(0.0, 40.0)))
            placements.append((lane, arc, speed))
        offsets = st.one_of(st.sampled_from([0, 10 ** 8]),
                            st.integers(0, 10 ** 8))
        generations = data.draw(st.lists(
            st.tuples(offsets, st.integers(0, len(placements) - 1)),
            min_size=1, max_size=16))
        last_tick = data.draw(st.integers(0, 999)) * 10 ** 8
        self._assert_bulk_poses_match(placements, last_tick, generations)


class TestReceptionBookkeeping:
    """Finished frames wait undecided until the next flush, whose
    ``_decide`` folds what decoded into the pair table. Here every frame
    decodes at receiver 0 alone, whose record of sender 1 is cell 1 of the
    3-vehicle table."""

    @pytest.fixture
    def sim(self, monkeypatch):
        monkeypatch.setattr(engine, "delivery_outcome", lambda *args: {0})
        return Simulation(SimConfig(vehicle_count=3, duration_s=2.0, seed=0))

    @staticmethod
    def _receive(sim, bsm, t_s):
        sim._ended.append((bsm, t_s, []))

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


class TestCongestionCount:
    def test_each_measurement_decides_congestion_once(self, monkeypatch):
        # 30 kB frames saturate the channel, so both outcomes occur
        calls = []
        decide = engine.is_congested

        def spy(aoi_v, delta_avg):
            calls.append((aoi_v, decide(aoi_v, delta_avg)))
            return calls[-1][1]

        monkeypatch.setattr(engine, "is_congested", spy)
        rep = run_simulation(SimConfig(vehicle_count=10, duration_s=3.0,
                                       protocol="aoi", seed=1,
                                       bsm_size_bytes=30000,
                                       delta_min_s=0.05))
        measured = [row[4] for row in rep.timeseries if row[4] is not None]
        assert [aoi_v for aoi_v, _ in calls] == measured
        congested = sum(flag for _, flag in calls)
        assert 0 < congested < len(calls)
        assert sum(d["congested_mis"] for d in rep.per_vehicle) == congested


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
        # intervals below one frame's airtime; 1e-10 s rounds to 0 ns
        dict(delta_min_s=1e-10, delta_init_s=1e-10),
        dict(delta_min_s=1e-5),
        # a negative AIFS grants the medium before the request and hangs
        # the run; a negative preamble makes the airtime negative
        dict(channel=ChannelConfig(aifs_us=-1.0)),
        dict(channel=ChannelConfig(preamble_us=-2000.0)),
        # a negative slot ran on silently (PDR 0.477 at n=150); ranges
        # that are not positive left every PDR undefined
        dict(channel=ChannelConfig(slot_time_us=-13.0)),
        dict(channel=ChannelConfig(slot_time_us=0.0)),
        dict(channel=ChannelConfig(max_reception_range_m=-1.0,
                                   range_m=-5.0)),
        dict(channel=ChannelConfig(range_m=0.0)),
        # vehicle ids must be distinct integers within a slot: 0.5 is no
        # list index, True would run as vehicle 1, and a duplicate would
        # count one frame twice
        dict(channel_mode="idealized_slotted", forced_schedule=((0.5,),)),
        dict(channel_mode="idealized_slotted",
             forced_schedule=((True,), (1.0,))),
        dict(channel_mode="idealized_slotted", slot_capacity=2,
             forced_schedule=((1, 1),)),
        # a flat id list, or no list at all, raised a raw TypeError
        dict(channel_mode="idealized_slotted", forced_schedule=(0, 1)),
        dict(channel_mode="idealized_slotted", forced_schedule=5),
        # the slotted mode reads slot_s: it must be a multiple of the tick
        dict(channel_mode="idealized_slotted", slot_s=0.25),
        # a step of 0 ticks, a 0 ns tick or a 0 ns slot never lets the
        # clock advance
        dict(t_mi_s=1e-12),
        dict(mobility_tick_s=1e-10),
        dict(channel_mode="idealized_slotted", slot_s=1e-12),
        # 6 scheduled slots on a run of 3 would be cut off silently
        dict(channel_mode="idealized_slotted", duration_s=3.0, slot_s=1.0,
             forced_schedule=((0,), (1,)) * 3),
        # Nakagami m below 1/2: at 0.003 the gamma draw returned 0.0 and
        # its log10 failed mid-run
        dict(channel=ChannelConfig(nakagami_m_far=0.003,
                                   nakagami_bins=((80.0, 0.003),
                                                  (200.0, 0.003)))),
        dict(channel=ChannelConfig(nakagami_bins=((80.0, 3.0), (200.0, 0.49)))),
        # an 8e-18 s airtime rounds to 0 ns, and its float end equalled its
        # start mid-run
        dict(bsm_size_bytes=1, channel=ChannelConfig(data_rate_mbps=1e12,
                                                     preamble_us=0.0)),
        # a 1 ns airtime vanishes beside a run of 2**24 s
        dict(duration_s=2.0 ** 24, bsm_size_bytes=1,
             channel=ChannelConfig(data_rate_mbps=8000.0, preamble_us=0.0)),
        dict(delta_init_s=1.5),         # above delta_max_s
        # the sections are plain records, judged by validate alone
        dict(channel=ChannelConfig(data_rate_mbps=0.0)),
        dict(channel=ChannelConfig(data_rate_mbps=-1.0)),
        dict(channel=ChannelConfig(path_loss_exponent=0.0)),
        dict(channel=ChannelConfig(cw=0)),
        dict(road=RoadConfig(lanes=0)),
        dict(road=RoadConfig(length=10.0, width=10.0, lanes=3,
                             lane_width=4.0)),
        dict(krauss=KraussParams(max_decel=0.0)),
        dict(krauss=KraussParams(imperfection_sigma=1.5)),
        dict(krauss=KraussParams(min_gap=-1.0)),
        dict(krauss=KraussParams(driver_reaction=0.0)),
        # fleets that do not fit their lanes: 40 vehicles 4.1 m apart on
        # one 164 m ring, and 67 on the outer ring of a 100 x 30 m road,
        # both under two 2.5 m min gaps
        dict(vehicle_count=40, road=RoadConfig(length=60.0, width=30.0,
                                               lanes=1)),
        dict(vehicle_count=200, road=RoadConfig(length=100.0, width=30.0)),
        # values of the wrong type, which validate raised as a raw
        # TypeError or ValueError
        dict(duration_s="5"),
        dict(channel=ChannelConfig(nakagami_bins=((80.0,),))),
        dict(channel=ChannelConfig(nakagami_bins=((80.0, "3"),))),
        dict(road=None),
    ])
    def test_invalid_configs_rejected(self, kw):
        base = dict(vehicle_count=2, duration_s=1.0)
        base.update(kw)
        with pytest.raises(ConfigError):
            SimConfig(**base).validate()

    @pytest.mark.parametrize("kw", [
        # a UFuncNoLoopError mid-run
        dict(tx_power_dbm="20"),
        # TypeErrors mid-run
        dict(te_threshold="0.5"),
        dict(reference_loss_db=None),
        dict(spread_lambda="x"),
        # ran to completion with a system AoI of 0
        dict(rx_sensitivity_dbm=[1]),
        # ran as a 1 s run
        dict(duration_s=True),
    ])
    def test_a_float_key_that_is_no_number_fails_up_front(self, tmp_path,
                                                          kw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"vehicle_count": 4, "duration_s": 2.0,
                                    "protocol": "aoi", **kw}))
        with pytest.raises(ConfigError, match=next(iter(kw))):
            parse_config(path)

    def test_a_replay_places_no_fleet_on_the_road(self):
        # the fleet-fit rule judges where Krauss starts the vehicles
        SimConfig(vehicle_count=40, trace_path="replay.csv",
                  road=RoadConfig(length=60.0, width=30.0, lanes=1)).validate()

    def test_a_half_nakagami_shape_runs(self):
        # m = 1/2 is the m-distribution's least shape, and a valid one
        cfg = SimConfig(vehicle_count=6, duration_s=2.0, seed=1,
                        channel=ChannelConfig(nakagami_m_far=0.5,
                                              nakagami_bins=((80.0, 0.5),)))
        cfg.validate()
        assert run_simulation(cfg).counts["sent"] > 0

    def test_a_realistic_run_ignores_slot_s(self):
        # slot_s=0.1 is no multiple of a 0.2 s tick, but only the slotted
        # mode reads it
        cfg = SimConfig(vehicle_count=6, duration_s=2.0, seed=1,
                        mobility_tick_s=0.2)
        cfg.validate()
        c = run_simulation(cfg).counts
        assert c["generated"] == c["dropped"] + c["sent"] + c["in_flight"]
        assert c["sent"] > 0

    def test_a_short_forced_schedule_leaves_the_rest_idle(self):
        rep = run_simulation(SimConfig(
            vehicle_count=2, duration_s=3.0, protocol="fixed10hz",
            channel_mode="idealized_slotted", slot_s=1.0,
            forced_schedule=((0,), (1,))))
        assert rep.counts == {"generated": 2, "dropped": 0, "sent": 2,
                              "in_flight": 0}

    def test_every_config_key_has_a_reader(self):
        # a field that only the checks read is a knob that changes nothing:
        # every field of the config and its sections must be read as an
        # attribute of an object of its own class somewhere in the package
        # outside validation. The class is known from the name the object
        # goes by (``cfg.channel.range_m`` reads ``ChannelConfig``) or from
        # ``self`` inside the class; loads on anything else do not count.
        sections = (SimConfig, RoadConfig, KraussParams, ChannelConfig,
                    SafetyParams)
        holders = {"cfg": SimConfig, "road": RoadConfig,
                   "krauss": KraussParams, "channel": ChannelConfig,
                   "ch": ChannelConfig, "safety": SafetyParams}
        per_module = {"channel.py": {"cfg": ChannelConfig},
                      "mobility.py": {"params": KraussParams},
                      "metrics.py": {"params": SafetyParams}}
        by_name = {cls.__name__: cls for cls in sections}
        checks = {"validate", "__post_init__"}
        read = set()

        def walk(node, names, owner):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.FunctionDef)
                        and child.name in checks):
                    continue
                if isinstance(child, ast.ClassDef):
                    walk(child, names, by_name.get(child.name))
                    continue
                if (isinstance(child, ast.Attribute)
                        and isinstance(child.ctx, ast.Load)):
                    base = child.value
                    name = (base.id if isinstance(base, ast.Name)
                            else base.attr if isinstance(base, ast.Attribute)
                            else None)
                    cls = owner if name == "self" else names.get(name)
                    if cls is not None:
                        read.add((cls, child.attr))
                walk(child, names, owner)

        for path in sorted(Path(engine.__file__).parent.glob("*.py")):
            walk(ast.parse(path.read_text()),
                 {**holders, **per_module.get(path.name, {})}, None)
        unread = [f"{cls.__name__}.{f.name}" for cls in sections
                  for f in dataclasses.fields(cls) if (cls, f.name) not in read]
        assert unread == []

    def test_trace_identity_mismatch(self, braking_trace):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(vehicle_count=4, duration_s=5.0,
                                     trace_path=braking_trace))

    def test_a_replay_count_beyond_any_array_fails_on_the_count(
            self, braking_trace):
        # comparing ids with np.arange(n) raised a raw "array is too big";
        # a count numpy could allocate would be allocated before failing
        with pytest.raises(ConfigError, match="do not match vehicle_count"):
            Simulation(SimConfig(vehicle_count=2 ** 62, duration_s=5.0,
                                 trace_path=braking_trace))

    @pytest.mark.parametrize("ids,n,offending", [
        (range(20000), 10, "holds 20000, and id 10 is extra"),
        ((0, 2), 3, "id 1 is missing"), ((0, 1), 3, "id 2 is missing"),
        ((-1, 0, 1), 3, "id -1 is extra"), ((0, 1, 2, 7), 3, "id 7 is extra")],
        ids=["20000_for_10", "gap", "short", "negative", "beyond"])
    def test_a_coverage_error_names_the_first_offending_id(self, ids, n,
                                                           offending):
        # the message once listed every id: 128,951 characters for 20,000
        ids = np.array(ids)
        trace = mobility.TrajectoryTable(ids, np.arange(len(ids) + 1),
                                         *np.zeros((6, len(ids))))
        with pytest.raises(ConfigError,
                           match="do not match vehicle_count") as err:
            engine.check_trace_coverage(trace, n, 0.0)
        assert offending in str(err.value) and len(str(err.value)) < 200

    @pytest.mark.parametrize("first,last", [(5e-10, 1.0), (0.0, 1.0 - 5e-10)],
                             ids=["starts_after_zero", "ends_before_the_end"])
    def test_trace_span_short_of_the_run_by_a_hair(self, tmp_path, first,
                                                   last):
        # the run reads every vehicle at exactly 0 and at T: a span that
        # misses either by half a nanosecond fails before the run, not
        # inside it as a ValueError
        times = [first] + [k * 0.1 for k in range(1, 10)] + [last]
        path = tmp_path / "short.csv"
        path.write_text("t,vehicle_id,x,y,speed,heading,lane\n" + "".join(
            f"{t!r},{vid},{10.0 * vid + t!r},2.0,1.0,0.0,0\n"
            for t in times for vid in range(2)))
        with pytest.raises(TraceError, match="does not cover"):
            Simulation(SimConfig(vehicle_count=2, duration_s=1.0,
                                 trace_path=str(path)))

    def test_trace_span_too_short(self, braking_trace):
        with pytest.raises(TraceError):
            run_simulation(SimConfig(vehicle_count=3, duration_s=60.0,
                                     trace_path=braking_trace))
