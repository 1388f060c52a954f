"""Age-of-information accounting.

The area accumulators are exercised against a closed-form sawtooth
integral so the incremental trapezoid bookkeeping and the direct
geometric computation stay two independent routes to the same number.

All records live in an ``aoi.PairTable``; most tests use a two-vehicle
table and its cell 1, receiver 0's record of sender 1. The engine applies
receptions in batches (one flush per tick, measurement boundary and
wrap-up); ``TestBatchedFlush`` checks every flush against the per-record
arithmetic it replaced, which this file keeps as ``_Record``.
"""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taoi_sim import aoi, slotted
from taoi_sim.engine import NS, SimConfig, Simulation
from taoi_sim.errors import UndefinedValueError
from taoi_sim.metrics import Bsm

CELL = np.array([1])   # receiver 0's record of sender 1 in a 2-vehicle table


def _bsm(gen, risky=1, interval=0.1, sender=1):
    return Bsm(sender, gen, 0.0, 0.0, 0.0, 0.0, riskiness_flag=risky,
               interval=interval)


def receive(table, entries):
    """Apply (bsm, now, receivers) entries, in time order, to ``table`` as
    one batch: the frame rows and per-link columns the engine's flush hands
    ``aoi.apply_reception``."""
    frames = np.array([(bsm.sender, now, *aoi.snapshot(bsm))
                       for bsm, now, _ in entries], dtype=float)
    frame = np.repeat(np.arange(len(entries)),
                      [len(rx) for *_, rx in entries])
    rx = np.fromiter(chain.from_iterable(rx for *_, rx in entries), np.intp,
                     len(frame))
    aoi.apply_reception(table, frames, frame, rx)


def _receive(table, bsm, now, receiver=0):
    receive(table, [(bsm, now, [receiver])])


def _opened(bsm, now):
    """A 2-vehicle table whose cell 1 was opened by receiving ``bsm``."""
    table = aoi.PairTable(2)
    _receive(table, bsm, now)
    return table


def _fresh(risky=1, n=2, senders=(1,)):
    """Receiver 0 holding a zero-age record of each sender at t=0."""
    table = aoi.PairTable(n)
    cells = np.array(senders)
    aoi.record_from_bsm(table, cells,
                        (0.0, 0.0, 0.0, 0.0, 0.0, risky, 0.1), 0.0)
    return table


def sawtooth_area(reception_times, gen_times, t_end: float) -> float:
    """Exact area under one link's age sawtooth over [0, t_end].

    ``reception_times``/``gen_times`` are parallel, increasing sequences
    (reception i delivers the snapshot generated at gen_times[i] <=
    reception_times[i]); the link starts with a fresh snapshot at time 0.
    The independent closed-form route.
    """
    if len(reception_times) != len(gen_times):
        raise ValueError("reception/generation sequences differ in length")
    area = 0.0
    cursor, gen = 0.0, 0.0
    events = [*zip(reception_times, gen_times), (t_end, None)]
    for rx, g in events:
        if rx < cursor:
            raise ValueError("reception times must be increasing")
        if rx > t_end:
            break
        a0, a1 = cursor - gen, rx - gen
        area += 0.5 * (a0 + a1) * (rx - cursor)
        cursor = rx
        if g is not None:
            if g > rx:
                raise ValueError("snapshot generated after its reception")
            gen = g
    if cursor < t_end:
        a0, a1 = cursor - gen, t_end - gen
        area += 0.5 * (a0 + a1) * (t_end - cursor)
    return area


class TestInstantaneous:
    def test_age_grows_with_unit_slope(self):
        table = _opened(_bsm(0.15), now=0.2)
        assert aoi.instantaneous_aoi(table, CELL, 0.5)[0] == \
            pytest.approx(0.35)

    def test_age_zero_at_generation_instant(self):
        table = _opened(_bsm(1.0), now=1.0)
        assert aoi.instantaneous_aoi(table, CELL, 1.0)[0] == 0.0

    def test_before_generation_rejected(self):
        table = _opened(_bsm(1.0), now=1.0)
        with pytest.raises(ValueError):
            aoi.instantaneous_aoi(table, CELL, 0.999)

    def test_missing_record_is_undefined(self):
        with pytest.raises(UndefinedValueError):
            aoi.instantaneous_aoi(aoi.PairTable(2), CELL, 1.0)

    def test_gated_age_follows_the_flag(self):
        # gated area accrues the full age while the flag the sender
        # piggybacked on its BSM is raised, else none
        for flag in (0, 1):
            table = _opened(_bsm(0.0, risky=flag), now=0.0)
            assert table.risky[1] == flag
            aoi.advance(table, CELL, 2.0)
            assert table.aoi_run[1] == 2.0
            assert table.taoi_run[1] == (2.0 if flag else 0.0)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 10.0))
    def test_unit_slope_property(self, t, dt):
        table = _opened(_bsm(0.0), now=0.0)
        a0 = aoi.instantaneous_aoi(table, CELL, t)[0]
        a1 = aoi.instantaneous_aoi(table, CELL, t + dt)[0]
        assert a1 - a0 == pytest.approx(dt, abs=1e-9)


class TestAdvance:
    def test_trapezoid_area(self):
        table = _fresh()
        aoi.advance(table, CELL, 5.0)
        assert table.aoi_run[1] == pytest.approx(12.5)
        assert table.aoi_run[1] / 5.0 == pytest.approx(2.5)

    def test_gate_zero_skips_taoi(self):
        table = _fresh(risky=0)
        aoi.advance(table, CELL, 5.0)
        assert table.aoi_run[1] == pytest.approx(12.5)
        assert table.taoi_run[1] == 0.0

    def test_same_time_is_a_noop(self):
        table = _fresh()
        aoi.advance(table, CELL, 3.0)
        before = table.aoi_run[1]
        aoi.advance(table, CELL, 3.0)
        assert table.aoi_run[1] == before

    def test_backwards_rejected(self):
        table = _fresh()
        aoi.advance(table, CELL, 3.0)
        with pytest.raises(ValueError):
            aoi.advance(table, CELL, 2.999)


class TestReception:
    def test_age_resets_to_in_flight_delay(self):
        table = _opened(_bsm(0.0), now=0.0)
        _receive(table, _bsm(0.0985), now=0.1)
        assert aoi.instantaneous_aoi(table, CELL, 0.1)[0] == \
            pytest.approx(0.0015)

    def test_reception_closes_the_previous_tooth(self):
        table = _opened(_bsm(0.0985), now=0.1)
        _receive(table, _bsm(0.2), now=0.2)
        # trapezoid from age 0.0015 up to 0.1015 over the 0.1 s stretch
        assert table.aoi_run[1] == pytest.approx(0.00515)

    def test_future_snapshot_rejected(self):
        with pytest.raises(ValueError):
            _opened(_bsm(0.2), now=0.1)
        table = _fresh()
        with pytest.raises(ValueError):
            aoi.swap_snapshot(table, CELL, aoi.snapshot(_bsm(0.2)), 0.1)

    def test_periodic_zero_delay_averages_half_period(self):
        table = _fresh()
        for k in range(1, 6):
            _receive(table, _bsm(float(k)), now=float(k))
        assert table.aoi_run[1] / 5.0 == pytest.approx(0.5)

    @given(st.floats(0.05, 2.0), st.integers(2, 12))
    def test_half_period_property(self, period, cycles):
        # every reception in one batch: the flush applies them in rounds
        table = _fresh()
        receive(table, [(_bsm(k * period), k * period, [0])
                        for k in range(1, cycles + 1)])
        avg = table.aoi_run[1] / (cycles * period)
        assert avg == pytest.approx(period / 2.0, rel=1e-9)


def _batch(n):
    """n and one batch of decided frames among n vehicles, in time order:
    the sender, generation, delay, flag and distinct receivers of each."""
    frame = st.integers(0, n - 1).flatmap(lambda s: st.tuples(
        st.just(s), st.floats(0.0, 1.0), st.floats(0.0, 0.05),
        st.integers(0, 1), st.lists(st.sampled_from(
            [j for j in range(n) if j != s]), min_size=1, unique=True)))
    return st.tuples(st.just(n), st.lists(frame, min_size=1, max_size=12).map(
        lambda frames: sorted(frames, key=lambda f: f[1] + f[2])))


class TestReceiverOrder:
    @given(st.integers(2, 6).flatmap(_batch), st.data())
    def test_the_order_inside_a_frame_does_not_matter(self, case, data):
        # a frame reaches each receiver once, and each receiver walks its
        # records by receiver first: permuting a frame's receivers moves
        # only the global record numbers
        n, batch = case
        tables = aoi.PairTable(n), aoi.PairTable(n)
        for table, permute in zip(tables, (False, True)):
            receive(table, [
                (_bsm(g, risky=risky, sender=s), g + delay,
                 data.draw(st.permutations(rx)) if permute else rx)
                for s, g, delay, risky, rx in batch])
        a, b = (vars(t) for t in tables)
        for name, value in a.items():
            if isinstance(value, np.ndarray) and name != "seq":
                assert np.array_equal(value, b[name]), name
        assert a["next_seq"] == b["next_seq"]
        live = np.flatnonzero(a["live"])
        assert tables[0].by_insertion(live).tolist() == \
            tables[1].by_insertion(live).tolist()


class TestDualRouteArea:
    @given(st.lists(st.floats(0.001, 9.999), min_size=2, max_size=24,
                    unique=True),
           st.floats(10.0, 12.0))
    def test_running_area_matches_closed_form(self, times, t_end):
        times = sorted(times)
        gens = times[0::2][: len(times) // 2]
        rxs = times[1::2][: len(gens)]
        table = _fresh()
        for g, r in zip(gens, rxs):
            _receive(table, _bsm(g), now=r)
        aoi.advance(table, CELL, t_end)
        expected = sawtooth_area(rxs, gens, t_end)
        assert table.aoi_run[1] == pytest.approx(expected, rel=1e-12,
                                                 abs=1e-12)
        # every snapshot raises the flag, so the gate is open the whole
        # run and the gated area is the same number
        assert table.taoi_run[1] == pytest.approx(table.aoi_run[1],
                                                  abs=1e-12)

    @given(st.lists(st.floats(0.001, 9.999), min_size=2, max_size=20,
                    unique=True),
           st.lists(st.integers(0, 1), min_size=11, max_size=11))
    def test_gated_area_never_exceeds_total(self, times, gates):
        times = sorted(times)
        gens = times[0::2][: len(times) // 2]
        rxs = times[1::2][: len(gens)]
        # the record starts under gates[0]; reception i carries gates[i + 1]
        table = _fresh(risky=gates[0])
        receive(table, [(_bsm(g, risky=gates[i + 1]), r, [0])
                        for i, (g, r) in enumerate(zip(gens, rxs))])
        aoi.advance(table, CELL, 10.0)
        assert table.taoi_run[1] <= table.aoi_run[1] + 1e-12
        assert table.taoi_mi[1] <= table.aoi_mi[1] + 1e-12

    def test_closed_form_rejects_malformed_sequences(self):
        with pytest.raises(ValueError):
            sawtooth_area([2.0, 1.0], [1.5, 0.5], 3.0)
        with pytest.raises(ValueError):
            sawtooth_area([1.0], [1.5], 3.0)
        with pytest.raises(ValueError):
            sawtooth_area([1.0, 2.0], [0.5], 3.0)


class TestSlotSample:
    def test_right_endpoint_step(self):
        table = _fresh()
        got = slotted.slot_sample(table, CELL, 3.0, slot=1.0)
        assert got.tolist() == [3.0]
        assert table.aoi_run[1] == pytest.approx(3.0)
        assert table.taoi_run[1] == pytest.approx(3.0)

    def test_gate_zero_keeps_taoi_flat(self):
        table = _fresh(risky=0)
        slotted.slot_sample(table, CELL, 2.0, slot=1.0)
        assert table.aoi_run[1] == pytest.approx(2.0)
        assert table.taoi_run[1] == 0.0


def _sim(**kw):
    """A three-vehicle run that has not started: tests feed receptions
    by hand and close it with the engine's own wrap-up."""
    return Simulation(SimConfig(vehicle_count=3, duration_s=6.0, seed=0, **kw))


class TestAggregation:
    def test_vehicle_aoi_averages_the_neighbor_set(self):
        # receiver 0 hears sender 1 every second and sender 2 never
        table = _fresh(n=3, senders=(1, 2))
        for k in range(1, 6):
            _receive(table, _bsm(float(k)), now=float(k))
        aoi.advance(table, np.array([2]), 5.0)
        # pairwise averages 0.5 and 2.5 over the same 5 s window
        assert aoi.vehicle_aoi(table.aoi_mi[[1, 2]].tolist(), 5.0) == \
            pytest.approx(1.5)

    def test_vehicle_aoi_without_neighbors_is_undefined(self):
        with pytest.raises(UndefinedValueError):
            aoi.vehicle_aoi([], 5.0)

    def test_vehicle_taoi_restricted_to_risky_subset(self):
        # receiver 0 of senders 1 (fell), 2 (calm) and 3 (far): risky for
        # the first half of the window, then its flag fell: the gated area
        # it accrued still counts it
        table = _fresh(n=4, senders=(1, 2, 3))
        table.risky[2] = 0
        _receive(table, Bsm(1, 2.0, 0.0, 0.0, 0.0, 0.0, riskiness_flag=0),
                 now=2.0)
        aoi.advance(table, np.array([1, 2, 3]), 4.0)
        gated = table.taoi_mi[[1, 2, 3]].tolist()
        distances = [40.0, 40.0, 150.5]

        def taoi(range_m, picked=slice(None)):
            return aoi.vehicle_taoi(gated[picked],
                                    [d <= range_m for d in distances][picked],
                                    4.0)

        val, n = taoi(150.0)
        # gated area 2.0 (age 0 -> 2 over [0, 2]) over the 4 s window
        assert (val, n) == (pytest.approx(0.5), 1)
        # the risky sender beyond range_m counts once it is inside it
        val, n = taoi(150.5)
        assert n == 2 and val == pytest.approx((2.0 + 8.0) / 4.0 / 2)
        assert taoi(150.0, slice(1, 2)) == (None, 0)

    def test_system_average_spreads_over_all_ordered_pairs(self):
        # one link heard once at t=0 averages 3 s over the 6 s run; the
        # other five ordered pairs of three vehicles weigh zero
        sim = _sim()
        receive(sim.pairs, [(_bsm(0.0, risky=1, sender=0), 0.0, [1])])
        rep = sim._finalize()
        assert rep.system_aoi_s == pytest.approx(0.5)
        assert rep.system_taoi_s == pytest.approx(0.5)

    def test_empty_window_is_undefined(self):
        # heard at 0.5 s, silent over the (2, 3] window: no neighbor
        # population, so neither vehicle AoI nor TAoI has a value
        sim = _sim()
        receive(sim.pairs, [
            (Bsm(1, 0.5, 30.0, 2.0, 15.0, 0.0, riskiness_flag=1), 0.5, [0])])
        sim._on_measurement(3 * NS)
        rows = [row for row in sim.timeseries if row[1] == 0]
        t, vid, _, _, aoi_v, taoi_v = rows[-1]
        assert (t, vid, aoi_v, taoi_v) == (3.0, 0, None, None)
        assert len(sim.vehicles[0].records) == 1


class TestWindowReset:
    def test_reset_clears_window_but_not_run_totals(self):
        table = _fresh()
        aoi.advance(table, CELL, 2.0)
        aoi.reset_window(table)
        assert table.aoi_mi[1] == 0.0
        assert table.taoi_mi[1] == 0.0
        assert table.aoi_run[1] == pytest.approx(2.0)

    def test_mean_tracking_error_needs_samples(self):
        # the engine reports a pair's mean error only once it has samples
        sim = _sim()
        receive(sim.pairs, [(_bsm(0.0, sender=0), 0.0, [1])])
        assert sim._finalize().te_pairs == []
        sim = _sim()
        receive(sim.pairs, [(_bsm(0.0, sender=0), 0.0, [1])])
        cell = 1 * 3 + 0   # receiver 1's record of sender 0
        sim.pairs.te_sum[cell], sim.pairs.te_count[cell] = 3.0, 2
        assert sim._finalize().te_pairs == [(1, 0, 1.5, 2)]


# ----------------------------------------------- batched flush reference


class _Record:
    """The per-record state the pair table replaced, with its arithmetic
    (record_from_bsm, advance, apply_reception, the tick's tracking-error
    sample): the scalar reference for the batched flush."""

    def __init__(self, bsm, now):
        if bsm.gen_time > now:
            raise ValueError("snapshot from the future")
        self.install(bsm, now)
        self.cursor = now
        self.aoi_mi = self.taoi_mi = self.aoi_run = self.taoi_run = 0.0
        self.te_sum, self.te_count = 0.0, 0

    def install(self, bsm, now):
        self.gen_time, self.bx, self.by = bsm.gen_time, bsm.x, bsm.y
        self.bvx, self.bvy = bsm.velocity()
        self.risky, self.interval = bsm.riskiness_flag, bsm.interval
        self.last_seen = now

    def advance(self, t):
        if t < self.cursor:
            raise ValueError("cursor moved backwards")
        if t == self.cursor:
            return
        a0 = self.cursor - self.gen_time
        a1 = t - self.gen_time
        area = 0.5 * (a0 + a1) * (t - self.cursor)
        self.aoi_mi += area
        self.aoi_run += area
        if self.risky:
            self.taoi_mi += area
            self.taoi_run += area
        self.cursor = t

    def receive(self, bsm, now):
        self.advance(now)
        if bsm.gen_time > now:
            raise ValueError("snapshot from the future")
        self.install(bsm, now)


class _Reference:
    """The dict-of-records engine bookkeeping: receptions applied one at a
    time, per-record tick sweep and eviction, per-vehicle measurement
    sums and the wrap-up's pair totals, all in dict insertion order."""

    def __init__(self, sim):
        self.sim = sim
        self.records = [{} for _ in range(sim.n)]
        self.pair_areas = {}   # (sender, receiver) -> [aoi, taoi, te, n]

    def receive(self, bsm, now, receivers):
        for j in receivers:
            rec = self.records[j].get(bsm.sender)
            if rec is None:
                self.records[j][bsm.sender] = _Record(bsm, now)
            else:
                rec.receive(bsm, now)

    def _retire(self, u, i, rec):
        acc = self.pair_areas.setdefault((u, i), [0.0, 0.0, 0.0, 0])
        acc[0] += rec.aoi_run
        acc[1] += rec.taoi_run
        acc[2] += rec.te_sum
        acc[3] += rec.te_count

    def tick(self, t):
        sim, cfg = self.sim, self.sim.cfg
        params, timeout = cfg.safety, cfg.neighbor_timeout_s
        xs, ys = sim._xs.tolist(), sim._ys.tolist()
        vxs, vys = sim._vxs.tolist(), sim._vys.tolist()
        speeds, dist = sim._speeds.tolist(), sim._dist.tolist()
        risk = 0
        for i, records in enumerate(self.records):
            thr = params.t_react + speeds[i] / params.decel
            dead = []
            for u, rec in records.items():
                if rec.last_seen < t - timeout:
                    dead.append(u)
                    continue
                dtg = t - rec.gen_time
                te = math.hypot(xs[u] - (rec.bx + rec.bvx * dtg),
                                ys[u] - (rec.by + rec.bvy * dtg))
                rec.te_sum += te
                rec.te_count += 1
                if dist[i][u] <= cfg.channel.range_m:
                    rel = math.hypot(vxs[u] - vxs[i], vys[u] - vys[i])
                    floor = params.rel_speed_floor
                    if te / (rel if rel > floor else floor) > thr:
                        risk += 1
            for u in dead:
                rec = records.pop(u)
                # the engine never moves a cursor back: a record measured
                # at a rounded-up ``last_seen + timeout`` keeps its areas
                rec.advance(max(rec.cursor, rec.last_seen + timeout))
                self._retire(u, i, rec)
        return risk

    def measure(self, t):
        """Per vehicle (AoI, TAoI) of the window ending at t."""
        t_mi, range_m = self.sim.cfg.t_mi_s, self.sim.cfg.channel.range_m
        out = []
        for i, records in enumerate(self.records):
            for rec in records.values():
                rec.advance(t)
            heard = [] if t <= t_mi + 1e-9 else [
                (u, r) for u, r in records.items() if r.last_seen >= t - t_mi]
            if heard:
                aoi_v = sum(r.aoi_mi for _, r in heard) * (1.0 / t_mi) \
                    / len(heard)
                risky = [r for u, r in heard if r.taoi_mi > 0.0
                         and self.sim._dist[i][u] <= range_m]
                taoi_v = (sum(r.taoi_mi for r in risky) * (1.0 / t_mi)
                          / len(risky) if risky else None)
            else:
                aoi_v = taoi_v = None
            out.append((aoi_v, taoi_v))
            for rec in records.values():
                rec.aoi_mi = rec.taoi_mi = 0.0
        return out

    def finish(self, t_end, duration):
        for i, records in enumerate(self.records):
            for u, rec in records.items():
                rec.advance(t_end)
                self._retire(u, i, rec)
            records.clear()
        n = self.sim.n
        areas = list(self.pair_areas.values())
        sys_aoi = sum(a[0] for a in areas) / duration / (n * (n - 1))
        te_pairs = [(i, u, acc[2] / acc[3], acc[3])
                    for (u, i), acc in sorted(self.pair_areas.items(),
                                              key=lambda kv: kv[0][::-1])
                    if acc[3] > 0]
        return sys_aoi, te_pairs


FIELDS = ("gen_time", "bx", "by", "bvx", "bvy", "risky", "interval",
          "last_seen", "cursor", "aoi_mi", "taoi_mi", "aoi_run", "taoi_run",
          "te_sum", "te_count")


def _assert_same_state(table, ref):
    """Bit-equal snapshots, cursors and areas, the same live pairs in the
    same insertion order, and the same retired totals in the same order."""
    n = table.n
    for i, records in enumerate(ref.records):
        row = np.arange(i * n, (i + 1) * n)
        live = row[table.live[row]]
        assert [c % n for c in table.by_insertion(live)] == list(records)
        for u, rec in records.items():
            for name in FIELDS:
                got = getattr(table, name)[i * n + u].item()
                assert got == getattr(rec, name), name
                assert math.copysign(1.0, got) == \
                    math.copysign(1.0, getattr(rec, name))
    order = (np.concatenate(table.retire_order).tolist()
             if table.retire_order else [])
    assert [(c % n, c // n) for c in order] == list(ref.pair_areas)
    for (u, i), acc in ref.pair_areas.items():
        c = i * n + u
        assert [table.ret_aoi[c], table.ret_taoi[c], table.ret_te_sum[c],
                table.ret_te_count[c]] == acc


def _replay(n, timeout_ms, steps):
    """Drive one engine and the reference through the same steps:
    ("rx", dt, sender, receivers, delay, risky, interval, x, v) queues a
    decoded frame; ("flush", dt), ("tick", dt) and ("measure", dt) are
    the engine's flush points, where the queued frames go into the pair
    table as one batch, as they do at the wrap-up. A measurement comes
    with a tick at its instant, as in a run. Times are whole
    milliseconds, dt apart. Returns what the scenario exercised."""
    sim = Simulation(SimConfig(vehicle_count=n, duration_s=1.0, seed=n,
                               t_mi_s=0.1, protocol="taoi",
                               neighbor_timeout_s=timeout_ms / 1000.0))
    ref = _Reference(sim)
    seen = {"rounds": 0, "at_flush_instant": 0, "reheard": 0, "resets": 0}
    now_ms, last_rx_ms, pending = 0, None, []
    for kind, dt, *args in steps:
        now_ms = min(now_ms + dt, 1000)
        t = now_ms * 10 ** 6 / NS
        if kind == "rx":
            sender, receivers, delay, risky, interval, x, v = args
            receivers = [j for j in receivers if j != sender]
            if not receivers:
                continue
            bsm = Bsm(sender, max(now_ms - delay, 0) / 1000.0, x, 2.0 * x,
                      v, 0.3 * x, riskiness_flag=risky, interval=interval)
            if any((sender, j) in ref.pair_areas
                   and sender not in ref.records[j] for j in receivers):
                seen["reheard"] += 1
            pending.append((bsm, t, set(receivers)))
            ref.receive(bsm, t, receivers)
            last_rx_ms = now_ms
            continue
        # every point flushes first, a tick at its top before its sweep
        if pending:
            cells = [(bsm.sender, j) for bsm, _, rx in pending for j in rx]
            seen["rounds"] += len(cells) > len(set(cells))
            seen["at_flush_instant"] += last_rx_ms == now_ms
            receive(sim.pairs, pending)
            pending = []
        if kind != "flush":
            # a measurement boundary is also a tick, which runs first
            before = sim.risk_count
            sim._sample_te_and_risk(t)
            assert sim.risk_count - before == ref.tick(t)
        if kind == "measure":
            sim._on_measurement(now_ms * 10 ** 6)
            want = ref.measure(t)
            got = [row[4:] for row in sim.timeseries[-n:]]
            assert got == want
            seen["resets"] += 1
        _assert_same_state(sim.pairs, ref)
    if pending:
        receive(sim.pairs, pending)
    rep = sim._finalize()
    sys_aoi, te_pairs = ref.finish(1.0, 1.0)
    assert rep.system_aoi_s == sys_aoi
    assert rep.te_pairs == te_pairs
    _assert_same_state(sim.pairs, ref)
    return seen


def _steps(n):
    rx = st.tuples(st.just("rx"), st.sampled_from([0, 1, 2, 5]),
                   st.integers(0, n - 1),
                   st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True),
                   st.integers(0, 30), st.integers(0, 1),
                   st.sampled_from([0.02, 0.1, 0.3]),
                   st.floats(-500.0, 500.0), st.floats(0.0, 30.0))
    point = st.tuples(st.sampled_from(["flush", "tick", "measure"]),
                      st.sampled_from([0, 10, 40, 120]))
    return st.lists(st.one_of(rx, rx, rx, point), min_size=10, max_size=80)


class TestBatchedFlush:
    def test_each_exercised_case_matches_the_reference(self):
        # receiver 1 hears sender 0 twice and receiver 2 once before a
        # tick at the instant of the last reception, falls silent past the
        # 50 ms timeout, is evicted and heard again; measurements reset
        rx = ("rx", 1, 0, [1, 2], 2, 1, 0.1, 10.0, 12.0)
        again = ("rx", 5, 0, [1], 0, 0, 0.3, 40.0, 3.0)
        steps = [rx, again, ("tick", 0), ("measure", 94), ("tick", 100),
                 again, ("measure", 0), ("rx", 0, 2, [0, 1], 1, 1, 0.02,
                                         -3.0, 8.0), ("flush", 0)]
        seen = _replay(3, 50, steps)
        assert all(seen.values()), seen

    def test_eviction_after_a_measurement_at_the_rounded_timeout(self):
        # the tick at 0.224 keeps a record last heard at 0.174 under a
        # 50 ms timeout, as 0.174 == 0.224 - 0.05, and the measurement
        # closes its window at 0.224; yet 0.174 + 0.05 rounds below 0.224,
        # and evicting it later must not move its cursor back
        assert 0.174 == 0.224 - 0.05 and 0.174 + 0.05 < 0.224
        steps = [("rx", 174, 0, [1], 0, 1, 0.1, 5.0, 10.0),
                 ("measure", 50), ("tick", 76)]
        _replay(2, 50, steps)

    @settings(max_examples=60)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from([20, 50, 300]),
                            _steps(n))))
    def test_random_logs_match_the_reference(self, case):
        _replay(*case)

