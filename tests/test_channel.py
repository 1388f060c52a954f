"""Radio model: log-distance loss, Nakagami fading, CSMA/CA timing,
and the no-capture collision rule."""

import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taoi_sim.channel import (
    ChannelConfig,
    ChannelTimeline,
    TransmissionEvent,
    csma_access,
    delivery_outcome,
    tx_duration,
)
from taoi_sim.metrics import Bsm
from taoi_sim.mobility import VehicleState

CFG = ChannelConfig()
AIFS = CFG.aifs_us * 1e-6
SLOT = CFG.slot_time_us * 1e-6
# no evaluation cutoff in reach of the link-budget probes
WIDE = dataclasses.replace(CFG, max_reception_range_m=1e4)


def _tx(sender, start, x, y, dur=1.373e-3):
    bsm = Bsm(sender, start, x, y, 10.0, 0.0)
    return TransmissionEvent(sender, start, dur, bsm)


def _rx(vid, x, y=0.0):
    return VehicleState(vid, x, y, 10.0, 0.0, 0)


class _Gamma:
    """Fading stub: hands out a fixed sample, or the draws of a real
    generator, and records every (shape, scale) asked for and every
    sample handed out."""

    def __init__(self, value=1.0, rng=None):
        self.value, self.rng = value, rng
        self.calls, self.draws = [], []

    def gamma(self, shape, scale):
        self.calls.append((shape, scale))
        f = self.value if self.rng is None else self.rng.gamma(shape, scale)
        self.draws.append(f)
        return f


def _decodes(d, fading=1.0, **overrides):
    """Whether one receiver d meters from an uncontested sender decodes
    when its own-signal fading sample is ``fading``."""
    cfg = dataclasses.replace(WIDE, **overrides)
    return delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(1, d)], [],
                            _Gamma(fading), cfg) == {1}


def _assert_rx_power(d, dbm, fading=1.0, **overrides):
    """The link at d meters arrives with ``dbm`` (to 1e-9 dB): it decodes
    against a sensitivity just below that and fails just above it."""
    assert _decodes(d, fading, rx_sensitivity_dbm=dbm - 1e-9, **overrides)
    assert not _decodes(d, fading, rx_sensitivity_dbm=dbm + 1e-9, **overrides)


class TestPathLoss:
    def test_reference_distance(self):
        _assert_rx_power(1.0, 20.0 - 47.86)

    def test_hundred_meters(self):
        _assert_rx_power(100.0, 20.0 - 107.86)

    @given(st.floats(1.0, 1000.0))
    def test_thirty_db_per_decade(self, d):
        dbm = 20.0 - 47.86 - 30.0 * math.log10(d)
        _assert_rx_power(d, dbm)
        # a 30 dB fading gain exactly makes up one decade more distance
        _assert_rx_power(10.0 * d, dbm, fading=1000.0)

    def test_co_located_receiver_takes_the_reference_loss(self):
        # below the 1 m reference distance, down to a receiver on the
        # sender's spot, the loss is the reference loss
        for d in (0.0, 1e-9, 0.5):
            _assert_rx_power(d, 20.0 - 47.86)
        stub = _Gamma()
        assert delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 0.0)], [],
                                stub, CFG) == {1}
        assert stub.calls == [(3.0, 1.0 / 3.0)]

    def test_co_located_interferer_garbles(self):
        # an overlapping frame sent from the receiver's own spot reaches
        # it at the reference loss and garbles the capture, one draw each
        stub = _Gamma()
        got = delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 50.0)],
                               [_tx(2, 0.0, 50.0, 0.0)], stub, CFG)
        assert got == set() and len(stub.calls) == 2


class TestNakagami:
    @pytest.mark.parametrize("d,m", [(50.0, 3.0), (79.99, 3.0), (80.0, 1.5),
                                     (199.0, 1.5), (200.0, 1.0), (500.0, 1.0)])
    def test_shape_bins(self, d, m):
        stub = _Gamma()
        delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(1, d)], [], stub, WIDE)
        assert stub.calls == [(m, 1.0 / m)]

    @staticmethod
    def _draws(seed, d, count=60000):
        """The own-signal samples of ``count`` receivers at d meters."""
        stub = _Gamma(rng=np.random.default_rng(seed))
        delivery_outcome(_tx(0, 0.0, 0.0, 0.0),
                         [_rx(i, d) for i in range(1, count + 1)], [], stub,
                         CFG)
        assert len(stub.draws) == count
        return np.array(stub.draws)

    def test_draw_moments_near_field(self):
        draws = self._draws(7, 50.0)
        assert draws.min() > 0.0
        assert draws.mean() == pytest.approx(1.0, rel=0.02)
        # gamma(m, 1/m) has variance 1/m; m = 3 close in
        assert draws.var() == pytest.approx(1.0 / 3.0, rel=0.08)

    def test_draw_variance_far_field(self):
        draws = self._draws(8, 250.0)
        assert draws.var() == pytest.approx(1.0, rel=0.08)


class TestRxPower:
    def test_unfaded_link_budget(self):
        _assert_rx_power(1.0, 23.0 - 47.86, tx_power_dbm=23.0)
        _assert_rx_power(100.0, 23.0 - 107.86, tx_power_dbm=23.0)

    def test_fading_in_db(self):
        _assert_rx_power(1.0, 20.0 - 47.86 - 10.0 * math.log10(2.0),
                         fading=0.5)

    def test_nonpositive_fading_rejected(self):
        with pytest.raises(ValueError):
            _decodes(1.0, fading=0.0)


class TestTxDuration:
    def test_default_bsm_on_air(self):
        assert tx_duration(1000, 6.0, CFG) == pytest.approx(
            8.0 * 1000 / 6e6 + 40e-6)

    def test_round_millisecond_payload(self):
        assert tx_duration(720, 6.0, CFG) == pytest.approx(1e-3, rel=1e-12)

    def test_preamble_charged_once(self):
        slope = tx_duration(2000, 6.0, CFG) - tx_duration(1000, 6.0, CFG)
        assert slope == pytest.approx(8.0 * 1000 / 6e6)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            tx_duration(0, 6.0, CFG)
        with pytest.raises(ValueError):
            tx_duration(1000, 0.0, CFG)


class TestConfigValidation:
    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            ChannelConfig(path_loss_exponent=0.0)

    def test_bad_contention_window(self):
        with pytest.raises(ValueError):
            ChannelConfig(cw=0)

    def test_bad_data_rate(self):
        with pytest.raises(ValueError):
            ChannelConfig(data_rate_mbps=-1.0)


class TestTimeline:
    def test_first_overlap_half_open_semantics(self):
        tl = ChannelTimeline()
        tl.commit(1.0, 2.0)
        assert tl.first_overlap(0.0, 1.0) is None  # touching is not overlap
        assert tl.first_overlap(2.0, 3.0) is None
        assert tl.first_overlap(1.5, 1.6) == (1.0, 2.0)
        assert tl.first_overlap(0.5, 1.1) == (1.0, 2.0)

    def test_earliest_of_several(self):
        tl = ChannelTimeline()
        tl.commit(3.0, 4.0)
        tl.commit(1.0, 2.0)
        assert tl.first_overlap(0.0, 10.0) == (1.0, 2.0)

    def test_prune_drops_finished_frames(self):
        tl = ChannelTimeline()
        tl.commit(0.0, 1.0)
        tl.commit(2.0, 3.0)
        tl.prune(1.5)
        assert len(tl) == 1
        assert tl.first_overlap(0.0, 10.0) == (2.0, 3.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            ChannelTimeline().commit(1.0, 1.0)


class _FixedDraw:
    """Backoff stub: always hands out the same counter."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def integers(self, n):
        self.calls += 1
        return self.value


class TestCsma:
    def test_idle_medium_needs_no_backoff(self):
        rng = _FixedDraw(9)
        got = csma_access(0, 0.25, ChannelTimeline(), rng, CFG)
        assert got == pytest.approx(0.25 + AIFS, abs=1e-12)
        assert rng.calls == 0

    def test_busy_medium_draws_once_and_counts_down(self):
        tl = ChannelTimeline()
        tl.commit(0.0, 0.001)
        rng = _FixedDraw(2)
        got = csma_access(0, 0.0005, tl, rng, CFG)
        assert got == pytest.approx(0.001 + AIFS + 2 * SLOT, abs=1e-12)
        assert rng.calls == 1

    def test_smaller_counter_wins_the_race(self):
        def grant(counter):
            tl = ChannelTimeline()
            tl.commit(0.0, 0.001)
            return csma_access(0, 0.0005, tl, _FixedDraw(counter), CFG)
        assert grant(2) < grant(5)

    def test_countdown_freezes_across_a_busy_period(self):
        tl = ChannelTimeline()
        tl.commit(0.0, 0.001)
        tau1 = 0.001 + AIFS
        # interrupt mid-countdown after 2 full idle slots
        busy2 = (tau1 + 2.5 * SLOT, 0.002)
        tl.commit(*busy2)
        got = csma_access(0, 0.0, tl, _FixedDraw(5), CFG)
        # 2 slots spent, 3 remain after the gap that follows busy2
        assert got == pytest.approx(busy2[1] + AIFS + 3 * SLOT, abs=1e-12)


class TestDelivery:
    def test_close_uncontested_link_decodes(self):
        rng = np.random.default_rng(1)
        got = delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 5.0)], [], rng,
                               CFG)
        assert got == {1}

    def test_sender_never_receives_its_own_frame(self):
        rng = np.random.default_rng(1)
        got = delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(0, 0.0), _rx(1, 5.0)],
                               [], rng, CFG)
        assert got == {1}

    def test_beyond_hard_range_cutoff(self):
        rng = np.random.default_rng(1)
        got = delivery_outcome(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 301.0)], [], rng,
                               CFG)
        assert got == set()

    def test_overlapping_frames_garble_each_other(self):
        a = _tx(0, 0.0, 0.0, 0.0)
        b = _tx(1, 0.0005, 10.0, 0.0)
        middle = [_rx(2, 5.0)]
        rng = np.random.default_rng(1)
        assert delivery_outcome(a, middle, [b], rng, CFG) == set()
        assert delivery_outcome(b, middle, [a], rng, CFG) == set()

    def test_back_to_back_frames_do_not_interfere(self):
        a = _tx(0, 0.0, 0.0, 0.0, dur=1e-3)
        b = _tx(1, 0.001, 10.0, 0.0)  # starts exactly at a's end
        rng = np.random.default_rng(1)
        assert delivery_outcome(a, [_rx(2, 5.0)], [b], rng, CFG) == {2}

    def test_half_duplex_receiver_is_deaf(self):
        a = _tx(0, 0.0, 0.0, 0.0)
        b = _tx(1, 0.0005, 250.0, 0.0)  # far: cannot garble, but 1 is busy
        rng = np.random.default_rng(1)
        got = delivery_outcome(a, [_rx(1, 250.0)], [b], rng, CFG)
        assert got == set()

    def test_decode_probability_falls_with_distance(self):
        def rate(d, seed):
            rng = np.random.default_rng(seed)
            tx = _tx(0, 0.0, 0.0, 0.0)
            hits = sum(1 for _ in range(400)
                       if delivery_outcome(tx, [_rx(1, d)], [], rng, CFG))
            return hits / 400.0
        near, mid, far = rate(60.0, 3), rate(280.0, 3), rate(296.0, 3)
        assert near > mid > far
        assert near > 0.95
        assert far < 0.5

    def test_mean_decode_distance_value(self):
        # fade margin 74.14 dB over a 30 dB/decade slope: the mean received
        # power crosses the sensitivity threshold at 296.1 m
        assert _decodes(295.6) and not _decodes(296.6)


def _reference_delivery_outcome(tx, receivers, concurrent, rng, cfg):
    """The per-link helper form of ``delivery_outcome`` that the inlined
    loop replaced, kept as the draw-for-draw reference."""

    def shape(d):
        for bound, m in cfg.nakagami_bins:
            if d < bound:
                return m
        return cfg.nakagami_m_far

    def fading_draw(d):
        m = shape(d)
        return rng.gamma(m, 1.0 / m)

    def rx_power(d, fading):
        if d < 0 or fading <= 0:
            raise ValueError("undefined link budget")
        # sub-metre links take the 1 m reference loss
        loss = (cfg.reference_loss_db
                + 10.0 * cfg.path_loss_exponent * math.log10(d)
                if d > 1.0 else cfg.reference_loss_db)
        return cfg.tx_power_dbm - loss + 10.0 * math.log10(fading)

    overlapping = [c for c in concurrent
                   if c is not tx and c.start < tx.end and c.end > tx.start]
    busy_senders = {c.sender for c in overlapping}
    got = set()
    for r in receivers:
        if r.id == tx.sender:
            continue
        d = math.hypot(r.x - tx.bsm.x, r.y - tx.bsm.y)
        if d > cfg.max_reception_range_m:
            continue
        if r.id in busy_senders:
            continue
        if rx_power(d, fading_draw(d)) < cfg.rx_sensitivity_dbm:
            continue
        garbled = False
        for c in overlapping:
            di = math.hypot(r.x - c.bsm.x, r.y - c.bsm.y)
            if di > cfg.max_reception_range_m:
                continue
            if rx_power(di, fading_draw(di)) >= cfg.carrier_sense_dbm:
                garbled = True
                break
        if not garbled:
            got.add(r.id)
    return got


def _random_frame(g):
    """A finished frame with its receivers and the frames on the air.

    The sender sits at the origin. Receivers lie on a 20 m grid along the
    road axis, so many links are exactly 80, 200 or 300 m long, plus
    scattered ones off the axis and one within a metre of the sender.
    Some receivers are themselves on the air (half-duplex); some frames
    overlap the finished one, some touch it, some miss it; and some
    senders are more than 300 m from every receiver, others share a spot
    with a receiver.
    """
    dur = 1.373e-3
    tx = _tx(0, 0.0, 0.0, 0.0, dur)
    fixed = [80.0, 200.0, 300.0, -280.0, 0.6]
    grid = [20.0 * k for k in range(-16, 17) if k and 20.0 * k not in fixed]
    spots = [(0.0, 0.0)] + [(x, 0.0) for x in fixed]
    spots += [(x, 0.0) for x in g.choice(grid, 12, replace=False).tolist()]
    spots += list(zip(g.uniform(-320, 320, 12).tolist(),
                      g.uniform(5, 30, 12).tolist()))
    # the sender is listed too, as it must never hear itself
    receivers = [_rx(i, x, y) for i, (x, y) in enumerate(spots)]
    starts = [-dur, dur, 0.5 * dur, -0.5 * dur]
    starts += g.uniform(-2 * dur, 2 * dur, 4).tolist()
    concurrent = [tx]
    for k, start in enumerate(starts):
        if k % 2:   # a receiver on the air: deaf if its frame overlaps
            r = receivers[int(g.integers(1, len(receivers)))]
            concurrent.append(_tx(r.id, start, r.x, r.y, dur))
        else:       # a sender from outside the receiver set
            x = float(g.choice([-1000.0, 1000.0, 20.0 * g.integers(-16, 17)]))
            y = float(g.choice([-2.0, 0.0]))
            concurrent.append(_tx(100 + k, start, x, y, dur))
    concurrent.sort(key=lambda c: (c.start, c.sender))
    return tx, receivers, concurrent


class TestDrawForDraw:
    # a -85 dBm carrier-sense level lets far interferers pass, so a
    # receiver's interferer loop often runs past its first draw
    @pytest.mark.parametrize("cfg", [CFG, dataclasses.replace(
        CFG, carrier_sense_dbm=-85.0)], ids=["default", "coarse_sensing"])
    def test_same_decodes_and_generator_state_as_the_reference(self, cfg):
        g = np.random.default_rng(2024)
        decoded = lost = 0
        for seed in range(300):
            tx, receivers, concurrent = _random_frame(g)
            ref_rng = np.random.default_rng(seed)
            new_rng = np.random.default_rng(seed)
            want = _reference_delivery_outcome(tx, receivers, concurrent,
                                               ref_rng, cfg)
            got = delivery_outcome(tx, receivers, concurrent, new_rng, cfg)
            assert got == want
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
            # the same frame alone, to show that the concurrent frames
            # cost some receivers their decode
            alone = delivery_outcome(tx, receivers, [tx],
                                     np.random.default_rng(seed), cfg)
            decoded += len(got)
            lost += len(alone - got)
        assert decoded > 0 and lost > 0


class _LinearTimeline:
    """The linear-scan timeline the bisected one replaced: the reference."""

    def __init__(self):
        self.starts, self.intervals = [], []

    def commit(self, start, end):
        idx = bisect.bisect_left(self.starts, start)
        self.starts.insert(idx, start)
        self.intervals.insert(idx, (start, end))

    def prune(self, before):
        self.intervals = [iv for iv in self.intervals if iv[1] >= before]
        self.starts = [iv[0] for iv in self.intervals]

    def first_overlap(self, a, b):
        best = None
        for s, e in self.intervals:
            if s >= b:
                break
            if e > a and (best is None or s < best[0]):
                best = (s, e)
        return best


# a coarse grid makes equal starts and touching endpoints common
_times = st.one_of(st.integers(0, 24).map(lambda k: k * 0.25),
                   st.floats(0.0, 6.0))
_lengths = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.75]),
                     st.floats(1e-3, 3.0))
_ops = st.lists(st.one_of(
    st.tuples(st.just("commit"), _times, _lengths),
    st.tuples(st.just("prune"), _times),
    st.tuples(st.just("query"), _times, _lengths)), max_size=60)


class TestTimelineAgainstLinearScan:
    @given(_ops)
    def test_first_overlap_and_len_match_the_linear_scan(self, ops):
        fast, slow = ChannelTimeline(), _LinearTimeline()
        for op in ops:
            if op[0] == "commit":
                start, end = op[1], op[1] + op[2]
                fast.commit(start, end)
                slow.commit(start, end)
            elif op[0] == "prune":
                fast.prune(op[1])
                slow.prune(op[1])
            else:
                a = op[1]
                for b in (a + op[2], a + 0.25, a):
                    assert fast.first_overlap(a, b) == slow.first_overlap(a, b)
            assert len(fast) == len(slow.intervals)
            # every committed endpoint as a query edge
            for s, e in slow.intervals:
                for a, b in ((s, e), (e, e + 1.0), (s - 1.0, s)):
                    assert fast.first_overlap(a, b) == slow.first_overlap(a, b)
