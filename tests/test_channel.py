"""Radio model: log-distance loss, Nakagami fading, CSMA/CA timing,
and the no-capture collision rule."""

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
    nakagami_fading_draw,
    nakagami_m,
    path_loss_db,
    rx_power_dbm,
    tx_duration,
)
from taoi_sim.metrics import Bsm
from taoi_sim.mobility import VehicleState

CFG = ChannelConfig()
AIFS = CFG.aifs_us * 1e-6
SLOT = CFG.slot_time_us * 1e-6


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1.0, CFG) == pytest.approx(47.86)

    def test_hundred_meters(self):
        assert path_loss_db(100.0, CFG) == pytest.approx(107.86)

    @given(st.floats(0.1, 1000.0))
    def test_thirty_db_per_decade(self, d):
        assert path_loss_db(10.0 * d, CFG) - path_loss_db(d, CFG) == \
            pytest.approx(30.0, abs=1e-9)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, CFG)


class TestNakagami:
    @pytest.mark.parametrize("d,m", [(50.0, 3.0), (79.99, 3.0), (80.0, 1.5),
                                     (199.0, 1.5), (200.0, 1.0), (500.0, 1.0)])
    def test_shape_bins(self, d, m):
        assert nakagami_m(d, CFG) == m

    def test_draw_moments_near_field(self):
        rng = np.random.default_rng(7)
        draws = np.array([nakagami_fading_draw(rng, 50.0, CFG)
                          for _ in range(60000)])
        assert draws.min() > 0.0
        assert draws.mean() == pytest.approx(1.0, rel=0.02)
        # gamma(m, 1/m) has variance 1/m; m = 3 close in
        assert draws.var() == pytest.approx(1.0 / 3.0, rel=0.08)

    def test_draw_variance_far_field(self):
        rng = np.random.default_rng(8)
        draws = np.array([nakagami_fading_draw(rng, 250.0, CFG)
                          for _ in range(60000)])
        assert draws.var() == pytest.approx(1.0, rel=0.08)


class TestRxPower:
    def test_unfaded_link_budget(self):
        assert rx_power_dbm(20.0, 1.0, 1.0, CFG) == pytest.approx(-27.86)
        assert rx_power_dbm(20.0, 100.0, 1.0, CFG) == pytest.approx(-87.86)

    def test_fading_in_db(self):
        base = rx_power_dbm(20.0, 1.0, 1.0, CFG)
        faded = rx_power_dbm(20.0, 1.0, 0.5, CFG)
        assert base - faded == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_nonpositive_fading_rejected(self):
        with pytest.raises(ValueError):
            rx_power_dbm(20.0, 1.0, 0.0, CFG)


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


def _tx(sender, start, x, y, dur=1.373e-3):
    bsm = Bsm(sender, start, x, y, 10.0, 0.0)
    return TransmissionEvent(sender, start, dur, bsm)


def _rx(vid, x, y=0.0):
    return VehicleState(vid, x, y, 10.0, 0.0, 0)


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
        tx = CFG.tx_power_dbm
        assert (rx_power_dbm(tx, 295.6, 1.0, CFG) > CFG.rx_sensitivity_dbm
                > rx_power_dbm(tx, 296.6, 1.0, CFG))
