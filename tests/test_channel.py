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
    NS,
    ChannelConfig,
    ChannelTimeline,
    Frame,
    _gamma_sampler,
    csma_access,
    delivery_outcome,
    link_budgets,
    overlapping,
    tx_duration,
)
from taoi_sim.mobility import VehicleState

from test_source import _python

CFG = ChannelConfig()
AIFS = CFG.aifs_us * 1e-6
SLOT = CFG.slot_time_us * 1e-6
# no evaluation cutoff in reach of the link-budget probes
WIDE = dataclasses.replace(CFG, max_reception_range_m=1e4)


def _tx(sender, start, x, y, dur=1.373e-3):
    tx = Frame(sender, round(start * NS), 0, 0.1)
    tx.x, tx.y, tx.speed, tx.heading = x, y, 10.0, 0.0
    tx.start, tx.end = start, start + dur
    return tx


def _rx(vid, x, y=0.0):
    return VehicleState(vid, x, y, 10.0, 0.0, 0)


class _Gamma:
    """Fading stub: hands out a fixed sample, or the draws of a real
    generator, and records every (shape, scale) asked for and every
    sample handed out. A run's vector call ``standard_gamma(m) * (1 /
    m)`` counts as its scalar calls ``gamma(m, 1 / m)`` in order, each
    sample to within its last bits."""

    def __init__(self, value=1.0, rng=None):
        self.value, self.rng = value, rng
        self.calls, self.draws = [], []

    def gamma(self, shape, scale):
        self.calls.append((shape, scale))
        f = self.value if self.rng is None else self.rng.gamma(shape, scale)
        self.draws.append(f)
        return f

    def standard_gamma(self, shapes):
        return np.array([self.gamma(m, 1.0 / m) * m for m in shapes.tolist()])


def _links(batch, cfg):
    """A batch of (tx, receivers, concurrent) frames as the engine hands
    it to ``delivery_outcome``: each frame with the frames that overlap
    it and its links, built by one ``link_budgets`` call. The frames'
    receivers are one population: an id stands at one spot."""
    size = 1 + max((r.id for _, rs, _ in batch for r in rs), default=0)
    xs, ys = np.full(size, np.nan), np.full(size, np.nan)
    frame_of, rx = [], []
    for k, (_, receivers, _) in enumerate(batch):
        for r in receivers:
            xs[r.id], ys[r.id] = r.x, r.y
            frame_of.append(k)
            rx.append(r.id)
    frames = [(tx, overlapping(tx, concurrent)) for tx, _, concurrent in batch]
    links = link_budgets(frames, np.array(frame_of, dtype=np.intp),
                         np.array(rx, dtype=np.intp), xs, ys, cfg)
    return [(tx, lk, over) for (tx, over), lk in zip(frames, links)]


def _deliver(tx, receivers, concurrent, rng, cfg):
    """The receivers that decode one finished frame."""
    [(tx, links, over)] = _links([(tx, receivers, concurrent)], cfg)
    return delivery_outcome(tx, links, over, rng, cfg)


def _decodes(d, fading=1.0, **overrides):
    """Whether one receiver d meters from an uncontested sender decodes
    when its own-signal fading sample is ``fading``."""
    cfg = dataclasses.replace(WIDE, **overrides)
    return _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(1, d)], [],
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
        assert _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 0.0)], [],
                        stub, CFG) == {1}
        assert stub.calls == [(3.0, 1.0 / 3.0)]

    def test_co_located_interferer_garbles(self):
        # an overlapping frame sent from the receiver's own spot reaches
        # it at the reference loss and garbles the capture, one draw each
        stub = _Gamma()
        got = _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 50.0)],
                       [_tx(2, 0.0, 50.0, 0.0)], stub, CFG)
        assert got == set() and len(stub.calls) == 2


class TestNakagami:
    @pytest.mark.parametrize("d,m", [(50.0, 3.0), (79.99, 3.0), (80.0, 1.5),
                                     (199.0, 1.5), (200.0, 1.0), (500.0, 1.0)])
    def test_shape_bins(self, d, m):
        stub = _Gamma()
        _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(1, d)], [], stub, WIDE)
        assert stub.calls == [(m, 1.0 / m)]

    @staticmethod
    def _draws(seed, d, count=60000):
        """The own-signal samples of ``count`` receivers at d meters."""
        stub = _Gamma(rng=np.random.default_rng(seed))
        _deliver(_tx(0, 0.0, 0.0, 0.0),
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
        assert CFG.data_rate_mbps == 6.0
        assert tx_duration(1000, CFG) == pytest.approx(
            8.0 * 1000 / 6e6 + 40e-6)

    def test_round_millisecond_payload(self):
        assert tx_duration(720, CFG) == pytest.approx(1e-3, rel=1e-12)

    def test_preamble_charged_once(self):
        slope = tx_duration(2000, CFG) - tx_duration(1000, CFG)
        assert slope == pytest.approx(8.0 * 1000 / 6e6)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            tx_duration(0, CFG)


class TestTimeline:
    def test_first_overlap_half_open_semantics(self):
        tl = ChannelTimeline(1.0)
        tl.commit(1.0)
        assert tl.first_overlap(0.0, 1.0) is None  # touching is not overlap
        assert tl.first_overlap(2.0, 3.0) is None
        assert tl.first_overlap(1.5, 1.6) == (1.0, 2.0)
        assert tl.first_overlap(0.5, 1.1) == (1.0, 2.0)

    def test_earliest_of_several(self):
        tl = ChannelTimeline(1.0)
        tl.commit(3.0)
        tl.commit(1.0)
        assert tl.first_overlap(0.0, 10.0) == (1.0, 2.0)

    def test_prune_drops_finished_frames(self):
        tl = ChannelTimeline(1.0)
        tl.commit(0.0)
        tl.commit(2.0)
        tl.prune(1.5)
        assert len(tl) == 1
        assert tl.first_overlap(0.0, 10.0) == (2.0, 3.0)

    def test_empty_interval_rejected(self):
        # every frame airs for the timeline's one airtime
        for airtime in (0.0, -1.0):
            with pytest.raises(ValueError):
                ChannelTimeline(airtime)


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
        got = csma_access(0, 0.25, ChannelTimeline(0.001), rng, CFG)
        assert got == pytest.approx(0.25 + AIFS, abs=1e-12)
        assert rng.calls == 0

    def test_busy_medium_draws_once_and_counts_down(self):
        tl = ChannelTimeline(0.001)
        tl.commit(0.0)
        rng = _FixedDraw(2)
        got = csma_access(0, 0.0005, tl, rng, CFG)
        assert got == pytest.approx(0.001 + AIFS + 2 * SLOT, abs=1e-12)
        assert rng.calls == 1

    def test_smaller_counter_wins_the_race(self):
        def grant(counter):
            tl = ChannelTimeline(0.001)
            tl.commit(0.0)
            return csma_access(0, 0.0005, tl, _FixedDraw(counter), CFG)
        assert grant(2) < grant(5)

    def test_countdown_freezes_across_a_busy_period(self):
        tl = ChannelTimeline(0.001)
        tl.commit(0.0)
        tau1 = 0.001 + AIFS
        # interrupt mid-countdown after 2 full idle slots
        busy2 = (tau1 + 2.5 * SLOT, tau1 + 2.5 * SLOT + 0.001)
        tl.commit(busy2[0])
        got = csma_access(0, 0.0, tl, _FixedDraw(5), CFG)
        # 2 slots spent, 3 remain after the gap that follows busy2
        assert got == pytest.approx(busy2[1] + AIFS + 3 * SLOT, abs=1e-12)


class TestDelivery:
    def test_close_uncontested_link_decodes(self):
        rng = np.random.default_rng(1)
        got = _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 5.0)], [], rng,
                       CFG)
        assert got == {1}

    def test_sender_never_receives_its_own_frame(self):
        rng = np.random.default_rng(1)
        got = _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(0, 0.0), _rx(1, 5.0)],
                       [], rng, CFG)
        assert got == {1}

    def test_beyond_hard_range_cutoff(self):
        rng = np.random.default_rng(1)
        got = _deliver(_tx(0, 0.0, 0.0, 0.0), [_rx(1, 301.0)], [], rng,
                       CFG)
        assert got == set()

    def test_overlapping_frames_garble_each_other(self):
        a = _tx(0, 0.0, 0.0, 0.0)
        b = _tx(1, 0.0005, 10.0, 0.0)
        middle = [_rx(2, 5.0)]
        rng = np.random.default_rng(1)
        assert _deliver(a, middle, [b], rng, CFG) == set()
        assert _deliver(b, middle, [a], rng, CFG) == set()

    def test_back_to_back_frames_do_not_interfere(self):
        a = _tx(0, 0.0, 0.0, 0.0, dur=1e-3)
        b = _tx(1, 0.001, 10.0, 0.0)  # starts exactly at a's end
        rng = np.random.default_rng(1)
        assert _deliver(a, [_rx(2, 5.0)], [b], rng, CFG) == {2}

    def test_half_duplex_receiver_is_deaf(self):
        a = _tx(0, 0.0, 0.0, 0.0)
        b = _tx(1, 0.0005, 250.0, 0.0)  # far: cannot garble, but 1 is busy
        rng = np.random.default_rng(1)
        got = _deliver(a, [_rx(1, 250.0)], [b], rng, CFG)
        assert got == set()

    def test_decode_probability_falls_with_distance(self):
        def rate(d, seed):
            rng = np.random.default_rng(seed)
            tx = _tx(0, 0.0, 0.0, 0.0)
            hits = sum(1 for _ in range(400)
                       if _deliver(tx, [_rx(1, d)], [], rng, CFG))
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
        d = math.hypot(r.x - tx.x, r.y - tx.y)
        if d > cfg.max_reception_range_m:
            continue
        if r.id in busy_senders:
            continue
        if rx_power(d, fading_draw(d)) < cfg.rx_sensitivity_dbm:
            continue
        garbled = False
        for c in overlapping:
            di = math.hypot(r.x - c.x, r.y - c.y)
            if di > cfg.max_reception_range_m:
                continue
            if rx_power(di, fading_draw(di)) >= cfg.carrier_sense_dbm:
                garbled = True
                break
        if not garbled:
            got.add(r.id)
    return got


def _random_batch(g, size=6):
    """Finished frames in end order, each with the receivers offered to
    it and the frames on the air, all from one receiver population.

    Receivers lie on a 20 m grid along the road axis, so many links are
    exactly 80, 200 or 300 m long, plus scattered ones off the axis and
    one within a metre of the origin. The first frame is sent from the
    origin, the others from a random receiver's spot; each is offered a
    random subset of the population, its sender included, as it must
    never hear itself. About half the frames overlap nothing; each run
    of consecutive ones, a lone one included, takes its own-signal
    draws as one vector call when its first frame is decided (the 60
    batches of ``TestDrawForDraw`` hold runs of one to five frames).
    Around the other frames some
    receivers are themselves on the air (half-duplex); some frames
    overlap the finished one, some touch it, some miss it; and some
    senders are more than 300 m from every receiver, others share a spot
    with a receiver.
    """
    dur = 1.373e-3
    fixed = [80.0, 200.0, 300.0, -280.0, 0.6]
    grid = [20.0 * k for k in range(-16, 17) if k and 20.0 * k not in fixed]
    spots = [(0.0, 0.0)] + [(x, 0.0) for x in fixed]
    spots += [(x, 0.0) for x in g.choice(grid, 12, replace=False).tolist()]
    spots += list(zip(g.uniform(-320, 320, 12).tolist(),
                      g.uniform(5, 30, 12).tolist()))
    population = [_rx(i, x, y) for i, (x, y) in enumerate(spots)]
    batch = []
    for k in range(size):
        s = population[int(g.integers(len(population))) if k else 0]
        tx = _tx(s.id, 0.0, s.x, s.y, dur)
        receivers = [r for r in population if g.random() < 0.8]
        if g.random() < 0.5:   # nothing on the air, or two touching frames
            starts = [] if g.random() < 0.5 else [-dur, dur]
        else:
            starts = [-dur, dur, 0.5 * dur, -0.5 * dur]
            starts += g.uniform(-2 * dur, 2 * dur, 4).tolist()
        concurrent = [tx]
        for j, start in enumerate(starts):
            if j % 2:   # a receiver on the air: deaf if its frame overlaps
                r = population[int(g.integers(1, len(population)))]
                concurrent.append(_tx(r.id, start, r.x, r.y, dur))
            else:       # a sender from outside the receiver set
                x = float(g.choice([-1000.0, 1000.0,
                                    20.0 * g.integers(-16, 17)]))
                y = float(g.choice([-2.0, 0.0]))
                concurrent.append(_tx(100 + j, start, x, y, dur))
        concurrent.sort(key=lambda c: (c.start, c.sender))
        batch.append((tx, receivers, concurrent))
    return batch


# grid coordinates make exact bin-edge and cutoff distances common
_coord = st.one_of(st.integers(-20, 20).map(lambda k: 20.0 * k),
                   st.floats(-400.0, 400.0))


@st.composite
def _batches(draw):
    """Like ``_random_batch``, from arbitrary spots: frames sent from a
    receiver's spot or from outside the population, offered any subset
    of it, with up to four frames on the air that start on a
    half-airtime grid, so touching and overlapping are both common."""
    dur = 1.373e-3
    spots = draw(st.lists(st.tuples(_coord, _coord), min_size=1,
                          max_size=10))
    population = [_rx(i, x, y) for i, (x, y) in enumerate(spots)]
    outside = len(population)
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        sender = draw(st.integers(0, outside))
        x, y = (spots[sender] if sender < outside
                else draw(st.tuples(_coord, _coord)))
        tx = _tx(sender, 0.0, x, y, dur)
        receivers = [r for r in population if draw(st.booleans())]
        concurrent = []
        for who, half, (cx, cy) in draw(st.lists(st.tuples(
                st.integers(0, outside + 1), st.integers(-4, 4),
                st.tuples(_coord, _coord)), max_size=4)):
            start = half * dur / 2
            if who < outside:
                r = population[who]
                concurrent.append(_tx(r.id, start, r.x, r.y, dur))
            else:
                concurrent.append(_tx(100 + who, start, cx, cy, dur))
        batch.append((tx, receivers, concurrent))
    return batch


@st.composite
def _run_batches(draw):
    """Batches whose overlap-free frames come in runs of three or more
    between overlapped frames, like ``_batches`` otherwise. Every run
    holds a frame without links: one offered nobody, or one sent from
    beyond the cutoff of everyone. A run's frames may have frames on the
    air that touch them without overlapping them."""
    dur = 1.373e-3
    spots = draw(st.lists(st.tuples(_coord, _coord), min_size=1,
                          max_size=10))
    population = [_rx(i, x, y) for i, (x, y) in enumerate(spots)]

    def frame(overlapped):
        s = population[draw(st.integers(0, len(population) - 1))]
        tx = _tx(s.id, 0.0, s.x, s.y, dur)
        receivers = [r for r in population if draw(st.booleans())]
        # on the half-airtime grid, -1..1 overlaps and -2 or 2 touches
        halves = (st.integers(-1, 1) if overlapped
                  else st.sampled_from([-2, 2]))
        concurrent = []
        for j, (half, who, (cx, cy)) in enumerate(draw(st.lists(
                st.tuples(halves, st.integers(0, len(population)),
                          st.tuples(_coord, _coord)),
                min_size=int(overlapped), max_size=3))):
            if who < len(population):
                r = population[who]
                cx, cy, who = r.x, r.y, r.id
            else:
                who = 100 + j
            concurrent.append(_tx(who, half * dur / 2, cx, cy, dur))
        return tx, receivers, concurrent

    batch = []
    for _ in range(draw(st.integers(1, 3))):
        batch.append(frame(True))
        run = [frame(False) for _ in range(draw(st.integers(2, 4)))]
        if draw(st.booleans()):
            _, _, concurrent = run[0]
            linkless = (_tx(0, 0.0, spots[0][0], spots[0][1], dur), [],
                        concurrent)
        else:
            linkless = (_tx(99, 0.0, 1e5, 0.0, dur), population, [])
        run.insert(draw(st.integers(0, len(run))), linkless)
        batch += run
    if draw(st.booleans()):
        batch.append(frame(True))
    return batch


def _assert_batch_matches_the_reference(batch, seed, cfg):
    """Decide the batch as the engine does and each frame, in order,
    with the reference on a twin generator: the same decoded sets, in
    the same iteration order. The first frame of a run of overlap-free
    frames draws for the whole run, so the generator states are equal
    after every frame that does not end inside such a run: at the end
    of every run, after every overlapped frame and at the end of the
    batch. Every maximal run of consecutive overlap-free frames shares
    one run. Returns the frames' (overlapped, decoded set) pairs."""
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    decided = _links(batch, cfg)
    runs = [links.run for _, links, _ in decided] + [None]
    outcomes = []
    for k, ((tx, receivers, concurrent), (_, links, over)) in enumerate(
            zip(batch, decided)):
        assert (links.run is None) == bool(over)
        if links.run is not None:
            # a run goes on exactly as long as its frames overlap nothing
            prev = runs[k - 1]   # runs[-1] is None: nothing before frame 0
            assert prev is None or prev is links.run
            assert links.pos == (decided[k - 1][1].pos + 1 if prev else 0)
        want = _reference_delivery_outcome(tx, receivers, concurrent,
                                           ref_rng, cfg)
        got = delivery_outcome(tx, links, over, new_rng, cfg)
        assert got == want and list(got) == list(want)
        if links.run is None or runs[k + 1] is not links.run:
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        outcomes.append((bool(over), got))
    return outcomes


# a -85 dBm carrier-sense level lets far interferers pass, so a
# receiver's interferer loop often runs past its first draw
COARSE = dataclasses.replace(CFG, carrier_sense_dbm=-85.0)


class TestDrawForDraw:
    @pytest.mark.parametrize("cfg", [CFG, COARSE],
                             ids=["default", "coarse_sensing"])
    def test_same_decodes_and_generator_state_as_the_reference(self, cfg):
        g = np.random.default_rng(2024)
        frames = {False: 0, True: 0}   # overlap-free and overlapped
        decoded = lost = 0
        for seed in range(60):
            batch = _random_batch(g)
            outcomes = _assert_batch_matches_the_reference(batch, seed, cfg)
            for (tx, receivers, _), (over, got) in zip(batch, outcomes):
                frames[over] += 1
                decoded += len(got)
                if over:
                    # the same frame alone, to show that the concurrent
                    # frames cost some receivers their decode
                    alone = _reference_delivery_outcome(
                        tx, receivers, [], np.random.default_rng(seed), cfg)
                    lost += len(alone - got)
        assert frames[False] > 0 and frames[True] > 0
        assert decoded > 0 and lost > 0

    @given(_batches(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([CFG, COARSE, WIDE]))
    def test_random_batches_match_the_reference(self, batch, seed, cfg):
        _assert_batch_matches_the_reference(batch, seed, cfg)

    @given(_run_batches(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([CFG, COARSE, WIDE]))
    def test_runs_of_overlap_free_frames_match_the_reference(self, batch,
                                                             seed, cfg):
        decided = _links(batch, cfg)
        lengths = {}
        for _, links, _ in decided:
            if links.run is not None:
                lengths[id(links.run)] = links.pos + 1
        assert len(lengths) >= 1 and min(lengths.values()) >= 3
        assert any(lk.run is not None and lk.lo == lk.hi
                   for _, lk, _ in decided)
        _assert_batch_matches_the_reference(batch, seed, cfg)

    def test_a_run_is_decided_first_frame_first(self):
        tx = _tx(0, 0.0, 0.0, 0.0)
        second = _tx(1, 0.0, 5.0, 0.0)
        [_, (_, links, over)] = _links(
            [(tx, [_rx(1, 5.0)], []), (second, [_rx(0, 0.0)], [])], CFG)
        with pytest.raises(ValueError, match="first frame first"):
            delivery_outcome(second, links, over,
                             np.random.default_rng(1), CFG)

    @pytest.mark.parametrize("far_frame", [False, True],
                             ids=["overlap_free", "overlapped"])
    def test_decoded_ids_enter_the_set_in_receiver_order(self, far_frame):
        # 1, 9 and 17 share a hash slot of a small set, so the set's
        # iteration order is its insertion order. Nothing downstream needs
        # it: a frame's receivers are distinct, and the pair table orders
        # each receiver's records by receiver first (see test_aoi.py)
        tx = _tx(0, 0.0, 0.0, 0.0)
        concurrent = [_tx(50, 0.0, 2000.0, 0.0)] if far_frame else []
        got = _deliver(tx, [_rx(i, 5.0) for i in (1, 9, 17)], concurrent,
                       np.random.default_rng(3), CFG)
        assert list(got) == [1, 9, 17]

    def test_a_frame_without_links_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        far = _tx(0, 0.0, 0.0, 0.0)
        assert _deliver(far, [_rx(0, 0.0), _rx(1, 400.0)], [], rng, CFG) \
            == set()
        assert rng.bit_generator.state == state


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
    st.tuples(st.just("commit"), _times),
    st.tuples(st.just("prune"), _times),
    st.tuples(st.just("query"), _times, _lengths)), max_size=60)


class TestTimelineAgainstLinearScan:
    @given(_lengths, _ops)
    def test_first_overlap_and_len_match_the_linear_scan(self, airtime, ops):
        # one airtime per timeline, as every frame of a run has
        fast, slow = ChannelTimeline(airtime), _LinearTimeline()
        for op in ops:
            if op[0] == "commit":
                start = op[1]
                fast.commit(start)
                slow.commit(start, start + airtime)
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


# shape 0.5 is the smallest a config admits and numpy sends shape 1.0 to
# its exponential sampler
_gamma_args = st.tuples(
    st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 20.0)),
    st.floats(0.0, 1e3, exclude_min=True))
_bit_generators = st.sampled_from([np.random.PCG64, np.random.Philox,
                                   np.random.MT19937, np.random.SFC64])


def _twins(kind, seed):
    return (np.random.Generator(kind(seed)),
            np.random.Generator(kind(seed)))


def _assert_same_state(a, b):
    # Philox and MT19937 keep array state
    np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)


def _c_draws(rng, args):
    draw, handle = _gamma_sampler(rng)
    return [draw(handle, m, s) for m, s in args]


class TestCSampler:
    """The scalar draws of overlapped frames call numpy's C sampler on
    the generator's bit generator; ``Generator.gamma`` is the reference."""

    @given(_bit_generators, st.integers(0, 2 ** 32 - 1),
           st.lists(_gamma_args, min_size=1, max_size=50))
    def test_same_samples_and_state_as_generator_gamma(self, kind, seed,
                                                       args):
        fast, ref = _twins(kind, seed)
        assert _c_draws(fast, args) == [ref.gamma(m, s) for m, s in args]
        _assert_same_state(fast, ref)

    @given(_bit_generators, st.integers(0, 2 ** 32 - 1),
           st.lists(_gamma_args, min_size=1, max_size=50),
           st.lists(_gamma_args, min_size=1, max_size=50),
           st.lists(_gamma_args, min_size=1, max_size=50))
    def test_a_vector_call_between_scalar_draws(self, kind, seed, before,
                                                run, after):
        # the run path's one vector call, between two overlapped frames
        fast, ref = _twins(kind, seed)
        shapes, scales = map(np.array, zip(*run))
        assert _c_draws(fast, before) == [ref.gamma(m, s) for m, s in before]
        assert (fast.standard_gamma(shapes) * scales).tolist() \
            == ref.gamma(shapes, scales).tolist()
        _assert_same_state(fast, ref)
        assert _c_draws(fast, after) == [ref.gamma(m, s) for m, s in after]
        _assert_same_state(fast, ref)

    def test_any_other_rng_draws_through_its_own_gamma(self):
        stub = _Gamma(0.25)
        assert _c_draws(stub, [(3.0, 1.0 / 3.0), (1.0, 1.0)]) == [0.25, 0.25]
        assert stub.calls == [(3.0, 1.0 / 3.0), (1.0, 1.0)]


class TestVectorDraw:
    """A run of overlap-free frames draws ``standard_gamma(shapes) *
    scales`` in one call; numpy computes ``gamma(m, scale)`` as ``scale *
    standard_gamma(m)``, so the scalar ``Generator.gamma`` is the
    reference."""

    @given(_bit_generators, st.integers(0, 2 ** 32 - 1),
           st.lists(_gamma_args, min_size=1, max_size=50))
    def test_same_samples_and_state_as_scalar_gamma(self, kind, seed, args):
        fast, ref = _twins(kind, seed)
        shapes, scales = map(np.array, zip(*args))
        assert (fast.standard_gamma(shapes) * scales).tolist() \
            == [ref.gamma(m, s) for m, s in args]
        _assert_same_state(fast, ref)


class TestImportFootprint:
    def test_the_engine_loads_the_cffi_backend_without_cffi(self):
        # cffi's cdef parser pulls in pycparser: megabytes of peak RSS and
        # tens of milliseconds in every run's start-up
        out = _python("import sys, taoi_sim.engine; print(sorted(m for m in "
                      "('cffi', 'pycparser', '_cffi_backend') "
                      "if m in sys.modules))")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["['_cffi_backend']"]

    def test_a_missing_cffi_fails_the_import_and_names_it(self):
        out = _python("import sys; sys.modules['_cffi_backend'] = None; "
                      "import taoi_sim.channel")
        assert out.returncode != 0
        assert "needs the cffi package" in out.stderr
