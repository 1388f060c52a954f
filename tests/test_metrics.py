"""Safety metrics: dead reckoning, tracking error, TTC risk, PDR.

Tracking error and the collision-risk indicator are pinned through
``sample_te_and_risk``, the sweep over the pair table the engine runs
every tick, fed with one hand-built neighbor record: receiver 0's record
of sender 1 in a two-vehicle table (cell 1).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taoi_sim import aoi, engine, mobility
from taoi_sim.errors import UndefinedValueError
from taoi_sim.metrics import (
    Bsm,
    PdrCounters,
    SafetyParams,
    pdr_record,
    sample_te_and_risk,
    self_tracking_error,
)

PARAMS = SafetyParams()
RANGE_M = 150.0


def _record(bsm):
    """A two-vehicle table in which receiver 0 has just received ``bsm``
    from sender 1."""
    table = aoi.PairTable(2)
    aoi.record_from_bsm(table, np.array([1]), aoi.snapshot(bsm),
                        bsm.gen_time)
    return table


def _sweep(rec, t, truth_xy, sender_v=(0.0, 0.0), receiver_v=(0.0, 0.0),
           receiver_speed=0.0, distance=10.0, evict_before=-math.inf):
    """Receiver 0 holding one record of sender 1, whose true position at t
    is ``truth_xy``. Returns (risk count, evicted cells or None)."""
    xs, ys = np.array([0.0, truth_xy[0]]), np.array([0.0, truth_xy[1]])
    vxs = np.array([receiver_v[0], sender_v[0]])
    vys = np.array([receiver_v[1], sender_v[1]])
    speeds = np.array([receiver_speed, math.hypot(*sender_v)])
    dist = np.array([[0.0, distance], [distance, 0.0]])
    return sample_te_and_risk(rec, t, xs, ys, vxs, vys, speeds, dist,
                              RANGE_M, PARAMS, evict_before)


def _te(bsm, t, truth_xy):
    return _sample(_record(bsm), t, truth_xy)


def _sample(rec, t, truth_xy):
    """The tracking error a fresh record's first sweep samples, read from
    its running sum."""
    _sweep(rec, t, truth_xy)
    assert rec.te_count[1] == 1
    return rec.te_sum[1]


def _at(x, y):
    """Zero-velocity snapshot of sender 1: the estimate stays at (x, y)."""
    return _record(Bsm(1, 0.0, x, y, 0.0, 0.0))


def _risk(te, rel, receiver_speed=0.0, distance=10.0):
    """Risk flag for a pair with exactly the given tracking error and
    relative speed; the receiver drives along +y at ``receiver_speed``."""
    risk, _ = _sweep(_at(0.0, 0.0), 1.0, (te, 0.0),
                     sender_v=(rel, receiver_speed),
                     receiver_v=(0.0, receiver_speed),
                     receiver_speed=receiver_speed, distance=distance)
    return risk


class TestEstimatePosition:
    def test_extrapolates_along_heading(self):
        bsm = Bsm(sender=1, gen_time=0.0, x=0.0, y=0.0, speed=2.0,
                  heading=math.pi / 2)
        assert _te(bsm, 4.0, (0.0, 8.0)) == pytest.approx(0.0, abs=1e-12)
        assert _te(bsm, 4.0, (0.0, 0.0)) == pytest.approx(8.0)

    def test_zero_elapsed_returns_snapshot(self):
        bsm = Bsm(1, 3.0, x=7.5, y=-2.0, speed=19.0, heading=1.1)
        assert _te(bsm, 3.0, (7.5, -2.0)) == 0.0

    def test_longer_horizon(self):
        bsm = Bsm(1, 2.0, x=0.0, y=4.0, speed=2.0, heading=math.pi / 2)
        assert _te(bsm, 6.0, (0.0, 12.0)) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 10.0),
           st.floats(0.0, 30.0), st.floats(0.0, 2.0 * math.pi))
    def test_displacement_is_speed_times_elapsed(self, t0, dt, speed, heading):
        # truth parked at the snapshot: the error is the distance travelled
        bsm = Bsm(1, t0, 1.0, -3.0, speed, heading)
        te = _te(bsm, t0 + dt, (1.0, -3.0))
        assert te == pytest.approx(speed * dt, abs=1e-6)


class TestTrackingError:
    def test_euclidean_gap(self):
        assert _sample(_at(0.0, 0.0), 2.0, (0.0, 4.0)) == 4.0

    def test_along_track_offset(self):
        assert _sample(_at(0.0, 8.0), 3.0, (0.0, 9.0)) == 1.0

    def test_zero_on_perfect_estimate(self):
        assert _sample(_at(3.0, 4.0), 1.0, (3.0, 4.0)) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_never_negative(self, x, y, ex, ey):
        assert _sample(_at(ex, ey), 1.0, (x, y)) >= 0.0


class TestAverageTrackingError:
    """Each tick adds one sample to the record's running sums; the
    reported per-pair error is their mean."""

    @staticmethod
    def _mean(offsets):
        rec = _at(0.0, 0.0)
        for k, off in enumerate(offsets, start=1):
            _sweep(rec, 0.1 * k, (off, 0.0))
        assert rec.te_count[1] == len(offsets)
        return rec.te_sum[1] / rec.te_count[1]

    def test_alternating_pattern(self):
        assert self._mean([1.0, 4.0, 1.0, 4.0, 1.0, 4.0]) == 2.5

    def test_front_loaded_pattern(self):
        assert self._mean([1.0, 4.0, 1.0, 1.0, 1.0, 1.0]) == 1.5

    def test_empty_is_undefined(self):
        # a record past its reception timeout takes no sample and is handed
        # back for eviction, so its mean error never gets a value
        rec = _at(0.0, 0.0)
        risk, dead = _sweep(rec, 6.0, (50.0, 0.0), evict_before=1.0)
        assert (risk, dead.tolist()) == (0, [1])
        assert rec.te_count[1] == 0 and rec.te_sum[1] == 0.0


    def test_timeout_boundary(self):
        # a record heard exactly at the eviction boundary is still sampled;
        # one heard any earlier is evicted
        rec = _at(0.0, 0.0)
        _, dead = _sweep(rec, 6.0, (3.0, 4.0), evict_before=0.0)
        assert dead is None and rec.te_count[1] == 1
        _, dead = _sweep(rec, 6.0, (3.0, 4.0),
                         evict_before=math.nextafter(0.0, 1.0))
        assert dead.tolist() == [1] and rec.te_count[1] == 1

    @given(st.integers(0, 2 ** 32 - 1))
    def test_every_pair_matches_the_scalar_loop(self, seed):
        # the sweep's samples are the per-record loop's, bit for bit:
        # numpy.hypot would differ from math.hypot on some of these pairs
        g = np.random.default_rng(seed)
        n = 30
        table = aoi.PairTable(n)
        cells = np.flatnonzero(~np.eye(n, dtype=bool))
        k = len(cells)
        snapshot = (g.uniform(0.0, 1.0, k), g.uniform(-500, 500, k),
                    g.uniform(-500, 500, k), g.uniform(-30, 30, k),
                    g.uniform(-30, 30, k), 0, 0.1)
        aoi.record_from_bsm(table, cells, snapshot, 1.0)
        xs, ys = g.uniform(-500, 500, n), g.uniform(-500, 500, n)
        zero = np.zeros(n)
        sample_te_and_risk(table, 1.5, xs, ys, zero, zero, zero,
                           np.zeros((n, n)), RANGE_M, PARAMS)
        for c in cells.tolist():
            r, u = divmod(c, n)
            dtg = 1.5 - table.gen_time[c]
            te = math.hypot(xs[u] - (table.bx[c] + table.bvx[c] * dtg),
                            ys[u] - (table.by[c] + table.bvy[c] * dtg))
            assert table.te_sum[c] == te


def scalar_self_te(now, prev, t_mi: float) -> float:
    """One vehicle's self tracking error from its (x, y) now and its (x, y,
    speed, heading) one interval ago: the reference for
    ``self_tracking_error``."""
    x, y = now
    px, py, speed, heading = prev
    ex = px + speed * math.cos(heading) * t_mi
    ey = py + speed * math.sin(heading) * t_mi
    return math.hypot(x - ex, y - ey)


def _self_te(now, prev, t_mi):
    """``self_tracking_error`` of one vehicle."""
    x, y = (np.array([v]) for v in now)
    return self_tracking_error(
        x, y, tuple(np.array([v]) for v in prev), t_mi)[0]


class TestSelfTrackingError:
    def test_constant_velocity_is_exact(self):
        err = _self_te((12.0, 0.0), (0.0, 0.0, 12.0, 0.0), 1.0)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_uniform_acceleration(self):
        # y = t*t: predicting from (t=1, y=1, v=2) lands at 3, truth is 4
        err = _self_te((0.0, 4.0), (0.0, 1.0, 2.0, math.pi / 2), 1.0)
        assert err == pytest.approx(1.0)

    def test_right_angle_turn(self):
        err = _self_te((0.0, 10.0), (0.0, 0.0, 10.0, 0.0), 1.0)
        assert err == pytest.approx(10.0 * math.sqrt(2.0))

    @given(st.data())
    def test_every_vehicle_matches_the_scalar_reference(self, data):
        # bit for bit, with headings at and one ulp beside the side
        # headings, where numpy's cos and sin can differ from math's
        n = data.draw(st.integers(1, 40))
        sides = [h for side in mobility.SIDE_HEADINGS for h in (
            math.nextafter(side, -math.inf), side,
            math.nextafter(side, math.inf))]
        heading = st.one_of(st.sampled_from(sides),
                            st.floats(-10.0, 10.0))
        pos = st.floats(-1e4, 1e4)
        columns = [[data.draw(draw) for _ in range(n)] for draw in (
            pos, pos, pos, pos, st.floats(0.0, 40.0), heading)]
        x, y, *prev = columns
        t_mi = data.draw(st.sampled_from([0.1, 0.5, 1.0, 1.0 / 3.0]))
        got = self_tracking_error(np.array(x), np.array(y),
                                  tuple(np.array(c) for c in prev), t_mi)
        want = [scalar_self_te(now, p, t_mi)
                for now, p in zip(zip(x, y), zip(*prev))]
        assert np.array(got).view(np.int64).tolist() == \
            np.array(want).view(np.int64).tolist()


class TestDeltaTtc:
    """TTC distortion: tracking error over the floored relative speed."""

    def test_basic_ratio(self):
        # 5 m over 2 m/s is 2.5 s: above a 2 s tolerance, below 3 s
        assert _risk(5.0, 2.0, receiver_speed=4.6) == 1
        assert _risk(5.0, 2.0, receiver_speed=9.2) == 0

    def test_zero_error_means_zero_perturbation(self):
        assert _risk(0.0, 17.3) == 0
        assert _risk(0.0, 0.0) == 0

    def test_relative_speed_floor(self):
        # stationary pair: the 0.1 m/s floor keeps the ratio at 50 s
        below = (48.0 - 1e-6) * PARAMS.decel   # tolerance just under 49 s
        above = (50.0 + 1e-6) * PARAMS.decel   # tolerance just over 51 s
        for rel in (0.0, 0.05):
            assert _risk(5.0, rel, receiver_speed=below) == 1
            assert _risk(5.0, rel, receiver_speed=above) == 0

    def test_approaching_and_receding_same_magnitude(self):
        for speed in (4.6, 9.2):
            assert _risk(5.0, -2.0, speed) == _risk(5.0, 2.0, speed)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.01, 50.0),
           st.floats(0.0, 40.0))
    def test_monotone_in_tracking_error(self, a, b, rel, speed):
        lo, hi = sorted((a, b))
        assert _risk(lo, rel, speed) <= _risk(hi, rel, speed)


class TestRiskIndicator:
    def test_threshold_scales_with_speed(self):
        # tolerance is reaction time plus braking time: 1 s, 2 s, 6 s
        for speed, tol in ((0.0, 1.0), (4.6, 2.0), (23.0, 6.0)):
            assert _risk(tol * (1 + 1e-9), 1.0, speed) == 1
            assert _risk(tol * (1 - 1e-9), 1.0, speed) == 0

    def test_indicator_is_strict(self):
        th = PARAMS.t_react + 23.0 / PARAMS.decel
        assert _risk(th + 1e-9, 1.0, 23.0) == 1
        assert _risk(th, 1.0, 23.0) == 0
        assert _risk(0.0, 1.0, 23.0) == 0

    def test_only_senders_in_range_count(self):
        assert _risk(5.0, 2.0, distance=RANGE_M) == 1
        assert _risk(5.0, 2.0, distance=RANGE_M + 0.1) == 0


def _per_frame_pdr(frames, range_m, width=25.0):
    """PDR counting one frame at a time, the reference for the batched
    form: every other vehicle within ``range_m`` of the sender is an
    opportunity, binned by ``d // width``, and a success if it decoded."""
    opportunities, successes = {}, {}
    for sender, drow, got in frames:
        for j, d in enumerate(drow):
            if j == sender or d > range_m:
                continue
            idx = int(d // width)
            opportunities[idx] = opportunities.get(idx, 0) + 1
            if j in got:
                successes[idx] = successes.get(idx, 0) + 1
    return opportunities, successes


class TestPdr:
    def test_overall_ratio(self):
        counters = PdrCounters()
        pdr_record(counters, [30.0, 60.0, 90.0], [0, 1])
        assert counters.overall_pdr() == pytest.approx(2.0 / 3.0)

    def test_bin_rows_sorted_with_edges(self):
        counters = PdrCounters()
        # two frames' receivers in one batch: four at 10 m that all
        # decode, four at 30 m of which one decodes
        pdr_record(counters, [10.0] * 4 + [30.0] * 4, [0, 1, 2, 3, 6])
        assert counters.bin_rows() == [(0.0, 25.0, 4, 4), (25.0, 50.0, 1, 4)]

    def test_bin_boundary_rolls_over(self):
        counters = PdrCounters()
        pdr_record(counters, [24.999, 25.0], [0])
        rows = counters.bin_rows()
        assert rows[0][:2] == (0.0, 25.0) and rows[0][2:] == (1, 1)
        assert rows[1][:2] == (25.0, 50.0) and rows[1][2:] == (0, 1)

    def test_empty_reception_set_still_counts_the_transmission(self):
        # zero opportunities: nothing is counted and the PDR is undefined
        counters = PdrCounters()
        pdr_record(counters, [], [])
        assert counters.opportunities == {} and counters.successes == {}
        with pytest.raises(UndefinedValueError):
            counters.overall_pdr()

    def test_successes_outside_audience_rejected(self):
        counters = PdrCounters()
        with pytest.raises(ValueError):
            pdr_record(counters, [5.0, 7.0], [2])
        assert counters.opportunities == {}

    @pytest.mark.parametrize("successes", [[-1], [0, 0], [1, 0]],
                             ids=["negative", "repeated", "descending"])
    def test_successes_must_be_ascending_positions(self, successes):
        with pytest.raises(ValueError):
            pdr_record(PdrCounters(), [5.0, 7.0], successes)

    def test_negative_distance_rejected(self):
        counters = PdrCounters()
        with pytest.raises(ValueError):
            pdr_record(counters, [5.0, -0.5], [])

    @given(st.lists(st.tuples(st.floats(0.0, 300.0), st.booleans()),
                    max_size=40), st.integers(0, 40))
    def test_one_call_per_batch_counts_as_one_call_per_frame(self, links,
                                                           cut):
        batched, split = PdrCounters(), PdrCounters()
        distances = [d for d, _ in links]
        hits = [i for i, (_, ok) in enumerate(links) if ok]
        pdr_record(batched, distances, hits)
        cut = min(cut, len(links))
        pdr_record(split, distances[:cut], [i for i in hits if i < cut])
        pdr_record(split, distances[cut:],
                   [i - cut for i in hits if i >= cut])
        assert batched.opportunities == split.opportunities
        assert batched.successes == split.successes

    def test_batched_counters_equal_per_frame_counting(self, monkeypatch):
        # every frame of a recorded run, with its sender's row of the
        # distance matrix at the moment it is decided and its decodes
        sim = engine.Simulation(engine.SimConfig(
            vehicle_count=40, duration_s=3.0, protocol="fixed10hz", seed=4))
        frames = []
        deliver = engine.delivery_outcome

        def spy(tx, links, concurrent, rng, cfg):
            got = deliver(tx, links, concurrent, rng, cfg)
            frames.append((tx.sender, sim._dist[tx.sender].tolist(), got))
            return got

        monkeypatch.setattr(engine, "delivery_outcome", spy)
        report = sim.run()
        range_m = sim.cfg.channel.range_m
        opportunities, successes = _per_frame_pdr(frames, range_m)
        assert len(frames) == report.counts["sent"] > 1000
        assert sim.pdr.opportunities == opportunities
        assert sim.pdr.successes == successes
        # receivers beyond range_m decode too, and must not count
        assert any(drow[j] > range_m for _, drow, got in frames for j in got)

def test_bsm_velocity_components():
    bsm = Bsm(0, 0.0, 0.0, 0.0, 5.0, 0.0)
    vx, vy = bsm.velocity()
    assert vx == pytest.approx(5.0) and vy == pytest.approx(0.0, abs=1e-12)


def test_bsm_is_immutable():
    bsm = Bsm(0, 0.0, 0.0, 0.0, 5.0, 0.0)
    with pytest.raises(AttributeError):
        bsm.x = 3.0
