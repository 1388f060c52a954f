"""Ring-road Krauss traffic and trace-table replay."""

import bisect
import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from taoi_sim import mobility
from taoi_sim.errors import TraceError
from taoi_sim.mobility import (
    SIDE_HEADINGS,
    KraussParams,
    RoadConfig,
    TrajectoryTable,
    VehicleState,
    initial_states,
    krauss_step,
    load_trace,
    v_safe,
    write_trace,
)

ROAD = RoadConfig()


def lane_pose(road, arc, lane):
    """Map an arc coordinate on a lane ring to (x, y, heading), one side
    at a time: the scalar reference for ``RoadConfig.lane_poses``."""
    d, long, short, perimeter = road.lane_geometry(lane)
    s = arc % perimeter
    if s < long:
        return d + s, d, SIDE_HEADINGS[0]
    s -= long
    if s < short:
        return road.length - d, d + s, SIDE_HEADINGS[1]
    s -= short
    if s < long:
        return road.length - d - s, road.width - d, SIDE_HEADINGS[2]
    s -= long
    return d, road.width - d - s, SIDE_HEADINGS[3]


def _veh(vid, arc, speed, lane=0, road=ROAD):
    x, y, h = lane_pose(road, arc, lane)
    return VehicleState(vid, x, y, speed, h, lane, arc)


def _reference_project(road, x, y, lane):
    """Arc coordinate of the nearest point on the lane ring, corner points
    resolving to the lowest-numbered adjacent side, by a four-segment
    search: a reading of a pose's arc that does not rest on the arc a
    state carries."""
    d = (lane + 0.5) * road.lane_width
    long, short = road.length - 2.0 * d, road.width - 2.0 * d
    x0, x1 = d, road.length - d
    y0, y1 = d, road.width - d

    def seg_dist(px, py, ax, ay, bx, by):
        ox = max(ax - px, 0.0, px - bx) if ax <= bx else max(bx - px, 0.0, px - ax)
        oy = max(ay - py, 0.0, py - by) if ay <= by else max(by - py, 0.0, py - ay)
        return math.hypot(ox, oy)

    cands = (
        (seg_dist(x, y, x0, y0, x1, y0), min(max(x - x0, 0.0), long)),
        (seg_dist(x, y, x1, y0, x1, y1), long + min(max(y - y0, 0.0), short)),
        (seg_dist(x, y, x0, y1, x1, y1), long + short + min(max(x1 - x, 0.0), long)),
        (seg_dist(x, y, x0, y0, x0, y1), 2.0 * long + short + min(max(y1 - y, 0.0), short)),
    )
    best = min(range(4), key=lambda i: (cands[i][0], i))
    return cands[best][1] % (2.0 * (long + short))


class _ReferenceRing:
    """Sorted same-lane arcs with scalar neighbor queries; a vehicle at
    exactly the query arc is its leader and its follower, at gap 0."""

    def __init__(self, perimeter):
        self.perimeter = perimeter
        self.arcs = []
        self.idx = []

    def insert(self, arc, i):
        pos = bisect.bisect_left(self.arcs, arc)
        self.arcs.insert(pos, arc)
        self.idx.insert(pos, i)

    def remove(self, i):
        pos = self.idx.index(i)
        del self.arcs[pos]
        del self.idx[pos]

    def leader(self, arc, skip):
        n = len(self.arcs)
        pos = bisect.bisect_left(self.arcs, arc)
        for step in range(n):
            j = (pos + step) % n
            if self.idx[j] != skip:
                return (self.arcs[j] - arc) % self.perimeter, self.idx[j]
        return None, None

    def follower(self, arc, skip):
        n = len(self.arcs)
        pos = bisect.bisect_right(self.arcs, arc) - 1
        for step in range(n):
            j = (pos - step) % n
            if self.idx[j] != skip:
                return (arc - self.arcs[j]) % self.perimeter, self.idx[j]
        return None, None


def _reference_krauss_step(states, params, road, dt, rng):
    """The scalar ``krauss_step`` that the array form replaced, kept as
    the draw-for-draw reference: arcs carried from state to state, every
    lane-change target searched, one scalar imperfection draw per vehicle
    in id order, a per-vehicle speed update and a scalar pose per
    vehicle."""
    if dt <= 0:
        raise ValueError(f"tick must be positive, got {dt}")
    n = len(states)
    lanes = [s.lane for s in states]
    speeds = [s.speed for s in states]
    arcs = [s.arc for s in states]

    def achievable(speed, gap, leader_idx):
        if leader_idx is None:
            return params.s_max
        return min(params.s_max, v_safe(speed, speeds[leader_idx], gap, params))

    def target(i):
        l, a, v = lanes[i], arcs[i], speeds[i]
        gap, lead = rings[l].leader(a, i)
        best_gain = achievable(v, gap, lead)
        best_lane = l
        for tgt in (l - 1, l + 1):
            if not 0 <= tgt < road.lanes:
                continue
            a_t = road.lane_remap(a, l, tgt)
            # an occupied target arc blocks, whatever min_gap is
            gf, leadt = rings[tgt].leader(a_t, i)
            if leadt is not None and (gf == 0.0 or gf < params.min_gap):
                continue
            gr, folt = rings[tgt].follower(a_t, i)
            if folt is not None and (gr == 0.0 or gr < params.min_gap):
                continue
            ach = achievable(v, gf, leadt)
            if ach > best_gain:
                best_gain = ach
                best_lane = tgt
        return best_lane

    rings = {l: _ReferenceRing(road.perimeter(l)) for l in range(road.lanes)}
    for i in range(n):
        rings[lanes[i]].insert(arcs[i], i)
    for ring in rings.values():
        for a1, a2, j1, j2 in zip(ring.arcs, ring.arcs[1:], ring.idx, ring.idx[1:]):
            if a1 == a2:
                raise ValueError(
                    f"vehicles {states[j1].id} and {states[j2].id} occupy the "
                    f"same position in one lane")

    order = sorted(range(n), key=lambda i: states[i].id)
    for i in order:
        tgt = target(i)
        if tgt != lanes[i]:
            a_t = road.lane_remap(arcs[i], lanes[i], tgt)
            rings[lanes[i]].remove(i)
            rings[tgt].insert(a_t, i)
            lanes[i] = tgt
            arcs[i] = a_t

    etas = {i: rng.random() for i in order}
    new_speeds = [0.0] * n
    for i in range(n):
        gap, lead = rings[lanes[i]].leader(arcs[i], i)
        vs = v_safe(speeds[i], speeds[lead], gap, params) if lead is not None else math.inf
        v_des = min(speeds[i] + params.max_accel * dt, params.s_max, vs)
        new_speeds[i] = max(
            0.0, v_des - params.imperfection_sigma * etas[i] * params.max_accel * dt)

    out = []
    for i in range(n):
        na = (arcs[i] + new_speeds[i] * dt) % road.perimeter(lanes[i])
        x, y, h = lane_pose(road, na, lanes[i])
        out.append(VehicleState(states[i].id, x, y, new_speeds[i], h,
                                lanes[i], na))
    return out


class TestVSafe:
    def test_stationary_leader_zero_gap(self):
        assert v_safe(10.0, 0.0, 0.0, KraussParams()) == 0.0

    def test_negative_gap_demands_backing_off(self):
        assert v_safe(10.0, 0.0, -1.0, KraussParams()) < 0.0

    def test_matching_leader_with_reaction_gap_is_sustainable(self):
        p = KraussParams()
        v = v_safe(20.0, 20.0, 20.0 * p.driver_reaction, p)
        assert v == pytest.approx(20.0)

    @given(st.floats(0.0, 25.0), st.floats(0.0, 25.0), st.floats(0.0, 200.0))
    def test_monotone_in_gap(self, vf, vl, gap):
        p = KraussParams()
        assert v_safe(vf, vl, gap, p) <= v_safe(vf, vl, gap + 1.0, p)


class TestKraussStep:
    def test_free_road_acceleration(self):
        p = KraussParams(max_accel=2.0, imperfection_sigma=0.0)
        out = krauss_step([_veh(0, 100.0, 10.0)], p, ROAD, 0.1,
                          np.random.default_rng(0))
        assert out[0].speed == pytest.approx(10.2)
        assert out[0].x == pytest.approx(102.0 + 10.2 * 0.1)

    def test_speed_capped_at_maximum(self):
        p = KraussParams(imperfection_sigma=0.0)
        out = krauss_step([_veh(0, 100.0, 25.0)], p, ROAD, 0.1,
                          np.random.default_rng(0))
        assert out[0].speed == 25.0

    def test_reaches_cruise_speed_within_the_kinematic_bound(self):
        p = KraussParams(max_accel=2.0, imperfection_sigma=0.0)
        states = [_veh(0, 0.0, 10.0)]
        rng = np.random.default_rng(0)
        ticks = math.ceil((p.s_max - 10.0) / p.max_accel / 0.1)
        for _ in range(ticks):
            states = krauss_step(states, p, ROAD, 0.1, rng)
        assert states[0].speed == pytest.approx(p.s_max)

    def test_follower_brakes_for_a_slow_leader(self):
        road = RoadConfig(lanes=1)  # no escape lane: must brake
        p = KraussParams(imperfection_sigma=0.0)
        states = [_veh(0, 100.0, 20.0, road=road), _veh(1, 120.0, 0.0, road=road)]
        rng = np.random.default_rng(0)
        for _ in range(60):
            states = krauss_step(states, p, road, 0.1, rng)
            gap = _reference_project(road, states[1].x, states[1].y, 0) - \
                _reference_project(road, states[0].x, states[0].y, 0)
            assert gap >= 0.0
        assert states[0].speed < states[1].speed + 1.0

    def test_colocated_vehicles_rejected(self):
        with pytest.raises(ValueError):
            krauss_step([_veh(0, 50.0, 10.0), _veh(1, 50.0, 10.0)],
                        KraussParams(), ROAD, 0.1, np.random.default_rng(0))

    def test_a_state_without_an_arc_is_rejected(self):
        # a replayed state carries no arc to move from
        replayed = VehicleState(1, 500.0, 2.0, 10.0, 0.0, 0)
        with pytest.raises(ValueError, match="vehicle 1 carries no arc"):
            krauss_step([_veh(0, 50.0, 10.0), replayed], KraussParams(),
                        ROAD, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("lane", [-1, 3])
    def test_a_lane_outside_the_road_is_rejected(self, lane):
        states = initial_states(ROAD, KraussParams(), 6,
                                np.random.default_rng(1))
        states[0] = dataclasses.replace(states[0], lane=lane)
        with pytest.raises(ValueError, match=rf"^vehicle 0 is on lane "
                           rf"{lane}, outside \[0, 3\)$"):
            krauss_step(states, KraussParams(), ROAD, 0.1,
                        np.random.default_rng(2))

    def test_only_the_lanes_in_reach_get_a_ring(self, monkeypatch):
        # a lane change reads and enters only a vehicle's own lane and its
        # neighbors, so a road's other lanes cost nothing
        built = 0
        init = mobility._Ring.__init__

        def counting_init(ring, perimeter):
            nonlocal built
            built += 1
            init(ring, perimeter)

        monkeypatch.setattr(mobility._Ring, "__init__", counting_init)
        road = RoadConfig(lanes=10**5, lane_width=1e-9)
        states = initial_states(road, KraussParams(), 6,
                                np.random.default_rng(1))
        krauss_step(states, KraussParams(), road, 0.1,
                    np.random.default_rng(2))
        assert 0 < built <= 3 * len({s.lane for s in states})

    def test_nonpositive_tick_rejected(self):
        with pytest.raises(ValueError):
            krauss_step([_veh(0, 50.0, 10.0)], KraussParams(), ROAD, 0.0,
                        np.random.default_rng(0))

    def test_same_seed_same_trajectories(self):
        p = KraussParams()
        def roll(seed):
            states = initial_states(ROAD, p, 12, np.random.default_rng(seed))
            rng = np.random.default_rng(seed + 1)
            for _ in range(50):
                states = krauss_step(states, p, ROAD, 0.1, rng)
            return states
        assert roll(9) == roll(9)

    def test_heading_rotates_at_the_corner(self):
        long_side = ROAD.lane_geometry(0)[1]
        p = KraussParams(max_accel=2.0, imperfection_sigma=0.0)
        v = _veh(0, long_side - 0.5, 10.0)
        assert v.heading == 0.0
        out = krauss_step([v], p, ROAD, 0.1, np.random.default_rng(0))
        assert out[0].heading == pytest.approx(math.pi / 2)

    def test_single_lane_fleet_keeps_ordering(self):
        road = RoadConfig(lanes=1)
        p = KraussParams()
        states = initial_states(road, p, 12, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        for _ in range(200):
            states = krauss_step(states, p, road, 0.1, rng)
            arcs = sorted(_reference_project(road, s.x, s.y, 0) for s in states)
            for a, b in zip(arcs, arcs[1:]):
                assert b - a > 0.0


def _lane_after_step(states):
    """Lane of vehicle 0 after one Krauss tick. Vehicle 0 decides first in
    id order, so nobody else's move can influence its choice."""
    out = krauss_step(states, KraussParams(), ROAD, 0.1,
                      np.random.default_rng(0))
    return out[0].lane


class TestLaneChange:
    def test_alone_stays_put(self):
        v = _veh(0, 500.0, 20.0, lane=1)
        assert _lane_after_step([v]) == 1

    def test_overtakes_a_slow_leader_preferring_the_lower_lane(self):
        v = _veh(0, 500.0, 20.0, lane=1)
        leader = _veh(1, 505.0, 5.0, lane=1)
        assert _lane_after_step([v, leader]) == 0

    def test_rear_traffic_vetoes_the_move(self):
        v = _veh(0, 500.0, 20.0, lane=1)
        leader = _veh(1, 505.0, 5.0, lane=1)
        blockers = []
        for lane in (0, 2):
            arc = ROAD.lane_remap(500.0, 1, lane)
            blockers.append(_veh(2 + lane, arc - 1.0, 20.0, lane=lane))
        assert _lane_after_step([v, leader, *blockers]) == 1


class TestFreeRoadShortcut:
    def _remaps(self, monkeypatch, states):
        calls = []
        real = RoadConfig.lane_remap

        def spy(road, *args):
            calls.append(args)
            return real(road, *args)

        monkeypatch.setattr(RoadConfig, "lane_remap", spy)
        krauss_step(states, KraussParams(), ROAD, 0.1,
                    np.random.default_rng(0))
        return calls

    def test_a_free_road_searches_no_other_lane(self, monkeypatch):
        # each vehicle's own lane already allows s_max
        states = [_veh(0, 500.0, 20.0, lane=1), _veh(1, 900.0, 25.0, lane=1)]
        assert self._remaps(monkeypatch, states) == []

    def test_a_slow_leader_searches_both_neighbor_lanes(self, monkeypatch):
        states = [_veh(0, 500.0, 20.0, lane=1), _veh(1, 505.0, 5.0, lane=1)]
        calls = self._remaps(monkeypatch, states)
        assert (500.0, 1, 0) in calls and (500.0, 1, 2) in calls


# roads the reference fleets are drawn on: the default circuit, and short
# ones whose corners and wrap-around most vehicles meet within a few ticks
FLEET_ROADS = [
    RoadConfig(),
    RoadConfig(lanes=1),
    RoadConfig(length=60.0, width=30.0, lanes=3),
    RoadConfig(length=120.3, width=41.7, lanes=2, lane_width=3.7),
    RoadConfig(length=45.5, width=20.1, lanes=1, lane_width=3.3),
]


def _corners(road, lane):
    _, long, short, perimeter = road.lane_geometry(lane)
    return (0.0, long, long + short, 2.0 * long + short, perimeter)


@st.composite
def fleets(draw):
    """(states, params, road, dt, seed, ticks): 1-40 vehicles in list order
    unlike id order, half of them within 3 m of a corner."""
    road = draw(st.sampled_from(FLEET_ROADS))
    n = draw(st.integers(1, 40))
    ids = draw(st.permutations(range(n)))
    states = []
    for vid in ids:
        lane = draw(st.integers(0, road.lanes - 1))
        if draw(st.booleans()):
            arc = draw(st.sampled_from(_corners(road, lane))) + draw(
                st.floats(-3.0, 3.0))
        else:
            arc = draw(st.floats(0.0, 1.0, exclude_max=True)) * \
                road.perimeter(lane)
        speed = draw(st.floats(0.0, 25.0))
        states.append(_veh(vid, arc % road.perimeter(lane), speed, lane, road))
    params = KraussParams(min_gap=draw(st.sampled_from([0.0, 2.5, 7.0])),
                          imperfection_sigma=draw(st.sampled_from([0.0, 0.5])))
    dt = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
    return (states, params, road, dt, draw(st.integers(0, 2 ** 16)),
            draw(st.integers(10, 40)))


def _roll_against_reference(states, params, road, dt, seed, ticks):
    """Step ``krauss_step`` and the reference side by side from one seed;
    every tick must give the same states, bit for bit, and leave the two
    generators in the same state. A tick the reference rejects must be
    rejected with the same message. Returns (lane changes that started
    within 5 m of a corner, wrap-arounds)."""
    ref_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    near_corner = wraps = 0
    for _ in range(ticks):
        try:
            want = _reference_krauss_step(states, params, road, dt, ref_rng)
        except ValueError as exc:
            with pytest.raises(ValueError) as got_exc:
                krauss_step(states, params, road, dt, rng)
            assert str(got_exc.value) == str(exc)
            break
        got = krauss_step(states, params, road, dt, rng)
        assert got == want
        assert repr(got) == repr(want)   # signed zeros too
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for old, new in zip(states, got):
            arc = _reference_project(road, old.x, old.y, old.lane)
            if new.lane != old.lane:
                near_corner += any(abs(arc - c) < 5.0
                                   for c in _corners(road, old.lane))
            elif _reference_project(road, new.x, new.y, new.lane) < arc:
                wraps += 1
        states = got
    return near_corner, wraps


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(fleets())
    def test_random_fleets_step_like_the_reference(self, fleet):
        near_corner, wraps = _roll_against_reference(*fleet)
        event(f"lane changes near a corner: {min(near_corner, 1)}")
        event(f"wrap-arounds: {min(wraps, 1)}")

    def test_corner_lane_changes_and_wrap_around(self):
        # a fast vehicle meets a crawling one just past each corner of a
        # short three-lane circuit, another crosses the ring's start
        road = RoadConfig(length=60.0, width=30.0, lanes=3)
        states = []
        for k, corner in enumerate(_corners(road, 1)[1:4]):
            states.append(_veh(2 * k, corner - 4.0, 15.0, 1, road))
            states.append(_veh(2 * k + 1, corner + 2.0, 1.0, 1, road))
        states.append(_veh(6, road.perimeter(0) - 1.0, 10.0, 0, road))
        states.reverse()
        near_corner, wraps = _roll_against_reference(
            states, KraussParams(), road, 0.1, 5, 60)
        assert near_corner > 0 and wraps > 0

    def test_a_lane_change_onto_an_occupied_corner_arc(self):
        # lane_remap clamps vehicle 0's arc of 1 m onto lane 1's corner at
        # arc 0, where vehicle 1 sits; that vehicle is the target's leader
        # and follower at gap 0, so vehicle 0 stays behind its slow leader
        states = [_veh(0, 1.0, 20.0, lane=0), _veh(1, 0.0, 10.0, lane=1),
                  _veh(2, 6.0, 0.0, lane=0), _veh(3, 500.0, 25.0, lane=1)]
        _roll_against_reference(states, KraussParams(), ROAD, 0.1, 1, 3)
        out = krauss_step(states, KraussParams(), ROAD, 0.1,
                          np.random.default_rng(1))
        assert out[0].lane == 0

    def test_no_lane_change_lands_on_an_occupied_arc_at_scale(
            self, monkeypatch):
        # 300 vehicles on the default road: remapped arcs near the corners
        # of lane 2 collide with occupied corner arcs a few times per
        # 1,000 ticks unless the target check sees co-located vehicles
        onto_occupied = 0
        insert = mobility._Ring.insert

        def counting_insert(ring, arc, i):
            nonlocal onto_occupied
            onto_occupied += arc in ring.arcs
            insert(ring, arc, i)

        monkeypatch.setattr(mobility._Ring, "insert", counting_insert)
        rng = np.random.default_rng(2)
        params = KraussParams()
        states = initial_states(ROAD, params, 300, rng)
        for _ in range(1000):
            states = krauss_step(states, params, ROAD, 0.1, rng)
        assert onto_occupied == 0

    def test_imperfection_draws_go_in_id_order(self):
        # free road: each new speed is v + a dt less the vehicle's own draw
        p = KraussParams()
        states = [_veh(2, 900.0, 10.0), _veh(0, 100.0, 20.0),
                  _veh(1, 500.0, 15.0)]
        got = krauss_step(states, p, ROAD, 0.1, np.random.default_rng(3))
        eta = np.random.default_rng(3).random(3)
        for s, new in zip(states, got):
            v_des = min(s.speed + p.max_accel * 0.1, p.s_max)
            assert new.speed == v_des - p.imperfection_sigma * eta[s.id] * \
                p.max_accel * 0.1


@st.composite
def krauss_runs(draw):
    """(road, n, seed, ticks): a random circuit of one to four lanes and
    up to 400 vehicles that fit it at the default minimum gap."""
    lanes = draw(st.integers(1, 4))
    lane_width = draw(st.sampled_from([3.0, 3.3, 3.7, 4.0]))
    fit = 2 * lanes * lane_width
    road = RoadConfig(length=draw(st.floats(fit + 20.0, 1500.0)),
                      width=draw(st.floats(fit + 10.0, 200.0)),
                      lanes=lanes, lane_width=lane_width)
    # round robin puts at most ceil(n / lanes) vehicles on any lane
    per_lane = min(int(road.perimeter(l) // (2.0 * KraussParams().min_gap))
                   for l in range(lanes))
    n = draw(st.integers(1, min(400, per_lane * lanes)))
    return road, n, draw(st.integers(0, 2 ** 32 - 1)), draw(
        st.integers(1, 100))


class TestKraussState:
    @settings(max_examples=30, deadline=None)
    @given(krauss_runs())
    def test_arcs_stay_distinct_and_poses_follow_them(self, run):
        # after every tick no two vehicles share a (lane, arc), and every
        # pose is lane_poses of the carried (arc, lane), bit for bit
        road, n, seed, ticks = run
        params = KraussParams()
        rng = np.random.default_rng(seed)
        states = initial_states(road, params, n, rng)
        changes = 0
        for _ in range(ticks):
            lanes = [s.lane for s in states]
            states = krauss_step(states, params, road, 0.1, rng)
            changes += sum(s.lane != lane for s, lane in zip(states, lanes))
            assert len({(s.lane, s.arc) for s in states}) == n
            want = road.lane_poses(np.array([s.arc for s in states]),
                                   np.array([s.lane for s in states]))
            got = ([s.x for s in states], [s.y for s in states],
                   [s.heading for s in states])
            for column, vector in zip(got, want):
                assert _bits(column) == _bits(vector)
        event(f"lane changes: {min(changes, 1)}")


# roads of odd sizes, whose corners fall on arcs that are not round
# numbers
CORNER_ROADS = [
    RoadConfig(),
    RoadConfig(length=77.7, width=100.3, lanes=3, lane_width=3.3),
    RoadConfig(length=1000.1, width=57.9, lanes=3, lane_width=3.1),
    RoadConfig(length=100.7, width=41.7, lanes=3, lane_width=3.3),
]


def _ulp_steps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _bits(values) -> list:
    """The IEEE bit patterns of floats, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _arcs(road, lane):
    """Arcs on a lane ring: anywhere, a few turns either way, at exact
    multiples of the perimeter, and at or within an ulp of a corner."""
    perimeter = road.perimeter(lane)
    return st.one_of(
        st.floats(-2.0 * perimeter, 3.0 * perimeter),
        st.integers(-2, 3).map(lambda k: k * perimeter),
        st.builds(_ulp_steps, st.sampled_from(_corners(road, lane)),
                  st.integers(-1, 1)))


def _assert_poses_match(road, arcs, lanes):
    got = road.lane_poses(np.array(arcs), np.array(lanes))
    want = zip(*[lane_pose(road, arc, lane) for arc, lane in zip(arcs, lanes)])
    for vector, scalar in zip(got, want):
        assert _bits(vector) == _bits(scalar)


class TestLanePoses:
    @settings(max_examples=300)
    @given(st.data())
    def test_vector_poses_equal_the_scalar_ones_bit_for_bit(self, data):
        road = data.draw(st.sampled_from([ROAD, *CORNER_ROADS]))
        lanes = data.draw(st.lists(st.integers(0, road.lanes - 1),
                                   min_size=1, max_size=12))
        arcs = [data.draw(_arcs(road, lane)) for lane in lanes]
        _assert_poses_match(road, arcs, lanes)

    @pytest.mark.parametrize("road", [ROAD, *CORNER_ROADS])
    def test_every_lane_corner_and_perimeter_multiple(self, road):
        arcs, lanes = [], []
        for lane in range(road.lanes):
            perimeter = road.perimeter(lane)
            for arc in [k * perimeter for k in range(-2, 4)] + [
                    _ulp_steps(c, k) for c in _corners(road, lane)
                    for k in (-1, 0, 1)]:
                arcs.append(arc)
                lanes.append(lane)
        _assert_poses_match(road, arcs, lanes)


class TestInitialStates:
    def test_round_robin_lane_assignment(self):
        states = initial_states(ROAD, KraussParams(), 30,
                                np.random.default_rng(3))
        assert [s.id for s in states] == list(range(30))
        assert all(s.lane == s.id % 3 for s in states)
        assert all(5.0 <= s.speed <= 25.0 for s in states)

    def test_positions_spread_without_overlap(self):
        states = initial_states(ROAD, KraussParams(), 50,
                                np.random.default_rng(4))
        by_lane = {}
        for s in states:
            by_lane.setdefault(s.lane, []).append(
                _reference_project(ROAD, s.x, s.y, s.lane))
        for arcs in by_lane.values():
            arcs.sort()
            assert all(b - a > 2.0 for a, b in zip(arcs, arcs[1:]))

    def test_each_state_carries_the_arc_it_was_placed_at(self):
        states = initial_states(ROAD, KraussParams(), 7,
                                np.random.default_rng(5))
        for s in states:
            arc = (s.id / 7) * ROAD.perimeter(s.lane)
            assert s.arc == arc
            assert (s.x, s.y, s.heading) == lane_pose(ROAD, arc, s.lane)


class TestRoadGeometry:
    def test_lane_zero_dimensions(self):
        assert ROAD.lane_geometry(0)[1:3] == (996.0, 96.0)
        assert ROAD.perimeter(0) == 2184.0

    @pytest.mark.parametrize("road", [ROAD, *CORNER_ROADS,
                                      RoadConfig(lanes=40, lane_width=1.1)])
    def test_lane_arrays_equal_the_scalar_calls_bit_for_bit(self, road):
        got = road.lane_geometry(np.arange(road.lanes))
        want = zip(*(road.lane_geometry(lane) for lane in range(road.lanes)))
        for vector, scalar in zip(got, want):
            assert _bits(vector) == _bits(scalar)

    def test_inner_lanes_are_shorter(self):
        assert ROAD.perimeter(0) > ROAD.perimeter(1) > ROAD.perimeter(2)

    @pytest.mark.parametrize("arc", [0.0, 10.0, 500.0, 1040.0, 1100.0, 2000.0])
    def test_pose_project_round_trip(self, arc):
        for lane in range(3):
            a = arc % ROAD.perimeter(lane)
            x, y, _ = lane_pose(ROAD, a, lane)
            assert _reference_project(ROAD, x, y, lane) == pytest.approx(
                a, abs=1e-9)

    def test_remap_keeps_the_lateral_neighbor_alongside(self):
        x0, _, _ = lane_pose(ROAD, 100.0, 0)
        arc1 = ROAD.lane_remap(100.0, 0, 1)
        x1, y1, _ = lane_pose(ROAD, arc1, 1)
        assert x1 == pytest.approx(x0)
        assert y1 == pytest.approx(6.0)


HEADER = "t,vehicle_id,x,y,speed,heading,lane\n"


def _write(path, body, header=HEADER):
    path.write_text(header + body)
    return path


class TestTraceIo:
    def test_two_row_trace_loads(self, tmp_path):
        p = _write(tmp_path / "t.csv",
                   "0.000,0,0.0,2.0,10.0,0.0,0\n"
                   "0.100,0,1.0,2.0,10.0,0.0,0\n")
        table = load_trace(p)
        assert table.ids.tolist() == [0]
        assert table.t.tolist() == [0.0, pytest.approx(0.1)]

    def test_midpoint_interpolation(self, tmp_path):
        p = _write(tmp_path / "t.csv",
                   "0.000,0,0.0,2.0,10.0,0.0,0\n"
                   "1.000,0,10.0,2.0,12.0,0.0,0\n")
        s = load_trace(p).state_at(0, 0.5)
        assert s.x == pytest.approx(5.0)
        assert s.speed == pytest.approx(11.0)
        assert s.lane == 0

    def test_rows_out_of_order_are_sorted(self, tmp_path):
        p = _write(tmp_path / "t.csv",
                   "0.100,0,1.0,2.0,10.0,0.0,0\n"
                   "0.000,0,0.0,2.0,10.0,0.0,0\n")
        s = load_trace(p).state_at(0, 0.05)
        assert s.x == pytest.approx(0.5)

    def test_query_outside_span_rejected(self, tmp_path):
        p = _write(tmp_path / "t.csv",
                   "0.000,0,0.0,2.0,10.0,0.0,0\n"
                   "0.100,0,1.0,2.0,10.0,0.0,0\n")
        table = load_trace(p)
        with pytest.raises(ValueError):
            table.state_at(0, 0.2)

    @pytest.mark.parametrize("body,why", [
        ("0.0,0,0.0,2.0,10.0,0.0\n", "missing field"),
        ("0.0,0,0.0,2.0,ten,0.0,0\n", "non-numeric"),
        ("0.0,0,0.0,2.0,-1.0,0.0,0\n", "negative speed"),
        ("0.0,0,0.0,2.0,10.0,0.0,-1\n", "negative lane"),
        ("0.0,0,0.0,2.0,10.0,0.0,0\n0.0,0,0.1,2.0,10.0,0.0,0\n",
         "duplicate timestamp"),
        ("0.0,0,0.0,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0,0\n"
         "0.3,0,2.0,2.0,10.0,0.0,0\n", "uneven tick"),
        ("", "no rows"),
        ("0.0,0,nan,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0,0\n", "nan x"),
        ("0.0,0,inf,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0,0\n",
         "infinite x"),
        ("0.0,0,0.0,-inf,10.0,0.0,0\n", "infinite y"),
        ("nan,0,0.0,2.0,10.0,0.0,0\n", "nan t"),
        ("0.0,0,0.0,2.0,nan,0.0,0\n", "nan speed"),
        ("0.0,0,0.0,2.0,10.0,nan,0\n", "nan heading"),
        ("0.0,3.0,0.0,2.0,10.0,0.0,0\n", "id written 3.0"),
        ("0.0,0,0.0,2.0,10.0,0.0,3.0\n", "lane written 3.0"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, body, why):
        p = _write(tmp_path / "bad.csv", body)
        with pytest.raises(TraceError):
            load_trace(p)

    @pytest.mark.parametrize("field", ["t", "x", "y", "speed", "heading"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_a_non_finite_value_names_its_line(self, tmp_path, field, value):
        good = dict(t="0.1", x="1.0", y="2.0", speed="10.0", heading="0.0")
        good[field] = value
        p = _write(tmp_path / "bad.csv", "0.0,0,0.0,2.0,10.0,0.0,0\n"
                   + ",".join([good["t"], "0", good["x"], good["y"],
                               good["speed"], good["heading"], "0"]) + "\n")
        with pytest.raises(TraceError, match=f"^line 3: {field} is not finite"):
            load_trace(p)

    @pytest.mark.parametrize("row,message", [
        ("0.1,0,ten,2.0,10.0,0.0,0", "could not convert string 'ten'"),
        ("0.1,0,nan,2.0,10.0,0.0,0", "x is not finite: nan"),
    ])
    def test_a_row_after_a_whitespace_line_names_its_file_line(
            self, tmp_path, row, message):
        # line 3 is empty and line 4 holds only whitespace, which
        # np.loadtxt does not skip by itself
        p = _write(tmp_path / "bad.csv",
                   f"0.0,0,0.0,2.0,10.0,0.0,0\n\n \t\n{row}\n")
        with pytest.raises(TraceError,
                           match=f"^line 5: .*{re.escape(message)}"):
            load_trace(p)

    @pytest.mark.parametrize("body,message", [
        ("0.0,0,0.0,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0,0\n"
         "0.2,0,2.0,2.0,10.0,0.0,0\n0.3,0,ten,2.0,10.0,0.0,0\n",
         "line 5: could not convert string 'ten' in column x"),
        ("0.0,0,0.0,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0\n",
         "line 3: expected 7 fields, got 6"),
        ("\n\n0.0,0,0.0,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0\n",
         "line 5: expected 7 fields, got 6"),
    ])
    def test_a_row_that_does_not_parse_names_its_line_and_field(
            self, tmp_path, body, message):
        p = _write(tmp_path / "bad.csv", body)
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            load_trace(p)

    def test_a_quoted_field_ends_with_its_line(self, tmp_path):
        # one np.loadtxt call over the file would read x as 15.0
        p = _write(tmp_path / "bad.csv", '0.0,0,"1\n5",2.0,10.0,0.0,0\n')
        with pytest.raises(TraceError, match="^line 2: "):
            load_trace(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read trace"):
            load_trace(tmp_path / "missing.csv")

    def test_undecodable_file_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(HEADER.encode() + b"0.0,0,1\xff,2.0,10.0,0.0,0\n")
        with pytest.raises(TraceError):
            load_trace(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = _write(tmp_path / "bad.csv", "0.0,0,0.0,2.0,10.0,0.0,0\n",
                   header="time,id,x,y,v,h,l\n")
        with pytest.raises(TraceError):
            load_trace(p)

    def test_write_then_load_round_trip(self, tmp_path):
        # values whose shortest repr is long, signed zero, a subnormal and
        # one near the top of the range come back exactly; t is written on
        # the nanosecond grid
        awkward = (-0.0, 5e-324, 0.1 + 0.2, -1.0 / 3.0, 1e300)
        rows = [(k * 0.1, vid, 10.0 * vid + k + awkward[k] * 1e-300,
                 awkward[k], 15.0 + awkward[(k + 1) % 5] * 1e-300,
                 awkward[(k + vid) % 5] * 1e-300, vid)
                for k in range(5) for vid in (0, 1)]
        p = tmp_path / "rt.csv"
        write_trace(p, rows)
        table = load_trace(p)
        assert table.ids.tolist() == [0, 1]
        want = sorted(((vid, round(t, 9), x, y, speed, heading, lane)
                       for t, vid, x, y, speed, heading, lane in rows),
                      key=lambda r: r[:2])
        got = list(zip(np.repeat(table.ids, np.diff(table.offsets)).tolist(),
                       table.t.tolist(), table.x.tolist(), table.y.tolist(),
                       table.speed.tolist(), table.heading.tolist(),
                       table.lane.tolist()))
        assert [_bits(r) for r in got] == [_bits(r) for r in want]
        t, vid, *pose, lane = rows[3 * 2 + 1]
        s = table.state_at(vid, round(t, 9))
        assert _bits([s.x, s.y, s.speed, s.heading]) == _bits(pose)


def _bits(values) -> list:
    """The IEEE bit patterns of floats, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _column_bits(column) -> tuple:
    column = np.asarray(column)
    if column.dtype == np.float64:
        return "f8", column.view(np.int64).tolist()
    return column.dtype.str, column.tolist()


def _table_or_error(columns):
    """Every column of the table built from parsed columns, bit for
    bit, with its vehicle offsets; or the TraceError message."""
    try:
        table = mobility._build_table(*columns)
    except TraceError as exc:
        return str(exc)
    return [_column_bits(c) for c in (
        table.ids, table.offsets, table.t, table.x, table.y, table.speed,
        table.heading, table.lane)]


_INT64 = np.iinfo(np.int64)


def _reference_columns(text: str) -> list:
    """The seven columns of a trace, in file order, read row by row with
    the csv module, ``float()`` and ``int()`` from the lines
    ``str.splitlines`` gives: the reference for ``load_trace``'s single
    ``np.loadtxt`` pass."""
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != \
            mobility.TRACE_FIELDS:
        raise TraceError(f"bad trace header: {header!r}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(mobility.TRACE_FIELDS):
            raise TraceError(f"line {lineno}: expected 7 fields, got {len(row)}")
        try:
            t = float(row[0])
            vid = int(row[1])
            x, y, speed, heading = (float(v) for v in row[2:6])
            lane = int(row[6])
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        for name, v in (("t", t), ("x", x), ("y", y), ("speed", speed),
                        ("heading", heading)):
            if not math.isfinite(v):
                raise TraceError(f"line {lineno}: {name} is not finite: {v}")
        if speed < 0:
            raise TraceError(f"line {lineno}: negative speed {speed}")
        if lane < 0:
            raise TraceError(f"line {lineno}: negative lane {lane}")
        for name, v in (("vehicle_id", vid), ("lane", lane)):
            if not _INT64.min <= v <= _INT64.max:
                raise TraceError(
                    f"line {lineno}: {name} {v} does not fit 64 bits")
        rows.append((t, vid, x, y, speed, heading, lane))
    if not rows:
        raise TraceError("trace contains no samples")
    return [np.array(c, dtype=mobility._TRACE_DTYPE[name])
            for name, c in zip(mobility.TRACE_FIELDS, zip(*rows))]


# padding: ASCII and Unicode whitespace, not all of which float() and
# int() both strip, and a zero-width space, which neither strips
_PADDING = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
            "\u2003", "\u2028", "\u3000", "\u200b"]
# zeros of digit sets that float() and int() read: Arabic-Indic,
# Devanagari, fullwidth
_ZEROS = ["\u0660", "\u0966", "\uff10"]
# the characters of plain numbers
_PLAIN_ALPHABET = "0123456789.+-eE \t"


def _foreign_digits(text: str, zero: str) -> str:
    return "".join(chr(ord(zero) + int(c)) if c.isdigit() else c
                   for c in text)


@st.composite
def _float_spelling(draw, v: float, level: int) -> str:
    """A spelling of v: level 0 is repr, level 1 adds spellings that
    ``load_trace`` and the reference both take (other formats, a plus
    sign, padding), level 2 any spelling, odd or invalid."""
    if level == 0:
        return repr(v)
    plain = draw(st.sampled_from([repr(v), f"{v:.3f}", f"{v:e}",
                                  f"{v:.17g}"]))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return ("+" + plain) if not plain.startswith("-") else plain
    if kind == 1:
        pad = st.sampled_from(_PADDING[:3] if level == 1 else _PADDING)
        return draw(pad) + plain + draw(pad)
    if level == 1 or kind > 7:
        return plain
    if kind == 2:
        return f'"{plain}"'
    if kind == 3:
        # 1_000.5: an underscore between two digits
        digits = [i for i in range(1, len(plain))
                  if plain[i - 1].isdigit() and plain[i].isdigit()]
        if digits:
            i = draw(st.sampled_from(digits))
            return plain[:i] + "_" + plain[i:]
        return plain
    if kind == 4:
        return _foreign_digits(plain, draw(st.sampled_from(_ZEROS)))
    if kind == 5:
        return draw(st.sampled_from(["nan", "inf", "-inf", "+nan",
                                     "Infinity", "1e999", "-1e999"]))
    if kind == 6:
        return draw(st.text(_PLAIN_ALPHABET, max_size=6))
    return draw(st.sampled_from(["", "ten", "0x1p3", "1d5", "1e", ".",
                                 "- 3", "+-1", "1e+-5", ".e1", "e5",
                                 "1.5.2", "--1", "1 2"]))


@st.composite
def _int_spelling(draw, v: int, level: int) -> str:
    if level == 0:
        return str(v)
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return f"+{v}"
    if kind == 1:
        pad = st.sampled_from(_PADDING[:3] if level == 1 else _PADDING)
        return draw(pad) + str(v) + draw(pad)
    if level == 1 or kind > 6:
        return str(v)
    if kind == 2:
        return f"{v}.0"
    if kind == 3:
        return f'"{v}"'
    if kind == 4:
        return _foreign_digits(str(v), draw(st.sampled_from(_ZEROS)))
    if kind == 5:
        return draw(st.text(_PLAIN_ALPHABET, max_size=6))
    return draw(st.sampled_from(["-1", "1_0", "3e0", "0x1", "", "007",
                                 "- 3", "+-3", "99999999999999999999"]))


@st.composite
def _trace_texts(draw) -> tuple:
    """(spelling level, trace file) pairs that stress the reader: vehicles
    with different starts and sample counts, rows shuffled or not, odd
    spellings of numbers, rows of 6 or 8 fields, duplicate or shifted
    timestamps, vehicles on another tick, blank lines and three line
    endings."""
    tick = draw(st.sampled_from([0.1, 0.25, 0.5]))
    values = st.floats(-1e4, 1e4, allow_nan=False)
    level = draw(st.integers(0, 2))
    samples = []
    for vid in draw(st.lists(st.integers(0, 12), min_size=1, max_size=4,
                             unique=True)):
        start = draw(st.integers(0, 3)) * tick
        own_tick = tick * draw(st.sampled_from([1, 1, 1, 2]))
        for k in range(draw(st.integers(1, 5))):
            t = start + k * own_tick
            samples.append([t, vid, draw(values), draw(values),
                            draw(st.floats(0.0, 40.0)),
                            draw(st.sampled_from([0.0, math.pi / 2.0])),
                            draw(st.integers(0, 2))])
    fault = draw(st.integers(0, 9))
    if fault == 0:
        samples.append(list(draw(st.sampled_from(samples))))
    elif fault == 1:
        draw(st.sampled_from(samples))[0] += tick / 3.0
    elif fault == 2:
        draw(st.sampled_from(samples))[draw(st.sampled_from([4, 6]))] = -1
    if draw(st.booleans()):
        samples = draw(st.permutations(samples))
    lines = []
    for t, vid, x, y, speed, heading, lane in samples:
        fields = [draw(_float_spelling(t, level)),
                  draw(_int_spelling(vid, level))]
        fields += [draw(_float_spelling(v, level))
                   for v in (x, y, speed, heading)]
        fields.append(draw(_int_spelling(lane, level)))
        if fault == 3 and draw(st.integers(0, 3)) == 0:
            fields = fields[:6] if draw(st.booleans()) else fields + ["0"]
        lines.append(",".join(fields))
        if draw(st.integers(0, 29)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return level, end.join([",".join(mobility.TRACE_FIELDS)] + lines) + end


class TestTraceReaders:
    """``load_trace`` parses a file in one ``np.loadtxt`` pass (the fast
    reader). On the spellings both take, it must build the table the
    row-by-row reference builds, bit for bit, or refuse the file as the
    reference does: with its message, or on its line for a row that does
    not parse. On any spelling it may fail only with a TraceError."""

    @settings(max_examples=300)
    @given(_trace_texts())
    def test_the_fast_reader_agrees_with_the_row_loop(self, tmp_path_factory,
                                                      case):
        level, text = case
        p = tmp_path_factory.getbasetemp() / "property.csv"
        p.write_text(text, encoding="utf-8", newline="")
        try:
            got = _table_or_error(_columns_of(load_trace(p)))
        except TraceError as exc:
            got = str(exc)
        event("table built" if not isinstance(got, str) else "rejected")
        if level == 2:
            return
        try:
            want = _table_or_error(_reference_columns(text))
        except TraceError as exc:
            want = str(exc)
        if isinstance(want, str) and re.match(
                r"line \d+: (expected 7|could not|invalid literal)", want):
            # numpy words a row or a field that does not parse its own
            # way: the line is what must agree
            got, want = got.split(":")[0], want.split(":")[0]
        assert got == want

    @pytest.mark.parametrize("spelling", [
        '"10.5"', "+10.5", " 10.5 ", " 10.5\u2003"])
    def test_syntax_loadtxt_refuses_loads_like_plain_numbers(
            self, tmp_path, spelling):
        """Quotes, a plus sign and whitespace padding load like plain
        numbers, between \\r\\n endings and blank lines."""
        plain = _write(tmp_path / "plain.csv",
                       "0.0,0,10.5,2.0,10.0,0.0,0\n"
                       "0.1,0,11.5,2.0,10.0,0.0,0\n")
        odd = tmp_path / "odd.csv"
        with open(odd, "w", newline="") as fh:
            fh.write(HEADER + f"0.0,0,{spelling},2.0,10.0,0.0,0\r\n\n"
                     "  \n0.1,0,11.5,2.0,10.0,0.0,0\r\n")
        assert _table_or_error(_columns_of(load_trace(odd))) == \
            _table_or_error(_columns_of(load_trace(plain)))

    @pytest.mark.parametrize("spelling", ["1_0.5", "\u0661\u0660.5"])
    def test_digit_groups_and_foreign_digits_are_refused(self, tmp_path,
                                                         spelling):
        p = _write(tmp_path / "bad.csv",
                   f"0.0,0,{spelling},2.0,10.0,0.0,0\n")
        with pytest.raises(TraceError,
                           match=f"^line 2: .*{re.escape(spelling)}"):
            load_trace(p)

    def test_a_file_separator_ends_a_line(self, tmp_path):
        # as it does for str.splitlines; int() refuses a lane of 0\x1c
        p = _write(tmp_path / "t.csv", "0.0,0,0.0,0.0,0.0,0.0,0\x1c\n"
                   "0.1,0,1.0,0.0,0.0,0.0,0\x1c0.2,0,2.0,0.0,0.0,0.0,0\n")
        assert load_trace(p).lane.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("body,message", [
        ("0.0,0,0.0,2.0,10.0,0.0,0\n0.0,0,0.1,2.0,10.0,0.0,0\n",
         "duplicate timestamp 0.0 for vehicle 0"),
        ("0.0,0,0.0,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0,0\n"
         "0.3,0,2.0,2.0,10.0,0.0,0\n",
         "nonuniform tick for vehicle 0: 0.19999999999999998 vs 0.1"),
        # vehicle 5 comes first in the file, so its tick is the one the
        # others must match, and its error is the one reported
        ("0.0,5,0.0,2.0,10.0,0.0,0\n0.2,5,1.0,2.0,10.0,0.0,0\n"
         "0.0,1,0.0,2.0,10.0,0.0,0\n0.1,1,1.0,2.0,10.0,0.0,0\n",
         "vehicle 1 tick 0.1 differs from 0.2"),
        ("0.0,1,0.0,2.0,10.0,0.0,0\n0.0,5,0.0,2.0,10.0,0.0,0\n"
         "0.0,5,0.0,2.0,10.0,0.0,0\n0.0,1,0.0,2.0,10.0,0.0,0\n",
         "duplicate timestamp 0.0 for vehicle 1"),
        ("0.0,5,0.0,2.0,10.0,0.0,0\n0.1,5,1.0,2.0,10.0,0.0,0\n"
         "0.3,5,2.0,2.0,10.0,0.0,0\n0.0,1,0.0,2.0,10.0,0.0,0\n"
         "0.0,1,0.0,2.0,10.0,0.0,0\n",
         "nonuniform tick for vehicle 5: 0.19999999999999998 vs 0.1"),
    ])
    def test_table_errors_keep_their_message_and_order(self, tmp_path, body,
                                                       message):
        for spelling in (body, body.replace(",0\n", ',"0"\n')):
            p = _write(tmp_path / "bad.csv", spelling)
            with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
                load_trace(p)

    @pytest.mark.parametrize("line,field", [
        ("0.0,1e999999999999999999999,0.0,2.0,10.0,0.0,0",
         "1e999999999999999999999"),
        ("0.0,99999999999999999999,0.0,2.0,10.0,0.0,0",
         "99999999999999999999"),
        ("0.0,0,0.0,2.0,10.0,0.0,99999999999999999999",
         "99999999999999999999"),
    ])
    def test_ids_beyond_64_bits_are_rejected(self, tmp_path, line, field):
        p = _write(tmp_path / "bad.csv", line + "\n")
        with pytest.raises(TraceError, match=f"^line 2: .*'{field}'"):
            load_trace(p)

    @settings(max_examples=200)
    @given(st.data())
    def test_bulk_queries_equal_state_at(self, data):
        tick = data.draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
        values = st.floats(-1e4, 1e4, allow_nan=False)
        samples = []
        for vid in range(data.draw(st.integers(1, 5))):
            start = data.draw(st.integers(0, 6)) * tick
            for k in range(data.draw(st.integers(1, 6))):
                samples.append((start + k * tick, vid, data.draw(values),
                                data.draw(values), data.draw(st.floats(0, 40)),
                                data.draw(values), data.draw(st.integers(0, 3))))
        samples = data.draw(st.permutations(samples))
        table = mobility._build_table(*(
            np.array(c, dtype=mobility._TRACE_DTYPE[name])
            for name, c in zip(mobility.TRACE_FIELDS, zip(*samples))))
        queries = []
        for vid in table.ids.tolist():
            ts = table.t[table.offsets[vid]:table.offsets[vid + 1]].tolist()
            lo, hi = ts[0], ts[-1]
            inside = ts + [(a + b) / 2.0 for a, b in zip(ts, ts[1:])]
            inside += [data.draw(st.floats(lo, hi)) for _ in range(3)]
            for t in ts:
                inside += [math.nextafter(t, -math.inf),
                           math.nextafter(t, math.inf)]
            queries += [(vid, t) for t in inside if lo <= t <= hi]
        queries = data.draw(st.permutations(queries))
        vids = [vid for vid, _ in queries]
        got = table.sample(vids, [t for _, t in queries])
        for j, (vid, t) in enumerate(queries):
            s = table.state_at(vid, t)
            assert _bits([c[j] for c in got[:4]]) == \
                _bits([s.x, s.y, s.speed, s.heading])
            assert got[4][j] == s.lane

    def test_bulk_queries_reject_what_state_at_rejects(self, tmp_path):
        table = load_trace(_write(
            tmp_path / "t.csv",
            "0.0,0,0.0,2.0,10.0,0.0,0\n0.1,0,1.0,2.0,10.0,0.0,0\n"
            "0.1,2,0.0,2.0,10.0,0.0,0\n0.2,2,1.0,2.0,10.0,0.0,0\n"))
        for vid, t in ((0, 0.2), (2, 0.0), (2, math.nextafter(0.2, 1.0))):
            with pytest.raises(ValueError):
                table.state_at(vid, t)
            with pytest.raises(ValueError, match="outside"):
                table.sample([0, vid], [0.0, t])
        with pytest.raises(ValueError, match="unknown vehicle"):
            table.sample([1], [0.1])
        with pytest.raises(ValueError, match="unknown vehicle"):
            table.sample([3], [0.1])


def _columns_of(table) -> list:
    """A table's columns in file-field order, as the reference returns
    them."""
    return [table.t, np.repeat(table.ids, np.diff(table.offsets)), table.x,
            table.y, table.speed, table.heading, table.lane]
