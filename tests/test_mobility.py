"""Ring-road Krauss traffic and trace-table replay."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taoi_sim.errors import ConfigError, TraceError
from taoi_sim.mobility import (
    KraussParams,
    RoadConfig,
    TrajectoryTable,
    VehicleState,
    initial_states,
    krauss_step,
    lane_change,
    load_trace,
    v_safe,
    write_trace,
)

ROAD = RoadConfig()


def _veh(vid, arc, speed, lane=0, road=ROAD, t=0.0):
    x, y, h = road.lane_pose(arc, lane)
    return VehicleState(vid, x, y, speed, h, lane, t)


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
        assert out[0].t == pytest.approx(0.1)

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
            gap = road.project(states[1].x, states[1].y, 0) - \
                road.project(states[0].x, states[0].y, 0)
            assert gap >= 0.0
        assert states[0].speed < states[1].speed + 1.0

    def test_colocated_vehicles_rejected(self):
        with pytest.raises(ValueError):
            krauss_step([_veh(0, 50.0, 10.0), _veh(1, 50.0, 10.0)],
                        KraussParams(), ROAD, 0.1, np.random.default_rng(0))

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
        long_side = ROAD.sides(0)[0]
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
            arcs = sorted(road.project(s.x, s.y, 0) for s in states)
            for a, b in zip(arcs, arcs[1:]):
                assert b - a > 0.0


class TestLaneChange:
    def test_alone_stays_put(self):
        v = _veh(0, 500.0, 20.0, lane=1)
        assert lane_change(v, [], KraussParams(), ROAD) == 1

    def test_overtakes_a_slow_leader_preferring_the_lower_lane(self):
        v = _veh(0, 500.0, 20.0, lane=1)
        leader = _veh(1, 505.0, 5.0, lane=1)
        assert lane_change(v, [leader], KraussParams(), ROAD) == 0

    def test_rear_traffic_vetoes_the_move(self):
        v = _veh(0, 500.0, 20.0, lane=1)
        leader = _veh(1, 505.0, 5.0, lane=1)
        blockers = []
        for lane in (0, 2):
            arc = ROAD.lane_remap(500.0, 1, lane)
            blockers.append(_veh(2 + lane, arc - 1.0, 20.0, lane=lane))
        assert lane_change(v, [leader, *blockers], KraussParams(), ROAD) == 1


class TestInitialStates:
    def test_round_robin_lane_assignment(self):
        states = initial_states(ROAD, KraussParams(), 30,
                                np.random.default_rng(3))
        assert [s.id for s in states] == list(range(30))
        assert all(s.lane == s.id % 3 for s in states)
        assert all(5.0 <= s.speed <= 25.0 for s in states)
        assert all(s.t == 0.0 for s in states)

    def test_positions_spread_without_overlap(self):
        states = initial_states(ROAD, KraussParams(), 50,
                                np.random.default_rng(4))
        by_lane = {}
        for s in states:
            by_lane.setdefault(s.lane, []).append(
                ROAD.project(s.x, s.y, s.lane))
        for arcs in by_lane.values():
            arcs.sort()
            assert all(b - a > 2.0 for a, b in zip(arcs, arcs[1:]))

    def test_overfull_road_rejected(self):
        road = RoadConfig(length=60.0, width=30.0, lanes=1)
        with pytest.raises(ConfigError):
            initial_states(road, KraussParams(), 40, np.random.default_rng(0))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            initial_states(ROAD, KraussParams(), 0, np.random.default_rng(0))


class TestRoadGeometry:
    def test_lane_zero_dimensions(self):
        assert ROAD.sides(0) == (996.0, 96.0)
        assert ROAD.perimeter(0) == 2184.0

    def test_inner_lanes_are_shorter(self):
        assert ROAD.perimeter(0) > ROAD.perimeter(1) > ROAD.perimeter(2)

    @pytest.mark.parametrize("arc", [0.0, 10.0, 500.0, 1040.0, 1100.0, 2000.0])
    def test_pose_project_round_trip(self, arc):
        for lane in range(3):
            a = arc % ROAD.perimeter(lane)
            x, y, _ = ROAD.lane_pose(a, lane)
            assert ROAD.project(x, y, lane) == pytest.approx(a, abs=1e-9)

    def test_remap_keeps_the_lateral_neighbor_alongside(self):
        x0, _, _ = ROAD.lane_pose(100.0, 0)
        arc1 = ROAD.lane_remap(100.0, 0, 1)
        x1, y1, _ = ROAD.lane_pose(arc1, 1)
        assert x1 == pytest.approx(x0)
        assert y1 == pytest.approx(6.0)

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ConfigError):
            RoadConfig(lanes=0)
        with pytest.raises(ConfigError):
            RoadConfig(length=10.0, width=10.0, lanes=3, lane_width=4.0)


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
        assert table.vehicles() == [0]
        assert table.span(0) == (0.0, pytest.approx(0.1))

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
    ])
    def test_malformed_rows_rejected(self, tmp_path, body, why):
        p = _write(tmp_path / "bad.csv", body)
        with pytest.raises(TraceError):
            load_trace(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = _write(tmp_path / "bad.csv", "0.0,0,0.0,2.0,10.0,0.0,0\n",
                   header="time,id,x,y,v,h,l\n")
        with pytest.raises(TraceError):
            load_trace(p)

    def test_write_then_load_round_trip(self, tmp_path):
        rows = [(k * 0.1, vid, 10.0 * vid + k, 2.0, 15.0, 0.0, 0)
                for k in range(5) for vid in (0, 1)]
        p = tmp_path / "rt.csv"
        write_trace(p, rows)
        table = load_trace(p)
        assert table.vehicles() == [0, 1]
        s = table.state_at(1, 0.3)
        assert s.x == pytest.approx(13.0)
        assert s.speed == 15.0
