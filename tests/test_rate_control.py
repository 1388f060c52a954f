"""Broadcast-interval controllers.

Branch precedence, the trend memory, clamping, and the freeze invariant
(an unflagged, uncongested vehicle never moves its interval) are the
load-bearing behaviors; each gets pinned on exact worked values.
"""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taoi_sim.engine import SimConfig
from taoi_sim.rate_control import (
    Action,
    ControllerState,
    aoi_rate_update,
    assess_self_risk,
    clamp_interval,
    fixed_rate,
    is_congested,
    taoi_rate_update,
)


CFG = SimConfig()


def fresh(delta: float = CFG.delta_init_s) -> ControllerState:
    return ControllerState(delta)


class TestAction:
    @pytest.mark.parametrize("a,b", [(Action.INCR, Action.DECR),
                                     (Action.DECR, Action.INCR),
                                     (Action.SAME, Action.SAME)])
    def test_complement(self, a, b):
        assert a.complement is b

    def test_complement_is_an_involution_on_directions(self):
        for a in (Action.INCR, Action.DECR):
            assert a.complement.complement is a


class TestStateValidation:
    def test_cold_start_defaults(self):
        s = fresh()
        assert s.delta == 0.1
        assert s.riskiness_flag == 1
        assert s.omega is Action.INCR
        assert s.prev_taoi is None
        assert s.prev_aoi == 0.0


class TestSelfRisk:
    def test_above_threshold_raises_the_flag(self):
        s = fresh()
        assert assess_self_risk(0.51, s, CFG) == 1
        assert s.riskiness_flag == 1

    def test_below_threshold_clears_it(self):
        s = fresh()
        assert assess_self_risk(0.0, s, CFG) == 0
        assert s.riskiness_flag == 0

    def test_boundary_counts_as_risky(self):
        assert assess_self_risk(0.5, fresh(), CFG) == 1

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            assess_self_risk(-0.01, fresh(), CFG)


class TestFixedRate:
    def test_always_ten_hertz(self):
        s = fresh(delta=0.5)
        delta, action = fixed_rate(s)
        assert delta == 0.1
        assert action is Action.SAME
        assert 1.0 / delta == pytest.approx(10.0)


class TestCongestionRule:
    def test_aoi_above_twice_the_mean_interval_is_congested(self):
        assert is_congested(0.5, 0.1)

    def test_aoi_below_twice_the_mean_interval_is_not(self):
        assert not is_congested(0.15, 0.1)

    def test_exactly_twice_is_not_congested(self):
        assert not is_congested(0.2, 0.1)

    @given(st.floats(0.02, 1.0))
    def test_the_boundary_is_twice_the_mean_interval(self, delta_avg):
        edge = 2.0 * delta_avg
        assert not is_congested(edge, delta_avg)
        assert is_congested(math.nextafter(edge, math.inf), delta_avg)
        assert not is_congested(math.nextafter(edge, 0.0), delta_avg)


class TestTaoiBranches:
    def test_congestion_is_terminal_and_overrides_the_flag_hold(self):
        s = fresh()
        s.riskiness_flag = 0
        delta, action = taoi_rate_update(s, CFG, None, risky_neighbor_count=0,
                                         congested=True)
        assert action is Action.INCR
        assert delta == pytest.approx(0.11)

    def test_unflagged_uncongested_holds(self):
        s = fresh()
        s.riskiness_flag = 0
        delta, action = taoi_rate_update(s, CFG, None, risky_neighbor_count=3,
                                         congested=False)
        assert action is Action.SAME
        assert delta == 0.1

    def test_flagged_without_risky_neighbors_relaxes(self):
        s = fresh()
        s.riskiness_flag = 1
        delta, action = taoi_rate_update(s, CFG, None, risky_neighbor_count=0,
                                         congested=False)
        assert action is Action.DECR
        assert delta == pytest.approx(0.1 / 1.1)
        assert delta * 1000 == pytest.approx(90.91, abs=5e-3)

    def test_improving_trend_repeats_the_last_action(self):
        s = fresh()
        s.riskiness_flag = 1
        s.omega = Action.DECR
        s.prev_taoi = 0.30
        delta, action = taoi_rate_update(s, CFG, 0.20, risky_neighbor_count=2,
                                         congested=False)
        assert action is Action.DECR
        assert delta == pytest.approx(0.1 / 1.1)

    def test_degrading_trend_flips_the_last_action(self):
        s = fresh()
        s.riskiness_flag = 1
        s.omega = Action.DECR
        s.prev_taoi = 0.30
        delta, action = taoi_rate_update(s, CFG, 0.40, risky_neighbor_count=2,
                                         congested=False)
        assert action is Action.INCR
        assert delta == pytest.approx(0.11)

    def test_flat_trend_within_tolerance_holds(self):
        s = fresh()
        s.riskiness_flag = 1
        s.prev_taoi = 0.30
        _, action = taoi_rate_update(s, CFG, 0.30 + 5e-10,
                                     risky_neighbor_count=2, congested=False)
        assert action is Action.SAME

    def test_first_risky_episode_has_no_trend_yet(self):
        s = fresh()
        s.riskiness_flag = 1
        delta, action = taoi_rate_update(s, CFG, 0.2, risky_neighbor_count=1,
                                         congested=False)
        assert action is Action.SAME
        assert delta == 0.1
        assert s.prev_taoi == 0.2
        # second episode has a reference point: improvement repeats omega
        _, action = taoi_rate_update(s, CFG, 0.1, risky_neighbor_count=1,
                                     congested=False)
        assert action is s.omega

    def test_hold_never_overwrites_the_action_memory(self):
        s = fresh()
        s.riskiness_flag = 1
        s.omega = Action.DECR
        s.prev_taoi = 0.30
        taoi_rate_update(s, CFG, 0.30, risky_neighbor_count=2, congested=False)
        assert s.omega is Action.DECR

    def test_missing_measurements_hold(self):
        s = fresh()
        s.riskiness_flag = 0
        delta, action = taoi_rate_update(s, CFG, None, risky_neighbor_count=0,
                                         congested=False)
        assert (delta, action) == (0.1, Action.SAME)

    def test_memory_updates_only_when_measured(self):
        s = fresh()
        s.riskiness_flag = 1
        s.prev_taoi = 0.4
        taoi_rate_update(s, CFG, None, risky_neighbor_count=0, congested=False)
        assert s.prev_taoi == 0.4
        taoi_rate_update(s, CFG, 0.25, risky_neighbor_count=1, congested=False)
        assert s.prev_taoi == 0.25


class TestClamping:
    def test_floor(self):
        s = fresh(delta=0.02)
        s.riskiness_flag = 1
        delta, action = taoi_rate_update(s, CFG, None, risky_neighbor_count=0,
                                         congested=False)
        assert action is Action.DECR
        assert delta == 0.02

    def test_sustained_congestion_saturates_within_25_intervals(self):
        s = fresh()
        need = math.ceil(math.log(10.0) / math.log(1.1))
        assert need == 25
        steps = 0
        while s.delta < CFG.delta_max_s and steps < 40:
            taoi_rate_update(s, CFG, None, risky_neighbor_count=0,
                             congested=True)
            steps += 1
        assert steps <= need
        assert s.delta == CFG.delta_max_s
        # further congestion pins at the cap
        taoi_rate_update(s, CFG, None, risky_neighbor_count=0, congested=True)
        assert s.delta == CFG.delta_max_s

    def test_clamp_interval_bounds(self):
        assert clamp_interval(0.001, CFG) == CFG.delta_min_s
        assert clamp_interval(5.0, CFG) == CFG.delta_max_s
        assert clamp_interval(0.3, CFG) == 0.3


class TestFreezeInvariant:
    @given(st.floats(0.02, 1.0), st.none() | st.floats(0.0, 0.4),
           st.integers(0, 5))
    def test_unflagged_uncongested_never_moves(self, delta, taoi_v, risky_n):
        s = fresh(delta=delta)
        s.riskiness_flag = 0
        got, action = taoi_rate_update(s, CFG, taoi_v, risky_n,
                                       congested=False)
        assert action is Action.SAME
        assert got == delta


class TestAoiBaseline:
    def test_improvement_repeats_the_remembered_action(self):
        s = fresh()
        s.omega = Action.DECR
        s.prev_aoi = 0.3
        # the post-action interval as the neighbors' mean: no pull
        delta, action = aoi_rate_update(s, CFG, 0.2, delta_avg=0.1 / 1.1,
                                        congested=False)
        assert action is Action.DECR
        assert delta == pytest.approx(0.1 / 1.1)

    def test_congestion_beats_the_trend(self):
        s = fresh()
        s.prev_aoi = 0.6
        delta, action = aoi_rate_update(s, CFG, 0.5, delta_avg=0.1,
                                        congested=True)
        assert action is Action.INCR
        # multiplicative step then the pull toward the neighborhood mean
        assert delta == pytest.approx(0.11 + 0.25 * (0.1 - 0.11))

    def test_spread_nudge_worked_example(self):
        s = fresh(delta=0.08)
        s.prev_aoi = 0.1
        delta, action = aoi_rate_update(s, CFG, 0.1, delta_avg=0.12,
                                        congested=False)
        assert action is Action.SAME
        assert delta == pytest.approx(0.09)

    def test_no_neighbors_leaves_everything_untouched(self):
        s = fresh()
        s.prev_aoi = 0.37
        s.omega = Action.DECR
        delta, action = aoi_rate_update(s, CFG, None, delta_avg=None,
                                        congested=False)
        assert (delta, action) == (0.1, Action.SAME)
        assert s.prev_aoi == 0.37
        assert s.omega is Action.DECR

    def test_first_measurement_reads_as_degradation(self):
        # fresh memory is a zero baseline, so any positive age trends worse
        s = fresh()
        delta, action = aoi_rate_update(s, CFG, 0.05, delta_avg=0.1,
                                        congested=False)
        assert action is Action.DECR
        assert s.prev_aoi == 0.05

    def test_nudge_respects_the_bounds(self):
        s = fresh(delta=0.98)
        s.prev_aoi = 0.1
        delta, _ = aoi_rate_update(s, CFG, 0.1, delta_avg=1.0, congested=False)
        assert delta <= CFG.delta_max_s


class TestDeterminism:
    @given(st.floats(0.0, 1.0), st.booleans(), st.integers(0, 4),
           st.integers(0, 1))
    def test_same_state_same_inputs_same_outputs(self, taoi_v, congested,
                                                 risky_n, flag):
        a = fresh()
        a.riskiness_flag = flag
        b = dataclasses.replace(a)
        ra = taoi_rate_update(a, CFG, taoi_v, risky_n, congested)
        rb = taoi_rate_update(b, CFG, taoi_v, risky_n, congested)
        assert ra == rb
        assert (a.delta, a.omega, a.prev_taoi) == \
               (b.delta, b.omega, b.prev_taoi)

    @given(st.lists(st.tuples(st.floats(0.0, 2.0), st.booleans(),
                              st.integers(0, 4), st.integers(0, 1)),
                    min_size=1, max_size=30))
    def test_interval_never_leaves_its_bounds(self, steps):
        s = fresh()
        for taoi_v, congested, risky_n, flag in steps:
            s.riskiness_flag = flag
            delta, _ = taoi_rate_update(s, CFG, taoi_v, risky_n, congested)
            assert CFG.delta_min_s <= delta <= CFG.delta_max_s
            assert delta == s.delta
