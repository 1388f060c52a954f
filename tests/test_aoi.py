"""Age-of-information accounting.

The area accumulators are exercised against a closed-form sawtooth
integral so the incremental trapezoid bookkeeping and the direct
geometric computation stay two independent routes to the same number.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taoi_sim import aoi
from taoi_sim.engine import SimConfig, Simulation
from taoi_sim.errors import UndefinedValueError
from taoi_sim.metrics import Bsm


def _bsm(gen, risky=1, interval=0.1):
    return Bsm(0, gen, 0.0, 0.0, 0.0, 0.0, riskiness_flag=risky,
               interval=interval)


def _fresh(risky=1):
    return aoi.virtual_record(0, 0.0, 0.0, risky, 0.1)


class TestInstantaneous:
    def test_age_grows_with_unit_slope(self):
        rec = aoi.record_from_bsm(_bsm(0.15), now=0.2)
        assert aoi.instantaneous_aoi(rec, 0.5) == pytest.approx(0.35)

    def test_age_zero_at_generation_instant(self):
        rec = aoi.record_from_bsm(_bsm(1.0), now=1.0)
        assert aoi.instantaneous_aoi(rec, 1.0) == 0.0

    def test_before_generation_rejected(self):
        rec = aoi.record_from_bsm(_bsm(1.0), now=1.0)
        with pytest.raises(ValueError):
            aoi.instantaneous_aoi(rec, 0.999)

    def test_missing_record_is_undefined(self):
        with pytest.raises(UndefinedValueError):
            aoi.instantaneous_aoi(None, 1.0)

    def test_gated_age_follows_the_flag(self):
        # gated area accrues the full age while the flag the sender
        # piggybacked on its BSM is raised, else none
        for flag in (0, 1):
            rec = aoi.record_from_bsm(_bsm(0.0, risky=flag), now=0.0)
            assert rec.neighbor_risky == flag
            aoi.advance(rec, 2.0)
            assert rec.aoi_area_run == 2.0
            assert rec.taoi_area_run == (2.0 if flag else 0.0)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 10.0))
    def test_unit_slope_property(self, t, dt):
        rec = aoi.record_from_bsm(_bsm(0.0), now=0.0)
        a0 = aoi.instantaneous_aoi(rec, t)
        a1 = aoi.instantaneous_aoi(rec, t + dt)
        assert a1 - a0 == pytest.approx(dt, abs=1e-9)


class TestAdvance:
    def test_trapezoid_area(self):
        rec = _fresh()
        aoi.advance(rec, 5.0)
        assert rec.aoi_area_run == pytest.approx(12.5)
        assert rec.aoi_area_run / 5.0 == pytest.approx(2.5)

    def test_gate_zero_skips_taoi(self):
        rec = _fresh(risky=0)
        aoi.advance(rec, 5.0)
        assert rec.aoi_area_run == pytest.approx(12.5)
        assert rec.taoi_area_run == 0.0

    def test_same_time_is_a_noop(self):
        rec = _fresh()
        aoi.advance(rec, 3.0)
        before = rec.aoi_area_run
        aoi.advance(rec, 3.0)
        assert rec.aoi_area_run == before

    def test_backwards_rejected(self):
        rec = _fresh()
        aoi.advance(rec, 3.0)
        with pytest.raises(ValueError):
            aoi.advance(rec, 2.999)


class TestReception:
    def test_age_resets_to_in_flight_delay(self):
        rec = aoi.record_from_bsm(_bsm(0.0), now=0.0)
        aoi.apply_reception(rec, _bsm(0.0985), now=0.1)
        assert aoi.instantaneous_aoi(rec, 0.1) == pytest.approx(0.0015)

    def test_reception_closes_the_previous_tooth(self):
        rec = aoi.record_from_bsm(_bsm(0.0985), now=0.1)
        aoi.apply_reception(rec, _bsm(0.2), now=0.2)
        # trapezoid from age 0.0015 up to 0.1015 over the 0.1 s stretch
        assert rec.aoi_area_run == pytest.approx(0.00515)

    def test_future_snapshot_rejected(self):
        with pytest.raises(ValueError):
            aoi.record_from_bsm(_bsm(0.2), now=0.1)
        rec = _fresh()
        with pytest.raises(ValueError):
            aoi.swap_snapshot(rec, _bsm(0.2), now=0.1)

    def test_periodic_zero_delay_averages_half_period(self):
        rec = _fresh()
        for k in range(1, 6):
            aoi.apply_reception(rec, _bsm(float(k)), now=float(k))
        assert rec.aoi_area_run / 5.0 == pytest.approx(0.5)

    @given(st.floats(0.05, 2.0), st.integers(2, 12))
    def test_half_period_property(self, period, cycles):
        rec = _fresh()
        for k in range(1, cycles + 1):
            t = k * period
            aoi.apply_reception(rec, _bsm(t), now=t)
        avg = rec.aoi_area_run / (cycles * period)
        assert avg == pytest.approx(period / 2.0, rel=1e-9)


class TestDualRouteArea:
    @given(st.lists(st.floats(0.001, 9.999), min_size=2, max_size=24,
                    unique=True),
           st.floats(10.0, 12.0))
    def test_running_area_matches_closed_form(self, times, t_end):
        times = sorted(times)
        gens = times[0::2][: len(times) // 2]
        rxs = times[1::2][: len(gens)]
        rec = _fresh()
        for g, r in zip(gens, rxs):
            aoi.apply_reception(rec, _bsm(g), now=r)
        aoi.advance(rec, t_end)
        expected = aoi.sawtooth_area(rxs, gens, t_end)
        assert rec.aoi_area_run == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # every snapshot raises the flag, so the gate is open the whole
        # run and the gated area is the same number
        assert rec.taoi_area_run == pytest.approx(rec.aoi_area_run, abs=1e-12)

    @given(st.lists(st.floats(0.001, 9.999), min_size=2, max_size=20,
                    unique=True),
           st.lists(st.integers(0, 1), min_size=11, max_size=11))
    def test_gated_area_never_exceeds_total(self, times, gates):
        times = sorted(times)
        gens = times[0::2][: len(times) // 2]
        rxs = times[1::2][: len(gens)]
        # the record starts under gates[0]; reception i carries gates[i + 1]
        rec = _fresh(risky=gates[0])
        for i, (g, r) in enumerate(zip(gens, rxs)):
            aoi.apply_reception(rec, _bsm(g, risky=gates[i + 1]), now=r)
        aoi.advance(rec, 10.0)
        assert rec.taoi_area_run <= rec.aoi_area_run + 1e-12
        assert rec.taoi_area_mi <= rec.aoi_area_mi + 1e-12

    def test_closed_form_rejects_malformed_sequences(self):
        with pytest.raises(ValueError):
            aoi.sawtooth_area([2.0, 1.0], [1.5, 0.5], 3.0)
        with pytest.raises(ValueError):
            aoi.sawtooth_area([1.0], [1.5], 3.0)
        with pytest.raises(ValueError):
            aoi.sawtooth_area([1.0, 2.0], [0.5], 3.0)


class TestSlotSample:
    def test_right_endpoint_step(self):
        rec = _fresh()
        got = aoi.slot_sample(rec, 3.0, slot=1.0)
        assert got == 3.0
        assert rec.aoi_area_run == pytest.approx(3.0)
        assert rec.taoi_area_run == pytest.approx(3.0)

    def test_gate_zero_keeps_taoi_flat(self):
        rec = _fresh(risky=0)
        aoi.slot_sample(rec, 2.0, slot=1.0)
        assert rec.aoi_area_run == pytest.approx(2.0)
        assert rec.taoi_area_run == 0.0


def _sim(**kw):
    """A three-vehicle run that has not started: tests feed receptions
    by hand and close it with the engine's own wrap-up."""
    return Simulation(SimConfig(vehicle_count=3, duration_s=6.0, seed=0, **kw))


class TestAggregation:
    def test_vehicle_aoi_averages_the_neighbor_set(self):
        fast = _fresh()
        for k in range(1, 6):
            aoi.apply_reception(fast, _bsm(float(k)), now=float(k))
        silent = _fresh()
        aoi.advance(silent, 5.0)
        # pairwise averages 0.5 and 2.5 over the same 5 s window
        recs = [fast, silent]
        for r in recs:
            r.aoi_area_mi = r.aoi_area_run
            r.taoi_area_mi = r.taoi_area_run
        assert aoi.vehicle_aoi(recs, 5.0) == pytest.approx(1.5)

    def test_vehicle_aoi_without_neighbors_is_undefined(self):
        with pytest.raises(UndefinedValueError):
            aoi.vehicle_aoi([], 5.0)

    def test_vehicle_taoi_restricted_to_risky_subset(self):
        # risky for the first half of the window, then its flag fell: the
        # gated area it accrued still counts it
        fell = aoi.virtual_record(0, 0.0, 0.0, 1, 0.1)
        aoi.apply_reception(fell, Bsm(0, 2.0, 0.0, 0.0, 0.0, 0.0,
                                      riskiness_flag=0), now=2.0)
        aoi.advance(fell, 4.0)
        calm = aoi.virtual_record(1, 0.0, 0.0, 0, 0.1)
        aoi.advance(calm, 4.0)
        far = aoi.virtual_record(2, 0.0, 0.0, 1, 0.1)
        aoi.advance(far, 4.0)
        distances = [40.0, 40.0, 150.5]
        val, n = aoi.vehicle_taoi([fell, calm, far], 4.0, distances, 150.0)
        # gated area 2.0 (age 0 -> 2 over [0, 2]) over the 4 s window
        assert (val, n) == (pytest.approx(0.5), 1)
        # the risky sender beyond range_m counts once it is inside it
        val, n = aoi.vehicle_taoi([fell, calm, far], 4.0, distances, 150.5)
        assert n == 2 and val == pytest.approx((2.0 + 8.0) / 4.0 / 2)
        assert aoi.vehicle_taoi([calm], 4.0, distances, 150.0) == (None, 0)

    def test_system_average_spreads_over_all_ordered_pairs(self):
        # one link heard once at t=0 averages 3 s over the 6 s run; the
        # other five ordered pairs of three vehicles weigh zero
        sim = _sim()
        sim.on_bsm_reception(sim.vehicles[1], _bsm(0.0, risky=1), 0.0)
        rep = sim._finalize()
        assert rep.system_aoi_s == pytest.approx(0.5)
        assert rep.system_taoi_s == pytest.approx(0.5)

    def test_empty_window_is_undefined(self):
        # heard at 0.5 s, silent over the (2, 3] window: no neighbor
        # population, so neither vehicle AoI nor TAoI has a value
        sim = _sim()
        v = sim.vehicles[0]
        sim.on_bsm_reception(v, Bsm(1, 0.5, 30.0, 2.0, 15.0, 0.0,
                                    riskiness_flag=1), 0.5)
        sim.measurement_tick(v, 3.0)
        t, vid, _, _, aoi_v, taoi_v = sim.timeseries[-1]
        assert (t, vid, aoi_v, taoi_v) == (3.0, 0, None, None)


class TestWindowReset:
    def test_reset_clears_window_but_not_run_totals(self):
        rec = _fresh()
        aoi.advance(rec, 2.0)
        aoi.reset_window(rec)
        assert rec.aoi_area_mi == 0.0
        assert rec.taoi_area_mi == 0.0
        assert rec.aoi_area_run == pytest.approx(2.0)

    def test_mean_tracking_error_needs_samples(self):
        # the engine reports a pair's mean error only once it has samples
        sim = _sim()
        sim.on_bsm_reception(sim.vehicles[1], _bsm(0.0), 0.0)
        assert sim._finalize().te_pairs == []
        sim = _sim()
        rec = sim.on_bsm_reception(sim.vehicles[1], _bsm(0.0), 0.0)
        rec.te_sum, rec.te_count = 3.0, 2
        assert sim._finalize().te_pairs == [(1, 0, 1.5, 2)]
