"""Run invariants over random small configurations.

Every drawn config either fails ``validate()`` with a ``ConfigError`` or
runs to completion with its report sound: frames conserved, gated age
within plain age, PDR a ratio, no overlapping vehicles, and per-vehicle
counts that add up. Configs stay small (at most 8 vehicles and 3 s) and
keep broadcast intervals at 20 ms or more, so each run takes a fraction
of a second.
"""

import pytest
from hypothesis import event, given, note, settings
from hypothesis import strategies as st

from taoi_sim.engine import CHANNEL_MODES, PROTOCOLS, SimConfig, Simulation
from taoi_sim.errors import ConfigError

INTERVALS = [0.02, 0.05, 0.1, 0.3, 1.0]
# the ways a drawn config is made invalid
INVALID = [
    dict(vehicle_count=1),
    dict(neighbor_timeout_s=0.0),
    dict(t_mi_s=0.25),
    dict(delta_min_s=0.3, delta_init_s=0.1),
    dict(slot_capacity=0),
]


@st.composite
def small_configs(draw):
    """Keyword arguments of a small SimConfig. About one draw in four is
    invalid in one way: one vehicle, a zero timeout, a window that is no
    multiple of the tick, unordered intervals or a slot without room."""
    kw = dict(
        vehicle_count=draw(st.integers(2, 8)),
        duration_s=draw(st.floats(0.0, 3.0)),
        seed=draw(st.integers(0, 2 ** 16)),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        channel_mode=draw(st.sampled_from(CHANNEL_MODES)),
        neighbor_timeout_s=draw(st.sampled_from([0.05, 0.1, 0.15, 0.3,
                                                 1.0, 5.0])),
        t_mi_s=draw(st.sampled_from([0.1, 0.5, 1.0])),
        bsm_size_bytes=draw(st.sampled_from([200, 1000, 30000])),
        slot_s=draw(st.sampled_from([0.1, 0.2])),
        slot_capacity=draw(st.integers(1, 3)),
    )
    delta_min, delta_init, delta_max = sorted(
        draw(st.sampled_from(INTERVALS)) for _ in range(3))
    kw.update(delta_min_s=delta_min, delta_init_s=delta_init,
              delta_max_s=delta_max)
    if not draw(st.integers(0, 3)):
        kw.update(draw(st.sampled_from(INVALID)))
    return kw


@settings(max_examples=200)
@given(small_configs())
def test_random_small_configs_fail_up_front_or_run_soundly(kw):
    cfg = SimConfig(**kw)
    try:
        cfg.validate()
    except ConfigError as exc:
        note(f"rejected: {exc}")
        event("rejected")
        return
    event(f"ran {cfg.channel_mode}")
    rep = Simulation(cfg).run()
    c = rep.counts
    assert c["generated"] == c["dropped"] + c["sent"] + c["in_flight"]
    assert sum(v["generated"] for v in rep.per_vehicle) == c["generated"]
    assert 0.0 <= rep.system_taoi_s <= rep.system_aoi_s
    assert rep.overall_pdr is None or 0.0 <= rep.overall_pdr <= 1.0
    for _, _, successes, opportunities in rep.pdr_bins:
        assert 0 <= successes <= opportunities
    assert rep.negative_gap_events == 0
    for _, _, mean_te, samples in rep.te_pairs:
        assert mean_te >= 0.0 and samples > 0


@pytest.mark.parametrize("kw", INVALID)
def test_the_invalid_draws_are_rejected(kw):
    with pytest.raises(ConfigError):
        SimConfig(**kw).validate()
