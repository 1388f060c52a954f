"""Run invariants over random small configurations, over every config key.

Every drawn config either fails before the run with a ``SimError`` (in
``validate()``, or in building the ``Simulation`` for a trace that is
missing or does not fit the run, the one thing ``validate()`` does not
judge) or runs to completion with its report sound: frames conserved,
gated age within plain age, PDR a ratio, no overlapping vehicles, and
per-vehicle counts that add up.

The strategy draws every key of ``cli.FLAT_KEYS``. Each key keeps its
default or takes one of a few values a small run can take; on top of
that, about one draw in four sets one key to an edge value (0, -1,
1e-12, 1e12, a fraction where an integer belongs, a Nakagami shape below
1/2, a string, null, true or a list where a float belongs, ...), and
about one in five breaks the config in one of the ``INVALID`` ways.
Edge values that would make a valid run large (a billion vehicles, a
nanosecond tick, a run of 1e12 s) are not drawn: at most 8 vehicles run
for at most 3 s, ticks are at least 50 ms and broadcast intervals at
least 1 ms, which is valid only for frames that air in less: 0.31 ms
for 200 bytes, 1.37 ms for 1000 and 40 ms for 30 kB.
Part of the examples are written to a JSON file and loaded with
``cli.parse_config``, the rest are built in Python.
"""

import dataclasses
import json

import pytest
from hypothesis import event, given, note, settings
from hypothesis import strategies as st

from taoi_sim import cli
from taoi_sim.engine import CHANNEL_MODES, PROTOCOLS, SimConfig, Simulation
from taoi_sim.errors import ConfigError, SimError
from taoi_sim.mobility import write_trace

INTERVALS = [0.001, 0.0015, 0.02, 0.05, 0.1, 0.3, 1.0]
# the ways a drawn config is made invalid
INVALID = [
    dict(vehicle_count=1),
    dict(neighbor_timeout_s=0.0),
    dict(t_mi_s=0.25),
    dict(delta_min_s=0.3, delta_init_s=0.1),
    dict(slot_capacity=0),
    dict(delta_min_s=1e-4),     # below a default frame's airtime
    dict(nakagami_m_far=0.49),
    dict(bsm_size_bytes=1, data_rate_mbps=1e12, preamble_us=0.0),
]
MAX_VEHICLES = 8
TRACE_S = 3.0   # the written traces cover [0, TRACE_S]


def _values(*vals):
    return st.sampled_from(vals)


# every flat key: (the values a small run takes, edge values)
KEYS = {
    "vehicle_count": (st.integers(2, MAX_VEHICLES), _values(1, 0, -1, 4.5)),
    "duration_s": (st.floats(0.0, TRACE_S), _values(-1.0, 1e-12)),
    "seed": (st.integers(0, 2 ** 16), _values(-1, 1.5)),
    "protocol": (st.sampled_from(PROTOCOLS), _values("laplace")),
    "channel_mode": (st.sampled_from(CHANNEL_MODES), _values("perfect")),
    "mobility_tick_s": (_values(0.05, 0.1, 0.25, 1 / 3),
                        _values(0.0, -1.0, 1e-12)),
    "neighbor_timeout_s": (_values(0.05, 0.1, 0.15, 0.3, 1.0, 5.0),
                           _values(0.0, -1.0, 1e-12, 1e12)),
    "bsm_size_bytes": (_values(200, 1000, 30000), _values(0, -1, 100.5)),
    "t_mi_s": (_values(0.1, 0.5, 1.0), _values(0.0, -1.0, 1e-12, 1e12)),
    "beta": (_values(1.05, 1.1, 2.0), _values(1.0, 0.0, -1.0, 1e12)),
    "delta_init_s": (st.nothing(), _values(0.0, -1.0, 1e-12, 1e12)),
    "delta_min_s": (st.nothing(), _values(0.0, -1.0, 1e-12, 1e12)),
    "delta_max_s": (st.nothing(), _values(0.0, -1.0, 1e-12, 1e12)),
    "spread_lambda": (_values(0.0, 0.25, 1.0), _values(-1.0, 1e-12, 1e12)),
    "slot_s": (_values(0.1, 0.2, 0.5), _values(0.25, 0.0, -1.0, 1e-12)),
    "slot_capacity": (st.integers(1, 3), _values(0, -1, 2.5)),
    "forced_schedule": (
        st.lists(st.lists(st.integers(0, MAX_VEHICLES - 1), max_size=3),
                 max_size=30),
        _values([0, 1], [[0.5]], [[True]], 5)),
    "trace_path": (_values("fits", "other"), _values("missing", 5)),
    "dump_trace_path": (_values("dump"),
                        _values("missing", "directory", ["out.csv"])),
    "road_length": (_values(1000.0, 500.0, 200.0),
                    _values(0.0, -1.0, 1e-12, 1e12)),
    "road_width": (_values(100.0, 50.0, 30.0),
                   _values(0.0, -1.0, 1e-12, 1e12)),
    "road_lanes": (st.integers(1, 3), _values(0, -1, 2.5)),
    "road_lane_width": (_values(4.0, 3.5), _values(0.0, -1.0, 1e-12, 1e12)),
    "max_accel": (_values(2.6, 1.0, 5.0), _values(0.0, -1.0, 1e-12, 1e12)),
    "max_decel": (_values(4.6, 3.0, 9.0), _values(0.0, -1.0, 1e-12, 1e12)),
    "driver_reaction": (_values(1.0, 0.5, 2.0),
                        _values(0.0, -1.0, 1e-12, 1e12)),
    "imperfection_sigma": (_values(0.0, 0.5, 1.0), _values(-1.0, 1.5, 1e-12)),
    "min_gap": (_values(2.5, 0.0, 10.0), _values(-1.0, 1e-12, 1e12)),
    # at hundreds of m/s, vehicles that spawn tens of metres apart pass
    # through each other (negative gap events); no rule rejects that yet
    "s_max": (_values(25.0, 10.0, 40.0), _values(0.0, -1.0, 1e-12)),
    "tx_power_dbm": (_values(20.0, 10.0, 33.0),
                     _values(0.0, -1.0, 1e12, -1e12)),
    "data_rate_mbps": (_values(6.0, 3.0, 27.0),
                       _values(0.0, -1.0, 1e-12, 1e12)),
    "path_loss_exponent": (_values(3.0, 2.0, 4.0),
                           _values(0.0, -1.0, 1e-12, 1e12)),
    "reference_loss_db": (_values(47.86, 40.0), _values(0.0, -1.0, 1e12)),
    "rx_sensitivity_dbm": (_values(-102.0, -95.0, -85.0),
                           _values(0.0, 1e12, -1e12)),
    "carrier_sense_dbm": (_values(-102.0, -95.0), _values(0.0, 1e12, -1e12)),
    "slot_time_us": (_values(13.0, 9.0), _values(0.0, -1.0, 1e-12, 1e12)),
    "aifs_us": (_values(58.0, 34.0, 0.0), _values(-1.0, 1e-12, 1e12)),
    "cw": (_values(15, 7, 1, 1023), _values(0, -1, 2.5, 10 ** 12)),
    "preamble_us": (_values(40.0, 0.0, 20.0), _values(-1.0, 1e-12, 1e12)),
    "nakagami_bins": (
        st.sets(_values(20.0, 80.0, 150.0, 200.0, 350.0), max_size=3).flatmap(
            lambda bounds: st.tuples(*(
                st.tuples(st.just(b), _values(0.5, 1.0, 1.5, 3.0))
                for b in sorted(bounds))).map(list)),
        _values([[80.0, 0.003]], [[80.0, 3.0], [200.0, 0.49]],
                [[80.0, 0.0]], [[80.0, -1.0]], [[80.0, 1e12]],
                [[200.0, 1.5], [80.0, 3.0]], [[1e12, 1.0]])),
    "nakagami_m_far": (_values(1.0, 0.5, 3.0),
                       _values(0.003, 0.49, 0.0, -1.0, 1e12)),
    "range_m": (_values(150.0, 50.0, 300.0),
                _values(0.0, -1.0, 1e-12, 1e12)),
    "max_reception_range_m": (_values(300.0, 150.0, 500.0),
                              _values(0.0, -1.0, 1e-12, 1e12)),
    "t_react": (_values(1.0, 0.0, 2.5), _values(-1.0, 1e-12, 1e12)),
    "decel": (_values(4.6, 2.0, 9.0), _values(0.0, -1.0, 1e-12, 1e12)),
    "rel_speed_floor": (_values(0.1, 1.0), _values(0.0, -1.0, 1e-12, 1e12)),
    "te_threshold": (_values(0.5, 0.1, 5.0),
                     _values(0.0, -1.0, 1e-12, 1e12)),
}


def _annotation(key: str) -> str:
    section, attr = cli.FLAT_KEYS[key]
    cls = cli._SECTIONS[section] if section else SimConfig
    return next(f.type for f in dataclasses.fields(cls) if f.name == attr)


# the keys of float-annotated fields, and the values of other JSON types
# that their edge draw may also take
FLOAT_KEYS = {key for key in cli.FLAT_KEYS if _annotation(key) == "float"}
NOT_NUMBERS = _values("1.0", None, True, [1.0])

# drawn in every example: the defaults of 150 vehicles and 100 s make no
# small run, and the seed, protocol and channel shape every run
ALWAYS = ("vehicle_count", "duration_s", "seed", "protocol", "channel_mode")


@st.composite
def flat_configs(draw):
    """A flat config, as JSON would carry it: every key kept at its
    default or drawn (the ``ALWAYS`` keys always, the three intervals
    together and in order), then perhaps one key set to an edge value and
    perhaps the config broken in one ``INVALID`` way."""
    flat = {}
    for key, (usual, _) in KEYS.items():
        if key in ALWAYS:
            flat[key] = draw(usual)
        # only the slotted mode takes a schedule
        elif key.startswith("delta_") or key == "forced_schedule" and (
                flat.get("channel_mode") != "idealized_slotted"):
            continue
        elif not draw(st.integers(0, 2)):
            flat[key] = draw(usual)
    if draw(st.booleans()):
        flat.update(zip(("delta_min_s", "delta_init_s", "delta_max_s"),
                        sorted(draw(st.sampled_from(INTERVALS))
                               for _ in range(3))))
    if not draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(KEYS)))
        edges = KEYS[key][1]
        flat[key] = draw(edges | NOT_NUMBERS if key in FLOAT_KEYS else edges)
        event(f"edge {key}")
    if not draw(st.integers(0, 4)):
        flat.update(draw(st.sampled_from(INVALID)))
    return flat


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A scratch directory holding one trace per vehicle count over
    [0, TRACE_S]: vehicles 20 m apart on one lane, each driving along x a
    little faster than the one behind it."""
    root = tmp_path_factory.mktemp("configs")
    for n in range(2, MAX_VEHICLES + 1):
        write_trace(root / f"trace_{n}.csv", [
            (k * 0.1, vid, 20.0 * vid + (10.0 + vid) * k * 0.1, 2.0,
             10.0 + vid, 0.0, 0)
            for k in range(round(TRACE_S / 0.1) + 1) for vid in range(n)])
    return root


def _resolve_paths(flat: dict, root) -> dict:
    """Replace the path placeholders by files: ``fits`` is the trace of
    the drawn vehicle count, ``other`` one of a different count and
    ``missing`` a file in a directory that does not exist and
    ``directory`` an existing directory."""
    n = flat.get("vehicle_count")
    n = n if isinstance(n, int) and 2 <= n <= MAX_VEHICLES else 2
    names = {"fits": f"trace_{n}.csv",
             "other": f"trace_{n % (MAX_VEHICLES - 1) + 2}.csv",
             "dump": "dump.csv", "missing": "missing/file.csv",
             "directory": "."}
    out = dict(flat)
    for key in ("trace_path", "dump_trace_path"):
        if isinstance(out.get(key), str):
            out[key] = str(root / names[out[key]])
    return out


def _build(flat: dict) -> SimConfig:
    """The SimConfig of a flat config, built in Python as ``parse_config``
    routes the keys, with tuples where JSON has lists."""
    kwargs, nested = {}, {name: {} for name in cli._SECTIONS}
    for key, value in flat.items():
        section, attr = cli.FLAT_KEYS[key]
        if key in ("forced_schedule", "nakagami_bins") and isinstance(
                value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v
                          for v in value)
        (nested[section] if section else kwargs)[attr] = value
    for name, cls in cli._SECTIONS.items():
        if nested[name]:
            kwargs[name] = cls(**nested[name])
    return SimConfig(**kwargs)


def test_the_strategy_draws_every_config_key():
    assert set(KEYS) == set(cli.FLAT_KEYS)


@settings(max_examples=300)
@given(flat=flat_configs(), via_json=st.booleans())
def test_random_small_configs_fail_up_front_or_run_soundly(files, flat,
                                                           via_json):
    flat = _resolve_paths(flat, files)
    note(f"config: {flat!r}")
    try:
        if via_json:
            path = files / "config.json"
            path.write_text(json.dumps(flat))
            cfg = cli.parse_config(path)
        else:
            cfg = _build(flat)
            cfg.validate()
    except SimError as exc:
        note(f"rejected: {exc}")
        event("rejected")
        return
    try:
        sim = Simulation(cfg)
    except SimError as exc:
        # validate judges everything but the trace, which it does not load
        assert cfg.trace_path is not None, exc
        note(f"rejected trace: {exc}")
        event("rejected trace")
        return
    event(f"ran {cfg.channel_mode}")
    if cfg.delta_min_s < 0.002:
        event("ran with a 1-1.5 ms interval")
    rep = sim.run()
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
    # the adaptive rules clamp to the config's bounds; fixed10hz pins 100 ms
    if cfg.protocol != "fixed10hz":
        lo, hi = cfg.delta_min_s * 1000.0, cfg.delta_max_s * 1000.0
        for _, _, delta_ms, *_ in rep.timeseries:
            assert lo <= delta_ms <= hi


@pytest.mark.parametrize("kw", INVALID)
def test_the_invalid_draws_are_rejected(kw):
    with pytest.raises(ConfigError):
        _build(kw).validate()
