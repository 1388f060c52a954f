"""Discrete-event simulation core.

Time on the event queue is integer nanoseconds; metric math converts to
float seconds once at the call boundary. Measurement and slot boundaries
fall on mobility ticks only if their periods in ns are multiples of
``tick_ns``; validation checks that in float seconds, so a 1/3 s tick
passes and the boundaries drift from it by 1 ns every 3 ticks. Ties at one
timestamp are broken by event-kind priority, then vehicle id: ground
truth moves first, finishing frames deliver before new generations look
at the medium, and measurement logic runs after everything that changes
the picture it measures.

``Simulation`` is the realistic channel: CSMA access, airtime and
fading per frame. A config in the idealized slotted mode builds the
subclass in ``slotted``, which replaces all of that with zero-delay slots.
"""

from __future__ import annotations

import difflib
import heapq
import logging
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields, asdict
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import aoi
from .channel import (NS, ChannelConfig, ChannelTimeline, Frame,
                      csma_access, delivery_outcome, link_budgets,
                      overlapping, tx_duration)
from .errors import ConfigError, TraceError, UndefinedValueError
from .metrics import (PdrCounters, SafetyParams, pdr_record,
                      sample_te_and_risk, self_tracking_error)
from .mobility import (KraussParams, RoadConfig, TrajectoryTable,
                       initial_states, krauss_step, load_trace, write_trace)
from .rate_control import (ControllerState, aoi_rate_update,
                           assess_self_risk, fixed_rate, is_congested,
                           taoi_rate_update)

logger = logging.getLogger("taoi_sim.engine")

# event kinds in tie-break priority order at equal timestamps
EV_MOBILITY = 0
EV_SLOT = 1          # scheduled by a subclass only, see Simulation.run
EV_TX_END = 2
EV_GEN = 3
EV_TX_START = 4
EV_MEASUREMENT = 5
EV_END = 6

PROTOCOLS = ("fixed10hz", "aoi", "taoi")
CHANNEL_MODES = ("realistic", "idealized_slotted")

# named RNG streams off the master seed
STREAM_INIT = 0
STREAM_MOBILITY = 1
STREAM_FADING = 2
STREAM_BACKOFF = 3

INTERVAL_BIN_MS = 10.0   # width of the interval histogram's bins


@dataclass
class SimConfig:
    vehicle_count: int = 150
    duration_s: float = 100.0
    seed: int = 0
    protocol: str = "taoi"
    channel_mode: str = "realistic"
    mobility_tick_s: float = 0.1
    neighbor_timeout_s: float = 5.0
    bsm_size_bytes: int = 1000
    # controller constants
    t_mi_s: float = 1.0
    beta: float = 1.1
    delta_init_s: float = 0.1
    delta_min_s: float = 0.02
    delta_max_s: float = 1.0
    spread_lambda: float = 0.25
    # the slotted channel (slotted.py)
    slot_s: float = 0.1
    slot_capacity: int = 1
    forced_schedule: tuple | None = None
    # mobility source: built-in Krauss unless a trace is given
    trace_path: str | None = None
    dump_trace_path: str | None = None
    road: RoadConfig = field(default_factory=RoadConfig)
    krauss: KraussParams = field(default_factory=KraussParams)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    safety: SafetyParams = field(default_factory=SafetyParams)

    @classmethod
    def from_flat(cls, flat: dict) -> SimConfig:
        """The config that a flat config (``FLAT_KEYS`` to values) sets,
        every other value at its default. JSON has no tuples: a list for
        ``forced_schedule`` or ``nakagami_bins``, and each list in it,
        becomes a tuple. Only an unknown key fails here; ``validate``
        judges the values."""
        kwargs, nested = {}, {}
        for key, value in flat.items():
            if key not in FLAT_KEYS:
                near = difflib.get_close_matches(key, FLAT_KEYS, n=1)
                hint = f" (did you mean {near[0]!r}?)" if near else ""
                raise ConfigError(f"unknown config key {key!r}{hint}")
            part, f = FLAT_KEYS[key]
            if key in ("forced_schedule", "nakagami_bins") and isinstance(
                    value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v
                              for v in value)
            (kwargs if part is None else nested.setdefault(part, {}))[
                f.name] = value
        for part, values in nested.items():
            kwargs[part.name] = part.default_factory(**values)
        return cls(**kwargs)

    def validate(self) -> None:
        """The one judge of a config's values, its sections' included.
        Each message names a value by its flat key."""
        # JSON can deliver NaN, 4.5, "20", true, null and [1] to any key:
        # each section field must hold its section, every float-annotated
        # key a finite number and every int-annotated key an integer
        flat = {}
        for key, (part, f) in FLAT_KEYS.items():
            holder = self if part is None else getattr(self, part.name)
            if part is not None and not isinstance(holder,
                                                   part.default_factory):
                raise ConfigError(
                    f"{part.name} must be a "
                    f"{part.default_factory.__name__}, got {holder!r}")
            val = flat[key] = getattr(holder, f.name)
            floating = f.type in ("float", float)
            if floating and not _is_number(val):
                raise ConfigError(f"{key} must be a number, got {val!r}")
            # NaN, the infinities and an int too large for a float fail
            if (floating or isinstance(val, float)) and not (
                    abs(val) <= sys.float_info.max):
                raise ConfigError(f"{key} must be finite, got {val}")
            counting = f.type in ("int", int)
            if counting and (isinstance(val, bool)
                             or not isinstance(val, numbers.Integral)):
                raise ConfigError(f"{key} must be an integer, got {val!r}")
            # numpy sizes arrays and draws in 64 bits; SeedSequence takes
            # a seed of any size
            if counting and key != "seed" and val > 2 ** 63 - 1:
                raise ConfigError(
                    f"{key} must be at most 2**63 - 1, got {val}")
            # nakagami_table unpacks each bin into a bound and an m, and
            # each number must pass the float keys' rule
            if key == "nakagami_bins" and not (
                    isinstance(val, (list, tuple)) and all(
                        isinstance(pair, (list, tuple)) and len(pair) == 2
                        and all(_is_number(v)
                                and abs(v) <= sys.float_info.max
                                for v in pair) for pair in val)):
                raise ConfigError(f"nakagami_bins must be (bound, m) "
                                  f"pairs of finite numbers, got {val!r}")
        # a top-level key names its field: the rules read it off self
        if self.vehicle_count < 2:
            raise ConfigError(
                f"vehicle_count must be at least 2, got {self.vehicle_count}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, "
                              f"got {self.protocol!r}")
        if self.channel_mode not in CHANNEL_MODES:
            raise ConfigError(f"channel_mode must be one of {CHANNEL_MODES}, "
                              f"got {self.channel_mode!r}")
        # a tick that rounds to 0 ns would never let the clock advance
        if round(self.mobility_tick_s * NS) < 1:
            raise ConfigError(f"mobility_tick_s must be at least 1 ns, got "
                              f"{self.mobility_tick_s}")
        for key in ("trace_path", "dump_trace_path"):
            if flat[key] is not None and not isinstance(flat[key], str):
                raise ConfigError(
                    f"{key} must be a path string or null, got {flat[key]!r}")
        # the trace is dumped after the run: a path in a missing directory
        # or naming a directory must fail before it
        dump = self.dump_trace_path
        if dump is not None and (Path(dump).is_dir()
                                 or not Path(dump).parent.is_dir()):
            raise ConfigError(f"dump_trace_path {dump!r} names a directory "
                              f"or is not in an existing one")
        for key in (
                "duration_s", "seed",
                # a negative arbitration gap grants the medium before the
                # request and never lets the clock advance; a negative
                # preamble makes the airtime negative
                "aifs_us", "preamble_us", "min_gap", "t_react"):
            if not flat[key] >= 0:
                raise ConfigError(f"{key} must be >= 0, got {flat[key]}")
        for key in (
                "t_mi_s", "slot_s", "neighbor_timeout_s",
                # a backoff slot that is not positive counts down without
                # time passing, or divides by zero; a range that is not
                # positive evaluates no receiver, so every PDR is undefined
                "slot_time_us", "range_m", "max_reception_range_m",
                "data_rate_mbps", "path_loss_exponent", "road_lane_width",
                "max_accel", "max_decel", "s_max",
                # v_safe divides by (v_leader + v_follower) / (2 b) + tau,
                # which a zero reaction time lets vanish for two stopped
                # vehicles
                "driver_reaction",
                # the risk metric divides by decel and rel_speed_floor: a
                # zero must fail here, not mid-run as a ZeroDivisionError,
                # and a negative one would run on silently
                "decel", "rel_speed_floor"):
            if not flat[key] > 0:
                raise ConfigError(f"{key} must be positive, got {flat[key]}")
        for key in ("slot_capacity", "bsm_size_bytes", "cw", "road_lanes"):
            if flat[key] < 1:
                raise ConfigError(f"{key} must be at least 1, got {flat[key]}")
        if not 0.0 <= flat["imperfection_sigma"] <= 1.0:
            raise ConfigError(f"imperfection_sigma must be in [0, 1], got "
                              f"{flat['imperfection_sigma']}")
        # the innermost ring must keep positive side lengths
        lanes, lane_width = flat["road_lanes"], flat["road_lane_width"]
        if (2 * lanes - 1) * lane_width >= min(flat["road_length"],
                                               flat["road_width"]):
            raise ConfigError(
                f"road_lanes={lanes} of road_lane_width={lane_width} do not "
                f"fit road_length={flat['road_length']} x "
                f"road_width={flat['road_width']}")
        # Krauss starts vehicle i of n on lane i % lanes, at fraction i / n
        # of its ring. The rule asks each lane's perimeter per vehicle to
        # be two min gaps at least: that bounds the mean start gap, not the
        # smallest, which can be far smaller where a ring wraps round. A
        # replay places nobody
        n = self.vehicle_count if self.trace_path is None else 0
        min_gap = flat["min_gap"]
        for lane in range(min(lanes, n)):
            k = len(range(lane, n, lanes))   # the lane's vehicles
            if k > 1 and self.road.perimeter(lane) / k < 2.0 * min_gap:
                raise ConfigError(
                    f"vehicle_count={n} puts {k} vehicles on lane {lane}, "
                    f"too many for min_gap={min_gap}")
        # only the slotted mode reads slot_s. A step of 0 ticks would never
        # let the clock advance
        slotted = self.channel_mode == "idealized_slotted"
        for key in ("t_mi_s", "slot_s") if slotted else ("t_mi_s",):
            ratio = flat[key] / self.mobility_tick_s
            if (not math.isfinite(ratio) or round(ratio) < 1
                    or abs(ratio - round(ratio)) > 1e-9):
                raise ConfigError(
                    f"{key}={flat[key]} must be an integer multiple (at "
                    f"least 1) of mobility_tick_s={self.mobility_tick_s}")
        if not 0 < self.delta_min_s <= self.delta_init_s <= self.delta_max_s:
            raise ConfigError(
                f"need 0 < delta_min_s <= delta_init_s <= delta_max_s, got "
                f"{self.delta_min_s}, {self.delta_init_s}, {self.delta_max_s}")
        if self.beta <= 1.0:
            raise ConfigError(f"beta must exceed 1, got {self.beta}")
        # a broadcast interval shorter than one frame's airtime only makes
        # BSMs that replace each other in the queue, and one that rounds to
        # 0 ns would never let the clock advance
        ch = self.channel
        airtime = tx_duration(self.bsm_size_bytes, ch)
        if self.delta_min_s < airtime:
            raise ConfigError(
                f"delta_min_s={self.delta_min_s} is shorter than one "
                f"{self.bsm_size_bytes}-byte frame's airtime ({airtime} s)")
        # a frame must end after it starts, on the event grid and in float
        # seconds at every instant of the run
        if (round(airtime * NS) < 1
                or self.duration_s + airtime == self.duration_s):
            raise ConfigError(
                f"bsm_size_bytes={self.bsm_size_bytes} airs for {airtime} s "
                f"at data_rate_mbps={ch.data_rate_mbps}: below 1 ns, or "
                f"nothing beside duration_s={self.duration_s}")
        bounds, shapes = ch.nakagami_table
        # the m-distribution is defined for m >= 1/2 (Nakagami 1960); below
        # it the gamma draw can underflow to 0.0, whose log10 fails mid-run
        for m, _ in shapes:
            if m < 0.5:
                raise ConfigError(
                    f"every Nakagami m in nakagami_bins and nakagami_m_far "
                    f"must be at least 1/2, got {m}")
        # delivery_outcome bisects for the first bin whose bound exceeds
        # the distance, which needs the bounds strictly ascending
        if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            raise ConfigError(f"nakagami_bins bounds must be strictly "
                              f"ascending, got {bounds}")
        if flat["range_m"] > flat["max_reception_range_m"]:
            raise ConfigError(
                f"range_m={flat['range_m']} exceeds max_reception_range_m="
                f"{flat['max_reception_range_m']}: receivers between the "
                f"two would never be evaluated")
        if self.forced_schedule is not None:
            if not slotted:
                raise ConfigError("forced_schedule requires idealized_slotted mode")
            if not isinstance(self.forced_schedule, (list, tuple)):
                raise ConfigError("forced_schedule must be a list of slots")
            # a shorter schedule leaves the remaining slots idle; a longer
            # one would be cut off silently
            slots = round(self.duration_s * NS) // round(self.slot_s * NS)
            if len(self.forced_schedule) > slots:
                raise ConfigError(
                    f"forced_schedule lists {len(self.forced_schedule)} "
                    f"slots, but the run has {slots}")
            for k, entry in enumerate(self.forced_schedule):
                if not isinstance(entry, (list, tuple)):
                    raise ConfigError(f"forced_schedule slot {k + 1} must be "
                                      f"a list of vehicle ids, got {entry!r}")
                if len(entry) > self.slot_capacity:
                    raise ConfigError(f"forced_schedule slot {k + 1} exceeds capacity")
                for v in entry:
                    # ids index the vehicles: True would be vehicle 1
                    if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                            or not 0 <= v < self.vehicle_count):
                        raise ConfigError(
                            f"forced_schedule slot {k + 1}: unknown vehicle {v!r}")
                if len(set(entry)) < len(entry):
                    raise ConfigError(
                        f"forced_schedule slot {k + 1} lists a vehicle twice")


def _flat_keys() -> dict:
    """The flat config keys, each mapped to its (section, field): the
    section is the SimConfig field with a default_factory that holds it,
    None for SimConfig's own. Road keys carry a road_ prefix."""
    table = {}
    for part in fields(SimConfig):
        if part.default_factory is MISSING:
            table[part.name] = (None, part)
            continue
        prefix = "road_" if part.name == "road" else ""
        for f in fields(part.default_factory):
            if prefix + f.name in table:
                raise AssertionError(f"config key collision: {f.name}")
            table[prefix + f.name] = (part, f)
    return table


FLAT_KEYS = _flat_keys()


def _is_number(val) -> bool:
    """A real number, and not a bool (JSON's true would run as 1)."""
    # a float first: the abstract class check costs ten times as much
    return type(val) is float or (isinstance(val, numbers.Real)
                                  and not isinstance(val, bool))


def check_trace_coverage(trace: TrajectoryTable, n: int, duration_s: float
                         ) -> None:
    """Refuse a trace unless it holds exactly vehicles 0..n-1, each from 0
    to the run's end on the ns grid: the run reads everyone at both."""
    ids, m = trace.ids, len(trace.ids)
    # the count first: a huge n must not allocate its whole range
    if m != n or not np.array_equal(ids, np.arange(n)):
        # the ids are sorted and distinct: the first one off its position
        # is extra, or its position's id is missing
        k = min(m, n)
        i = int(np.argmax(np.append(ids[:k] != np.arange(k), True)))
        extra = i < m and (i == n or ids[i] < i)
        raise ConfigError(
            f"trace vehicles do not match vehicle_count {n}: the trace "
            f"holds {m}, and id {int(ids[i]) if extra else i} is "
            f"{'extra' if extra else 'missing'} (need ids 0..{n - 1})")
    T = round(duration_s * NS) / NS
    lo, hi = trace.t[trace.offsets[:-1]], trace.t[trace.offsets[1:] - 1]
    short = np.flatnonzero((lo > 0.0) | (hi < T))
    if len(short):
        vid = int(short[0])
        raise TraceError(
            f"vehicle {vid} trace span [{float(lo[vid])}, "
            f"{float(hi[vid])}] does not cover [0, {T}]")


# the row sets too bulky for report.json: each goes to a CSV of its own,
# with this file name and header, and the report names the file as
# <row set>_path
ROW_SETS = {
    "timeseries": ("timeseries.csv", ("t", "vehicle_id", "delta_ms", "flag",
                                      "aoi_v", "taoi_v")),
    "te_pairs": ("te_pairs.csv", ("receiver_id", "sender_id", "mean_te_m",
                                  "samples")),
}


@dataclass
class RunReport:
    protocol: str
    n_vehicles: int
    seed: int
    duration_s: float
    system_aoi_s: float
    system_taoi_s: float
    collision_risk_count: int
    overall_pdr: float | None
    pdr_bins: list            # (bin_lo_m, bin_hi_m, successes, opportunities)
    interval_histogram: list  # (bin_lo_ms, count) over newly chosen intervals
    mean_interval_ms: float
    per_vehicle: list         # dict per vehicle, sorted by id
    counts: dict              # frame conservation: generated/dropped/sent/in_flight
    negative_gap_events: int
    timeseries: list          # row set, see ROW_SETS
    te_pairs: list            # row set, see ROW_SETS
    config: dict              # dataclasses.asdict of the run's SimConfig

    def json_dict(self) -> dict:
        """The content of report.json: every field except the row sets,
        which are referenced by the relative path of their CSV."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ROW_SETS}
        for name, (csv_name, _) in ROW_SETS.items():
            d[name + "_path"] = csv_name
        return d


class _Vehicle:
    """Per-vehicle runtime state owned by the event loop. ``queued`` is
    the one request not yet on the air: the unsent ``Frame`` of the CSMA
    MAC, or the slot a request boarded in the slotted mode. The MAC is
    idle exactly when ``queued`` and ``airing`` are both None."""

    __slots__ = ("idx", "ctrl", "records", "queued", "airing", "generated",
                 "dropped", "sent", "risky_mis", "congested_mis", "delta_sum")

    def __init__(self, idx: int, ctrl: ControllerState, records: aoi.PairRow):
        self.idx = idx
        self.ctrl = ctrl
        self.records = records   # this receiver's row of the pair table
        self.queued = None       # the one frame (or slot) not yet on the air
        self.airing = None       # the frame on the air
        self.generated = 0
        self.dropped = 0
        self.sent = 0
        self.risky_mis = 0
        self.congested_mis = 0
        self.delta_sum = 0.0


def _stream(seed: int, stream_id: int):
    return np.random.default_rng(np.random.SeedSequence([seed, stream_id]))


def _columns(states) -> tuple:
    """The x, y, speed, heading, lane and arc arrays of the states that
    ``initial_states`` or ``krauss_step`` returned: the one place the
    engine reads ``VehicleState`` fields."""
    return tuple(map(np.array, zip(*map(attrgetter(
        "x", "y", "speed", "heading", "lane", "arc"), states))))


class Simulation:
    """One configured run. Build, call run(), read the RunReport."""

    def __new__(cls, cfg: SimConfig):
        if cls is Simulation and cfg.channel_mode == "idealized_slotted":
            from .slotted import SlottedSimulation
            cls = SlottedSimulation
        return super().__new__(cls)

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.n = cfg.vehicle_count
        self.T_ns = round(cfg.duration_s * NS)
        self.tick_ns = round(cfg.mobility_tick_s * NS)
        self.t_mi_ns = round(cfg.t_mi_s * NS)

        init_rng = _stream(cfg.seed, STREAM_INIT)
        self.mob_rng = _stream(cfg.seed, STREAM_MOBILITY)
        self.fading_rng = _stream(cfg.seed, STREAM_FADING)
        self.backoff_rng = _stream(cfg.seed, STREAM_BACKOFF)

        # the states the next krauss_step takes as they are; none in a replay
        self.trace: TrajectoryTable | None = None
        self._states: list | None = None
        if cfg.trace_path is not None:
            self.trace = load_trace(cfg.trace_path)
            check_trace_coverage(self.trace, self.n, cfg.duration_s)
            truth = self.trace.sample(np.arange(self.n), np.zeros(self.n))
        else:
            self._states = initial_states(cfg.road, cfg.krauss, self.n,
                                          init_rng)
            truth = _columns(self._states)
        # generation phase jitter, drawn in id order for every mode so the
        # init stream stays aligned across protocol comparisons
        self.gen_phase_ns = [
            round(float(init_rng.uniform(0.0, cfg.delta_init_s)) * NS)
            for _ in range(self.n)]

        self.pairs = aoi.PairTable(self.n)
        self._ended: list = []    # finished frames not yet decided
        self._unposed: set = set()  # frames awaiting their pose
        self.vehicles = [
            _Vehicle(i, ControllerState(cfg.delta_init_s),
                     aoi.PairRow(self.pairs, i))
            for i in range(self.n)]

        self.active_txs: list[Frame] = []
        self.tx_dur_s = tx_duration(cfg.bsm_size_bytes, cfg.channel)
        self.tx_dur_ns = round(self.tx_dur_s * NS)
        self.timeline = ChannelTimeline(self.tx_dur_s)
        self.pdr = PdrCounters()
        self.risk_count = 0
        self.negative_gap_events = 0
        self.timeseries: list = []
        self.interval_hist: dict[int, int] = {}
        self.mi_count = 0   # measurement boundaries, the same for everyone
        self.trace_rows: list = []

        # ground truth from _refresh_arrays, and its x, y, speed, heading
        # at the last MI boundary
        self._last_tick_ns = 0
        self._refresh_arrays(*truth)
        self._mi_prev = truth[:4]

        self._heap: list = []

    # ------------------------------------------------------------- setup

    def _push(self, t_ns: int, kind: int, vid: int = -1) -> None:
        """At most one event of a kind is pending per vehicle (or per run,
        ``vid == -1``), so no two pending events share a key."""
        heapq.heappush(self._heap, (t_ns, kind, vid))

    def _refresh_arrays(self, xs, ys, speeds, headings, lanes,
                        arcs=None) -> None:
        """Hold one tick's ground truth, arrays indexed by vehicle id (no
        ``arcs`` in a replay), and the distances and velocities it gives."""
        self._xs, self._ys, self._speeds = xs, ys, speeds
        self._headings, self._lanes, self._arcs = headings, lanes, arcs
        self._dist = np.hypot(xs[:, None] - xs[None, :],
                              ys[:, None] - ys[None, :])
        self._vxs = speeds * np.cos(headings)
        self._vys = speeds * np.sin(headings)

    # ------------------------------------------------------------ running

    def run(self) -> RunReport:
        if self.cfg.dump_trace_path is not None:
            self._record_trace_rows(0.0)
        if self.T_ns == 0:
            return self._finalize()
        self._push(self.tick_ns, EV_MOBILITY)
        self._push(self.t_mi_ns, EV_MEASUREMENT)
        self._push(self.T_ns, EV_END)
        self._push_first_events()

        heap = self._heap
        while heap:
            t_ns, kind, vid = heapq.heappop(heap)
            if kind == EV_MOBILITY:
                self._on_tick(t_ns)
            elif kind == EV_TX_END:
                self._on_tx_end(t_ns, vid)
            elif kind == EV_GEN:
                self._on_generation(t_ns, vid)
            elif kind == EV_TX_START:
                self._on_tx_start(t_ns, vid)
            elif kind == EV_MEASUREMENT:
                self._on_measurement(t_ns)
            elif kind == EV_END:
                break
            else:   # a kind that only a subclass schedules (EV_SLOT)
                self._on_extra_event(t_ns)
        return self._finalize()

    def _push_first_events(self) -> None:
        """Schedule every vehicle's first generation."""
        for i in range(self.n):
            self._push(min(self.gen_phase_ns[i], self.T_ns), EV_GEN, i)

    # ------------------------------------------------------- ground truth

    def _on_tick(self, t_ns: int) -> None:
        t_s = t_ns / NS
        # frames that ended since the last flush are decided before
        # anyone moves, where their receivers stood
        self._flush_receptions()
        if self.trace is not None:
            self._refresh_arrays(*self.trace.sample(
                np.arange(self.n), np.full(self.n, t_s)))
        else:
            cfg, arcs, lanes = self.cfg, self._arcs, self._lanes
            self._states = krauss_step(self._states, cfg.krauss, cfg.road,
                                       cfg.mobility_tick_s, self.mob_rng)
            self._refresh_arrays(*_columns(self._states))
            self._check_gaps(arcs, lanes)
        self._last_tick_ns = t_ns
        if self.cfg.dump_trace_path is not None:
            self._record_trace_rows(t_s)
        self._sample_te_and_risk(t_s)
        # every access query starts at or after this tick
        self.timeline.prune(t_s)
        if t_ns + self.tick_ns <= self.T_ns:
            self._push(t_ns + self.tick_ns, EV_MOBILITY)

    def _check_gaps(self, old_arcs, old_lanes) -> None:
        """Krauss safety audit: no follower may have closed past its
        leader in its lane over the tick (unwrapped new gap stays
        non-negative). Each vehicle starts the tick where ``krauss_step``
        moves it from: its previous arc, projected onto its new ring
        (``lane_remap``) if it changed lane."""
        road, lanes, n = self.cfg.road, self._lanes, self.n
        start = old_arcs.copy()
        old, new = old_lanes.tolist(), lanes.tolist()
        for i in np.flatnonzero(old_lanes != lanes).tolist():
            start[i] = road.lane_remap(start[i], old[i], new[i])
        # each vehicle's leader is the next start on its new ring, ties in
        # id order, wrapping round; a vehicle alone on its ring leads itself
        order = np.lexsort((start, lanes))
        ring, after = lanes[order], np.roll(order, -1)
        leader = np.empty(n, dtype=np.intp)
        leader[order] = np.where(ring == lanes[after], after,
                                 order[np.searchsorted(ring, ring)])
        perimeter = road.perimeter(lanes)
        gap_old = (start[leader] - start) % perimeter
        disp = (self._arcs - start) % perimeter
        self.negative_gap_events += int(np.count_nonzero(
            (gap_old + disp[leader] - disp < 0) & (leader != np.arange(n))))

    def _record_trace_rows(self, t_s: float) -> None:
        self.trace_rows.extend(zip([t_s] * self.n, range(self.n), *(
            c.tolist() for c in (self._xs, self._ys, self._speeds,
                                 self._headings, self._lanes))))

    def _sample_te_and_risk(self, t_s: float) -> None:
        """Per-tick tracking error for every live record, collision risk
        for in-range pairs, and reception-timeout eviction."""
        cfg = self.cfg
        risk, dead = sample_te_and_risk(
            self.pairs, t_s, self._xs, self._ys, self._vxs, self._vys,
            self._speeds, self._dist, cfg.channel.range_m, cfg.safety,
            t_s - cfg.neighbor_timeout_s)
        self.risk_count += risk
        if dead is not None:
            # a silent record's age runs on until its timeout expires. A
            # record that survived a measurement tick by the last bit of
            # ``t - timeout`` can have its cursor one ulp past
            # ``last_seen + timeout``; its area is then already closed
            pairs = self.pairs
            dead = pairs.by_insertion(dead)
            aoi.advance(pairs, dead, np.maximum(
                pairs.cursor[dead],
                pairs.last_seen[dead] + cfg.neighbor_timeout_s))
            pairs.retire(dead)

    def _close_areas(self, cells, t_s: float) -> None:
        """Extend the areas of ``cells`` to a window's or the run's end."""
        aoi.advance(self.pairs, cells, t_s)

    # ------------------------------------------------------ realistic MAC

    def _on_generation(self, t_ns: int, idx: int) -> None:
        v = self.vehicles[idx]
        v.generated += 1
        self._enqueue(v, t_ns)
        nxt = t_ns + round(v.ctrl.delta * NS)
        if nxt <= self.T_ns:
            self._push(nxt, EV_GEN, idx)

    def _enqueue(self, v: _Vehicle, t_ns: int) -> None:
        """A frame not yet on the air is replaced by the fresher one,
        keeping any medium grant already won; an idle MAC starts access."""
        if v.queued is not None:
            v.dropped += 1
            self._unposed.discard(v.queued)
        elif v.airing is None:
            self._begin_access(v, t_ns)
        v.queued = frame = Frame(v.idx, t_ns, v.ctrl.riskiness_flag,
                                 v.ctrl.delta)
        self._unposed.add(frame)

    def _begin_access(self, v: _Vehicle, t_ns: int) -> None:
        start_s = csma_access(v.idx, t_ns / NS, self.timeline,
                              self.backoff_rng, self.cfg.channel)
        self.timeline.commit(start_s)
        self._push(round(start_s * NS), EV_TX_START, v.idx)

    def _on_tx_start(self, t_ns: int, idx: int) -> None:
        """The queued frame goes on the air as it is."""
        v = self.vehicles[idx]
        tx = v.airing = v.queued
        v.queued = None
        tx.start = t_ns / NS
        tx.end = tx.start + self.tx_dur_s
        self.active_txs.append(tx)
        self._push(t_ns + self.tx_dur_ns, EV_TX_END, idx)

    def _on_tx_end(self, t_ns: int, idx: int) -> None:
        t_s = t_ns / NS
        v = self.vehicles[idx]
        tx = v.airing
        v.airing = None
        v.sent += 1
        # receivers do not move before the next flush, so the frame is
        # decided there exactly as it would be now
        self._ended.append((tx, t_s, overlapping(tx, self.active_txs)))
        self.active_txs = [c for c in self.active_txs if c.end > t_s]
        if v.queued is not None:
            self._begin_access(v, t_ns)

    def _flush_receptions(self) -> None:
        """Decide every frame that ended since the last flush and fold
        what decoded into the pair table. Runs wherever pair state is
        read, before any vehicle moves: the top of the mobility tick, the
        measurement boundary and the wrap-up."""
        if self._unposed:
            self._pose_payloads(list(self._unposed))
            self._unposed = set()
        if self._ended:
            self._decide(self._ended)
            self._ended = []

    def _pose_payloads(self, pending: list) -> None:
        """Fill in the pose of each payload at its generation instant, as
        nobody has moved since the last tick: one trace query, or one
        ``RoadConfig.lane_poses`` pass over each sender's carried arc
        advanced at its speed. A Krauss vehicle's pose is ``lane_poses``
        of its own arc, so a payload generated at the tick itself takes
        the tick's pose. The flush poses every BSM generated since the last
        flush and not replaced in the queue."""
        idx = np.array([p.sender for p in pending], dtype=np.intp)
        if self.trace is not None:
            x, y, speed, heading, _ = self.trace.sample(
                idx, np.array([p.gen_time for p in pending]))
        else:
            dt = ((np.array([p.t_ns for p in pending]) - self._last_tick_ns)
                  / NS)
            speed = self._speeds[idx]
            x, y, heading = self.cfg.road.lane_poses(
                self._arcs[idx] + speed * dt, self._lanes[idx])
        for p, px, py, pv, ph in zip(pending, x.tolist(), y.tolist(),
                                     speed.tolist(), heading.tolist()):
            p.x, p.y, p.speed, p.heading = px, py, pv, ph

    def _decide(self, ended: list) -> None:
        """Delivery, PDR counting and receptions for a batch of finished
        frames, in end order. A frame is offered to every other vehicle
        within the cutoff of its sender, in id order; those within
        ``range_m`` are its PDR opportunities, binned by the same distance.
        The decoded links, each as its frame's row and receiver, are the
        PDR successes and the pair table's columnar record."""
        ch, n, k = self.cfg.channel, self.n, len(ended)
        frames = [(tx, over) for tx, _, over in ended]
        senders = np.array([tx.sender for tx, _ in frames], dtype=np.intp)
        rows = self._dist[senders]
        near = rows <= ch.max_reception_range_m
        near[np.arange(k), senders] = False
        frame_of, rx = np.nonzero(near)
        links = link_budgets(frames, frame_of, rx, self._xs, self._ys, ch)
        rng = self.fading_rng
        decoded = [delivery_outcome(tx, lk, over, rng, ch)
                   for (tx, _, over), lk in zip(ended, links)]
        frame = np.repeat(np.arange(k), [len(got) for got in decoded])
        rx = np.fromiter(chain.from_iterable(decoded), np.intp, len(frame))
        # range_m <= cutoff, so the PDR audience is a subset of the links
        hit = np.zeros((k, n), dtype=bool)
        hit[frame, rx] = True
        dist = rows[near]
        audience = dist <= ch.range_m
        pdr_record(self.pdr, dist[audience],
                   np.flatnonzero(hit[near][audience]))
        if len(rx):
            aoi.apply_reception(self.pairs, np.array(
                [(tx.sender, t_s, *aoi.snapshot(tx)) for tx, t_s, _ in ended]),
                frame, rx)

    # --------------------------------------------------- measurement loop

    def _on_measurement(self, t_ns: int) -> None:
        """Every vehicle's MI boundary: the windowed AoI and TAoI census
        of its row of the pair table, then its controller step, then the
        window reset."""
        t_s = t_ns / NS
        cfg, pairs, n = self.cfg, self.pairs, self.n
        t_mi = cfg.t_mi_s
        self._flush_receptions()
        live = np.flatnonzero(pairs.live)
        # close the elapsed window under the flags that were in force
        self._close_areas(live, t_s)
        # the measurement population is every neighbor actually heard this
        # window; records gone silent stay around for tracking-error
        # bookkeeping but say nothing about the current local picture.
        # Cold start: the first boundary closes a window nobody broadcast
        # into from its start, so every windowed metric is structurally
        # partial; flags are still assessed, windows still reset, but the
        # controllers hold and metric memories stay unprimed
        first_boundary = t_ns <= self.t_mi_ns
        heard = live[:0] if first_boundary else pairs.by_insertion(
            live[pairs.last_seen[live] >= t_s - t_mi])
        bounds = np.searchsorted(heard // n, np.arange(n + 1)).tolist()
        areas = pairs.aoi_mi[heard].tolist()
        gated = pairs.taoi_mi[heard].tolist()
        intervals = pairs.interval[heard].tolist()
        in_range = (self._dist.ravel()[heard] <= cfg.channel.range_m).tolist()
        self_te = self_tracking_error(self._xs, self._ys, self._mi_prev, t_mi)
        self._mi_prev = self._xs, self._ys, self._speeds, self._headings
        self.mi_count += 1
        for v in self.vehicles:
            lo, hi = bounds[v.idx], bounds[v.idx + 1]
            self._control_step(v, t_s, first_boundary, self_te[v.idx],
                               areas[lo:hi], gated[lo:hi], intervals[lo:hi],
                               in_range[lo:hi])
        aoi.reset_window(pairs)
        if t_ns + self.t_mi_ns <= self.T_ns:
            self._push(t_ns + self.t_mi_ns, EV_MEASUREMENT)

    def _control_step(self, v: _Vehicle, t_s: float, first_boundary: bool,
                      self_te: float, areas, gated, intervals,
                      in_range) -> None:
        """One vehicle's self-risk assessment and rate update from the
        window areas, gated areas, broadcast intervals and in-range flags
        of the senders it heard, in the order it opened their records."""
        cfg = self.cfg
        t_mi = cfg.t_mi_s
        flag = assess_self_risk(self_te, v.ctrl, cfg)
        v.risky_mis += flag

        if areas:
            aoi_v = aoi.vehicle_aoi(areas, t_mi)
            delta_avg = sum(intervals) / len(intervals)
            taoi_v, n_risky = aoi.vehicle_taoi(gated, in_range, t_mi)
            congested = is_congested(aoi_v, delta_avg)
            v.congested_mis += congested
        else:
            aoi_v = delta_avg = taoi_v = None
            n_risky = 0
            congested = False

        if first_boundary:
            delta = v.ctrl.delta
        elif cfg.protocol == "fixed10hz":
            delta, _ = fixed_rate(v.ctrl)
        elif cfg.protocol == "aoi":
            delta, _ = aoi_rate_update(v.ctrl, cfg, aoi_v, delta_avg,
                                       congested)
        else:
            delta, _ = taoi_rate_update(v.ctrl, cfg, taoi_v, n_risky,
                                        congested)

        v.delta_sum += delta
        bin_lo = int(delta * 1000.0 // INTERVAL_BIN_MS)
        self.interval_hist[bin_lo] = self.interval_hist.get(bin_lo, 0) + 1
        self.timeseries.append((t_s, v.idx, delta * 1000.0, flag, aoi_v,
                                taoi_v))

    # ----------------------------------------------------------- wrap-up

    def _finalize(self) -> RunReport:
        cfg = self.cfg
        T = cfg.duration_s
        pairs, n = self.pairs, self.n
        if T > 0:
            self._flush_receptions()
            live = pairs.by_insertion(np.flatnonzero(pairs.live))
            self._close_areas(live, self.T_ns / NS)
            pairs.retire(live)
        denom = n * (n - 1)
        if T > 0 and pairs.retire_order:
            # Python sums in first-retirement order: the reduction order
            # is part of the byte-identical reports
            order = np.concatenate(pairs.retire_order)
            sys_aoi = sum(pairs.ret_aoi[order].tolist()) / T / denom
            sys_taoi = sum(pairs.ret_taoi[order].tolist()) / T / denom
        else:
            sys_aoi = 0.0
            sys_taoi = 0.0
        sampled = np.flatnonzero(pairs.ret_te_count)
        te_pairs = [
            (c // n, c % n, te_sum / count, count)
            for c, te_sum, count in zip(sampled.tolist(),
                                        pairs.ret_te_sum[sampled].tolist(),
                                        pairs.ret_te_count[sampled].tolist())]
        try:
            overall_pdr = self.pdr.overall_pdr()
        except UndefinedValueError:
            overall_pdr = None
        generated = sum(v.generated for v in self.vehicles)
        dropped = sum(v.dropped for v in self.vehicles)
        sent = sum(v.sent for v in self.vehicles)
        in_flight = sum((v.queued is not None) + (v.airing is not None)
                        for v in self.vehicles)
        if generated != dropped + sent + in_flight:
            raise AssertionError(
                f"frame conservation violated: {generated} generated vs "
                f"{dropped} dropped + {sent} sent + {in_flight} in flight")
        mi_count = self.mi_count
        mean_interval_ms = (
            sum(v.delta_sum for v in self.vehicles) / (n * mi_count) * 1000.0
            if mi_count else cfg.delta_init_s * 1000.0)
        per_vehicle = [
            {"vehicle_id": v.idx,
             "mean_interval_ms": (v.delta_sum / mi_count * 1000.0
                                  if mi_count else cfg.delta_init_s * 1000.0),
             "risky_mis": v.risky_mis,
             "congested_mis": v.congested_mis,
             "mi_count": mi_count,
             "generated": v.generated}
            for v in self.vehicles]
        if cfg.dump_trace_path is not None:
            write_trace(cfg.dump_trace_path, self.trace_rows)
        report = RunReport(
            protocol=cfg.protocol,
            n_vehicles=self.n,
            seed=cfg.seed,
            duration_s=T,
            system_aoi_s=sys_aoi,
            system_taoi_s=sys_taoi,
            collision_risk_count=self.risk_count,
            overall_pdr=overall_pdr,
            pdr_bins=self.pdr.bin_rows(),
            interval_histogram=sorted(
                (b * INTERVAL_BIN_MS, c)
                for b, c in self.interval_hist.items()),
            mean_interval_ms=mean_interval_ms,
            per_vehicle=per_vehicle,
            counts={"generated": generated, "dropped": dropped, "sent": sent,
                    "in_flight": in_flight},
            negative_gap_events=self.negative_gap_events,
            timeseries=self.timeseries,
            te_pairs=te_pairs,
            config=asdict(cfg),
        )
        logger.info(
            "run done: protocol=%s n=%d seed=%d aoi=%.4f taoi=%.4f risk=%d",
            cfg.protocol, self.n, cfg.seed, sys_aoi, sys_taoi, self.risk_count)
        return report


def run_simulation(config: SimConfig) -> RunReport:
    """Execute one configured run and return its aggregated report."""
    return Simulation(config).run()
