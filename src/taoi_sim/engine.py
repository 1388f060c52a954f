"""Discrete-event simulation core.

Time on the event queue is integer nanoseconds so mobility ticks,
measurement intervals and slot boundaries stay exactly aligned; metric
math converts to float seconds once at the call boundary. Ties at one
timestamp are broken by event-kind priority, then vehicle id: ground
truth moves first, finishing frames deliver before new generations look
at the medium, and measurement logic runs after everything that changes
the picture it measures.

Two channel modes share the loop. The realistic mode runs CSMA access,
airtime and fading per frame; the idealized slotted mode replaces all of
that with fixed-capacity slots at zero delay (the abstraction behind the
analytical toy example), where each slot boundary samples tracking error
before delivery and age after delivery as right-endpoint steps.
"""

from __future__ import annotations

import heapq
import logging
import math
import numbers
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import aoi
from .channel import (ChannelConfig, ChannelTimeline, TransmissionEvent,
                      csma_access, delivery_outcome, tx_duration)
from .errors import ConfigError, TraceError, UndefinedValueError
from .metrics import (Bsm, PdrCounters, SafetyParams, pdr_record,
                      sample_te_and_risk, self_tracking_error)
from .mobility import (KraussParams, RoadConfig, TrajectoryTable,
                       initial_states, krauss_step, load_trace, write_trace)
from .rate_control import (ControllerState, aoi_rate_update,
                           assess_self_risk, fixed_rate, taoi_rate_update)

logger = logging.getLogger("taoi_sim.engine")

NS = 10 ** 9

# event kinds in tie-break priority order at equal timestamps
EV_MOBILITY = 0
EV_SLOT = 1
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
    eps_cmp_s: float = 1e-9
    spread_lambda: float = 0.25
    # idealized slotted channel
    slot_s: float = 0.1
    slot_capacity: int = 1
    forced_schedule: tuple | None = None
    # mobility source: built-in Krauss unless a trace is given
    trace_path: str | None = None
    dump_trace_path: str | None = None
    # reporting
    interval_bin_ms: float = 10.0
    collect_pair_tables: bool = False
    road: RoadConfig = field(default_factory=RoadConfig)
    krauss: KraussParams = field(default_factory=KraussParams)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    safety: SafetyParams = field(default_factory=SafetyParams)

    def validate(self) -> None:
        for section in (self, self.road, self.krauss, self.channel,
                        self.safety):
            _check_numbers(section)
        if self.vehicle_count < 2:
            raise ConfigError(
                f"vehicle_count must be at least 2, got {self.vehicle_count}")
        if self.duration_s < 0:
            raise ConfigError(f"duration_s must be >= 0, got {self.duration_s}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, "
                              f"got {self.protocol!r}")
        if self.channel_mode not in CHANNEL_MODES:
            raise ConfigError(f"channel_mode must be one of {CHANNEL_MODES}, "
                              f"got {self.channel_mode!r}")
        if self.mobility_tick_s <= 0:
            raise ConfigError("mobility_tick_s must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("trace_path", "dump_trace_path"):
            val = getattr(self, name)
            if val is not None and not isinstance(val, str):
                raise ConfigError(
                    f"{name} must be a path string or null, got {val!r}")
        for name in ("t_mi_s", "slot_s"):
            val = getattr(self, name)
            if val <= 0:
                raise ConfigError(f"{name} must be positive, got {val}")
            ratio = val / self.mobility_tick_s
            if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(
                    f"{name}={val} must be an integer multiple of "
                    f"mobility_tick_s={self.mobility_tick_s}")
        if not 0 < self.delta_min_s <= self.delta_init_s <= self.delta_max_s:
            raise ConfigError(
                f"need 0 < delta_min <= delta_init <= delta_max, got "
                f"{self.delta_min_s}, {self.delta_init_s}, {self.delta_max_s}")
        if self.beta <= 1.0:
            raise ConfigError(f"beta must exceed 1, got {self.beta}")
        if self.neighbor_timeout_s <= 0:
            raise ConfigError("neighbor_timeout_s must be positive")
        if self.slot_capacity < 1:
            raise ConfigError("slot_capacity must be at least 1")
        if self.bsm_size_bytes < 1:
            raise ConfigError("bsm_size_bytes must be at least 1")
        # the risk metric divides by decel and rel_speed_floor, the fading
        # draw by every m: a zero must fail here, not mid-run as a
        # ZeroDivisionError, and a negative one would run on silently
        safety = self.safety
        if not safety.decel > 0:
            raise ConfigError(f"decel must be positive, got {safety.decel}")
        if not safety.rel_speed_floor > 0:
            raise ConfigError(f"rel_speed_floor must be positive, got "
                              f"{safety.rel_speed_floor}")
        if not safety.t_react >= 0:
            raise ConfigError(f"t_react must be >= 0, got {safety.t_react}")
        ch = self.channel
        for m in [m for _, m in ch.nakagami_bins] + [ch.nakagami_m_far]:
            if not 0 < m < math.inf:
                raise ConfigError(
                    f"every Nakagami m must be positive and finite, got {m}")
        # delivery_outcome bisects for the first bin whose bound exceeds
        # the distance, which needs the bounds strictly ascending
        bounds = [bound for bound, _ in ch.nakagami_bins]
        if not all(math.isfinite(b) for b in bounds) or any(
                lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            raise ConfigError(f"nakagami_bins bounds must be finite and "
                              f"strictly ascending, got {bounds}")
        if ch.range_m > ch.max_reception_range_m:
            raise ConfigError(
                f"range_m={ch.range_m} exceeds max_reception_range_m="
                f"{ch.max_reception_range_m}: receivers between the two "
                f"would never be evaluated")
        if self.forced_schedule is not None:
            if self.channel_mode != "idealized_slotted":
                raise ConfigError("forced_schedule requires idealized_slotted mode")
            for k, entry in enumerate(self.forced_schedule):
                if len(entry) > self.slot_capacity:
                    raise ConfigError(f"forced_schedule slot {k + 1} exceeds capacity")
                for v in entry:
                    if not 0 <= v < self.vehicle_count:
                        raise ConfigError(
                            f"forced_schedule slot {k + 1}: unknown vehicle {v}")


def _check_numbers(section) -> None:
    """Every float of a config section must be finite and every
    int-annotated field an integer: JSON can deliver NaN, Infinity and
    4.5 to any of them."""
    for f in fields(section):
        val = getattr(section, f.name)
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{f.name} must be finite, got {val}")
        if f.type in ("int", int) and (
                isinstance(val, bool) or not isinstance(val, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {val!r}")


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
    timeseries: list          # (t, vehicle_id, delta_ms, flag, aoi_v, taoi_v)
    te_pairs: list            # (receiver_id, sender_id, mean_te_m, samples)
    pair_tables: dict | None  # per-slot toy tables (idealized, small N only)
    config: dict

    def json_dict(self, timeseries_path: str = "timeseries.csv",
                  te_pairs_path: str = "te_pairs.csv") -> dict:
        """Deterministic JSON view; bulky row data is referenced by relative
        path instead of being inlined."""
        d = {
            "protocol": self.protocol,
            "n_vehicles": self.n_vehicles,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "system_aoi_s": self.system_aoi_s,
            "system_taoi_s": self.system_taoi_s,
            "collision_risk_count": self.collision_risk_count,
            "overall_pdr": self.overall_pdr,
            "pdr_bins": [list(b) for b in self.pdr_bins],
            "interval_histogram": [list(b) for b in self.interval_histogram],
            "mean_interval_ms": self.mean_interval_ms,
            "per_vehicle": self.per_vehicle,
            "counts": self.counts,
            "negative_gap_events": self.negative_gap_events,
            "timeseries_path": timeseries_path,
            "te_pairs_path": te_pairs_path,
            "config": self.config,
        }
        return d


class _Vehicle:
    """Per-vehicle runtime state owned by the event loop. The MAC is idle
    exactly when ``queued`` and ``airing`` are both None."""

    __slots__ = ("idx", "ctrl", "records", "queued", "airing", "mi_prev",
                 "generated", "dropped", "sent", "risky_mis", "congested_mis",
                 "mi_count", "delta_sum", "pending_slots")

    def __init__(self, idx: int, ctrl: ControllerState, records: aoi.PairRow):
        self.idx = idx
        self.ctrl = ctrl
        self.records = records   # this receiver's row of the pair table
        self.queued = None       # the one BSM not yet on the air
        self.airing = None       # TransmissionEvent on the air
        self.mi_prev = None      # own state at the previous MI boundary
        self.generated = 0
        self.dropped = 0
        self.sent = 0
        self.risky_mis = 0
        self.congested_mis = 0
        self.mi_count = 0
        self.delta_sum = 0.0
        self.pending_slots = 0   # idealized mode: slot requests outstanding


def _stream(seed: int, stream_id: int):
    return np.random.default_rng(np.random.SeedSequence([seed, stream_id]))


class Simulation:
    """One configured run. Build, call run(), read the RunReport."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.n = cfg.vehicle_count
        self.T_ns = round(cfg.duration_s * NS)
        self.tick_ns = round(cfg.mobility_tick_s * NS)
        self.t_mi_ns = round(cfg.t_mi_s * NS)
        self.slot_ns = round(cfg.slot_s * NS)
        self.idealized = cfg.channel_mode == "idealized_slotted"

        self.init_rng = _stream(cfg.seed, STREAM_INIT)
        self.mob_rng = _stream(cfg.seed, STREAM_MOBILITY)
        self.fading_rng = _stream(cfg.seed, STREAM_FADING)
        self.backoff_rng = _stream(cfg.seed, STREAM_BACKOFF)

        self.trace: TrajectoryTable | None = None
        if cfg.trace_path is not None:
            self.trace = load_trace(cfg.trace_path)
            self._check_trace_coverage()
            self.states = [self.trace.state_at(i, 0.0) for i in range(self.n)]
        else:
            self.states = initial_states(cfg.road, cfg.krauss, self.n,
                                         self.init_rng)
        # generation phase jitter, drawn in id order for every mode so the
        # init stream stays aligned across protocol comparisons
        self.gen_phase_ns = [
            round(float(self.init_rng.uniform(0.0, cfg.delta_init_s)) * NS)
            for _ in range(self.n)]

        self.pairs = aoi.PairTable(self.n)
        self._rx_log: list = []   # decoded frames not yet in the pair table
        self.vehicles = [
            _Vehicle(i, ControllerState(
                delta=cfg.delta_init_s, delta_min=cfg.delta_min_s,
                delta_max=cfg.delta_max_s, beta=cfg.beta,
                te_threshold=cfg.safety.te_threshold, eps_cmp=cfg.eps_cmp_s,
                spread_lambda=cfg.spread_lambda, prev_delta=cfg.delta_init_s),
                aoi.PairRow(self.pairs, i))
            for i in range(self.n)]
        for i, v in enumerate(self.vehicles):
            v.mi_prev = self.states[i]

        self.timeline = ChannelTimeline()
        self.active_txs: list[TransmissionEvent] = []
        self.tx_dur_s = tx_duration(cfg.bsm_size_bytes,
                                    cfg.channel.data_rate_mbps, cfg.channel)
        self.pdr = PdrCounters()
        self.risk_count = 0
        self.negative_gap_events = 0
        self.timeseries: list = []
        self.interval_hist: dict[int, int] = {}
        self.trace_rows: list = []
        self.pair_tables = None

        # idealized slotted bookkeeping
        self.slot_load: dict[int, int] = {}
        self.slot_queue: dict[int, list] = {}
        if self.idealized:
            self._init_virtual_records()
            if cfg.collect_pair_tables:
                self.pair_tables = {
                    (s, r): {"aoi": [], "te": []}
                    for s in range(self.n) for r in range(self.n) if s != r}

        # cached per-tick ground-truth arrays (filled by _refresh_arrays)
        self._xs = self._ys = self._vxs = self._vys = self._speeds = None
        self._dist = None
        self._arcs = self._prev_arcs = None
        self._lanes = self._prev_lanes = None
        self._last_tick_ns = 0
        self._refresh_arrays()
        if self.trace is None:
            self._arcs = [self.cfg.road.project(s.x, s.y, s.lane)
                          for s in self.states]
            self._lanes = [s.lane for s in self.states]

        self._heap: list = []
        self._seq = 0

    # ------------------------------------------------------------- setup

    def _check_trace_coverage(self) -> None:
        have = set(self.trace.vehicles())
        want = set(range(self.n))
        if have != want:
            raise ConfigError(
                f"trace vehicles {sorted(have)} do not match vehicle_count "
                f"{self.n} (need ids 0..{self.n - 1})")
        T = self.cfg.duration_s
        for vid in range(self.n):
            lo, hi = self.trace.span(vid)
            if lo > 1e-9 or hi < T - 1e-9:
                raise TraceError(
                    f"vehicle {vid} trace span [{lo}, {hi}] does not cover "
                    f"[0, {T}]")

    def _init_virtual_records(self) -> None:
        """Idealized mode bootstrap: every ordered pair starts with a fresh
        zero-velocity snapshot at t0 (all ages start at 0). The bootstrap
        flag is raised, matching the fresh controller state: a sender with
        no history is unproven, so its age counts as tracked age."""
        n = self.n
        cells = np.flatnonzero(~np.eye(n, dtype=bool))
        senders = cells % n
        xs = np.array([s.x for s in self.states])[senders]
        ys = np.array([s.y for s in self.states])[senders]
        flag0 = 1
        aoi.record_from_bsm(self.pairs, cells,
                            (0.0, xs, ys, 0.0, 0.0, flag0,
                             self.cfg.delta_init_s), 0.0)

    def _push(self, t_ns: int, kind: int, vid: int = -1) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t_ns, kind, vid, self._seq))

    def _refresh_arrays(self) -> None:
        xs = np.array([s.x for s in self.states])
        ys = np.array([s.y for s in self.states])
        speeds = np.array([s.speed for s in self.states])
        headings = np.array([s.heading for s in self.states])
        self._dist = np.hypot(xs[:, None] - xs[None, :],
                              ys[:, None] - ys[None, :])
        self._xs = xs
        self._ys = ys
        self._speeds = speeds
        self._vxs = speeds * np.cos(headings)
        self._vys = speeds * np.sin(headings)

    # ------------------------------------------------------------ running

    def run(self) -> RunReport:
        cfg = self.cfg
        if self.T_ns == 0:
            return self._finalize()
        if cfg.dump_trace_path is not None:
            self._record_trace_rows(0.0)
        self._push(self.tick_ns, EV_MOBILITY)
        self._push(self.t_mi_ns, EV_MEASUREMENT)
        self._push(self.T_ns, EV_END)
        if self.idealized:
            self._push(self.slot_ns, EV_SLOT)
            if cfg.forced_schedule is None:
                for i in range(self.n):
                    self._push(min(self.gen_phase_ns[i], self.T_ns), EV_GEN, i)
        else:
            for i in range(self.n):
                self._push(min(self.gen_phase_ns[i], self.T_ns), EV_GEN, i)

        heap = self._heap
        while heap:
            t_ns, kind, vid, _ = heapq.heappop(heap)
            if kind == EV_MOBILITY:
                self._on_tick(t_ns)
            elif kind == EV_SLOT:
                self._on_slot(t_ns)
            elif kind == EV_TX_END:
                self._on_tx_end(t_ns, vid)
            elif kind == EV_GEN:
                self._on_generation(t_ns, vid)
            elif kind == EV_TX_START:
                self._on_tx_start(t_ns, vid)
            elif kind == EV_MEASUREMENT:
                self._on_measurement(t_ns)
            else:
                break
        return self._finalize()

    # ------------------------------------------------------- ground truth

    def _on_tick(self, t_ns: int) -> None:
        t_s = t_ns / NS
        self._prev_arcs, self._prev_lanes = self._arcs, self._lanes
        if self.trace is not None:
            self.states = [self.trace.state_at(i, t_s) for i in range(self.n)]
        else:
            self.states = krauss_step(self.states, self.cfg.krauss,
                                      self.cfg.road, self.cfg.mobility_tick_s,
                                      self.mob_rng)
            self._arcs = [self.cfg.road.project(s.x, s.y, s.lane)
                          for s in self.states]
            self._lanes = [s.lane for s in self.states]
            self._check_gaps()
        self._refresh_arrays()
        self._last_tick_ns = t_ns
        if self.cfg.dump_trace_path is not None:
            self._record_trace_rows(t_s)
        if not self.idealized:
            self._sample_te_and_risk(t_s)
            self.timeline.prune(t_s - 0.05)
        if t_ns + self.tick_ns <= self.T_ns:
            self._push(t_ns + self.tick_ns, EV_MOBILITY)

    def _check_gaps(self) -> None:
        """Krauss safety audit: no same-lane follower may have closed past
        its leader over the tick (unwrapped new gap stays non-negative)."""
        prev_arcs, prev_lanes = self._prev_arcs, self._prev_lanes
        by_lane: dict[int, list] = {}
        for i in range(self.n):
            if prev_lanes[i] == self._lanes[i]:
                by_lane.setdefault(self._lanes[i], []).append(i)
        for lane, members in by_lane.items():
            if len(members) < 2:
                continue
            P = self.cfg.road.perimeter(lane)
            members.sort(key=lambda i: prev_arcs[i])
            for a, b in zip(members, members[1:] + members[:1]):
                gap_old = (prev_arcs[b] - prev_arcs[a]) % P
                disp_a = (self._arcs[a] - prev_arcs[a]) % P
                disp_b = (self._arcs[b] - prev_arcs[b]) % P
                if gap_old + disp_b - disp_a < 0:
                    self.negative_gap_events += 1

    def _record_trace_rows(self, t_s: float) -> None:
        for s in self.states:
            self.trace_rows.append((t_s, s.id, s.x, s.y, s.speed, s.heading,
                                    s.lane))

    def _sample_te_and_risk(self, t_s: float) -> None:
        """Per-tick tracking error for every live record, collision risk
        for in-range pairs, and reception-timeout eviction."""
        cfg = self.cfg
        self._flush_receptions()
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

    # ------------------------------------------------------ realistic MAC

    def _snapshot_bsm(self, idx: int, t_ns: int) -> Bsm:
        """Exact ground truth at the (sub-tick) generation instant."""
        t_s = t_ns / NS
        if self.trace is not None:
            s = self.trace.state_at(idx, t_s)
            x, y, speed, heading = s.x, s.y, s.speed, s.heading
        else:
            dt = (t_ns - self._last_tick_ns) / NS
            s = self.states[idx]
            speed, heading = s.speed, s.heading
            if dt == 0.0:
                x, y = s.x, s.y
            else:
                arc = (self._arcs[idx] + speed * dt) % self.cfg.road.perimeter(s.lane)
                x, y, heading = self.cfg.road.lane_pose(arc, s.lane)
        ctrl = self.vehicles[idx].ctrl
        return Bsm(idx, t_s, x, y, speed, heading, ctrl.riskiness_flag,
                   ctrl.delta)

    def _on_generation(self, t_ns: int, idx: int) -> None:
        v = self.vehicles[idx]
        v.generated += 1
        if self.idealized:
            # payload is snapshotted at slot time, so only the request boards
            self._enqueue_slot_request(v, t_ns)
            nxt = t_ns + round(v.ctrl.delta * NS)
            if nxt <= self.T_ns:
                self._push(nxt, EV_GEN, idx)
            return
        # a frame not yet on the air is replaced by the fresher payload,
        # keeping any medium grant already won; an idle MAC starts access
        if v.queued is not None:
            v.dropped += 1
        elif v.airing is None:
            self._begin_access(v, t_ns)
        v.queued = self._snapshot_bsm(idx, t_ns)
        nxt = t_ns + round(v.ctrl.delta * NS)
        if nxt <= self.T_ns:
            self._push(nxt, EV_GEN, idx)

    def _begin_access(self, v: _Vehicle, t_ns: int) -> None:
        start_s = csma_access(v.idx, t_ns / NS, self.timeline,
                              self.backoff_rng, self.cfg.channel)
        self.timeline.commit(start_s, start_s + self.tx_dur_s)
        self._push(round(start_s * NS), EV_TX_START, v.idx)

    def _on_tx_start(self, t_ns: int, idx: int) -> None:
        v = self.vehicles[idx]
        tx = TransmissionEvent(idx, t_ns / NS, self.tx_dur_s, v.queued)
        v.queued = None
        v.airing = tx
        self.active_txs.append(tx)
        self._push(t_ns + round(self.tx_dur_s * NS), EV_TX_END, idx)

    def _on_tx_end(self, t_ns: int, idx: int) -> None:
        t_s = t_ns / NS
        v = self.vehicles[idx]
        tx = v.airing
        v.airing = None
        v.sent += 1
        ch = self.cfg.channel
        drow, states = self._dist[idx], self.states
        near = np.flatnonzero(drow <= ch.max_reception_range_m)
        near = near[near != idx]
        got = delivery_outcome(tx, [states[j] for j in near.tolist()],
                               self.active_txs, self.fading_rng, ch)
        if got:
            self._rx_log.append(aoi.log_entry(tx.bsm, t_s, got))
        # range_m <= cutoff, so the PDR audience is a subset of ``near``
        in_range = {j: d for j, d in zip(near.tolist(), drow[near].tolist())
                    if d <= ch.range_m}
        if in_range:
            pdr_record(states[idx], [states[j] for j in in_range],
                       got & in_range.keys(), self.pdr, distances=in_range)
        self.active_txs = [c for c in self.active_txs if c.end > t_s]
        if v.queued is not None:
            self._begin_access(v, t_ns)

    def _flush_receptions(self) -> None:
        """Fold every decoded frame logged since the last flush into the
        pair table. Runs wherever pair state is read: the mobility tick,
        the measurement boundary and the wrap-up."""
        if self._rx_log:
            aoi.apply_reception(self.pairs, self._rx_log)
            self._rx_log = []

    # -------------------------------------------------- idealized channel

    def _enqueue_slot_request(self, v: _Vehicle, t_ns: int) -> None:
        """Assign the generation to the first strictly later slot with
        spare capacity (first committed wins)."""
        if v.pending_slots > 0:
            # an un-aired request is already boarded; the fresher payload
            # would be identical at slot time, so the duplicate is dropped
            v.dropped += 1
            return
        k = t_ns // self.slot_ns + 1
        while self.slot_load.get(k, 0) >= self.cfg.slot_capacity:
            k += 1
        if k * self.slot_ns > self.T_ns:
            v.dropped += 1  # no slot left inside the horizon
            return
        self.slot_load[k] = self.slot_load.get(k, 0) + 1
        self.slot_queue.setdefault(k, []).append(v.idx)
        v.pending_slots += 1

    def _on_slot(self, t_ns: int) -> None:
        t_s = t_ns / NS
        k = t_ns // self.slot_ns
        slot_s = self.cfg.slot_s
        tables = self.pair_tables
        pairs, n = self.pairs, self.n
        cells = np.flatnonzero(pairs.live)   # every ordered pair
        # phase 1: tracking error against pre-delivery snapshots; the
        # slotted abstraction scores no collision risk and evicts nothing
        sample_te_and_risk(pairs, t_s, self._xs, self._ys, self._vxs,
                           self._vys, self._speeds, self._dist,
                           self.cfg.channel.range_m, self.cfg.safety)
        if tables is not None:
            for c, te in zip(cells.tolist(), pairs.te_last[cells].tolist()):
                tables[(c % n, c // n)]["te"].append(te)
        # phase 2: zero-delay delivery
        if self.cfg.forced_schedule is not None:
            sched = self.cfg.forced_schedule
            txs = tuple(sched[k - 1]) if k - 1 < len(sched) else ()
            for idx in txs:
                self.vehicles[idx].generated += 1
        else:
            txs = tuple(sorted(self.slot_queue.pop(k, ())))
        for idx in txs:
            v = self.vehicles[idx]
            bsm = self._snapshot_bsm(idx, t_ns)
            v.sent += 1
            if self.cfg.forced_schedule is None:
                v.pending_slots -= 1
            # snapshot swap only: the step accounting in phase 3 owns
            # every slot's area contribution
            column = np.arange(idx, n * n, n)
            aoi.swap_snapshot(pairs, column[column != idx * n + idx],
                              aoi.snapshot(bsm), t_s)
        # phase 3: post-delivery right-endpoint age samples
        ages = aoi.slot_sample(pairs, cells, t_s, slot_s)
        if tables is not None:
            for c, a in zip(cells.tolist(), ages.tolist()):
                tables[(c % n, c // n)]["aoi"].append(a)
        if t_ns + self.slot_ns <= self.T_ns:
            self._push(t_ns + self.slot_ns, EV_SLOT)

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
        if not self.idealized:
            aoi.advance(pairs, live, t_s)
        # the measurement population is every neighbor actually heard this
        # window; records gone silent stay around for tracking-error
        # bookkeeping but say nothing about the current local picture.
        # Cold start: the first boundary closes a window nobody broadcast
        # into from its start, so every windowed metric is structurally
        # partial; flags are still assessed, windows still reset, but the
        # controllers hold and metric memories stay unprimed
        first_boundary = t_s <= t_mi + 1e-9
        heard = live[:0] if first_boundary else pairs.by_insertion(
            live[pairs.last_seen[live] >= t_s - t_mi])
        bounds = np.searchsorted(heard // n, np.arange(n + 1)).tolist()
        areas = pairs.aoi_mi[heard].tolist()
        gated = pairs.taoi_mi[heard].tolist()
        intervals = pairs.interval[heard].tolist()
        in_range = (self._dist.ravel()[heard] <= cfg.channel.range_m).tolist()
        for v in self.vehicles:
            lo, hi = bounds[v.idx], bounds[v.idx + 1]
            self._control_step(v, t_s, first_boundary, areas[lo:hi],
                               gated[lo:hi], intervals[lo:hi], in_range[lo:hi])
        aoi.reset_window(pairs)
        if t_ns + self.t_mi_ns <= self.T_ns:
            self._push(t_ns + self.t_mi_ns, EV_MEASUREMENT)

    def _control_step(self, v: _Vehicle, t_s: float, first_boundary: bool,
                      areas, gated, intervals, in_range) -> None:
        """One vehicle's self-risk assessment and rate update from the
        window areas, gated areas, broadcast intervals and in-range flags
        of the senders it heard, in the order it opened their records."""
        cfg = self.cfg
        t_mi = cfg.t_mi_s
        own_now = self.states[v.idx]
        self_te = self_tracking_error(own_now, v.mi_prev, t_mi)
        flag = assess_self_risk(self_te, v.ctrl)
        v.risky_mis += flag
        v.mi_prev = own_now

        if areas:
            aoi_v = aoi.vehicle_aoi(areas, t_mi)
            delta_avg = sum(intervals) / len(intervals)
            taoi_v, n_risky = aoi.vehicle_taoi(gated, in_range, t_mi)
            if aoi_v > 2.0 * delta_avg:
                v.congested_mis += 1
        else:
            aoi_v = delta_avg = taoi_v = None
            n_risky = 0

        if first_boundary:
            delta = v.ctrl.delta
        elif cfg.protocol == "fixed10hz":
            delta, _ = fixed_rate(v.ctrl)
        elif cfg.protocol == "aoi":
            delta, _ = aoi_rate_update(v.ctrl, aoi_v, v.ctrl.prev_aoi,
                                       delta_avg)
        else:
            delta, _ = taoi_rate_update(v.ctrl, taoi_v, aoi_v, delta_avg,
                                        n_risky)

        v.mi_count += 1
        v.delta_sum += delta
        bin_lo = int(delta * 1000.0 // cfg.interval_bin_ms)
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
            if not self.idealized:
                aoi.advance(pairs, live, self.T_ns / NS)
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
        in_flight = sum(
            (v.queued is not None) + (v.airing is not None) + v.pending_slots
            for v in self.vehicles)
        if generated != dropped + sent + in_flight:
            raise AssertionError(
                f"frame conservation violated: {generated} generated vs "
                f"{dropped} dropped + {sent} sent + {in_flight} in flight")
        mi_total = sum(v.mi_count for v in self.vehicles)
        mean_interval_ms = (
            sum(v.delta_sum for v in self.vehicles) / mi_total * 1000.0
            if mi_total else cfg.delta_init_s * 1000.0)
        per_vehicle = [
            {"vehicle_id": v.idx,
             "mean_interval_ms": (v.delta_sum / v.mi_count * 1000.0
                                  if v.mi_count else cfg.delta_init_s * 1000.0),
             "risky_mis": v.risky_mis,
             "congested_mis": v.congested_mis,
             "mi_count": v.mi_count,
             "generated": v.generated}
            for v in self.vehicles]
        if cfg.dump_trace_path is not None and self.trace_rows:
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
            pdr_bins=[(lo, hi, s, o) for lo, hi, s, o in self.pdr.bin_rows()],
            interval_histogram=sorted(
                (b * cfg.interval_bin_ms, c)
                for b, c in self.interval_hist.items()),
            mean_interval_ms=mean_interval_ms,
            per_vehicle=per_vehicle,
            counts={"generated": generated, "dropped": dropped, "sent": sent,
                    "in_flight": in_flight},
            negative_gap_events=self.negative_gap_events,
            timeseries=self.timeseries,
            te_pairs=te_pairs,
            pair_tables=self.pair_tables,
            config=_config_echo(cfg),
        )
        logger.info(
            "run done: protocol=%s n=%d seed=%d aoi=%.4f taoi=%.4f risk=%d",
            cfg.protocol, self.n, cfg.seed, sys_aoi, sys_taoi, self.risk_count)
        return report


def _config_echo(cfg: SimConfig) -> dict:
    d = asdict(cfg)
    if d.get("forced_schedule") is not None:
        d["forced_schedule"] = [list(e) for e in d["forced_schedule"]]
    ch = d.get("channel", {})
    if "nakagami_bins" in ch:
        ch["nakagami_bins"] = [list(b) for b in ch["nakagami_bins"]]
    return d


def run_simulation(config: SimConfig) -> RunReport:
    """Execute one configured run and return its aggregated report."""
    return Simulation(config).run()
