"""Ground-truth traffic.

Built-in mobility is Krauss car following with gap-based lane changes on a
closed rectangular circuit. Lane k is its own rectangular ring, inset
(k + 0.5) lane widths from the outer boundary and traversed counter
clockwise from its bottom-left corner; a vehicle's position along the ring
is a single arc coordinate and its heading is the side direction, jumping
90 degrees when a step crosses a corner. Cross-lane reasoning projects a
vehicle onto the neighbor ring by holding its along-side coordinate.

Externally supplied trajectories arrive as CSV traces with uniform tick
spacing and are linearly interpolated between samples.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

from .errors import ConfigError, TraceError

HALF_PI = math.pi / 2.0
SIDE_HEADINGS = (0.0, HALF_PI, math.pi, 3.0 * HALF_PI)

TRACE_FIELDS = ("t", "vehicle_id", "x", "y", "speed", "heading", "lane")


@dataclass(frozen=True)
class VehicleState:
    id: int
    x: float
    y: float
    speed: float      # m/s, never negative
    heading: float    # rad
    lane: int
    t: float = 0.0    # s


@dataclass(frozen=True)
class RoadConfig:
    """Closed rectangular circuit; outer boundary length x width."""

    length: float = 1000.0
    width: float = 100.0
    lanes: int = 3
    lane_width: float = 4.0

    def __post_init__(self):
        if self.lanes < 1:
            raise ConfigError(f"need at least one lane, got {self.lanes}")
        if self.lane_width <= 0:
            raise ConfigError(f"lane width must be positive: {self.lane_width}")
        # innermost ring must keep positive side lengths
        if (2 * self.lanes - 1) * self.lane_width >= min(self.length, self.width):
            raise ConfigError(
                f"{self.lanes} lanes of {self.lane_width} m do not fit a "
                f"{self.length} x {self.width} m circuit")

    def inset(self, lane: int) -> float:
        self._check_lane(lane)
        return (lane + 0.5) * self.lane_width

    def sides(self, lane: int) -> tuple[float, float]:
        d = self.inset(lane)
        return self.length - 2.0 * d, self.width - 2.0 * d

    def perimeter(self, lane: int) -> float:
        long, short = self.sides(lane)
        return 2.0 * (long + short)

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} outside [0, {self.lanes})")

    def lane_pose(self, arc: float, lane: int) -> tuple[float, float, float]:
        """Map an arc coordinate on a lane ring to (x, y, heading)."""
        d = self.inset(lane)
        long, short = self.sides(lane)
        s = arc % self.perimeter(lane)
        if s < long:
            return d + s, d, SIDE_HEADINGS[0]
        s -= long
        if s < short:
            return self.length - d, d + s, SIDE_HEADINGS[1]
        s -= short
        if s < long:
            return self.length - d - s, self.width - d, SIDE_HEADINGS[2]
        s -= long
        return d, self.width - d - s, SIDE_HEADINGS[3]

    def project(self, x: float, y: float, lane: int) -> float:
        """Arc coordinate of the nearest point on the lane ring. Corner
        points resolve to the lowest-numbered adjacent side."""
        d = self.inset(lane)
        long, short = self.sides(lane)
        x0, x1 = d, self.length - d
        y0, y1 = d, self.width - d

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
        return cands[best][1] % self.perimeter(lane)

    def lane_remap(self, arc: float, lane_from: int, lane_to: int) -> float:
        """Project an arc coordinate onto another lane's ring by holding the
        along-side coordinate fixed (the lateral move is instantaneous)."""
        if lane_from == lane_to:
            return arc % self.perimeter(lane_from)
        df, dt_ = self.inset(lane_from), self.inset(lane_to)
        lf, sf = self.sides(lane_from)
        lt, st = self.sides(lane_to)
        s = arc % self.perimeter(lane_from)
        if s < lf:
            u = min(max((df + s) - dt_, 0.0), lt)
            return u
        s -= lf
        if s < sf:
            u = min(max((df + s) - dt_, 0.0), st)
            return lt + u
        s -= sf
        if s < lf:
            xabs = (self.length - df) - s
            u = min(max((self.length - dt_) - xabs, 0.0), lt)
            return lt + st + u
        s -= lf
        yabs = (self.width - df) - s
        u = min(max((self.width - dt_) - yabs, 0.0), st)
        return (2.0 * lt + st + u) % self.perimeter(lane_to)


@dataclass(frozen=True)
class KraussParams:
    max_accel: float = 2.6          # m/s^2
    max_decel: float = 4.6          # m/s^2
    driver_reaction: float = 1.0    # s
    imperfection_sigma: float = 0.5
    min_gap: float = 2.5            # m
    s_max: float = 25.0             # m/s

    def __post_init__(self):
        if self.max_accel <= 0 or self.max_decel <= 0:
            raise ConfigError("acceleration bounds must be positive")
        if not 0.0 <= self.imperfection_sigma <= 1.0:
            raise ConfigError(
                f"imperfection sigma outside [0, 1]: {self.imperfection_sigma}")
        if self.min_gap < 0 or self.s_max <= 0 or self.driver_reaction < 0:
            raise ConfigError("gap, speed cap and reaction time must be sane")


def v_safe(speed_follower: float, speed_leader: float, gap: float,
           params: KraussParams) -> float:
    """Krauss safe speed: the fastest speed from which the follower can
    still avoid the leader assuming both brake at max_decel after the
    driver's reaction lag. Negative gaps yield deeply negative values,
    which the speed update floors at 0."""
    tau = params.driver_reaction
    denom = (speed_leader + speed_follower) / (2.0 * params.max_decel) + tau
    return speed_leader + (gap - speed_leader * tau) / denom


class _Ring:
    """Sorted same-lane arc positions for neighbor queries."""

    def __init__(self, perimeter: float):
        self.perimeter = perimeter
        self.arcs: list[float] = []
        self.idx: list[int] = []

    def insert(self, arc: float, i: int) -> None:
        pos = bisect.bisect_left(self.arcs, arc)
        self.arcs.insert(pos, arc)
        self.idx.insert(pos, i)

    def remove(self, i: int) -> None:
        pos = self.idx.index(i)
        del self.arcs[pos]
        del self.idx[pos]

    def leader(self, arc: float, skip: int):
        """(gap, index) of the nearest vehicle strictly ahead on the ring
        (co-located counts as gap 0), or (None, None) on an empty ring."""
        n = len(self.arcs)
        pos = bisect.bisect_right(self.arcs, arc)
        for step in range(n):
            j = (pos + step) % n
            if self.idx[j] != skip:
                return (self.arcs[j] - arc) % self.perimeter, self.idx[j]
        return None, None

    def follower(self, arc: float, skip: int):
        n = len(self.arcs)
        pos = bisect.bisect_left(self.arcs, arc) - 1
        for step in range(n):
            j = (pos - step) % n
            if self.idx[j] != skip:
                return (arc - self.arcs[j]) % self.perimeter, self.idx[j]
        return None, None


def _achievable(speed: float, gap, leader_idx, speeds, params) -> float:
    if leader_idx is None:
        return params.s_max
    return min(params.s_max, v_safe(speed, speeds[leader_idx], gap, params))


def _lane_change_target(i, lanes, arcs, speeds, rings, params, road) -> int:
    """Lane giving the strictly best achievable speed, with safety gaps on
    the target ring; ties go to the lower lane index; current lane wins
    when nothing is strictly better."""
    l, a, v = lanes[i], arcs[i], speeds[i]
    gap, lead = rings[l].leader(a, i)
    best_gain = _achievable(v, gap, lead, speeds, params)
    best_lane = l
    for tgt in (l - 1, l + 1):
        if not 0 <= tgt < road.lanes:
            continue
        a_t = road.lane_remap(a, l, tgt)
        gf, leadt = rings[tgt].leader(a_t, i)
        if leadt is not None and gf < params.min_gap:
            continue
        gr, folt = rings[tgt].follower(a_t, i)
        if folt is not None and gr < params.min_gap:
            continue
        ach = _achievable(v, gf, leadt, speeds, params)
        if ach > best_gain:
            best_gain = ach
            best_lane = tgt
    return best_lane


def lane_change(vehicle: VehicleState, neighbors, params: KraussParams,
                road: RoadConfig = RoadConfig()) -> int:
    """Decide the lane for one vehicle given the surrounding traffic.
    Returns the chosen lane index (possibly the current one)."""
    states = [vehicle, *neighbors]
    lanes = [s.lane for s in states]
    arcs = [road.project(s.x, s.y, s.lane) for s in states]
    speeds = [s.speed for s in states]
    rings = {l: _Ring(road.perimeter(l)) for l in range(road.lanes)}
    for j, s in enumerate(states):
        rings[lanes[j]].insert(arcs[j], j)
    return _lane_change_target(0, lanes, arcs, speeds, rings, params, road)


def krauss_step(states, params: KraussParams, road: RoadConfig, dt: float,
                rng) -> list:
    """Advance every vehicle by one tick.

    Order inside the tick: lane-change decisions applied sequentially in
    vehicle-id order (each sees the moves before it), then a synchronous
    speed update against current-tick leaders, then position advance along
    the (possibly new) lane ring. The rng supplies one imperfection draw
    per vehicle per tick, in id order, regardless of traffic layout.
    """
    if dt <= 0:
        raise ValueError(f"tick must be positive, got {dt}")
    n = len(states)
    lanes = [s.lane for s in states]
    speeds = [s.speed for s in states]
    arcs = [road.project(s.x, s.y, s.lane) for s in states]

    rings = {l: _Ring(road.perimeter(l)) for l in range(road.lanes)}
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
        tgt = _lane_change_target(i, lanes, arcs, speeds, rings, params, road)
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
        x, y, h = road.lane_pose(na, lanes[i])
        out.append(VehicleState(states[i].id, x, y, new_speeds[i], h,
                                lanes[i], states[i].t + dt))
    return out


def initial_states(road: RoadConfig, params: KraussParams, n: int, rng
                   ) -> list:
    """Spread n vehicles round-robin over the lanes, each at its lane-
    proportional arc fraction, with uniform random initial speeds drawn in
    id order."""
    if n < 1:
        raise ConfigError(f"need at least one vehicle, got {n}")
    per_lane = {l: 0 for l in range(road.lanes)}
    for i in range(n):
        per_lane[i % road.lanes] += 1
    for l, cnt in per_lane.items():
        if cnt > 1 and road.perimeter(l) / cnt < 2.0 * params.min_gap:
            raise ConfigError(
                f"{cnt} vehicles do not fit lane {l} at min gap {params.min_gap}")
    lo = min(5.0, params.s_max)
    out = []
    for i in range(n):
        lane = i % road.lanes
        arc = (i / n) * road.perimeter(lane)
        x, y, h = road.lane_pose(arc, lane)
        out.append(VehicleState(i, x, y, float(rng.uniform(lo, params.s_max)),
                                h, lane, 0.0))
    return out


class TrajectoryTable:
    """Uniformly ticked per-vehicle trajectory samples."""

    def __init__(self, per_vehicle: dict, tick):
        self._data = per_vehicle  # vid -> (ts, xs, ys, speeds, headings, lanes)
        self.tick = tick

    def vehicles(self) -> list:
        return sorted(self._data)

    def span(self, vid: int) -> tuple[float, float]:
        ts = self._ts(vid)
        return ts[0], ts[-1]

    def _ts(self, vid: int) -> list:
        if vid not in self._data:
            raise ValueError(f"unknown vehicle id {vid}")
        return self._data[vid][0]

    def state_at(self, vid: int, t: float) -> VehicleState:
        ts, xs, ys, sp, hd, ln = self._data[vid]
        if t < ts[0] or t > ts[-1]:
            raise ValueError(
                f"t={t} outside trace span [{ts[0]}, {ts[-1]}] of vehicle {vid}")
        k = bisect.bisect_right(ts, t) - 1
        if k == len(ts) - 1:
            return VehicleState(vid, xs[k], ys[k], sp[k], hd[k], ln[k], t)
        f = (t - ts[k]) / (ts[k + 1] - ts[k])
        return VehicleState(
            vid,
            xs[k] + f * (xs[k + 1] - xs[k]),
            ys[k] + f * (ys[k + 1] - ys[k]),
            sp[k] + f * (sp[k + 1] - sp[k]),
            hd[k], ln[k], t)


def _build_table(groups: dict) -> TrajectoryTable:
    tick = None
    for vid, rows in groups.items():
        rows.sort(key=lambda r: r[0])
        for (t1, *_), (t2, *_) in zip(rows, rows[1:]):
            if t2 == t1:
                raise TraceError(f"duplicate timestamp {t1} for vehicle {vid}")
        if len(rows) >= 2:
            step = rows[1][0] - rows[0][0]
            for (t1, *_), (t2, *_) in zip(rows, rows[1:]):
                if abs((t2 - t1) - step) > 1e-9:
                    raise TraceError(
                        f"nonuniform tick for vehicle {vid}: {t2 - t1} vs {step}")
            if tick is None:
                tick = step
            elif abs(step - tick) > 1e-9:
                raise TraceError(
                    f"vehicle {vid} tick {step} differs from {tick}")
    data = {}
    for vid, rows in groups.items():
        cols = list(zip(*rows))
        data[vid] = tuple(list(c) for c in cols)
    return TrajectoryTable(data, tick)


def load_trace(path) -> TrajectoryTable:
    """Parse a trajectory CSV. Schema (exact header):
    t,vehicle_id,x,y,speed,heading,lane. Rejects malformed rows, negative
    speeds or lanes, duplicate timestamps and nonuniform ticks."""
    groups: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRACE_FIELDS:
            raise TraceError(f"bad trace header: {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(TRACE_FIELDS):
                raise TraceError(f"line {lineno}: expected 7 fields, got {len(row)}")
            try:
                t = float(row[0])
                vid = int(row[1])
                x, y, speed, heading = (float(v) for v in row[2:6])
                lane = int(row[6])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: {exc}") from None
            if speed < 0:
                raise TraceError(f"line {lineno}: negative speed {speed}")
            if lane < 0:
                raise TraceError(f"line {lineno}: negative lane {lane}")
            groups.setdefault(vid, []).append((t, x, y, speed, heading, lane))
    if not groups:
        raise TraceError("trace contains no samples")
    return _build_table(groups)


def write_trace(path, rows) -> None:
    """Dump (t, vehicle_id, x, y, speed, heading, lane) rows as a trace CSV;
    timestamps are written with millisecond precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_FIELDS)
        for t, vid, x, y, speed, heading, lane in rows:
            w.writerow([f"{t:.3f}", vid, repr(float(x)), repr(float(y)),
                        repr(float(speed)), repr(float(heading)), lane])
