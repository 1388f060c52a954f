"""Ground-truth traffic.

Built-in mobility is Krauss car following with gap-based lane changes on a
closed rectangular circuit. Lane k is its own rectangular ring, inset
(k + 0.5) lane widths from the outer boundary and traversed counter
clockwise from its bottom-left corner; a vehicle's position along the ring
is a single arc coordinate, which its state carries from tick to tick,
and its pose is derived from that arc, never the other way round: the
heading is the side direction, jumping 90 degrees when a step crosses a
corner. Cross-lane reasoning projects a vehicle onto the neighbor ring by
holding its along-side coordinate.

Externally supplied trajectories arrive as CSV traces with uniform tick
spacing and are linearly interpolated between samples.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TraceError

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
    # position along the lane ring under Krauss, in [0, perimeter); None
    # for a state replayed from a trace
    arc: float | None = None


@dataclass(frozen=True)
class RoadConfig:
    """Closed rectangular circuit; outer boundary length x width."""

    length: float = 1000.0
    width: float = 100.0
    lanes: int = 3
    lane_width: float = 4.0

    @cached_property
    def _lane_geometry(self) -> tuple:
        """(inset, long side, short side, perimeter) of every lane ring,
        computed once per road, on first use: a road with a fractional
        lane count must still construct so that validation can reject
        it."""
        geometry = []
        for lane in range(self.lanes):
            d = (lane + 0.5) * self.lane_width
            long, short = self.length - 2.0 * d, self.width - 2.0 * d
            geometry.append((d, long, short, 2.0 * (long + short)))
        return tuple(geometry)

    @cached_property
    def lane_columns(self) -> tuple:
        """(inset, long side, short side, perimeter), each as an array
        indexed by lane."""
        return tuple(np.array(c) for c in zip(*self._lane_geometry))

    def lane_geometry(self, lane: int) -> tuple[float, float, float, float]:
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} outside [0, {self.lanes})")
        return self._lane_geometry[lane]

    def perimeter(self, lane: int) -> float:
        return self.lane_geometry(lane)[3]

    def lane_poses(self, arcs, lanes) -> tuple:
        """Map arc coordinates on lane rings to (x, y, heading) arrays:
        each arc is reduced modulo its ring's perimeter and then walked
        along the sides from the ring's start, one chained subtraction per
        side passed."""
        d, long, short, perimeter = (c[lanes] for c in self.lane_columns)
        s0 = arcs % perimeter
        s1 = s0 - long
        s2 = s1 - short
        s3 = s2 - long
        side = np.where(s0 < long, 0, np.where(
            s1 < short, 1, np.where(s2 < long, 2, 3)))
        x = np.choose(side, (d + s0, self.length - d, self.length - d - s2, d))
        y = np.choose(side, (d, d + s1, self.width - d, self.width - d - s3))
        return x, y, np.array(SIDE_HEADINGS)[side]

    def lane_remap(self, arc: float, lane_from: int, lane_to: int) -> float:
        """Project an arc coordinate onto another lane's ring by holding the
        along-side coordinate fixed (the lateral move is instantaneous)."""
        df, lf, sf, pf = self.lane_geometry(lane_from)
        if lane_from == lane_to:
            return arc % pf
        dt_, lt, st, pt = self.lane_geometry(lane_to)
        s = arc % pf
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
        return (2.0 * lt + st + u) % pt


@dataclass(frozen=True)
class KraussParams:
    max_accel: float = 2.6          # m/s^2
    max_decel: float = 4.6          # m/s^2
    driver_reaction: float = 1.0    # s
    imperfection_sigma: float = 0.5
    min_gap: float = 2.5            # m
    s_max: float = 25.0             # m/s


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
        """(gap, index) of the nearest vehicle at or ahead of ``arc`` on the
        ring (co-located counts as gap 0), or (None, None) on an empty
        ring."""
        n = len(self.arcs)
        pos = bisect.bisect_left(self.arcs, arc)
        for step in range(n):
            j = (pos + step) % n
            if self.idx[j] != skip:
                return (self.arcs[j] - arc) % self.perimeter, self.idx[j]
        return None, None

    def follower(self, arc: float, skip: int):
        """The same for the nearest vehicle at or behind ``arc``."""
        n = len(self.arcs)
        pos = bisect.bisect_right(self.arcs, arc) - 1
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
    the target ring (a vehicle at the target arc itself always blocks);
    ties go to the lower lane index; current lane wins when nothing is
    strictly better."""
    l, a, v = lanes[i], arcs[i], speeds[i]
    gap, lead = rings[l].leader(a, i)
    best_gain = _achievable(v, gap, lead, speeds, params)
    if best_gain >= params.s_max:
        # free road: no lane's achievable speed exceeds s_max
        return l
    best_lane = l
    for tgt in (l - 1, l + 1):
        if not 0 <= tgt < road.lanes:
            continue
        a_t = road.lane_remap(a, l, tgt)
        gf, leadt = rings[tgt].leader(a_t, i)
        if leadt is not None and (gf == 0.0 or gf < params.min_gap):
            continue
        gr, folt = rings[tgt].follower(a_t, i)
        if folt is not None and (gr == 0.0 or gr < params.min_gap):
            continue
        ach = _achievable(v, gf, leadt, speeds, params)
        if ach > best_gain:
            best_gain = ach
            best_lane = tgt
    return best_lane


def krauss_step(states, params: KraussParams, road: RoadConfig, dt: float,
                rng) -> list:
    """Advance every vehicle by one tick.

    Order inside the tick: lane-change decisions applied sequentially in
    vehicle-id order (each sees the moves before it), then a synchronous
    speed update against current-tick leaders, then position advance along
    the (possibly new) lane ring. The rng supplies one imperfection draw
    per vehicle per tick, in id order, regardless of traffic layout, as
    one ``rng.random(n)`` call. Each vehicle moves from the arc its state
    carries, so a state without one (a replayed state) is rejected.
    """
    if dt <= 0:
        raise ValueError(f"tick must be positive, got {dt}")
    n = len(states)
    lanes = [s.lane for s in states]
    speeds = [s.speed for s in states]
    arcs = [s.arc for s in states]
    if None in arcs:
        raise ValueError(
            f"vehicle {states[arcs.index(None)].id} carries no arc")

    rings = [_Ring(road.perimeter(l)) for l in range(road.lanes)]
    for i in range(n):
        rings[lanes[i]].insert(arcs[i], i)
    for ring in rings:
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

    eta = np.empty(n)
    eta[order] = rng.random(n)

    # each vehicle's leader is its successor on its sorted ring, wrapping
    # round. No ring holds a tie: the check above rejects co-located
    # vehicles and _lane_change_target vetoes a landing on an occupied
    # arc. A vehicle alone on its ring leads itself and drives free
    lead = np.empty(n, dtype=np.intp)
    for ring in rings:
        if ring.idx:
            lead[ring.idx] = ring.idx[1:] + ring.idx[:1]
    led = lead != np.arange(n)
    arc_a = np.array(arcs)
    speed_a = np.array(speeds)
    perimeter_a = road.lane_columns[3][lanes]
    gap = np.remainder(arc_a[lead] - arc_a, perimeter_a)

    # min(v + a dt, s_max, v_safe) less the imperfection, floored at 0, in
    # the scalar expression order; where() keeps min's and max's choice
    # between equal values
    vs = np.where(led, v_safe(speed_a, speed_a[lead], gap, params), np.inf)
    v_des = speed_a + params.max_accel * dt
    v_des = np.where(params.s_max < v_des, params.s_max, v_des)
    v_des = np.where(vs < v_des, vs, v_des)
    v_new = v_des - params.imperfection_sigma * eta * params.max_accel * dt
    v_new = np.where(v_new > 0.0, v_new, 0.0)
    new_arcs = np.remainder(arc_a + v_new * dt, perimeter_a)
    return _placed(road, [s.id for s in states], lanes, new_arcs,
                   v_new.tolist())


def _placed(road: RoadConfig, ids, lanes, arcs, speeds) -> list:
    """Vehicle states at the given arcs, carrying them, posed by one
    ``lane_poses`` call."""
    arcs = np.asarray(arcs, dtype=float)
    x, y, h = road.lane_poses(arcs, np.asarray(lanes, dtype=np.intp))
    return [VehicleState(*row) for row in zip(
        ids, x.tolist(), y.tolist(), speeds, h.tolist(), lanes,
        arcs.tolist())]


def initial_states(road: RoadConfig, params: KraussParams, n: int, rng
                   ) -> list:
    """Spread n vehicles round-robin over the lanes, each at its lane-
    proportional arc fraction, with uniform random initial speeds drawn in
    id order. ``SimConfig.validate`` checks that they fit their lanes."""
    lo = min(5.0, params.s_max)
    lanes = [i % road.lanes for i in range(n)]
    arcs = [(i / n) * road.perimeter(lane) for i, lane in enumerate(lanes)]
    speeds = [float(rng.uniform(lo, params.s_max)) for _ in range(n)]
    return _placed(road, range(n), lanes, arcs, speeds)


class TrajectoryTable:
    """Uniformly ticked per-vehicle trajectory samples, as columns sorted
    by (vehicle id, t): vehicle ``ids[k]`` owns rows
    ``offsets[k]:offsets[k + 1]`` of ``t``, ``x``, ``y``, ``speed``,
    ``heading`` and ``lane``. Between two samples of a vehicle, x, y and
    speed are interpolated linearly and heading and lane are held."""

    def __init__(self, ids, offsets, t, x, y, speed, heading, lane):
        self.ids, self.offsets = ids, offsets
        self.t, self.x, self.y, self.speed = t, x, y, speed
        self.heading, self.lane = heading, lane
        # one ascending integer key per row, its vehicle's rank and then
        # its time's rank among every distinct sample time, so that one
        # searchsorted finds each query's row within its own vehicle
        self._times = np.unique(t)
        self._stride = len(self._times) + 1
        self._keys = (np.repeat(np.arange(len(ids)) * self._stride,
                                np.diff(offsets))
                      + np.searchsorted(self._times, t))

    def _rows(self, vid: int) -> tuple[int, int]:
        k = int(np.searchsorted(self.ids, vid))
        if k == len(self.ids) or self.ids[k] != vid:
            raise ValueError(f"unknown vehicle id {vid}")
        return int(self.offsets[k]), int(self.offsets[k + 1])

    def state_at(self, vid: int, t: float) -> VehicleState:
        """One vehicle's state at time t: the reference for ``sample``."""
        lo, hi = self._rows(vid)
        first, last = float(self.t[lo]), float(self.t[hi - 1])
        if t < first or t > last:
            raise ValueError(
                f"t={t} outside trace span [{first}, {last}] of vehicle {vid}")
        k = bisect.bisect_right(self.t, t, lo, hi) - 1
        heading, lane = float(self.heading[k]), int(self.lane[k])
        if k == hi - 1:
            return VehicleState(vid, float(self.x[k]), float(self.y[k]),
                                float(self.speed[k]), heading, lane)
        ts, xs, ys, sp = (c[k:k + 2].tolist()
                          for c in (self.t, self.x, self.y, self.speed))
        f = (t - ts[0]) / (ts[1] - ts[0])
        return VehicleState(
            vid,
            xs[0] + f * (xs[1] - xs[0]),
            ys[0] + f * (ys[1] - ys[0]),
            sp[0] + f * (sp[1] - sp[0]),
            heading, lane)

    def sample(self, vids, ts) -> tuple:
        """``state_at`` for many (vehicle, time) queries at once: x, y,
        speed, heading and lane arrays. Each query takes the row
        ``state_at`` bisects to and the same IEEE operations, so every
        value is the scalar call's bit for bit."""
        vids = np.asarray(vids)
        ts = np.asarray(ts, dtype=float)
        seg = np.searchsorted(self.ids, vids)
        if (seg == len(self.ids)).any() or (
                self.ids[np.minimum(seg, len(self.ids) - 1)] != vids).any():
            raise ValueError("query for an unknown vehicle id")
        lo, end = self.offsets[seg], self.offsets[seg + 1] - 1
        t = self.t
        if ((ts < t[lo]) | (ts > t[end])).any():
            raise ValueError("query outside its vehicle's trace span")
        k = np.searchsorted(self._keys, seg * self._stride + np.searchsorted(
            self._times, ts, side="right")) - 1
        last = k == end
        k1 = np.where(last, k, k + 1)
        t0 = t[k]
        # a vehicle's last sample is taken as it is; the 1.0 only keeps
        # its discarded interpolation free of 0 / 0
        f = (ts - t0) / np.where(last, 1.0, t[k1] - t0)

        def lerp(column):
            a = column[k]
            return np.where(last, a, a + f * (column[k1] - a))

        return (lerp(self.x), lerp(self.y), lerp(self.speed), self.heading[k],
                self.lane[k])


_TRACE_DTYPE = np.dtype([(name, "i8" if name in ("vehicle_id", "lane")
                          else "f8") for name in TRACE_FIELDS])
_INT64 = np.iinfo(np.int64)
# the bytes of plain numbers, and what is left of the header without them
_PLAIN = b"0123456789.+-eE \t,\r\n"
_HEADER_LETTERS = ",".join(TRACE_FIELDS).encode().translate(None, _PLAIN)


def _build_table(t, vid, x, y, speed, heading, lane) -> TrajectoryTable:
    """Group trace columns (in file order) by vehicle, sort each vehicle's
    samples by time and check the ticks. Vehicles are checked in the order
    of their first row in the file, and within one a duplicate timestamp
    comes before a nonuniform tick, which comes before a tick that differs
    from that of the first vehicle with two samples."""
    order = np.lexsort((t, vid))
    ids, first, counts = np.unique(vid, return_index=True, return_counts=True)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    t = t[order]
    seg = np.repeat(np.arange(len(ids)), counts)
    # consecutive sorted rows of one vehicle, as (k, k + 1) pairs
    pair = np.flatnonzero(seg[1:] == seg[:-1])
    pair_seg = seg[pair]
    ticked = counts >= 2
    step = np.full(len(ids), np.nan)
    # Python's float arithmetic: overflow gives inf and inf - inf nan,
    # silently
    with np.errstate(over="ignore", invalid="ignore"):
        step[ticked] = t[offsets[:-1][ticked] + 1] - t[offsets[:-1][ticked]]
        gap = t[pair + 1] - t[pair]
        dup = t[pair + 1] == t[pair]
        uneven = np.abs(gap - step[pair_seg]) > 1e-9
        by_file = np.argsort(first)
        tick_setters = by_file[ticked[by_file]]
        tick = step[tick_setters[0]] if len(tick_setters) else np.nan
        differs = ticked & (np.abs(step - tick) > 1e-9)
    bad = differs.copy()
    bad[pair_seg[dup | uneven]] = True
    if bad.any():
        s = by_file[bad[by_file]][0]
        vehicle = int(ids[s])
        mine = pair_seg == s
        if (dup & mine).any():
            k = pair[dup & mine][0]
            raise TraceError(
                f"duplicate timestamp {float(t[k])} for vehicle {vehicle}")
        if (uneven & mine).any():
            j = np.flatnonzero(uneven & mine)[0]
            raise TraceError(f"nonuniform tick for vehicle {vehicle}: "
                             f"{float(gap[j])} vs {float(step[s])}")
        raise TraceError(f"vehicle {vehicle} tick {float(step[s])} differs "
                         f"from {float(tick)}")
    return TrajectoryTable(ids, offsets, t, x[order], y[order], speed[order],
                           heading[order], lane[order])


def _loadtxt_columns(text: str):
    """The seven columns of a trace, in file order, from one
    ``np.loadtxt`` pass, when every line is plain ASCII numbers and
    passes the row checks; otherwise None."""
    # float() and int() take syntax np.loadtxt refuses, and np.loadtxt
    # takes some they refuse (an id of 0\x1c): only a file of plain
    # numbers under the header passes
    if (not text.isascii()
            or text.encode().translate(None, _PLAIN) != _HEADER_LETTERS):
        return None
    # the csv module ends a line at \r, \n and \r\n; np.loadtxt takes a
    # line that ends in \r and refuses one with \r anywhere else
    lines = text.split("\n")
    # the lines hold all of the text: dropping it keeps it out of the
    # load's peak memory
    del text
    if tuple(h.strip() for h in lines[0].split(",")) != TRACE_FIELDS:
        return None
    try:
        with warnings.catch_warnings():
            # numpy before 1.23 parses an id written as 3.0 with a
            # DeprecationWarning instead of refusing it
            warnings.simplefilter("error")
            rows = np.loadtxt(lines[1:], dtype=_TRACE_DTYPE,
                              delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    columns = [rows[name] for name in TRACE_FIELDS]
    t, _, x, y, speed, heading, lane = columns
    if (len(t) == 0 or not all(np.isfinite(c).all()
                               for c in (t, x, y, speed, heading))
            or (speed < 0).any() or (lane < 0).any()):
        return None
    return columns


def _row_columns(text: str) -> list:
    """The seven columns of a trace, in file order, read row by row with
    ``float()`` and ``int()``: the reading for any syntax ``np.loadtxt``
    refuses (quoted fields, ``1_000.5``, non-ASCII digits), and the one
    that names the line of every error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != TRACE_FIELDS:
        raise TraceError(f"bad trace header: {header!r}")
    rows = []
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
    return [np.array(c, dtype=_TRACE_DTYPE[name])
            for name, c in zip(TRACE_FIELDS, zip(*rows))]


def load_trace(path) -> TrajectoryTable:
    """Parse a trajectory CSV. Schema (exact header):
    t,vehicle_id,x,y,speed,heading,lane. Rejects a file it cannot open or
    decode, malformed rows, non-finite values, negative speeds or lanes,
    duplicate timestamps and nonuniform ticks, all with TraceError. A file
    of plain numbers is read in one ``np.loadtxt`` pass; anything else,
    and any file that fails a row check, is read row by row, which takes
    every syntax ``float()`` and ``int()`` take and names the failing
    line."""
    columns = _loadtxt_columns(_read_text(path))
    if columns is None:
        columns = _row_columns(_read_text(path))
    return _build_table(*columns)


def _read_text(path) -> str:
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None


def write_trace(path, rows) -> None:
    """Dump (t, vehicle_id, x, y, speed, heading, lane) rows as a trace CSV;
    t is written on the event clock's nanosecond grid, in its shortest
    form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_FIELDS)
        for t, vid, x, y, speed, heading, lane in rows:
            w.writerow([repr(round(float(t), 9)), vid, repr(float(x)),
                        repr(float(y)), repr(float(speed)),
                        repr(float(heading)), lane])
