"""Kinematic safety metrics.

Positions are meters, speeds m/s, headings radians (0 along +x, counter
clockwise). A receiver extrapolates each neighbor's last broadcast state
under a constant-velocity assumption; the tracking error is the Euclidean
gap between that dead-reckoned estimate and ground truth. Collision risk
is scored through a time-to-collision style margin built from tracking
error and relative speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UndefinedValueError


@dataclass(frozen=True)
class Bsm:
    """One basic safety message: the sender's kinematic snapshot plus the
    piggybacked riskiness flag and the sender's current broadcast interval."""

    sender: int
    gen_time: float        # s
    x: float               # m
    y: float               # m
    speed: float           # m/s
    heading: float         # rad
    riskiness_flag: int = 0
    interval: float = 0.1  # s

    def velocity(self) -> tuple[float, float]:
        return (self.speed * math.cos(self.heading),
                self.speed * math.sin(self.heading))


@dataclass(frozen=True)
class SafetyParams:
    """Constants of the risk metric and the self-assessment threshold."""

    t_react: float = 1.0           # s, driver reaction time
    decel: float = 4.6             # m/s^2, comfortable braking deceleration
    rel_speed_floor: float = 0.1   # m/s, keeps the TTC margin finite
    te_threshold: float = 0.5      # m, self-TE level that flags a vehicle risky


def self_tracking_error(own_now, own_prev, t_mi: float) -> float:
    """How far the vehicle's own motion drifted from the constant-velocity
    prediction neighbors would have made from its state one measurement
    interval ago. States must belong to the same vehicle."""
    if own_now.id != own_prev.id:
        raise ValueError(
            f"self-TE across different vehicles: {own_now.id} vs {own_prev.id}")
    ex = own_prev.x + own_prev.speed * math.cos(own_prev.heading) * t_mi
    ey = own_prev.y + own_prev.speed * math.sin(own_prev.heading) * t_mi
    return math.hypot(own_now.x - ex, own_now.y - ey)


def sample_te_and_risk(records, t: float, i: int, xs, ys, vxs, vys, speeds,
                       distances, range_m: float, params: SafetyParams,
                       evict_before: float = -math.inf):
    """One receiver's per-tick tracking-error and collision-risk sample.

    ``records`` maps sender id to the receiver's NeighborRecord; ``xs``,
    ``ys``, ``vxs``, ``vys`` and ``speeds`` are every vehicle's ground
    truth at time t, ``i`` is the receiver and ``distances[u]`` its
    distance to vehicle u. Each record whose last reception is not older
    than ``evict_before`` is dead-reckoned to t under constant velocity;
    the Euclidean gap to the sender's true position is the tracking error,
    stored as ``te_last`` and added to the record's running sums.

    A sender within ``range_m`` is a collision risk when the TTC
    distortion, tracking error over relative speed (floored so that
    near-zero closing speeds stay finite), strictly exceeds the
    receiver's tolerance: reaction time plus the time to brake from its
    own speed.

    Returns (risk count, sender ids past ``evict_before`` or None); the
    latter are not sampled, and the caller evicts them.
    """
    floor = params.rel_speed_floor
    thr = params.t_react + speeds[i] / params.decel
    vx_i, vy_i = vxs[i], vys[i]
    hypot = math.hypot
    risk = 0
    dead = None
    for u, rec in records.items():
        if rec.last_seen < evict_before:
            if dead is None:
                dead = [u]
            else:
                dead.append(u)
            continue
        dtg = t - rec.gen_time
        te = hypot(xs[u] - (rec.bx + rec.bvx * dtg),
                   ys[u] - (rec.by + rec.bvy * dtg))
        rec.te_last = te
        rec.te_sum += te
        rec.te_count += 1
        if distances[u] <= range_m:
            rel = hypot(vxs[u] - vx_i, vys[u] - vy_i)
            if te / (rel if rel > floor else floor) > thr:
                risk += 1
    return risk, dead


@dataclass
class PdrCounters:
    """Packet-delivery bookkeeping, binned by transmitter-receiver distance.

    Opportunities count every in-range receiver of every transmission;
    successes count the subset that decoded the frame.
    """

    bin_width: float = 25.0
    successes: dict = field(default_factory=dict)      # bin index -> count
    opportunities: dict = field(default_factory=dict)  # bin index -> count

    def overall_pdr(self) -> float:
        opp = sum(self.opportunities.values())
        if opp == 0:
            raise UndefinedValueError("PDR with zero opportunities")
        return sum(self.successes.values()) / opp

    def bin_rows(self) -> list[tuple[float, float, int, int]]:
        """Sorted (bin_lo, bin_hi, successes, opportunities) rows."""
        rows = []
        for idx in sorted(self.opportunities):
            lo = idx * self.bin_width
            rows.append((lo, lo + self.bin_width,
                         self.successes.get(idx, 0), self.opportunities[idx]))
        return rows


def pdr_record(sender, in_range_receivers, successes, counters: PdrCounters,
               distances=None) -> PdrCounters:
    """Fold one transmission into the PDR counters.

    ``in_range_receivers`` are receiver states within application range;
    ``successes`` is the set of receiver ids that decoded the frame and must
    be a subset of the in-range ids. ``distances`` optionally maps receiver
    id to transmitter distance (meters); when absent distances are computed
    from the coordinates.
    """
    ids = {r.id for r in in_range_receivers}
    if not ids.issuperset(successes):
        raise ValueError(f"successes outside the in-range set: "
                         f"{sorted(set(successes) - ids)}")
    width, opportunities = counters.bin_width, counters.opportunities
    hits = counters.successes
    sx, sy = sender.x, sender.y
    for r in in_range_receivers:
        d = (distances[r.id] if distances is not None
             else math.hypot(r.x - sx, r.y - sy))
        if d < 0:
            raise ValueError(f"negative distance: {d}")
        idx = int(d // width)
        opportunities[idx] = opportunities.get(idx, 0) + 1
        if r.id in successes:
            hits[idx] = hits.get(idx, 0) + 1
    return counters
