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

import numpy as np

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


def self_tracking_error(x, y, prev, t_mi: float) -> list:
    """Every vehicle's self tracking error: how far its own motion drifted
    from the constant-velocity prediction neighbors would have made from
    its (x, y, speed, heading) arrays ``prev`` one measurement interval
    ago, to its positions ``x`` and ``y`` now. ``math.cos``, ``sin`` and
    ``hypot`` are mapped, as numpy's can differ in the last bit, so each
    value is the scalar formula's bit for bit."""
    px, py, speed, heading = prev
    k, heading = len(px), heading.tolist()
    ex = px + speed * np.fromiter(map(math.cos, heading), float, k) * t_mi
    ey = py + speed * np.fromiter(map(math.sin, heading), float, k) * t_mi
    return list(map(math.hypot, (x - ex).tolist(), (y - ey).tolist()))


def sample_te_and_risk(table, t: float, xs, ys, vxs, vys, speeds, dist,
                       range_m: float, params: SafetyParams,
                       evict_before: float = -math.inf):
    """Every receiver's per-tick tracking-error and collision-risk sample.

    ``table`` is the run's ``aoi.PairTable``; ``xs``, ``ys``, ``vxs``,
    ``vys`` and ``speeds`` are numpy arrays of every vehicle's ground
    truth at time t, and ``dist`` the n x n matrix of their distances.
    Each record whose last reception is not older than ``evict_before``
    is dead-reckoned to t under constant velocity; the Euclidean gap to
    the sender's true position is the tracking error, added to the
    record's running sums.

    A sender within ``range_m`` of its receiver is a collision risk when
    the TTC distortion, tracking error over relative speed (floored so
    that near-zero closing speeds stay finite), strictly exceeds the
    receiver's tolerance: reaction time plus the time to brake from its
    own speed.

    Both norms are ``math.hypot``, mapped over the pairs: numpy's hypot
    can differ from it in the last bit, and every other operation here is
    a single IEEE operation per pair, so the samples are the ones a
    per-record loop computes.

    Returns (risk count, cells past ``evict_before`` or None): the stale
    cells are not sampled, and the caller evicts them.
    """
    cells = np.flatnonzero(table.live)
    dead = None
    stale = table.last_seen[cells] < evict_before
    if stale.any():
        dead = cells[stale]
        cells = cells[~stale]
    k = len(cells)
    if not k:
        return 0, dead
    rcv, snd = np.divmod(cells, table.n)
    dtg = t - table.gen_time[cells]
    dx = xs[snd] - (table.bx[cells] + table.bvx[cells] * dtg)
    dy = ys[snd] - (table.by[cells] + table.bvy[cells] * dtg)
    te = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, k)
    table.te_sum[cells] += te
    table.te_count[cells] += 1
    near = dist.ravel()[cells] <= range_m
    rcv, snd = rcv[near], snd[near]
    rel = np.fromiter(map(math.hypot, (vxs[snd] - vxs[rcv]).tolist(),
                          (vys[snd] - vys[rcv]).tolist()), float, len(rcv))
    floor = params.rel_speed_floor
    thr = params.t_react + speeds / params.decel
    risky = te[near] / np.where(rel > floor, rel, floor) > thr[rcv]
    return int(np.count_nonzero(risky)), dead


PDR_BIN_WIDTH_M = 25.0   # width of the PDR distance bins


@dataclass
class PdrCounters:
    """Packet-delivery bookkeeping, binned by transmitter-receiver distance
    in bins of ``PDR_BIN_WIDTH_M``.

    Opportunities count every in-range receiver of every transmission;
    successes count the subset that decoded the frame.
    """

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
            lo = idx * PDR_BIN_WIDTH_M
            rows.append((lo, lo + PDR_BIN_WIDTH_M,
                         self.successes.get(idx, 0), self.opportunities[idx]))
        return rows


def pdr_record(counters: PdrCounters, distances, successes) -> PdrCounters:
    """Fold a batch of transmissions into the PDR counters.

    ``distances`` holds the transmitter-receiver distance (meters) of
    every in-range receiver of every transmission in the batch, one
    delivery opportunity each; ``successes`` holds the ascending positions
    in ``distances`` of the receivers that decoded their frame, a subset
    of the in-range set. A distance d counts in bin ``d // PDR_BIN_WIDTH_M``.
    """
    distances = np.asarray(distances, dtype=float)
    successes = np.asarray(successes, dtype=np.intp)
    k = len(distances)
    if len(successes) and not (
            0 <= successes[0] and successes[-1] < k
            and np.all(successes[1:] > successes[:-1])):
        raise ValueError(f"successes outside the in-range set of {k} "
                         f"receivers (or not ascending): {successes}")
    if k and distances.min() < 0:
        raise ValueError(f"negative distance: {distances.min()}")
    bins = np.floor_divide(distances, PDR_BIN_WIDTH_M).astype(np.intp)
    for table, counts in ((counters.opportunities, np.bincount(bins)),
                          (counters.successes, np.bincount(bins[successes]))):
        for idx in np.flatnonzero(counts).tolist():
            table[idx] = table.get(idx, 0) + int(counts[idx])
    return counters
