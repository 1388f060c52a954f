"""Broadcast channel: log-distance path loss with Nakagami-m fading, a
carrier-sense access walk over a shared busy-interval timeline, and
per-receiver delivery evaluation under interference.

The medium is modeled globally: every committed transmission is visible
to every sender's carrier sensing (the circuit is small relative to the
sensing range, so hidden terminals are not modeled). Fading is drawn
fresh per evaluated link and never cached; the Gamma draw has unit mean
so the path-loss mean is preserved.

The fading stream's draw order is frozen, because every decision after a
changed draw changes with it: a finished frame draws once per evaluated
receiver for its own signal, in receiver order, and a receiver whose own
signal decodes then draws once per in-range overlapping frame, in
``concurrent`` order, until the first one garbles it (see
``delivery_outcome``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelConfig:
    tx_power_dbm: float = 20.0
    freq_ghz: float = 5.9
    bandwidth_mhz: float = 10.0
    data_rate_mbps: float = 6.0
    path_loss_exponent: float = 3.0
    reference_loss_db: float = 47.86       # loss at 1 m
    rx_sensitivity_dbm: float = -102.0     # mean-power decode range ~300 m
    carrier_sense_dbm: float = -102.0      # interference relevance threshold
    slot_time_us: float = 13.0
    aifs_us: float = 58.0
    cw: int = 15
    preamble_us: float = 40.0
    # Nakagami shape by distance: (upper_bound_m, m) bins, then m_far beyond
    nakagami_bins: tuple = ((80.0, 3.0), (200.0, 1.5))
    nakagami_m_far: float = 1.0
    range_m: float = 150.0                 # application neighbor range
    max_reception_range_m: float = 300.0   # hard evaluation cutoff

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.cw < 1:
            raise ValueError("contention window must be at least 1")
        if self.data_rate_mbps <= 0:
            raise ValueError("data rate must be positive")


@dataclass(frozen=True)
class TransmissionEvent:
    """One committed frame on the air: sender, interval, payload."""

    sender: int
    start: float     # s
    duration: float  # s
    bsm: object

    @property
    def end(self) -> float:
        return self.start + self.duration


def tx_duration(size: int, rate: float, cfg: ChannelConfig) -> float:
    """Airtime of one frame: payload bytes at the data rate (Mbps) plus the
    preamble overhead."""
    if size <= 0:
        raise ValueError(f"frame size must be positive, got {size}")
    if rate <= 0:
        raise ValueError(f"data rate must be positive, got {rate}")
    return 8.0 * size / (rate * 1e6) + cfg.preamble_us * 1e-6


class ChannelTimeline:
    """Committed busy intervals on the shared medium, sorted by start.

    Carrier sensing consults this structure; commitments are made at
    access-resolution time, so a later-arriving sender sees every frame
    already granted the medium even if that frame starts in the future.

    Beside the intervals the timeline keeps their running maximum end in
    list order (``_reach[i] = max(end_0, ..., end_i)``), which is
    non-decreasing. Every interval before the first index whose reach
    exceeds ``a`` ends at or before ``a``, and no interval before it can
    overlap ``[a, b)``; that index, found by bisection, is the bound. The
    interval at the bound ends after ``a``, so it is the earliest overlap
    if it starts before ``b``, and nothing overlaps otherwise. Lookups take
    O(log n) and answer exactly what a linear scan from the oldest
    interval would, for intervals of any lengths.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._reach: list[float] = []
        self._intervals: list[tuple[float, float]] = []

    def commit(self, start: float, end: float) -> None:
        if end <= start:
            raise ValueError(f"empty busy interval [{start}, {end})")
        idx = bisect.bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._intervals.insert(idx, (start, end))
        reach = self._reach
        if idx and reach[idx - 1] > end:
            end = reach[idx - 1]
        reach.insert(idx, end)
        # later reaches rise to this one; they usually already exceed it
        for j in range(idx + 1, len(reach)):
            if reach[j] >= end:
                break
            reach[j] = end

    def prune(self, before: float) -> None:
        """Drop intervals that ended before the given time."""
        keep = [iv for iv in self._intervals if iv[1] >= before]
        self._intervals = keep
        self._starts = [iv[0] for iv in keep]
        self._reach = list(itertools.accumulate((iv[1] for iv in keep), max))

    def first_overlap(self, a: float, b: float):
        """Earliest committed interval intersecting [a, b), or None. Among
        intervals with equal starts the latest committed comes first."""
        i = bisect.bisect_right(self._reach, a)
        if i < len(self._starts) and self._starts[i] < b:
            return self._intervals[i]
        return None

    def __len__(self) -> int:
        return len(self._intervals)


def csma_access(sender: int, intended_start: float, timeline: ChannelTimeline,
                rng, cfg: ChannelConfig) -> float:
    """Resolve when a frame may start, given the committed busy timeline.

    If the medium is idle for a full arbitration gap from the intended
    start, access is granted right after the gap with no backoff draw.
    Otherwise one backoff counter is drawn uniformly from [0, cw); the
    sender waits out the busy period, observes an idle gap, then counts
    down one unit per idle slot, freezing (and observing the gap anew) across
    any busy period that interrupts the countdown. Counters that reach
    zero at the same instant produce overlapping transmissions; the
    outcome of that is the receiver's problem, not the medium's.
    """
    aifs = cfg.aifs_us * 1e-6
    slot = cfg.slot_time_us * 1e-6
    hit = timeline.first_overlap(intended_start, intended_start + aifs)
    if hit is None:
        return intended_start + aifs
    remaining = int(rng.integers(cfg.cw))
    t = hit[1]
    while True:
        # a clean arbitration gap must precede any countdown progress
        hit = timeline.first_overlap(t, t + aifs)
        if hit is not None:
            t = hit[1]
            continue
        tau = t + aifs
        if remaining == 0:
            return tau
        hit = timeline.first_overlap(tau, tau + remaining * slot)
        if hit is None:
            return tau + remaining * slot
        idle_slots = min(remaining, max(0, int((hit[0] - tau) / slot)))
        remaining -= idle_slots
        if remaining == 0:
            return tau + idle_slots * slot
        t = hit[1]


def delivery_outcome(tx: TransmissionEvent, receivers, concurrent, rng,
                     cfg: ChannelConfig) -> set:
    """Decide which receivers decode a finished frame.

    A link of length d meters takes the Nakagami shape m of the first
    ``nakagami_bins`` bound above d (``nakagami_m_far`` beyond the last
    bound; the bounds ascend), one unit-mean fading sample
    ``f = rng.gamma(m, 1.0 / m)``, and arrives with
    ``tx_power - (reference_loss + (10 * exponent) * log10(d)) +
    10 * log10(f)`` dBm. Links shorter than the 1 m reference distance,
    down to co-located nodes, take the reference loss. A receiver
    succeeds when its own signal clears the sensitivity threshold and no
    time-overlapping concurrent frame reaches it at carrier-sense level
    (any such frame garbles the capture; there is no SINR capture model).
    A receiver that is itself transmitting an overlapping frame is
    half-duplex deaf and fails outright. Links longer than
    ``max_reception_range_m`` are not evaluated.

    Determinism: the fading stream is consumed in a frozen order. Every
    evaluated receiver (not the sender, not deaf, within the cutoff) takes
    one own-signal draw, in receiver order. A receiver whose own signal
    clears sensitivity then takes one draw per overlapping frame within
    the cutoff of it, in ``concurrent`` order, and stops at the first that
    garbles. Nothing else draws. Callers pass both sequences pre-sorted;
    any other order changes every later decision of a run.
    """
    start, end = tx.start, tx.end
    interferers = []
    deaf = {tx.sender}   # the sender does not hear its own frame
    for c in concurrent:
        if c is not tx and c.start < end and c.end > start:
            interferers.append((c.bsm.x, c.bsm.y))
            deaf.add(c.sender)
    # the whole link budget is inlined below: the loop runs once per
    # receiver-link of every frame, and each term keeps its float order
    gamma, hypot, log10 = rng.gamma, math.hypot, math.log10
    bin_of = bisect.bisect_right
    bounds = [bound for bound, _ in cfg.nakagami_bins]
    shapes = [(m, 1.0 / m) for _, m in cfg.nakagami_bins]
    shapes.append((cfg.nakagami_m_far, 1.0 / cfg.nakagami_m_far))
    tx_dbm, ref = cfg.tx_power_dbm, cfg.reference_loss_db
    slope = 10.0 * cfg.path_loss_exponent
    cutoff = cfg.max_reception_range_m
    sensitivity, sense = cfg.rx_sensitivity_dbm, cfg.carrier_sense_dbm
    x0, y0 = tx.bsm.x, tx.bsm.y
    got = set()
    for r in receivers:
        if r.id in deaf:
            continue
        x, y = r.x, r.y
        d = hypot(x - x0, y - y0)
        if d > cutoff:
            continue
        m, scale = shapes[bin_of(bounds, d)]
        loss = ref + slope * log10(d) if d > 1.0 else ref
        if tx_dbm - loss + 10.0 * log10(gamma(m, scale)) < sensitivity:
            continue
        for cx, cy in interferers:
            d = hypot(x - cx, y - cy)
            if d > cutoff:
                continue
            m, scale = shapes[bin_of(bounds, d)]
            loss = ref + slope * log10(d) if d > 1.0 else ref
            if tx_dbm - loss + 10.0 * log10(gamma(m, scale)) >= sense:
                break
        else:
            got.add(r.id)
    return got
