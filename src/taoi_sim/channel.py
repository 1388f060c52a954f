"""Broadcast channel: log-distance path loss with Nakagami-m fading, a
carrier-sense access walk over a shared busy-interval timeline, and
per-receiver delivery evaluation under interference.

The medium is modeled globally: every committed transmission is visible
to every sender's carrier sensing (the circuit is small relative to the
sensing range, so hidden terminals are not modeled). Fading is drawn
fresh per evaluated link and never cached; the Gamma draw has unit mean
so the path-loss mean is preserved.
"""

from __future__ import annotations

import bisect
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


def path_loss_db(distance: float, cfg: ChannelConfig) -> float:
    """Log-distance attenuation; undefined at or below zero meters."""
    if distance <= 0:
        raise ValueError(f"path loss undefined for distance {distance}")
    return (cfg.reference_loss_db
            + 10.0 * cfg.path_loss_exponent * math.log10(distance))


def nakagami_m(distance: float, cfg: ChannelConfig) -> float:
    """Fading severity bin: near links fade gently, far links approach
    Rayleigh."""
    for bound, m in cfg.nakagami_bins:
        if distance < bound:
            return m
    return cfg.nakagami_m_far


def nakagami_fading_draw(rng, distance: float, cfg: ChannelConfig) -> float:
    """Unit-mean power fading sample: Gamma(shape=m, scale=1/m)."""
    m = nakagami_m(distance, cfg)
    return rng.gamma(m, 1.0 / m)


def rx_power_dbm(tx_power: float, distance: float, fading: float,
                 cfg: ChannelConfig) -> float:
    """Received power after path loss and a multiplicative fading sample."""
    if fading <= 0:
        raise ValueError(f"fading sample must be positive, got {fading}")
    return tx_power - path_loss_db(distance, cfg) + 10.0 * math.log10(fading)


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
    """

    def __init__(self):
        self._starts: list[float] = []
        self._intervals: list[tuple[float, float]] = []

    def commit(self, start: float, end: float) -> None:
        if end <= start:
            raise ValueError(f"empty busy interval [{start}, {end})")
        idx = bisect.bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._intervals.insert(idx, (start, end))

    def prune(self, before: float) -> None:
        """Drop intervals that ended before the given time."""
        keep = [iv for iv in self._intervals if iv[1] >= before]
        self._intervals = keep
        self._starts = [iv[0] for iv in keep]

    def first_overlap(self, a: float, b: float):
        """Earliest committed interval intersecting [a, b), or None."""
        best = None
        for s, e in self._intervals:
            if s >= b:
                break
            if e > a:
                if best is None or s < best[0]:
                    best = (s, e)
        return best

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

    A receiver succeeds when its own-signal draw clears the sensitivity
    threshold and no time-overlapping concurrent frame reaches it at
    carrier-sense level (any such frame garbles the capture; there is no
    SINR capture model). A receiver that is itself transmitting an
    overlapping frame is half-duplex deaf and fails outright.

    Determinism: receivers are evaluated in the given order and one
    own-signal draw happens per receiver before any interferer draws;
    interferers are evaluated in the given order with short-circuit on
    the first hit. Callers pass both sequences pre-sorted.
    """
    overlapping = [c for c in concurrent
                   if c is not tx and c.start < tx.end and c.end > tx.start]
    busy_senders = {c.sender for c in overlapping}
    got = set()
    for r in receivers:
        if r.id == tx.sender:
            continue
        d = math.hypot(r.x - tx.bsm.x, r.y - tx.bsm.y)
        if d > cfg.max_reception_range_m:
            continue
        if r.id in busy_senders:
            continue
        fading = nakagami_fading_draw(rng, d, cfg)
        if rx_power_dbm(cfg.tx_power_dbm, d, fading, cfg) < cfg.rx_sensitivity_dbm:
            continue
        garbled = False
        for c in overlapping:
            di = math.hypot(r.x - c.bsm.x, r.y - c.bsm.y)
            if di > cfg.max_reception_range_m:
                continue
            fi = nakagami_fading_draw(rng, di, cfg)
            if rx_power_dbm(cfg.tx_power_dbm, di, fi, cfg) >= cfg.carrier_sense_dbm:
                garbled = True
                break
        if not garbled:
            got.add(r.id)
    return got

