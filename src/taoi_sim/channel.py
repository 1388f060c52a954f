"""Broadcast channel: log-distance path loss with Nakagami-m fading, a
carrier-sense access walk over a shared busy-interval timeline, and
per-receiver delivery evaluation under interference.

In the realistic mode a ``Frame`` is one BSM for its whole life, the
same object throughout: generated, posed at the next flush, queued,
aired over ``[start, end)`` and decided.

The medium is modeled globally: every committed transmission is visible
to every sender's carrier sensing (the circuit is small relative to the
sensing range, so hidden terminals are not modeled). Fading is drawn
fresh per evaluated link and never cached; the Gamma draw has unit mean
so the path-loss mean is preserved.

Frames are decided in batches, not as they end. A finished frame is only
recorded with the frames that overlap it at that moment; wherever the
simulator next reads pair state, and before any vehicle moves, the whole
batch is decided at once. ``link_budgets`` computes every link's
distance, Nakagami shape and mean received power in one pass, then
``delivery_outcome`` decides one frame at a time, in end order.

The fading stream's draw order is frozen, because every decision after a
changed draw changes with it: a finished frame draws once per evaluated
receiver for its own signal, in receiver order, and a receiver whose own
signal decodes then draws once per in-range overlapping frame, in
``concurrent`` order, until the first one garbles it (see
``delivery_outcome``). Batching keeps that order: frames are decided in
the order they ended, each frame's draws before the next frame's. A run
of consecutive frames that overlap nothing draws only own-signal
samples, so the whole run takes them in one vector call when its first
frame is decided; that consumes the stream exactly as the frames' own
calls in a row would.

An overlapped frame's scalar draws call numpy's C ``random_gamma`` on
the run's own bit generator, through cffi's ABI mode: it is the function
``Generator.gamma`` calls once per draw, so every sample and the
generator state after it are the same, without numpy's per-call
argument checks and lock. A run owns its generator, so nothing else
draws from it meanwhile.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .metrics import Bsm

try:
    from ._random_c import ffi
except ImportError as exc:
    raise ImportError("taoi-sim needs the cffi package") from exc

NS = 10 ** 9   # the event clock counts integer nanoseconds


@dataclass(frozen=True)
class ChannelConfig:
    tx_power_dbm: float = 20.0
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

    @functools.cached_property
    def nakagami_table(self) -> tuple:
        """(bounds, shapes): the distance bounds of ``nakagami_bins`` and
        the (m, 1/m) of every bin, ``nakagami_m_far``'s last. A link of
        length d takes ``shapes[bisect_right(bounds, d)]``, the bin of the
        first bound above d. Built once per config, on first use; an m of
        0 gets an infinite 1/m here, and validation rejects it."""
        ms = [m for _, m in self.nakagami_bins] + [self.nakagami_m_far]
        with np.errstate(divide="ignore"):
            scales = (1.0 / np.array(ms)).tolist()
        return [bound for bound, _ in self.nakagami_bins], list(zip(ms, scales))


class Frame:
    """A BSM from its generation, at ``t_ns``, to its decision. The next
    flush fills in its pose, where nobody has moved since it was
    generated; going on the air sets its ``start`` and ``end`` in
    seconds. It reads like a ``Bsm``."""

    __slots__ = ("sender", "t_ns", "gen_time", "x", "y", "speed", "heading",
                 "riskiness_flag", "interval", "start", "end")
    velocity = Bsm.velocity

    def __init__(self, sender: int, t_ns: int, riskiness_flag: int,
                 interval: float):
        self.sender, self.t_ns, self.gen_time = sender, t_ns, t_ns / NS
        self.riskiness_flag, self.interval = riskiness_flag, interval


def tx_duration(size: int, cfg: ChannelConfig) -> float:
    """Airtime of one frame: payload bytes at the channel's data rate
    (Mbps) plus the preamble overhead."""
    if size <= 0:
        raise ValueError(f"frame size must be positive, got {size}")
    return 8.0 * size / (cfg.data_rate_mbps * 1e6) + cfg.preamble_us * 1e-6


class ChannelTimeline:
    """Committed busy intervals on the shared medium, sorted by start.

    Carrier sensing consults this structure; commitments are made at
    access-resolution time, so a later-arriving sender sees every frame
    already granted the medium even if that frame starts in the future.

    Every frame of a run airs for the one ``airtime``, and adding a fixed
    float to ascending starts gives non-decreasing ends, so the ends are
    sorted too. Every interval before the first end that exceeds ``a``
    ends at or before ``a`` and cannot overlap ``[a, b)``; the interval
    at that index, found by bisection, is the earliest overlap if it
    starts before ``b``, and nothing overlaps otherwise.
    """

    def __init__(self, airtime: float):
        if not airtime > 0:
            raise ValueError(f"airtime must be positive, got {airtime}")
        self.airtime = airtime
        self._starts: list[float] = []
        self._ends: list[float] = []

    def commit(self, start: float) -> None:
        idx = bisect.bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._ends.insert(idx, start + self.airtime)

    def prune(self, before: float) -> None:
        """Drop intervals that ended before the given time."""
        k = bisect.bisect_left(self._ends, before)
        del self._starts[:k], self._ends[:k]

    def first_overlap(self, a: float, b: float):
        """Earliest committed (start, end) intersecting [a, b), or None.
        Among intervals with equal starts the latest committed comes first."""
        i = bisect.bisect_right(self._ends, a)
        if i < len(self._starts) and self._starts[i] < b:
            return self._starts[i], self._ends[i]
        return None

    def __len__(self) -> int:
        return len(self._starts)


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


def overlapping(tx: Frame, frames) -> list:
    """The aired frames among ``frames``, other than tx, whose
    ``[start, end)`` overlaps tx's, in the given order."""
    start, end = tx.start, tx.end
    return [c for c in frames
            if c is not tx and c.start < end and c.end > start]


def _column(i: int) -> property:
    return property(lambda self: self.columns[i][self.lo:self.hi])


class Links:
    """One finished frame's evaluated links, ready for ``delivery_outcome``.

    ``len()`` is the number of receivers offered to the frame. The links
    are rows ``lo:hi`` of the batch's ``columns``, which hold, in offered
    order, only the receivers that are evaluated (not the sender, not
    deaf, within the cutoff): their ids and positions, the Nakagami shape
    and scale of their own-signal draw, and the power they receive before
    fading, in dBm. A frame that overlaps nothing is frame ``pos`` of its
    ``run``; ``run`` is None for a frame that overlaps another.
    """

    __slots__ = ("offered", "columns", "lo", "hi", "run", "pos")

    ids, x, y, shape, scale, mean_dbm = map(_column, range(6))

    def __init__(self, offered, columns, lo, hi, run=None, pos=0):
        self.offered, self.columns, self.lo, self.hi = offered, columns, lo, hi
        self.run, self.pos = run, pos

    def __len__(self) -> int:
        return self.offered


class _Run:
    """A maximal run of consecutive overlap-free frames of one batch.
    Frame j's links are rows ``cuts[j]:cuts[j + 1]`` of the batch's
    columns; ``decoded`` holds every frame's decoded set once the first
    frame is decided."""

    __slots__ = ("cuts", "decoded")

    def __init__(self, lo: int):
        self.cuts = [lo]
        self.decoded = None


def link_budgets(frames, frame_of, rx, xs, ys, cfg: ChannelConfig) -> list:
    """Every offered link of a batch of finished frames, as one ``Links``
    per frame.

    ``frames`` are (tx, overlapping frames) pairs; link i offers receiver
    ``rx[i]``, at (``xs[rx[i]]``, ``ys[rx[i]]``), to frame ``frame_of[i]``.
    ``frame_of`` must be non-decreasing and each frame's receivers listed
    in the order it draws for them. A receiver is deaf to a frame it sent
    or that overlaps one it sent. Each maximal run of consecutive frames
    that overlap nothing shares one ``_Run``; a lone one is a run of one.

    A link of length d takes the shape of its ``nakagami_table`` bin
    (``nakagami_m_far`` beyond the last bound) and receives
    ``tx_power - (reference_loss + (10 * exponent) * log10(max(d, 1)))``
    dBm before fading. Distances are ``math.hypot`` and logarithms
    ``math.log10``, mapped over the links, so each value is the one a
    per-link loop computes.
    """
    k = len(frames)
    bx = np.array([tx.x for tx, _ in frames])
    by = np.array([tx.y for tx, _ in frames])
    d = np.fromiter(map(math.hypot, (xs[rx] - bx[frame_of]).tolist(),
                        (ys[rx] - by[frame_of]).tolist()), float, len(rx))
    # deaf[f, j]: receiver j sends frame f or a frame overlapping it; a
    # sender outside the receiver ids is nobody's receiver
    ids = len(xs)
    deaf = np.zeros((k, ids), dtype=bool)
    busy = [(f, c.sender) for f, (tx, over) in enumerate(frames)
            for c in (tx, *over) if c.sender < ids]
    if busy:
        rows, cols = zip(*busy)
        deaf[rows, cols] = True
    ev = np.flatnonzero((d <= cfg.max_reception_range_m)
                        & ~deaf[frame_of, rx])
    d, rx_ev = d[ev], rx[ev]
    bounds, shapes = cfg.nakagami_table
    shape, scale = np.array(shapes).T[:, np.searchsorted(bounds, d,
                                                         side="right")]
    lg = np.fromiter(map(math.log10, np.maximum(d, 1.0).tolist()), float,
                     len(d))
    mean_dbm = cfg.tx_power_dbm - (
        cfg.reference_loss_db + (10.0 * cfg.path_loss_exponent) * lg)
    columns = (rx_ev, xs[rx_ev], ys[rx_ev], shape, scale, mean_dbm)
    frames_at = np.arange(k + 1)
    offered = np.diff(np.searchsorted(frame_of, frames_at)).tolist()
    cut = np.searchsorted(frame_of[ev], frames_at).tolist()
    links, run = [], None
    for f, (_, over) in enumerate(frames):
        lo, hi = cut[f], cut[f + 1]
        if over:
            run = None
            links.append(Links(offered[f], columns, lo, hi))
            continue
        if run is None:
            run = _Run(lo)
        links.append(Links(offered[f], columns, lo, hi, run,
                           len(run.cuts) - 1))
        run.cuts.append(hi)
    return links


def _decide_run(columns, cuts, rng, sensitivity: float) -> list:
    """The decoded set of every frame of a run: one fading call, one
    ``math.log10`` map and one threshold over all of the run's links,
    split by frame. The call is ``standard_gamma(m) * scale``, which is
    how numpy computes ``gamma(m, scale)``, without its broadcasting of a
    second array argument."""
    ids, _, _, shape, scale, mean_dbm = columns
    lo, hi = cuts[0], cuts[-1]
    fade = rng.standard_gamma(shape[lo:hi]) * scale[lo:hi]
    gain = np.fromiter(map(math.log10, fade.tolist()), float, hi - lo)
    ok = np.flatnonzero(mean_dbm[lo:hi] + 10.0 * gain >= sensitivity)
    got = ids[lo:hi][ok].tolist()
    split = np.searchsorted(ok, np.subtract(cuts, lo)).tolist()
    return [set(got[a:b]) for a, b in zip(split, split[1:])]


@functools.cache
def _random_gamma():
    """numpy's C gamma sampler, by numpy's documented cffi route: the
    Generator extension exports it. Loaded on first use, as importing
    this package leaves numpy.random unloaded."""
    return ffi.dlopen(np.random._generator.__file__).random_gamma


def _gamma_sampler(rng):
    """``(draw, handle)`` such that ``draw(handle, m, scale)`` is the next
    ``rng.gamma(m, scale)``: numpy's C sampler on a ``Generator``'s bit
    generator, or the ``gamma`` method of any other ``rng``."""
    if isinstance(rng, np.random.Generator):
        return _random_gamma(), ffi.cast(
            "void *", rng.bit_generator.ctypes.bit_generator.value)
    return type(rng).gamma, rng


def delivery_outcome(tx: Frame, links: Links, concurrent, rng,
                     cfg: ChannelConfig) -> set:
    """Decide which receivers decode a finished frame.

    ``links`` are the frame's evaluated links from ``link_budgets`` and
    ``concurrent`` the frames that overlap it (see ``overlapping``), the
    same ones the links were built with. Each evaluated receiver takes one
    unit-mean fading sample ``f = rng.gamma(m, 1.0 / m)`` (a ``Generator``
    draws it as numpy's C ``random_gamma`` on its bit generator, the same
    sample; any other ``rng`` through its own ``gamma``) and receives
    ``mean_dbm + 10 * log10(f)`` dBm. A receiver succeeds when that clears
    the sensitivity threshold and no overlapping frame reaches it at
    carrier-sense level, with the same link budget and a draw of its own
    (any such frame garbles the capture; there is no SINR capture model).
    Links longer than ``max_reception_range_m`` are not evaluated.

    Determinism: the fading stream is consumed in a frozen order. Every
    evaluated receiver takes one own-signal draw, in link order. A
    receiver whose own signal clears sensitivity then takes one draw per
    overlapping frame within the cutoff of it, in ``concurrent`` order,
    and stops at the first that garbles. Nothing else draws. A run of
    consecutive frames that overlap nothing (see ``link_budgets``) takes
    all of its own-signal draws as one vector call when its first frame
    is decided, and each later frame of the run returns its share. Such
    frames draw nothing else, so the vector call consumes the stream
    exactly as each frame's scalar calls in turn would, provided the
    run's frames are decided in order with no other draw between them,
    as deciding a batch in end order does. Decoded ids enter the
    returned set in link order.
    """
    run = links.run
    if run is not None:
        if links.pos == 0:
            run.decoded = _decide_run(links.columns, run.cuts, rng,
                                      cfg.rx_sensitivity_dbm)
        elif run.decoded is None:
            raise ValueError("a run's frames are decided in order, "
                             "its first frame first")
        return run.decoded[links.pos]
    # the interferer budgets are inlined below: the loop runs once per
    # decoded receiver and overlapping frame, and each term keeps its
    # float order
    draw, handle = _gamma_sampler(rng)
    sensitivity = cfg.rx_sensitivity_dbm
    hypot, log10 = math.hypot, math.log10
    bin_of = bisect.bisect_right
    bounds, shapes = cfg.nakagami_table
    tx_dbm, ref = cfg.tx_power_dbm, cfg.reference_loss_db
    slope = 10.0 * cfg.path_loss_exponent
    cutoff, sense = cfg.max_reception_range_m, cfg.carrier_sense_dbm
    interferers = [(c.x, c.y) for c in concurrent]
    got = set()
    for r, x, y, m, scale, mean_dbm in zip(
            links.ids.tolist(), links.x.tolist(), links.y.tolist(),
            links.shape.tolist(), links.scale.tolist(),
            links.mean_dbm.tolist()):
        if mean_dbm + 10.0 * log10(draw(handle, m, scale)) < sensitivity:
            continue
        for cx, cy in interferers:
            d = hypot(x - cx, y - cy)
            if d > cutoff:
                continue
            m, scale = shapes[bin_of(bounds, d)]
            loss = ref + slope * log10(d) if d > 1.0 else ref
            if tx_dbm - loss + 10.0 * log10(draw(handle, m, scale)) >= sense:
                break
        else:
            got.add(r)
    return got
