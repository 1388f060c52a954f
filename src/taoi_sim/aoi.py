"""Age-of-information accounting per ordered sender-receiver pair.

A receiver keeps one NeighborRecord per sender it has heard from. The age
of that link is the time since the generation of the freshest received
snapshot; it grows with unit slope between receptions and drops to the
in-flight delay on each reception. The record holds exact sawtooth areas
(trapezoids between bookkeeping events) plus a gated variant that only
accumulates while the relevant riskiness flag is raised.

Two accumulation styles coexist and are validated by different oracles:

* ``advance`` integrates the continuous sawtooth and is what the realistic
  channel mode uses.
* ``slot_sample`` adds right-endpoint step areas (the age at a slot
  boundary times the slot length), which is the discrete arithmetic of the
  idealized slotted channel abstraction.

Callers must never mix the two on one record.
"""

from __future__ import annotations

from .errors import UndefinedValueError


class NeighborRecord:
    """Per-(receiver, sender) reception state and area accumulators.

    The last snapshot is cached as flat floats (position, velocity
    components, generation time) so hot loops avoid attribute chains.
    """

    __slots__ = (
        "sender", "gen_time", "bx", "by", "bvx", "bvy",
        "neighbor_risky", "neighbor_interval",
        "last_seen", "cursor",
        "aoi_area_mi", "taoi_area_mi", "aoi_area_run", "taoi_area_run",
        "te_last", "te_sum", "te_count",
    )

    def __init__(self, sender: int, gen_time: float, x: float, y: float,
                 vx: float, vy: float, risky: int, interval: float, now: float):
        self.sender = sender
        self.gen_time = gen_time
        self.bx = x
        self.by = y
        self.bvx = vx
        self.bvy = vy
        self.neighbor_risky = risky
        self.neighbor_interval = interval
        self.last_seen = now
        self.cursor = now
        self.aoi_area_mi = 0.0
        self.taoi_area_mi = 0.0
        self.aoi_area_run = 0.0
        self.taoi_area_run = 0.0
        self.te_last = 0.0
        self.te_sum = 0.0
        self.te_count = 0

def record_from_bsm(bsm, now: float) -> NeighborRecord:
    if bsm.gen_time > now:
        raise ValueError(f"snapshot from the future: gen={bsm.gen_time} > now={now}")
    vx, vy = bsm.velocity()
    return NeighborRecord(bsm.sender, bsm.gen_time, bsm.x, bsm.y, vx, vy,
                          bsm.riskiness_flag, bsm.interval, now)


def virtual_record(sender: int, x: float, y: float, risky: int,
                   interval: float) -> NeighborRecord:
    """Time-zero bootstrap record used by the idealized slotted mode: every
    pair starts with a perfectly fresh position snapshot carrying zero
    velocity, so the age at the origin is zero for all pairs."""
    return NeighborRecord(sender, 0.0, x, y, 0.0, 0.0, risky, interval, 0.0)


def instantaneous_aoi(record: NeighborRecord, t: float) -> float:
    """Age of the freshest snapshot at time t (unit slope since generation)."""
    if record is None:
        raise UndefinedValueError("no reception history for this pair")
    if t < record.gen_time:
        raise ValueError(f"t={t} precedes snapshot generation {record.gen_time}")
    return t - record.gen_time


def advance(record: NeighborRecord, t: float, gate: int) -> None:
    """Extend the exact sawtooth areas from the record's cursor to t.

    Valid only when no reception occurred inside (cursor, t]; receptions
    go through apply_reception which advances first. ``gate`` is the
    riskiness flag in force over the whole stretch.
    """
    if t < record.cursor:
        raise ValueError(f"cursor moved backwards: {t} < {record.cursor}")
    if t == record.cursor:
        return
    a0 = record.cursor - record.gen_time
    a1 = t - record.gen_time
    area = 0.5 * (a0 + a1) * (t - record.cursor)
    record.aoi_area_mi += area
    record.aoi_area_run += area
    if gate:
        record.taoi_area_mi += area
        record.taoi_area_run += area
    record.cursor = t


def swap_snapshot(record: NeighborRecord, bsm, now: float) -> None:
    """Replace the cached snapshot without touching the areas (the slotted
    mode accounts areas separately at slot boundaries)."""
    if bsm.gen_time > now:
        raise ValueError(f"snapshot from the future: gen={bsm.gen_time} > now={now}")
    vx, vy = bsm.velocity()
    record.gen_time = bsm.gen_time
    record.bx = bsm.x
    record.by = bsm.y
    record.bvx = vx
    record.bvy = vy
    record.neighbor_risky = bsm.riskiness_flag
    record.neighbor_interval = bsm.interval
    record.last_seen = now


def apply_reception(record: NeighborRecord, bsm, now: float, gate: int) -> None:
    """Continuous-mode reception: close the sawtooth up to now under the
    outgoing snapshot's gate, then install the new snapshot. The age right
    after the call is the in-flight delay now - bsm.gen_time."""
    advance(record, now, gate)
    swap_snapshot(record, bsm, now)


def slot_sample(record: NeighborRecord, t: float, slot: float, gate: int) -> float:
    """Right-endpoint step accounting for the idealized slotted mode: add
    age(t) * slot to the accumulators and return the sampled age. Callers
    invoke this after the slot's deliveries have been applied."""
    a = instantaneous_aoi(record, t)
    record.aoi_area_mi += a * slot
    record.aoi_area_run += a * slot
    if gate:
        record.taoi_area_mi += a * slot
        record.taoi_area_run += a * slot
    record.cursor = t
    return a


def vehicle_aoi(heard, t_mi: float) -> float:
    """Vehicle AoI over one measurement interval: the mean time-average
    age of the links in ``heard``, the receiver's records of the senders
    it heard in the window (window areas already closed at its end).

    Raises UndefinedValueError when nobody was heard; the caller decides
    what "undefined" means for control.
    """
    if not heard:
        raise UndefinedValueError("vehicle AoI with no neighbors")
    return sum(r.aoi_area_mi for r in heard) * (1.0 / t_mi) / len(heard)


def vehicle_taoi(heard, t_mi: float, distances,
                 range_m: float) -> tuple[float | None, int]:
    """Vehicle TAoI over one measurement interval: the mean time-average
    gated age over the risky subset of ``heard``.

    A sender counts as risky for the window when its gate was open at any
    point in it, which is exactly when it accumulated gated area; the
    latest flag alone would drop senders whose flag fell mid-window. The
    subset is clipped to ``range_m`` (``distances[sender]`` is the
    receiver's distance to each sender): radio reach decides who is heard,
    but a hazard beyond the risk-assessment range has no claim on this
    vehicle's rate decision.

    Returns (value, risky count); the value is None when the subset is
    empty, which controllers treat structurally rather than as a zero.
    """
    risky = [r for r in heard
             if r.taoi_area_mi > 0.0 and distances[r.sender] <= range_m]
    n = len(risky)
    if not n:
        return None, 0
    return sum(r.taoi_area_mi for r in risky) * (1.0 / t_mi) / n, n


def reset_window(record: NeighborRecord) -> None:
    record.aoi_area_mi = 0.0
    record.taoi_area_mi = 0.0


def sawtooth_area(reception_times, gen_times, t_end: float) -> float:
    """Exact area under one link's age sawtooth over [0, t_end].

    ``reception_times``/``gen_times`` are parallel, increasing sequences
    (reception i delivers the snapshot generated at gen_times[i] <=
    reception_times[i]); the link starts with a fresh snapshot at time 0.
    Used by tests as an independent closed-form route.
    """
    if len(reception_times) != len(gen_times):
        raise ValueError("reception/generation sequences differ in length")
    area = 0.0
    cursor, gen = 0.0, 0.0
    events = [*zip(reception_times, gen_times), (t_end, None)]
    for rx, g in events:
        if rx < cursor:
            raise ValueError("reception times must be increasing")
        if rx > t_end:
            break
        a0, a1 = cursor - gen, rx - gen
        area += 0.5 * (a0 + a1) * (rx - cursor)
        cursor = rx
        if g is not None:
            if g > rx:
                raise ValueError("snapshot generated after its reception")
            gen = g
    if cursor < t_end:
        a0, a1 = cursor - gen, t_end - gen
        area += 0.5 * (a0 + a1) * (t_end - cursor)
    return area
