"""Age-of-information accounting per ordered receiver-sender pair.

A receiver keeps one record per sender it has heard from. The age of that
link is the time since the generation of the freshest received snapshot;
it grows with unit slope between receptions and drops to the in-flight
delay on each reception. A record holds exact sawtooth areas (trapezoids
between bookkeeping events) plus a gated variant, the tracked age, that
only accumulates while the sender's riskiness flag is raised: the flag
from the sender's own self-tracking-error assessment, carried in its
freshest received BSM (``risky``).

Every record of a run lives in one ``PairTable``: flat arrays of n * n
cells, where cell ``r * n + s`` holds receiver r's record of sender s and
``live`` says which cells hold one. The functions below take the table
and an integer array of cells and update those cells together; a cell may
appear at most once per call. Receptions come instead as one columnar
record per batch of decided frames (``apply_reception``).

``advance`` integrates the continuous sawtooth. The slotted mode accounts
its areas as right-endpoint steps instead (``slotted.slot_sample``); both
add their areas through ``accrue``, and one table never mixes the two.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedValueError

# the cached snapshot of a record, in the order of a frame row's fields
SNAPSHOT = ("gen_time", "bx", "by", "bvx", "bvy", "risky", "interval")


class PairTable:
    """Reception state and area accumulators of every ordered pair.

    Beside the live records the table keeps each pair's retired totals:
    a record leaves the table when it is evicted or when the run ends, and
    its run areas and tracking-error sums are added to the totals of its
    pair (``ret_*``). ``seq`` numbers records in the order they were
    opened; ``retire_order`` lists the pairs in the order of their first
    retirement.
    """

    def __init__(self, n: int):
        cells = n * n
        self.n = n
        self.live = np.zeros(cells, bool)
        self.seq = np.zeros(cells, np.int64)
        self.next_seq = 0
        for name in (*SNAPSHOT, "last_seen", "cursor", "aoi_mi", "taoi_mi",
                     "aoi_run", "taoi_run", "te_sum",
                     "ret_aoi", "ret_taoi", "ret_te_sum"):
            setattr(self, name, np.zeros(cells))
        self.risky = np.zeros(cells, np.int8)
        self.te_count = np.zeros(cells, np.int64)
        self.ret_te_count = np.zeros(cells, np.int64)
        self.retired = np.zeros(cells, bool)
        self.retire_order: list = []   # arrays of cells

    def by_insertion(self, cells):
        """The cells ordered by receiver, then by when their record was
        opened: the order in which a receiver walks its neighbours."""
        cells = np.asarray(cells)
        return cells[np.lexsort((self.seq[cells], cells // self.n))]

    def retire(self, cells) -> None:
        """Close the records in ``cells`` (given in retirement order) and
        add their run totals to their pairs'."""
        first = cells[~self.retired[cells]]
        if len(first):
            self.retired[first] = True
            self.retire_order.append(first)
        self.ret_aoi[cells] += self.aoi_run[cells]
        self.ret_taoi[cells] += self.taoi_run[cells]
        self.ret_te_sum[cells] += self.te_sum[cells]
        self.ret_te_count[cells] += self.te_count[cells]
        self.live[cells] = False


class PairRow:
    """Receiver r's records as seen from its vehicle: ``len`` is the
    number of senders it currently holds a record of."""

    __slots__ = ("live", "lo", "hi")

    def __init__(self, table: PairTable, r: int):
        self.live = table.live
        self.lo, self.hi = r * table.n, (r + 1) * table.n

    def __len__(self) -> int:
        return int(np.count_nonzero(self.live[self.lo:self.hi]))


def snapshot(bsm) -> tuple:
    """A BSM's fields in ``SNAPSHOT`` order."""
    vx, vy = bsm.velocity()
    return (bsm.gen_time, bsm.x, bsm.y, vx, vy, bsm.riskiness_flag,
            bsm.interval)


def swap_snapshot(table: PairTable, cells, fields, now) -> None:
    """Replace the cached snapshots of ``cells`` with the snapshot fields
    (``SNAPSHOT`` order; scalars or arrays aligned with the cells)
    received at ``now``, without touching the areas (the slotted mode
    accounts areas separately at slot boundaries)."""
    gen = fields[0]
    if np.any(gen > now):
        raise ValueError(f"snapshot from the future: gen={gen} > now={now}")
    for name, values in zip(SNAPSHOT, fields):
        getattr(table, name)[cells] = values
    table.last_seen[cells] = now


def record_from_bsm(table: PairTable, cells, fields, now) -> None:
    """Open a record in each of ``cells``, which hold none, from snapshot
    fields received at ``now`` (see ``swap_snapshot``). Records are
    numbered in cell order."""
    swap_snapshot(table, cells, fields, now)
    k = len(cells)
    table.live[cells] = True
    table.seq[cells] = np.arange(table.next_seq, table.next_seq + k)
    table.next_seq += k
    table.cursor[cells] = now
    for acc in (table.aoi_mi, table.taoi_mi, table.aoi_run, table.taoi_run,
                table.te_sum, table.te_count):
        acc[cells] = 0


def instantaneous_aoi(table: PairTable, cells, t: float):
    """Age of each cell's freshest snapshot at time t (unit slope since
    generation)."""
    if not table.live[cells].all():
        raise UndefinedValueError("no reception history for this pair")
    gen = table.gen_time[cells]
    if np.any(t < gen):
        raise ValueError(f"t={t} precedes snapshot generation {gen.min()}")
    return t - gen


def advance(table: PairTable, cells, t) -> None:
    """Extend the exact sawtooth areas of ``cells`` from their cursors to
    t (a scalar or one time per cell).

    Valid only when no reception occurred inside (cursor, t]; receptions
    go through apply_reception which advances first. The sender flag of
    the cached snapshot is in force over the whole stretch. A cell already
    at t gains an area of exactly zero.
    """
    cursor = table.cursor[cells]
    if np.any(t < cursor):
        raise ValueError(f"cursor moved backwards: {t} < {cursor}")
    gen = table.gen_time[cells]
    accrue(table, cells, 0.5 * ((cursor - gen) + (t - gen)) * (t - cursor), t)


def accrue(table: PairTable, cells, area, t) -> None:
    """Add ``area`` (one value per cell) to the window and run areas of
    ``cells``, and to their gated areas where the cached snapshot's flag
    is raised, then move their cursors to t."""
    table.aoi_mi[cells] += area
    table.aoi_run[cells] += area
    gated = table.risky[cells] != 0
    g = cells[gated]
    table.taoi_mi[g] += area[gated]
    table.taoi_run[g] += area[gated]
    table.cursor[cells] = t


def apply_reception(table: PairTable, frames, frame, rx) -> None:
    """Continuous-mode receptions of one batch of decided frames.
    ``frames`` holds one row per frame, (sender, reception time,
    *snapshot fields), in time order; link i is receiver ``rx[i]``
    decoding frame row ``frame[i]``, in frame order.

    Each reception closes the pair's sawtooth up to its time under the
    outgoing snapshot's flag and installs the new snapshot, so the age
    right after it is the in-flight delay; a pair without a record gets
    one. A pair that appears k times in the batch is updated in k rounds,
    its i-th reception in round i, so every cell sees its receptions in
    time order; new records are opened in link order.
    """
    cells = rx * table.n + frames[frame, 0].astype(np.intp)
    # a link's round is the number of earlier links of its cell
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            ranked[1:] != ranked[:-1])))
    sizes = np.diff(np.append(starts, len(ranked)))
    rank = np.empty(len(cells), np.intp)
    rank[order] = np.arange(len(ranked)) - np.repeat(starts, sizes)
    for k in range(sizes.max(initial=0)):
        links = np.flatnonzero(rank == k)
        c, f = cells[links], frames[frame[links]]
        fresh = ~table.live[c]
        if fresh.any():
            new = f[fresh]
            record_from_bsm(table, c[fresh], new[:, 2:].T, new[:, 1])
            c, f = c[~fresh], f[~fresh]
        if len(c):
            advance(table, c, f[:, 1])
            swap_snapshot(table, c, f[:, 2:].T, f[:, 1])


def vehicle_aoi(areas, t_mi: float) -> float:
    """Vehicle AoI over one measurement interval: the mean time-average
    age of the links the receiver heard in the window, given their window
    areas (closed at its end) in the order the receiver opened them.

    Raises UndefinedValueError when nobody was heard; the caller decides
    what "undefined" means for control.
    """
    if not areas:
        raise UndefinedValueError("vehicle AoI with no neighbors")
    return sum(areas) * (1.0 / t_mi) / len(areas)


def vehicle_taoi(gated_areas, in_range, t_mi: float) -> tuple[float | None, int]:
    """Vehicle TAoI over one measurement interval: the mean time-average
    gated age over the risky subset of the links heard in the window,
    given their gated window areas and whether each sender is within the
    risk-assessment range, in the order the receiver opened them.

    A sender counts as risky for the window when its gate was open at any
    point in it, which is exactly when it accumulated gated area; the
    latest flag alone would drop senders whose flag fell mid-window. The
    subset is clipped to the range: radio reach decides who is heard,
    but a hazard beyond the risk-assessment range has no claim on this
    vehicle's rate decision.

    Returns (value, risky count); the value is None when the subset is
    empty, which controllers treat structurally rather than as a zero.
    """
    risky = [a for a, near in zip(gated_areas, in_range) if near and a > 0.0]
    n = len(risky)
    if not n:
        return None, 0
    return sum(risky) * (1.0 / t_mi) / n, n


def reset_window(table: PairTable) -> None:
    """Start a new measurement window: zero every window area. Cells
    without a record are zeroed too; opening a record zeroes them anyway."""
    table.aoi_mi.fill(0.0)
    table.taoi_mi.fill(0.0)
