"""The idealized slotted channel: fixed-capacity slots at zero delay in
place of CSMA access, airtime and fading. It is the abstraction behind the
analytical toy example, with the slot semantics that ``oracle`` lists and
replays exactly; its right-endpoint age steps own every area of a run.
"""

from __future__ import annotations

import numpy as np

from . import aoi
from .channel import Frame
from .engine import EV_SLOT, NS, Simulation, _Vehicle
from .metrics import sample_te_and_risk
from .rate_control import ControllerState


def slot_sample(table: aoi.PairTable, cells, t: float, slot: float):
    """Right-endpoint step accounting: add age(t) * slot to the
    accumulators of ``cells`` (the gated ones under the flag of the
    snapshot held at t) and return the sampled ages. Callers invoke this
    after the slot's deliveries have been applied."""
    a = aoi.instantaneous_aoi(table, cells, t)
    aoi.accrue(table, cells, a * slot, t)
    return a


class SlottedSimulation(Simulation):
    """A run in the slotted mode; ``Simulation(cfg)`` builds one."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.slot_ns = round(cfg.slot_s * NS)
        self.slot_queue: dict[int, list] = {}  # slot -> boarded vehicles
        self._init_virtual_records()

    def _init_virtual_records(self) -> None:
        """Bootstrap: every ordered pair starts with a fresh zero-velocity
        snapshot at t0 (all ages start at 0). The bootstrap flag is raised,
        matching the fresh controller state: a sender with no history is
        unproven, so its age counts as tracked age."""
        n = self.n
        cells = np.flatnonzero(~np.eye(n, dtype=bool))
        senders = cells % n
        aoi.record_from_bsm(self.pairs, cells,
                            (0.0, self._xs[senders], self._ys[senders], 0.0,
                             0.0, ControllerState.riskiness_flag,
                             self.cfg.delta_init_s), 0.0)

    def _push_first_events(self) -> None:
        self._push(self.slot_ns, EV_SLOT)
        # a forced schedule generates in its slots
        if self.cfg.forced_schedule is None:
            super()._push_first_events()

    def _enqueue(self, v: _Vehicle, t_ns: int) -> None:
        """Assign the generation to the first strictly later slot with
        spare capacity (first committed wins). The payload is posed at
        slot time, so only the request boards."""
        if v.queued is not None:
            # an un-aired request is already boarded; the fresher payload
            # would be identical at slot time, so the duplicate is dropped
            v.dropped += 1
            return
        k = t_ns // self.slot_ns + 1
        while len(self.slot_queue.get(k, ())) >= self.cfg.slot_capacity:
            k += 1
        if k * self.slot_ns > self.T_ns:
            v.dropped += 1  # no slot left inside the horizon
            return
        self.slot_queue.setdefault(k, []).append(v.idx)
        v.queued = k

    def _sample_te_and_risk(self, t_s: float) -> None:
        """Slots sample tracking error; a tick scores nothing."""

    def _close_areas(self, cells, t_s: float) -> None:
        """Slot samples own every area: nothing is left to close."""

    def _on_slot(self, t_ns: int) -> None:
        t_s = t_ns / NS
        k = t_ns // self.slot_ns
        pairs, n = self.pairs, self.n
        cells = np.flatnonzero(pairs.live)   # every ordered pair
        # phase 1: tracking error against pre-delivery snapshots; the
        # slotted abstraction scores no collision risk and evicts nothing
        sample_te_and_risk(
            pairs, t_s, self._xs, self._ys, self._vxs, self._vys,
            self._speeds, self._dist, self.cfg.channel.range_m,
            self.cfg.safety)
        # phase 2: zero-delay delivery
        if self.cfg.forced_schedule is not None:
            sched = self.cfg.forced_schedule
            txs = tuple(sched[k - 1]) if k - 1 < len(sched) else ()
            for idx in txs:
                self.vehicles[idx].generated += 1
        else:
            txs = tuple(sorted(self.slot_queue.pop(k, ())))
        payloads = []
        for idx in txs:
            v = self.vehicles[idx]
            v.sent += 1
            v.queued = None
            payloads.append(Frame(idx, t_ns, v.ctrl.riskiness_flag,
                                  v.ctrl.delta))
        self._pose_payloads(payloads)
        for p in payloads:
            # snapshot swap only: the step accounting in phase 3 owns
            # every slot's area contribution
            column = np.arange(p.sender, n * n, n)
            aoi.swap_snapshot(pairs, column[column != p.sender * (n + 1)],
                              aoi.snapshot(p), t_s)
        # phase 3: post-delivery right-endpoint age samples
        slot_sample(pairs, cells, t_s, self.cfg.slot_s)
        if t_ns + self.slot_ns <= self.T_ns:
            self._push(t_ns + self.slot_ns, EV_SLOT)

    _on_extra_event = _on_slot   # the loop's handler for EV_SLOT
