"""Outside-in per-layer tracing of one simulation run.

A ``Tracer`` replaces, for the duration of a ``with`` block, the names
through which the simulator's layers call each other: the module-level
names that ``taoi_sim.engine`` imported from its neighbours, the ``aoi``
functions, ``cli.emit_reports`` and the ``Simulation`` event handlers and
per-tick sweep. Each replacement records one span (name, start, end,
parent) per call into flat in-memory arrays and, for a few boundaries,
work counters read from the call's arguments and result. Leaving the
block puts every original object back, so untraced runs execute no
wrapper. Nothing under ``src/`` knows about the tracer.

A span's self time is its duration minus the durations of its direct
child spans (``aoi.apply_reception`` calls ``aoi.advance``, the event
handlers call into every other layer). The wrapper's own bookkeeping
around a child call lands in the caller's self time; the benchmark
reports the total cost as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

from taoi_sim import aoi, cli, engine, mobility

ENGINE_LOOP = ("engine.run", "engine.events.tick", "engine.events.gen",
               "engine.events.tx_start", "engine.events.tx_end",
               "engine.events.measurement")
RATE_CONTROL = ("rate_control.fixed_rate", "rate_control.aoi_rate_update",
                "rate_control.taoi_rate_update",
                "rate_control.assess_self_risk")
MOBILITY = ("mobility.initial_states", "mobility.load_trace",
            "mobility.krauss_step", "mobility.state_at")


class Tracer:
    """Span recorder over the simulator's layer boundaries.

    Use as a context manager around exactly the code to trace; spans and
    counters accumulate across everything run inside the block.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patched: list = []   # (owner, attribute, original object)

    # ------------------------------------------------------ installation

    def _boundaries(self) -> list:
        """(owner, attribute, span name, after-call counter hook)."""
        sim = engine.Simulation
        return [
            (sim, "__init__", "engine.init", None),
            (sim, "run", "engine.run", None),
            (sim, "_on_tick", "engine.events.tick", None),
            (sim, "_on_generation", "engine.events.gen", None),
            (sim, "_on_tx_start", "engine.events.tx_start", None),
            (sim, "_on_tx_end", "engine.events.tx_end", None),
            (sim, "_on_measurement", "engine.events.measurement", None),
            (sim, "_sample_te_and_risk", "engine.te_risk_sweep",
             self._after_te_risk_sweep),
            (sim, "_check_gaps", "engine.gap_audit", None),
            (sim, "_refresh_arrays", "engine.refresh_arrays", None),
            (sim, "_finalize", "engine.finalize", None),
            (engine, "csma_access", "channel.csma_access",
             self._after_csma_access),
            (engine, "delivery_outcome", "channel.delivery_outcome",
             self._after_delivery_outcome),
            (engine, "pdr_record", "metrics.pdr_record",
             self._after_pdr_record),
            (engine, "self_tracking_error", "metrics.self_tracking_error",
             None),
            (engine, "initial_states", "mobility.initial_states", None),
            (engine, "load_trace", "mobility.load_trace", None),
            (engine, "krauss_step", "mobility.krauss_step", None),
            (mobility.TrajectoryTable, "state_at", "mobility.state_at", None),
            (engine, "fixed_rate", "rate_control.fixed_rate", None),
            (engine, "aoi_rate_update", "rate_control.aoi_rate_update", None),
            (engine, "taoi_rate_update", "rate_control.taoi_rate_update",
             None),
            (engine, "assess_self_risk", "rate_control.assess_self_risk",
             None),
            (aoi, "apply_reception", "aoi.apply_reception", None),
            (aoi, "advance", "aoi.advance", None),
            (aoi, "record_from_bsm", "aoi.record_from_bsm", None),
            (aoi, "reset_window", "aoi.reset_window", None),
            (cli, "emit_reports", "cli.emit_reports", self._after_emit),
        ]

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, after in self._boundaries():
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original, after))
                self._patched.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, after):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------- counter hooks

    def _add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_delivery_outcome(self, args, decoded) -> None:
        # delivery_outcome(tx, receivers, concurrent, rng, cfg) -> set
        self._add("channel.delivery_outcome.receivers", len(args[1]))
        self._add("channel.delivery_outcome.decoded", len(decoded))

    def _after_csma_access(self, args, start_s) -> None:
        # csma_access(sender, intended_start, timeline, rng, cfg): an idle
        # medium returns exactly intended_start + AIFS with no backoff draw
        intended, timeline, cfg = args[1], args[2], args[4]
        self._add("channel.csma_access.timeline_len", len(timeline))
        if start_s != intended + cfg.aifs_us * 1e-6:
            self._add("channel.csma_access.deferred", 1)

    def _after_pdr_record(self, args, _result) -> None:
        # pdr_record(sender, in_range_receivers, successes, counters, ...)
        self._add("metrics.pdr_record.opportunities", len(args[1]))

    def _after_te_risk_sweep(self, args, _result) -> None:
        # the sweep samples every record it does not evict, and adds none
        sim = args[0]
        self._add("engine.te_risk_sweep.pair_samples",
                  sum(len(v.records) for v in sim.vehicles))

    def _after_emit(self, _args, written) -> None:
        self._add("cli.emit_reports.bytes",
                  sum(os.path.getsize(p) for p in written))

    # ---------------------------------------------------------- results

    def span_arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.intc).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def boundary_stats(self) -> dict:
        """{span name: (calls, self seconds)} for every boundary called at
        least once; a boundary never called has no entry (it is absent,
        not free)."""
        a = self.span_arrays()
        n = len(a["end"])
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        child_time = np.bincount(a["parent"][child], weights=dur[child],
                                 minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def write_spans(self, path) -> int:
        """Write every span to a compressed .npz; returns the span count."""
        a = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)
        return len(a["end"])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, named
    ``<module>.<boundary>.<stat>``. Boundaries that were never called
    contribute no entry. Aggregates (``engine.self_s``, ``mobility.self_s``,
    ``rate_control.*``) cover whichever of their boundaries ran."""
    stats = tracer.boundary_stats()
    counters = tracer.counters
    out: dict = {}
    for name, (calls, self_s) in stats.items():
        if name.startswith("engine.events."):
            out[name] = (calls, "count")
        else:
            out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")

    for prefix, members in (("engine", ENGINE_LOOP),
                            ("mobility", MOBILITY),
                            ("rate_control", RATE_CONTROL)):
        ran = [stats[m] for m in members if m in stats]
        if ran:
            out[prefix + ".calls"] = (sum(c for c, _ in ran), "count")
            out[prefix + ".self_s"] = (sum(s for _, s in ran), "s")

    if "channel.delivery_outcome" in stats:
        rx = counters.get("channel.delivery_outcome.receivers", 0)
        ok = counters.get("channel.delivery_outcome.decoded", 0)
        out["channel.delivery_outcome.receivers"] = (rx, "count")
        out["channel.delivery_outcome.decoded"] = (ok, "count")
        if rx:
            out["channel.delivery_outcome.decode_ratio"] = (ok / rx, "ratio")
    if "channel.csma_access" in stats:
        calls = stats["channel.csma_access"][0]
        out["channel.csma_access.deferred"] = (
            counters.get("channel.csma_access.deferred", 0), "count")
        out["channel.csma_access.timeline_len_mean"] = (
            counters.get("channel.csma_access.timeline_len", 0) / calls,
            "count")
    for key in ("metrics.pdr_record.opportunities",
                "engine.te_risk_sweep.pair_samples"):
        if key.rsplit(".", 1)[0] in stats:
            out[key] = (counters.get(key, 0), "count")
    if "cli.emit_reports" in stats:
        out["cli.emit_reports.bytes"] = (
            counters.get("cli.emit_reports.bytes", 0), "bytes")
    return out


def cross_check(metrics: dict, report: dict, cfg) -> list:
    """Traced counts that must equal what the report itself says; a
    wrapper that misses calls fails here instead of under-reporting its
    layer. Returns a list of mismatch descriptions."""
    problems = []

    def value(name):
        return metrics[name][0] if name in metrics else None

    sent = report["counts"]["sent"]
    got = value("channel.delivery_outcome.calls")
    if got != sent:
        problems.append(f"channel.delivery_outcome.calls={got} but the "
                        f"report counts {sent} sent frames")
    if cfg.trace_path is None:
        ticks = round(cfg.duration_s / cfg.mobility_tick_s)
        got = value("mobility.krauss_step.calls")
        if got != ticks:
            problems.append(f"mobility.krauss_step.calls={got} but the run "
                            f"has {ticks} mobility ticks")
    mi_total = sum(v["mi_count"] for v in report["per_vehicle"])
    events = value("engine.events.measurement")
    if events is None or events * cfg.vehicle_count != mi_total:
        problems.append(f"engine.events.measurement={events} x "
                        f"{cfg.vehicle_count} vehicles != {mi_total} "
                        f"measurement intervals in the report")
    return problems
