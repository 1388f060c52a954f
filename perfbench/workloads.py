"""The benchmark's workloads: what the simulator's cost depends on is the
vehicle density, the rate-control protocol and where ground truth comes
from (Krauss car following or a replayed trace). Each workload fixes
those three and a simulated duration; the workload seed is a benchmark
argument, and the simulator only ever sees the generated ``SimConfig``.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from taoi_sim.engine import SimConfig
from taoi_sim.mobility import (KraussParams, RoadConfig, initial_states,
                               krauss_step, write_trace)

# seeds the replay trace's own generators, apart from the simulator's
# streams (which SimConfig.seed derives)
TRACE_STREAM = 101


@dataclass(frozen=True)
class Workload:
    name: str
    vehicles: int
    protocol: str
    duration_s: float
    replay: bool = False

    def trace_path(self, seed: int) -> str:
        """Relative path of the replayed trace. It is echoed into
        report.json, so it must not depend on the checkout location."""
        return f".perfbench_work/traces/{self.name}_s{seed}.csv"

    def config(self, seed: int) -> SimConfig:
        return SimConfig(
            vehicle_count=self.vehicles, duration_s=self.duration_s,
            protocol=self.protocol, seed=seed,
            trace_path=self.trace_path(seed) if self.replay else None)

    def prepare(self, seed: int) -> None:
        """Create the inputs a run reads besides its config (the replay
        trace); untimed."""
        if self.replay:
            write_replay_trace(Path(self.trace_path(seed)), self.vehicles,
                               self.duration_s, seed)


WORKLOADS = {w.name: w for w in (
    Workload("light_n60_taoi", 60, "taoi", 20.0),
    Workload("dense_n150_fixed10hz", 150, "fixed10hz", 5.0),
    Workload("jam_n300_taoi", 300, "taoi", 2.0),
    Workload("replay_n100_aoi", 100, "aoi", 10.0, replay=True),
)}


def write_replay_trace(path: Path, n: int, duration_s: float, seed: int,
                       tick_s: float = 0.1) -> None:
    """Drive the default road with Krauss mobility from the seed and write
    the trajectory as a trace CSV covering [0, duration_s]."""
    road, krauss = RoadConfig(), KraussParams()
    ss = np.random.SeedSequence([seed, TRACE_STREAM])
    init_rng, step_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    states = initial_states(road, krauss, n, init_rng)
    rows = []
    ticks = round(duration_s / tick_s)
    for k in range(ticks + 1):
        t = k * tick_s
        rows.extend((t, s.id, s.x, s.y, s.speed, s.heading, s.lane)
                    for s in states)
        if k < ticks:
            states = krauss_step(states, krauss, road, tick_s, step_rng)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write_trace(tmp, rows)
    os.replace(tmp, path)
