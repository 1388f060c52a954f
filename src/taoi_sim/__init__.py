"""Discrete-event V2V broadcast simulator with age-aware rate control.

Vehicles on a closed multi-lane loop broadcast basic safety messages over
a shared 802.11p-style channel. Three interval policies are provided: a
fixed 10 Hz reference, an Age-of-Information feedback controller, and a
tracked-age (TAoI) controller that spends channel time only on vehicles
whose motion is actually hard to extrapolate. An exact-arithmetic oracle
replays tiny slotted scenarios and brute-forces optimal schedules for
cross-checking the event loop.
"""

from .aoi import PairTable, instantaneous_aoi, vehicle_aoi, vehicle_taoi
from .channel import (ChannelConfig, Frame, csma_access, delivery_outcome,
                      link_budgets, overlapping, tx_duration)
from .engine import RunReport, SimConfig, Simulation, run_simulation
from .errors import ConfigError, SimError, TraceError, UndefinedValueError
from .metrics import (Bsm, PdrCounters, SafetyParams, pdr_record,
                      sample_te_and_risk, self_tracking_error)
from .mobility import (KraussParams, RoadConfig, TrajectoryTable,
                       VehicleState, krauss_step, load_trace)
from .oracle import (Motion, ScheduleProblem, ScheduleSolution,
                     enumerate_optimal, replay_schedule, toy_problem)
from .rate_control import (Action, ControllerState, aoi_rate_update,
                           assess_self_risk, fixed_rate, taoi_rate_update)

__version__ = "0.1.0"

__all__ = [
    "Action", "Bsm", "ChannelConfig", "ConfigError", "ControllerState",
    "Frame", "KraussParams", "Motion", "PairTable", "PdrCounters",
    "RoadConfig", "RunReport", "SafetyParams", "ScheduleProblem",
    "ScheduleSolution", "SimConfig", "SimError", "Simulation", "TraceError",
    "TrajectoryTable", "UndefinedValueError", "VehicleState",
    "aoi_rate_update", "assess_self_risk", "csma_access", "delivery_outcome",
    "enumerate_optimal", "fixed_rate", "instantaneous_aoi", "krauss_step",
    "link_budgets", "load_trace", "overlapping", "pdr_record",
    "replay_schedule", "run_simulation", "sample_te_and_risk",
    "self_tracking_error", "taoi_rate_update", "toy_problem", "tx_duration",
    "vehicle_aoi", "vehicle_taoi",
]
