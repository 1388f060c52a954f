"""Broadcast-interval controllers.

Each vehicle runs one controller that revisits its interval once per
measurement interval. Three policies:

* ``fixed_rate``: the 10 Hz reference, interval pinned to 100 ms.
* ``aoi_rate_update``: trend follower on the vehicle's average AoI. If the
  last action improved the metric, repeat it; if it degraded it, flip it;
  tie keeps the interval. A congestion override fires first, and after the
  action the interval is nudged a fraction toward the neighborhood mean so
  intervals do not drift apart without cause.
* ``taoi_rate_update``: same trend follower driven by the tracked-age
  metric, with structural short-cuts evaluated in order: congestion
  backs off, an unraised own flag freezes, an empty risky-neighbor set
  relaxes. Only when none of those apply does the metric comparison run.

Both adaptive policies take the congestion test as a flag that the caller
decides once with ``is_congested``: vehicle AoI above twice the mean
broadcast interval of the neighbors heard. Trend comparisons use a
tolerance of ``EPS_CMP`` so float noise does not masquerade as a trend.

The rules' constants are the run's: the step ``beta``, the interval bounds
``delta_min_s``/``delta_max_s`` and the pull ``spread_lambda`` are read
from the ``SimConfig`` each rule is given, and the self-TE threshold from
its ``safety`` section. ``ControllerState`` holds per-vehicle memory only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .engine import SimConfig

EPS_CMP = 1e-9   # s, metric comparison tolerance


class Action(enum.Enum):
    INCR = "incr"
    DECR = "decr"
    SAME = "same"

    @property
    def complement(self) -> "Action":
        if self is Action.INCR:
            return Action.DECR
        if self is Action.DECR:
            return Action.INCR
        return Action.SAME


@dataclass
class ControllerState:
    """Per-vehicle controller memory. ``delta`` starts at the config's
    ``delta_init_s``; every constant of the rules lives in the config.

    ``omega`` holds the last directional probe (INCR or DECR); the trend
    rule repeats or flips it, so it must always be one of the two values
    the complement is defined on. The fresh-memory conventions differ by
    metric. The age average always exists, and a node with no history
    treats its first measurement as a degradation (zero prior), which
    flips the opening INCR lean into a DECR probe: one definite opening
    move, honest comparisons from then on. The gated tracked-age value is
    episodic; there is no meaningful zero-age episode to compare the
    first one against, so its memory starts empty and the first
    comparison keeps the interval.
    """

    delta: float                  # s, current broadcast interval
    omega: Action = Action.INCR
    prev_taoi: Optional[float] = None
    prev_aoi: float = 0.0
    riskiness_flag: int = 1      # raised until the first self-assessment:
                                 # nobody can track a vehicle never heard from


def clamp_interval(delta: float, cfg: SimConfig) -> float:
    return min(max(delta, cfg.delta_min_s), cfg.delta_max_s)


def is_congested(aoi_v: float, delta_avg: float) -> bool:
    """The links age faster than the neighbors send: vehicle AoI above
    twice their mean broadcast interval. The boundary is not congested."""
    return aoi_v > 2.0 * delta_avg


def assess_self_risk(self_te: float, state: ControllerState,
                     cfg: SimConfig) -> int:
    """Raise the own riskiness flag when the vehicle's motion drifted at
    least the threshold from its constant-velocity prediction. The boundary
    counts as risky."""
    if self_te < 0:
        raise ValueError(f"negative self tracking error: {self_te}")
    state.riskiness_flag = 1 if self_te >= cfg.safety.te_threshold else 0
    return state.riskiness_flag


def _apply(state: ControllerState, cfg: SimConfig, action: Action) -> float:
    prev = state.delta
    if action is Action.INCR:
        nd = prev * cfg.beta
    elif action is Action.DECR:
        nd = prev / cfg.beta
    else:
        nd = prev
    state.delta = clamp_interval(nd, cfg)
    if action is not Action.SAME:
        # omega carries the last directional probe only; SAME has no
        # complement, so recording it would dead-end the trend rule.
        state.omega = action
    return state.delta


def _trend(state: ControllerState, current: float, previous) -> Action:
    if previous is None:
        return Action.SAME               # first episode, nothing to compare
    if current < previous - EPS_CMP:
        return state.omega               # improvement: repeat the last action
    if current > previous + EPS_CMP:
        return state.omega.complement    # degradation: flip it
    return Action.SAME


def fixed_rate(state: ControllerState) -> tuple[float, Action]:
    """10 Hz reference: interval pinned to 100 ms regardless of metrics."""
    state.delta = 0.1
    return state.delta, Action.SAME


def taoi_rate_update(state: ControllerState, cfg: SimConfig, taoi_v,
                     risky_neighbor_count: int, congested: bool
                     ) -> tuple[float, Action]:
    """One tracked-age control step. Branches in precedence order:

    1. congestion backs the rate off, terminally;
    2. an unraised own flag keeps the interval (the vehicle is easy to
       track, its age does not bother anyone's risk picture);
    3. no risky neighbors: relax toward faster broadcasting;
    4. otherwise follow the TAoI trend against the previous value.

    ``taoi_v`` may be None when branch 2 or 3 decides first; it is never
    read in that case. The previous-metric memory updates whenever a
    value is supplied.
    """
    if congested:
        action = Action.INCR
    elif state.riskiness_flag == 0:
        action = Action.SAME
    elif risky_neighbor_count == 0:
        action = Action.DECR
    else:
        action = _trend(state, taoi_v, state.prev_taoi)
    delta = _apply(state, cfg, action)
    if taoi_v is not None:
        state.prev_taoi = taoi_v
    return delta, action


def aoi_rate_update(state: ControllerState, cfg: SimConfig, aoi_v,
                    delta_avg, congested: bool) -> tuple[float, Action]:
    """One AoI-driven control step (the flag-blind baseline).

    With no neighbors there is nothing to measure: the interval and all
    memory stay untouched, and ``delta_avg`` is None with ``aoi_v``.
    Congestion backs off first; otherwise the AoI trend against
    ``state.prev_aoi`` decides. After the action the interval is pulled
    ``cfg.spread_lambda`` of the way toward the neighborhood mean interval
    ``delta_avg``, then clamped.
    """
    if aoi_v is None:
        return state.delta, Action.SAME
    if congested:
        action = Action.INCR
    else:
        action = _trend(state, aoi_v, state.prev_aoi)
    delta = _apply(state, cfg, action)
    state.delta = clamp_interval(
        delta + cfg.spread_lambda * (delta_avg - delta), cfg)
    state.prev_aoi = aoi_v
    return state.delta, action
