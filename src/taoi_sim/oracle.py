"""Brute-force slotted-schedule reference for tiny broadcast problems.

Replays a per-slot transmitter assignment against closed-form polynomial
motions using Fraction arithmetic, and exhaustively enumerates every
capacity-feasible assignment to find the optimum of a chosen objective.
Everything here is exact: slot instants are integers times a rational slot
length, positions are polynomial evaluations, and the resulting tables can
be compared with ``==`` rather than tolerances (as long as motions vary
along a single axis, where the Euclidean norm stays rational).

Slot semantics (the discrete abstraction the tables are built on):

* every ordered pair starts at t0 with a perfectly fresh position snapshot
  carrying zero velocity, so all ages are 0 at the origin;
* at each slot boundary the tracking error is sampled first, against the
  snapshot held before this slot's delivery;
* the slot's transmitters then deliver to everyone at zero delay;
* the age is sampled after delivery and accumulates as a right-endpoint
  step sum (sample times slot length).

Riskiness in the replay is omniscient: a vehicle counts as risky in a slot
when its true motion drifted at least the threshold from its own constant
velocity prediction over the preceding slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

OBJECTIVES = ("system_aoi", "system_taoi", "sum_te")

MAX_VEHICLES = 3
MAX_SLOTS = 12
MAX_SEARCH = 5_000_000  # assignments; combinatorial blowup guard


def _fr(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**9)
    return Fraction(value)


@dataclass(frozen=True)
class Motion:
    """Per-axis polynomial position: sum(coeffs[k] * t**k)."""

    x_coeffs: tuple = (0,)
    y_coeffs: tuple = (0,)

    def position(self, t: Fraction) -> tuple[Fraction, Fraction]:
        return (_poly(self.x_coeffs, t), _poly(self.y_coeffs, t))

    def velocity(self, t: Fraction) -> tuple[Fraction, Fraction]:
        return (_poly(_deriv(self.x_coeffs), t), _poly(_deriv(self.y_coeffs), t))


def _poly(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + _fr(c)
    return acc


def _deriv(coeffs) -> tuple:
    return tuple(_fr(c) * k for k, c in enumerate(coeffs))[1:] or (Fraction(0),)


def _distance(a, b):
    """Euclidean distance, exact when the points differ along one axis
    only; otherwise falls back to a float."""
    dx, dy = a[0] - b[0], a[1] - b[1]
    if dx == 0:
        return abs(dy)
    if dy == 0:
        return abs(dx)
    return float((dx * dx + dy * dy)) ** 0.5


@dataclass(frozen=True)
class ScheduleProblem:
    """A slotted-schedule problem. ``capacity``, ``slot_length`` and
    ``te_threshold`` mirror the slotted mode's ``slot_capacity``,
    ``slot_s`` and ``SafetyParams.te_threshold``; nothing else is
    settable, and every capacity-feasible assignment is a candidate."""

    motions: tuple
    slots: int
    capacity: int = 1
    objective: str = "system_aoi"
    te_threshold: Fraction = Fraction(1, 2)
    slot_length: Fraction = Fraction(1)

    def __post_init__(self):
        if not 1 <= len(self.motions) <= MAX_VEHICLES:
            raise ValueError(
                f"enumeration bound: at most {MAX_VEHICLES} vehicles, "
                f"got {len(self.motions)}")
        if not 1 <= self.slots <= MAX_SLOTS:
            raise ValueError(
                f"enumeration bound: at most {MAX_SLOTS} slots, got {self.slots}")
        if self.capacity < 1:
            raise ValueError("slot capacity must be at least 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.slot_length <= 0:
            raise ValueError("slot length must be positive")


@dataclass(frozen=True)
class ReplayTables:
    """Per-slot rows per ordered (sender, receiver) pair plus exact
    averages. Row keys: aoi, taoi, te, truth, estimate."""

    pairs: dict
    pair_averages: dict
    risky: dict            # vehicle -> per-slot flags (slot 1..K)
    system_aoi: Fraction
    system_taoi: Fraction
    sum_te: Fraction

    def objective_value(self, objective: str):
        if objective == "system_aoi":
            return self.system_aoi
        if objective == "system_taoi":
            return self.system_taoi
        if objective == "sum_te":
            return self.sum_te
        raise ValueError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class ScheduleSolution:
    assignment: tuple
    objective: str
    value: Fraction
    tables: ReplayTables


def normalize_assignment(problem: ScheduleProblem, assignment) -> tuple:
    """Canonical form: one sorted tuple of transmitter indices per slot,
    from a sequence of id sequences. Rejects capacity violations, unknown
    vehicles and duplicate transmitters in one slot."""
    n = len(problem.motions)
    if len(assignment) != problem.slots:
        raise ValueError(
            f"assignment covers {len(assignment)} slots, problem has {problem.slots}")
    out = []
    for k, entry in enumerate(assignment):
        txs = tuple(sorted(entry))
        if len(set(txs)) != len(txs):
            raise ValueError(f"slot {k + 1}: duplicate transmitter")
        if len(txs) > problem.capacity:
            raise ValueError(
                f"slot {k + 1}: {len(txs)} transmitters exceed capacity "
                f"{problem.capacity}")
        for v in txs:
            if not 0 <= v < n:
                raise ValueError(f"slot {k + 1}: unknown vehicle {v}")
        out.append(txs)
    return tuple(out)


def _risky_flags(problem: ScheduleProblem) -> dict:
    """Omniscient per-slot riskiness: drift of the true motion from its own
    one-slot constant-velocity prediction, compared to the threshold
    (boundary inclusive). Index 0 is the bootstrap flag at t0."""
    th = _fr(problem.te_threshold)
    dt = problem.slot_length
    flags = {}
    for v, mot in enumerate(problem.motions):
        row = [1 if th <= 0 else 0]
        for k in range(1, problem.slots + 1):
            t_prev = (k - 1) * dt
            p_prev = mot.position(t_prev)
            vel = mot.velocity(t_prev)
            pred = (p_prev[0] + vel[0] * dt, p_prev[1] + vel[1] * dt)
            drift = _distance(mot.position(k * dt), pred)
            row.append(1 if drift >= th else 0)
        flags[v] = row
    return flags


def replay_schedule(problem: ScheduleProblem, assignment) -> ReplayTables:
    """Replay one assignment exactly. See the module docstring for the
    slot phase order."""
    sched = normalize_assignment(problem, assignment)
    n = len(problem.motions)
    dt = problem.slot_length
    flags = _risky_flags(problem)

    # shared per-sender snapshot: broadcast reaches everyone at once
    last_pos = [problem.motions[v].position(Fraction(0)) for v in range(n)]
    last_vel = [(Fraction(0), Fraction(0))] * n
    last_t = [Fraction(0)] * n

    pairs = {(s, r): {"aoi": [], "taoi": [], "te": [], "truth": [], "estimate": []}
             for s in range(n) for r in range(n) if s != r}

    for k in range(1, problem.slots + 1):
        t = k * dt
        # phase 1: tracking error against the pre-delivery snapshot
        for s in range(n):
            truth = problem.motions[s].position(t)
            gap = t - last_t[s]
            est = (last_pos[s][0] + last_vel[s][0] * gap,
                   last_pos[s][1] + last_vel[s][1] * gap)
            te = _distance(truth, est)
            for r in range(n):
                if r == s:
                    continue
                row = pairs[(s, r)]
                row["te"].append(te)
                row["truth"].append(truth)
                row["estimate"].append(est)
        # phase 2: zero-delay delivery
        for s in sched[k - 1]:
            last_pos[s] = problem.motions[s].position(t)
            last_vel[s] = problem.motions[s].velocity(t)
            last_t[s] = t
        # phase 3: post-delivery age step samples
        for s in range(n):
            age = t - last_t[s]
            gated = age if flags[s][k] else Fraction(0)
            for r in range(n):
                if r == s:
                    continue
                pairs[(s, r)]["aoi"].append(age)
                pairs[(s, r)]["taoi"].append(gated)

    averages = {}
    for key, row in pairs.items():
        averages[key] = {
            "aoi": sum(row["aoi"], Fraction(0)) / problem.slots,
            "taoi": sum(row["taoi"], Fraction(0)) / problem.slots,
            "te": sum(row["te"], Fraction(0)) / problem.slots,
        }
    if n >= 2:
        denom = n * (n - 1)
        sys_aoi = sum((a["aoi"] for a in averages.values()), Fraction(0)) / denom
        sys_taoi = sum((a["taoi"] for a in averages.values()), Fraction(0)) / denom
    else:
        sys_aoi = sys_taoi = Fraction(0)
    sum_te = sum((a["te"] for a in averages.values()), Fraction(0))
    return ReplayTables(pairs, averages, flags, sys_aoi, sys_taoi, sum_te)


def _slot_choices(n: int, capacity: int) -> list:
    out = [()]
    for size in range(1, min(capacity, n) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


def enumerate_optimal(problem: ScheduleProblem) -> ScheduleSolution:
    """Exhaustive minimum of the problem's objective over every assignment
    within the slot capacity. Ties resolve to the lexicographically
    smallest assignment under the slot-choice order (idle < vehicle 0 <
    vehicle 1 < ...), because iteration is in that order and only strict
    improvements replace the incumbent."""
    n = len(problem.motions)
    if problem.objective in ("system_aoi", "system_taoi") and n < 2:
        raise ValueError(f"{problem.objective} needs at least 2 vehicles")
    choices = _slot_choices(n, problem.capacity)
    total = len(choices) ** problem.slots
    if total > MAX_SEARCH:
        raise ValueError(
            f"search space {total} exceeds the enumeration guard {MAX_SEARCH}")
    best = None
    for assignment in itertools.product(choices, repeat=problem.slots):
        tables = replay_schedule(problem, assignment)
        value = tables.objective_value(problem.objective)
        if best is None or value < best[0]:
            best = (value, assignment, tables)
    return ScheduleSolution(best[1], problem.objective, best[0], best[2])


def toy_problem(objective: str = "system_aoi", slots: int = 6,
                capacity: int = 1) -> ScheduleProblem:
    """The two-vehicle analytical example: u moves at constant speed 2
    along +y, v accelerates as y = t^2. One transmission per unit slot."""
    u = Motion(y_coeffs=(0, 2))
    v = Motion(y_coeffs=(0, 0, 1))
    return ScheduleProblem(motions=(u, v), slots=slots, capacity=capacity,
                           objective=objective)


# frozen expectations for the two reference schedules on toy_problem(slots=6)
ALTERNATING_SCHEDULE = ((0,), (1,), (0,), (1,), (0,), (1,))
SINGLE_SHOT_SCHEDULE = ((0,), (1,), (1,), (1,), (1,), (1,))

TABLE_ALTERNATING = {
    "aoi_uv": (0, 1, 0, 1, 0, 1),
    "y_u": (2, 4, 6, 8, 10, 12),
    "yhat_uv": (0, 4, 6, 8, 10, 12),
    "te_uv": (2, 0, 0, 0, 0, 0),
    "aoi_vu": (1, 0, 1, 0, 1, 0),
    "y_v": (1, 4, 9, 16, 25, 36),
    "yhat_vu": (0, 0, 8, 12, 24, 32),
    "te_vu": (1, 4, 1, 4, 1, 4),
    "avg_aoi_uv": Fraction(1, 2),
    "avg_aoi_vu": Fraction(1, 2),
    "avg_te_uv": Fraction(1, 3),
    "avg_te_vu": Fraction(5, 2),
    "system_aoi": Fraction(1, 2),
}

TABLE_SINGLE_SHOT = {
    "aoi_uv": (0, 1, 2, 3, 4, 5),
    "y_u": (2, 4, 6, 8, 10, 12),
    "yhat_uv": (0, 4, 6, 8, 10, 12),
    "te_uv": (2, 0, 0, 0, 0, 0),
    "aoi_vu": (1, 0, 0, 0, 0, 0),
    "y_v": (1, 4, 9, 16, 25, 36),
    "yhat_vu": (0, 0, 8, 15, 24, 35),
    "te_vu": (1, 4, 1, 1, 1, 1),
    "avg_aoi_uv": Fraction(15, 6),
    "avg_aoi_vu": Fraction(1, 6),
    "avg_te_uv": Fraction(1, 3),
    "avg_te_vu": Fraction(3, 2),
    "system_aoi": Fraction(4, 3),
}


def reference_rows(tables: ReplayTables, sender: int, receiver: int) -> dict:
    """Flatten one pair's replay rows into the reference-table layout
    (ages, y positions, y estimates, tracking errors)."""
    row = tables.pairs[(sender, receiver)]
    return {
        "aoi": tuple(row["aoi"]),
        "y": tuple(p[1] for p in row["truth"]),
        "yhat": tuple(p[1] for p in row["estimate"]),
        "te": tuple(row["te"]),
    }
