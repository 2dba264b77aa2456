"""Classical discontinuous comparison method.

Generators hold their setpoint through a hard voltage-magnitude row until
the outer loop finds their reactive power beyond a limit, then they are
recast as fixed-Q devices at that limit. One device switches per outer
iteration, processed in a configurable size order; this is exactly the
regime in which switching order changes the converged solution and
limit-straddling devices oscillate between models. A device that toggles
too often is permanently fixed as PQ.

Switched shunts, controlled taps, and remote groups keep their continuous
models here; the hard switching applies to locally-controlling
generators, which is where the pathology lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .case_model import NetworkCase
from .circuit_stamps import (
    FIXED_Q,
    FIXED_V,
    ControlMode,
    StateVector,
    flat_start,
)
from .nr_solver import SolveReport, SolverOptions, try_solve

SMALLEST_FIRST = "smallest-first"
LARGEST_FIRST = "largest-first"

# limit-violation slop for switching decisions, per-unit reactive power
SWITCH_TOL = 1e-9

STABLE = "stable"
UNSTABLE = "unstable"

# a generator this close to a reactive limit sits at it (classify_stability)
AT_LIMIT_TOL = 1e-6

# a generator switched this many times is locked as PQ for good. Every
# generator starts FIXED_V and its switches alternate pv->pq, pq->pv, so
# while this is odd the locking switch is a pv->pq one and leaves it
# FIXED_Q at the limit it crossed
MAX_SWITCHES_PER_GEN = 5
MAX_OUTER_ITERATIONS = 50


@dataclass
class SwitchEvent:
    outer_iter: int
    gen_index: int
    direction: str  # "pv->pq" or "pq->pv"
    limit: float | None  # Q fixed at this value for pv->pq


@dataclass
class SwitchTrace:
    events: list = field(default_factory=list)
    fixed_as_pq: set = field(default_factory=set)
    toggles: dict = field(default_factory=dict)

    def total_switches(self) -> int:
        return len(self.events)


def _gen_size(gen) -> float:
    # "size" for ordering purposes: reactive capability range
    return gen.q_max - gen.q_min


def solve_outer_loop(
    case: NetworkCase,
    opts: SolverOptions,
    order: str = SMALLEST_FIRST,
    base: ControlMode | None = None,
) -> tuple[StateVector, SolveReport, SwitchTrace]:
    """Inner NR with hard PV/PQ generator models plus the switching loop,
    switching in size order `order` (SMALLEST_FIRST or LARGEST_FIRST).

    Returns the final state, the total of the inner solves' reports
    (converged only if the loop settled; a singular inner system ends it
    as a diverged solve), and the switch trace.
    """
    if order not in (SMALLEST_FIRST, LARGEST_FIRST):
        raise ValueError(f"unknown switch order {order!r}")
    base = base if base is not None else ControlMode()

    state = flat_start(case, base)
    local = list(state.index.local_gen_idx)
    modes = {("gen", i): FIXED_V for i in local}
    fixed_q: dict = {}

    strace = SwitchTrace(toggles={i: 0 for i in local})
    total = SolveReport()
    status = "outer-cap-reached"

    for outer in range(1, MAX_OUTER_ITERATIONS + 1):
        ctl = replace(base, device_modes=dict(modes), fixed_q=dict(fixed_q))
        state, report = try_solve(state, ctl, opts, "outer-loop", outer)
        if report.iterations == 0:  # a singular system or point
            report.diagnostics = [f"outer iteration {outer}: "
                                  f"{report.diagnostics[0]}"]
        total.add(report)
        if not report.converged:
            status = "inner-diverged"
            break

        candidates = _switch_candidates(case, state, modes, fixed_q, strace,
                                        local)
        if not candidates:
            status = "settled"
            break

        reverse = order == LARGEST_FIRST
        candidates.sort(
            key=lambda c: (_gen_size(case.generators[c[0]]), c[0]),
            reverse=reverse,
        )
        gen_i, direction, limit = candidates[0]
        key = ("gen", gen_i)
        strace.toggles[gen_i] += 1
        if direction == "pv->pq":
            modes[key] = FIXED_Q
            fixed_q[key] = limit
        else:
            modes[key] = FIXED_V
            fixed_q.pop(key, None)
        strace.events.append(SwitchEvent(outer, gen_i, direction, limit))
        last = total.trace[-1]  # of the converged inner solve
        if direction == "pv->pq":
            last.pv_to_pq += 1
        else:
            last.pq_to_pv += 1
        if strace.toggles[gen_i] >= MAX_SWITCHES_PER_GEN:
            # oscillation suppression: lock the generator as PQ for good
            strace.fixed_as_pq.add(gen_i)

    total.converged = status == "settled"  # after a converged inner solve
    total.outer_iterations = outer
    total.diagnostics.insert(0, f"outer loop status: {status}")
    return state, total, strace


def _switch_candidates(case, state, modes, fixed_q, strace, local):
    """(gen_index, direction, limit) for every switch the rules allow."""
    out = []
    for i in local:
        if i in strace.fixed_as_pq:
            continue
        g = case.generators[i]
        key = ("gen", i)
        col = state.index.q_col[key]
        pos = state.index.bus_pos[g.bus]
        if modes[key] == FIXED_V:
            q = state.x[col]
            if q > g.q_max + SWITCH_TOL:
                out.append((i, "pv->pq", g.q_max))
            elif q < g.q_min - SWITCH_TOL:
                out.append((i, "pv->pq", g.q_min))
        else:
            vm = state.v_mag(pos)
            held = fixed_q[key]
            # recover when the voltage crosses back past the setpoint in
            # the direction the limited device was pushing it
            if held == g.q_max and vm > g.v_set + SWITCH_TOL:
                out.append((i, "pq->pv", None))
            elif held == g.q_min and vm < g.v_set - SWITCH_TOL:
                out.append((i, "pq->pv", None))
    return out


def classify_stability(case: NetworkCase, state: StateVector) -> dict:
    """Per-generator stable/unstable labels.

    A generator is unstable when it sits at its minimum reactive output
    with the bus voltage below setpoint, or at its maximum with the
    voltage above setpoint; anywhere strictly inside its limits is stable.
    """
    out = {}
    for key, col in state.index.q_col.items():
        kind, i = key
        if kind != "gen":
            continue
        g = case.generators[i]
        q = float(state.x[col])
        # remote controllers are judged at the bus they regulate
        ref_bus = g.remote_bus if g.remote_bus is not None else g.bus
        vm = state.v_mag(state.index.bus_pos[ref_bus])
        unstable = (
            (abs(q - g.q_min) <= AT_LIMIT_TOL and vm < g.v_set)
            or (abs(q - g.q_max) <= AT_LIMIT_TOL and vm > g.v_set)
        )
        out[i] = UNSTABLE if unstable else STABLE
    return out
