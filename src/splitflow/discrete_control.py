"""Snap continuous shunt/tap solutions to their discrete steps and re-solve.

All discrete devices snap simultaneously to the nearest step (ties break
toward the smaller step), are fixed as constants in a reduced system, and
the case is re-solved warm-started from the continuous solution. If that
diverges, the device values are swept from their continuous values to the
snapped ones by continuation. Snapped infeasibility is detected and
reported, not repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .case_model import NetworkCase
from .circuit_stamps import ControlMode, StateVector, build_index
from .errors import ContinuationError, SnappedInfeasibleError
from .homotopy_driver import _continuation, endpoint_report
from .nr_solver import SolveReport, SolverOptions, nr_solve


def build_steps(lo: float, hi: float, step: float) -> list[float]:
    """The ordered discrete set {lo, lo+step, ..., <= hi}; never empty."""
    if step <= 0.0:
        raise ValueError("step must be > 0")
    n = int(np.floor((hi - lo) / step + 1e-9))
    return [lo + k * step for k in range(n + 1)]


def snap_to_steps(value: float, steps) -> float:
    """The element of steps nearest to value; ties go to the smaller step."""
    if not steps:
        raise ValueError("steps must be non-empty")
    return min(steps, key=lambda s: (abs(value - s), s))


@dataclass
class SnapPlan:
    """Snapped values per discrete device, plus their continuous origins."""

    shunt_b: dict = field(default_factory=dict)  # shunt idx -> susceptance
    tap_ratio: dict = field(default_factory=dict)  # branch idx -> ratio
    continuous_shunt_b: dict = field(default_factory=dict)
    continuous_tap: dict = field(default_factory=dict)


def plan_snap(case: NetworkCase, solution: StateVector) -> SnapPlan:
    """Read the continuous solution and snap every steppable device.

    A switched shunt's continuous equivalent susceptance is its reactive
    output over the squared bus voltage. Taps without a step size stay
    continuous.
    """
    plan = SnapPlan()
    idx = solution.index
    for j, sh in enumerate(case.shunts):
        col = idx.q_col.get(("shunt", j))
        if col is None:
            continue
        vm = solution.v_mag(idx.bus_pos[sh.bus])
        b_cont = float(solution.x[col]) / (vm * vm)
        steps = build_steps(sh.b_min, sh.b_max, sh.step_size)
        plan.continuous_shunt_b[j] = b_cont
        plan.shunt_b[j] = snap_to_steps(b_cont, steps)
    for bi, col in idx.tap_col.items():
        tap = case.branches[bi].tap
        if tap.step_size is None:
            continue
        steps = build_steps(tap.tr_min, tap.tr_max, tap.step_size)
        plan.continuous_tap[bi] = float(solution.x[col])
        plan.tap_ratio[bi] = snap_to_steps(float(solution.x[col]), steps)
    return plan


def resolve_after_snap(
    case: NetworkCase,
    solution: StateVector,
    opts: SolverOptions,
    base: ControlMode | None = None,
) -> tuple[StateVector, SolveReport, SnapPlan]:
    """Fix discrete devices at snapped values and re-solve warm.

    Falls back to sweeping device parameters from continuous to snapped
    values when the direct warm re-solve fails; raises
    SnappedInfeasibleError if even the sweep cannot converge. The report
    is the direct re-solve's, or the sweep's total, which starts with the
    failed direct re-solve.
    """
    base = base if base is not None else ControlMode()
    plan = plan_snap(case, solution)
    snapped_ctl = replace(
        base,
        fixed_shunt_b=dict(plan.shunt_b),
        fixed_tap_ratio=dict(plan.tap_ratio),
    )
    warm = solution.remap(build_index(case, snapped_ctl))
    state, direct = nr_solve(case, warm, snapped_ctl, opts, phase="snap")
    if direct.converged:
        return state, direct, plan

    # continuation: t = 1 holds the continuous values, t = 0 the snapped ones
    def make(t: float) -> ControlMode:
        shunt_b = {
            j: plan.shunt_b[j] + t * (plan.continuous_shunt_b[j] - plan.shunt_b[j])
            for j in plan.shunt_b
        }
        taps = {
            bi: plan.tap_ratio[bi] + t * (plan.continuous_tap[bi] - plan.tap_ratio[bi])
            for bi in plan.tap_ratio
        }
        return replace(base, fixed_shunt_b=shunt_b, fixed_tap_ratio=taps)

    report = SolveReport(diagnostics=["snap continuation used"])
    report.add(direct)
    try:
        state = _continuation(case, warm, make, opts, "snap-sweep", report)
    except ContinuationError as exc:
        raise SnappedInfeasibleError(
            f"snapped case did not converge ({exc}); feasibility repair of "
            f"infeasible snapped states is out of scope"
        ) from exc
    if not endpoint_report(case, state, snapped_ctl, opts, report).converged:
        raise SnappedInfeasibleError(
            "snapped case did not converge after continuation; feasibility "
            "repair of infeasible snapped states is out of scope"
        )
    return state, report, plan
