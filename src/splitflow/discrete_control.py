"""Snap continuous shunt/tap solutions to their discrete steps and re-solve.

All discrete devices snap simultaneously to the nearest step (ties break
toward the smaller step) and are held there by their control rows, on
the continuous solution's own index map: a snapped tap's row holds its
ratio column (FIXED_Q), and a snapped shunt becomes the admittance jb,
its row holding its q column at b (ControlMode.fixed_shunt_b). The case
is re-solved warm-started from the continuous solution. If that
diverges, the device values are swept from their continuous values to the
snapped ones by continuation. Snapped infeasibility is detected and
reported, not repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .case_model import NetworkCase
from .circuit_stamps import FIXED_Q, ControlMode, StateVector
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
        vm = solution.v_mag(idx.bus_pos[sh.bus])
        b_cont = float(solution.x[idx.q_col[("shunt", j)]]) / (vm * vm)
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
    """Hold discrete devices at snapped values and re-solve warm, on the
    solution's own index map.

    The direct re-solve starts from the solution with the snapped values
    written into the devices' columns. When it fails, the device values
    are swept from continuous to snapped, starting from the solution with
    the continuous values written in; raises SnappedInfeasibleError if
    even the sweep cannot converge. The report is the direct re-solve's,
    or the sweep's total, which starts with the failed direct re-solve.
    """
    base = base if base is not None else ControlMode()
    plan = plan_snap(case, solution)
    idx = solution.index

    def held(shunt_b: dict, tap_ratio: dict) -> ControlMode:
        taps = {("tap", bi): tau for bi, tau in tap_ratio.items()}
        modes = base.device_modes | dict.fromkeys(taps, FIXED_Q)
        return replace(base, fixed_shunt_b=shunt_b, device_modes=modes,
                       fixed_q=base.fixed_q | taps)

    def written(shunt_b: dict, tap_ratio: dict) -> StateVector:
        state = solution.copy()
        for j, b in shunt_b.items():
            state.x[idx.q_col[("shunt", j)]] = b
        for bi, tau in tap_ratio.items():
            state.x[idx.tap_col[bi]] = tau
        return state

    snapped_ctl = held(plan.shunt_b, plan.tap_ratio)
    warm = written(plan.shunt_b, plan.tap_ratio)
    state, direct = nr_solve(warm, snapped_ctl, opts, phase="snap")
    if direct.converged:
        return state, direct, plan

    # continuation: t = 1 holds the continuous values, t = 0 the snapped ones
    def make(t: float) -> ControlMode:
        return held(
            {j: b + t * (plan.continuous_shunt_b[j] - b)
             for j, b in plan.shunt_b.items()},
            {bi: tau + t * (plan.continuous_tap[bi] - tau)
             for bi, tau in plan.tap_ratio.items()})

    report = SolveReport(diagnostics=["snap continuation used"])
    report.add(direct)
    start = written(plan.continuous_shunt_b, plan.continuous_tap)
    try:
        state = _continuation(start, make, opts, "snap-sweep", report)
    except ContinuationError as exc:
        raise SnappedInfeasibleError(
            f"snapped case did not converge ({exc}); feasibility repair of "
            f"infeasible snapped states is out of scope"
        ) from exc
    if not endpoint_report(state, snapped_ctl, opts, report).converged:
        raise SnappedInfeasibleError(
            "snapped case did not converge after continuation; feasibility "
            "repair of infeasible snapped states is out of scope"
        )
    return state, report, plan
