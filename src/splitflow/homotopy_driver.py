"""One continuation driver and the relaxation stages it runs.

A method in STAGES is a tuple of stages (phase label, stage function,
soft?), run in order, each warm-started where the one before ended. A
stage function maps (case, opts, target control, warm state or None,
phase label) to a path t -> ControlMode, t = 1 fully relaxed and t = 0
the target (None when nothing needs relaxing), and the state to start
from; a soft stage targets the reduced steepness INITIAL_STEEPNESS. Only
the stages and `run_homotopy` take the case, for a flat start; past it
the state's index map holds the case. `_continuation` follows a path
from t = 1 to 0 with warm starts. Each step first tries DECREMENT of the
remaining distance, or, if shorter, the last accepted step's length:
over BACKTRACK when that step held at its first trial, unchanged when it
held only once shortened (step adaptation; Allgower & Georg,
Introduction to Numerical Continuation Methods, ch. 6). It tries t = 0
instead if that would leave SNAP_FRACTION or less. Its trials start on a
predicted path (`_slope`): a secant through the accepted (x, t) and the
step's first trial, from one residual pass there and the LU of the
accepted sub-solve's last J, which `nr_solve` hands back in its report
(`SolveReport.factors`), so the predictor factors nothing. The LU is
freed once the slope is known; no total holds one. A failed step shrinks
by BACKTRACK and never snaps to 0, so when t = 0 fails from just above
SNAP_FRACTION, a t below it is tried next. The path is stuck once a step
would fall below the floor t (1 - DECREMENT) BACKTRACK**MAX_BACKTRACKS.
Every sub-solve on the path gets the full `opts.max_iter`, and ends as
failed once it stalls (`nr_solve`'s subsolve: at its first NR iteration
that lowers no max|F|; `SolveReport.stalled`). A corrector that has
stopped contracting rarely recovers, so this rule, not an iteration cap,
backs the step off. A sub-solve at t > 0 is a waypoint, which only has
to start the next step: it is accepted once max|F| < CORRECTOR_TOL, with
no step test (an inexact corrector; Deuflhard, 2004, ch. 5). Each
stage's t = 0 sub-solve meets the full test. If no stage has a path, one
NR solve at the target stands in, not as a sub-solve; with no state from
a stage (`none`) it starts from the DC angles (`circuit_stamps.dc_start`),
which took the 60 case118 generator outages with distributed slack from
565 NR iterations to 298 and oscillation4 to the solution the
continuations reach. Every stage, init solve and the outer loop keep the
flat start: DC angles in every start raised 80 census runs, mostly `tx`
and `composite`, whose shorted network wants equal angles. The result is
always re-verified against the unrelaxed equations. The report is one
SolveReport that every sub-solve, accepted or not, and a stand-in solve
is added into (`SolveReport.add`); init solves are not.

  smoothing  - sigmoid steepness relaxed to INITIAL_STEEPNESS, tightened.
  q-limit    - reactive limits scaled out to cover the unbounded solve
               (ratio per device, additive when the violated limit is 0),
               then shrunk back to 1.
  p-limit    - slack-surplus participation starts purely linear; limits
               reappear as the relaxation is removed.
  tx         - branch series admittances scaled by (1 + t*1e3), starting
               from a virtually shorted network.
  composite  - tx and q-limit soft, then smoothing; FALLBACK["q-limit"]
               reuses the last two when the q-limit path dead-ends.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .case_model import NetworkCase
from .circuit_stamps import (
    FIXED_Q,
    FIXED_V,
    TX_SCALE,
    ControlMode,
    IndexMap,
    StateVector,
    controlled_devices,
    dc_start,
    flat_start,
    residual,
)
from .errors import ContinuationError
from .nr_solver import SolveReport, SolverOptions, nr_solve, try_solve

INITIAL_STEEPNESS = 100.0  # sigmoid steepness of the relaxed smoothing problem
TX_INITIAL = 1.0  # tx_relax at t = 1
DECREMENT = 0.5  # fraction of remaining distance retained per step
BACKTRACK = 0.5  # shrink factor applied to a failed decrement
MAX_BACKTRACKS = 10  # halvings from t (1 - DECREMENT) to the step floor
SNAP_FRACTION = 1e-3  # a step's first trial snaps a t at or below this to 0
CORRECTOR_TOL = 1e-3  # max|F| that ends a sub-solve at t > 0 as converged


def endpoint_report(state, ctl, opts, report) -> SolveReport:
    """Re-check a continuation's total report at its end state: converged
    only if the residual at the unrelaxed control ctl is within
    tolerance, since the last sub-solve is never trusted alone."""
    report.final_residual = float(np.abs(residual(state, ctl)).max())
    report.converged = report.final_residual < opts.tol_residual
    return report


def _failure(report) -> str:
    """How a failed solve ended: its error, or its iterations and
    residual."""
    if report.iterations == 0:
        return report.diagnostics[-1]
    ended = (f"stalled after {report.iterations} iterations, no line-search "
             "trial of the last lowered max|F|" if report.stalled else
             f"not converged after {report.iterations} iterations")
    return f"{ended}, residual {report.final_residual:.3e}"


def _stuck(phase, t, what, report) -> ContinuationError:
    """The error that ends a stage, naming the sub-solve that failed last."""
    return ContinuationError(
        f"{phase}: {what}; last sub-solve: {_failure(report)}",
        frontier=(phase, t))


def _slope(state, t, t_first, ctl_first, factors):
    """The predicted dx/dt at the accepted (x, t), or None when the
    accepted solve holds no LU (factors) or the slope is not finite.

    A secant over the step's first trial t_first, under its control
    ctl_first: v = J⁻¹ F(x, t_first) / (t - t_first), with J's LU reused
    from the accepted sub-solve's last iteration, so no J is stamped or
    factored. F(x, t), below CORRECTOR_TOL, is dropped: subtracting it
    costs a residual pass, and perfbench's continuation-hard then took
    338 NR iterations against 324."""
    if factors is None:
        return None
    v = factors.solve(residual(state, ctl_first)) / (t - t_first)
    return v if np.isfinite(v).all() else None


def _continuation(state, make_ctl, opts, phase, total):
    """Drive t from 1 to 0; returns the state solved at t = 0.

    make_ctl(t) produces the ControlMode for progress t; every sub-solve
    and every backtrack is added to the SolveReport total, the sub-solve's
    trace rows marked with t and whether it was accepted. Every sub-solve,
    t = 0 included, ends early once it stalls; one at t > 0 converges
    once max|F| < CORRECTOR_TOL. Each trial t_next of a
    step starts at x + v (t_next - t), v the `_slope` at the accepted
    (x, t), or at x when there is none.
    """
    def solve(start, t, step):
        out, report = try_solve(start, make_ctl(t), opts, phase, step,
                                subsolve=True,
                                waypoint=CORRECTOR_TOL if t > 0.0 else None)
        for row in report.trace:
            row.t, row.accepted = t, report.converged
        total.add(report)
        return out, report

    state, report = solve(state, 1.0, 0)
    if not report.converged:
        raise _stuck(phase, 1.0, "relaxed problem unsolvable", report)
    step, t, reach = 0, 1.0, float("inf")
    while t > 0.0:
        decrement = min(t * (1.0 - DECREMENT), reach)
        floor = t * (1.0 - DECREMENT) * BACKTRACK**MAX_BACKTRACKS
        # only a step's first trial snaps to 0
        t_next = 0.0 if t - decrement <= SNAP_FRACTION else t - decrement
        # report is the accepted sub-solve's, at (state, t); its LU is
        # freed once the slope is known, before the next sub-solve
        slope = _slope(state, t, t_next, make_ctl(t_next), report.factors)
        report.factors = None
        # the next step may grow past this one only if its first trial holds
        grow = 1.0 / BACKTRACK
        while True:
            step += 1
            start = (state.copy() if slope is None else
                     StateVector(state.index, state.x + (t_next - t) * slope))
            candidate, report = solve(start, t_next, step)
            if report.converged:
                state, reach, t = candidate, (t - t_next) * grow, t_next
                break
            total.continuation_backtracks += 1
            if decrement * BACKTRACK < floor:
                raise _stuck(phase, t, f"stuck at t = {t:.6g}: no step of "
                             f"{decrement:.2g} or longer converges", report)
            decrement *= BACKTRACK
            t_next, grow = t - decrement, 1.0
    return state


def _softened(base: ControlMode) -> ControlMode:
    """base at the reduced steepness INITIAL_STEEPNESS."""
    return replace(base, smoothing_relax=max(
        base.smoothing - INITIAL_STEEPNESS, 0.0))


def _smoothing_path(base: ControlMode):
    relax_init = _softened(base).smoothing_relax

    def make(t: float) -> ControlMode:
        return replace(base, smoothing_relax=t * relax_init)

    return make


def _tx_path(base: ControlMode):
    # log-spaced in the admittance scale: equal steps in t multiply the
    # shorting factor by a constant, so the hard final stretch (scale
    # approaching 1) is resolved as finely as the start
    top = 1.0 + TX_INITIAL * TX_SCALE

    def make(t: float) -> ControlMode:
        return replace(base, tx_relax=(top**t - 1.0) / TX_SCALE)

    return make


def _unbounded_control(index: IndexMap, base: ControlMode) -> ControlMode:
    """All voltage controls in hard voltage-set mode with no limits. The
    first control row regulating a bus holds its voltage; a second local
    device there would duplicate that row, so it is pinned mid-range,
    and a second tap keeps its mode. Every group holds its bus. A
    switched-off unit's row (key None) holds 0 and regulates nothing, and
    so does a group with no member in service (`circuit_stamps._controls`)."""
    modes, fixed_q = dict(base.device_modes), dict(base.fixed_q)
    rows, held = index.rows, set()
    for key, pos, lo, hi in zip(rows.keys, rows.pos.tolist(), rows.lo.tolist(),
                                rows.hi.tolist()):
        if key is None:
            continue
        if pos not in held:
            held.add(pos)
            modes[key] = FIXED_V
        elif key[0] != "tap":
            modes[key], fixed_q[key] = FIXED_Q, 0.5 * (lo + hi)
    group_modes = dict(base.group_modes)
    group_modes.update(dict.fromkeys(index.qreq_col, FIXED_V))
    return replace(base, device_modes=modes, group_modes=group_modes,
                   fixed_q=fixed_q)


def init_q_limit_relaxation(
    case: NetworkCase,
    opts: SolverOptions,
    base: ControlMode | None = None,
    warm: StateVector | None = None,
    phase: str = "q-limit",
) -> tuple[ControlMode, StateVector]:
    """Solve once with unbounded reactive limits, then size each device's
    relaxation so the relaxed sigmoid covers its unbounded output.

    Returns the fully-relaxed ControlMode and the unbounded solution to
    warm-start from. Devices with no violation get no relaxation. If the
    unbounded solve fails, a ContinuationError with frontier (phase, 1.0),
    phase the label of the stage that needs the relaxation, names its
    residual or its error.
    """
    base = base if base is not None else ControlMode()
    state = warm if warm is not None else flat_start(case, base)
    unbounded = _unbounded_control(state.index, base)
    state, report = try_solve(state, unbounded, opts, "q-limit-init")
    if not report.converged:
        raise ContinuationError(
            f"{phase}: unbounded solve diverged ({_failure(report)})",
            frontier=(phase, 1.0))
    x = state.x.tolist()
    q_scale = {}
    q_widen = {}
    for key, col, lo, hi in controlled_devices(state.index):
        value = x[col]
        if value > hi:
            if hi > 0.0:
                q_scale[key] = value / hi
            else:
                q_widen[key] = (0.0, value - hi)
        elif value < lo:
            if lo < 0.0:
                q_scale[key] = value / lo
            else:
                q_widen[key] = (lo - value, 0.0)
    relaxed = replace(base, q_scale=q_scale, q_widen=q_widen)
    return relaxed, state


def init_p_limit_relaxation(
    case: NetworkCase,
    opts: SolverOptions,
    base: ControlMode | None = None,
    warm: StateVector | None = None,
) -> tuple[ControlMode, StateVector]:
    """Solve with purely linear slack participation, then record how far
    each participating generator overshoots its active-power headroom.

    The extras widen the participation limits at full relaxation and are
    clamped to the violation direction only, so non-violating generators
    keep their original limits along the whole path.
    """
    if not case.agc_enabled:
        raise ContinuationError("p-limit relaxation requires distributed slack")
    base = base if base is not None else ControlMode()
    linear = replace(base, p_relax=1.0)
    start = warm if warm is not None else flat_start(case, linear)
    # run as a sub-solve: landing took it to a far equilibrium
    # (oscillation4's at 1.774 pu), and an iteration without descent ends it
    state, report = try_solve(start, linear, opts, "p-limit-init",
                              subsolve=True)
    if not report.converged:
        # steep reactive sigmoids can defeat the flat-started linear solve;
        # bootstrap through the hard voltage-set problem from the same
        # start, then warm-start
        hard = _unbounded_control(start.index, linear)
        boot, rep_hard = try_solve(start, hard, opts, "p-limit-init")
        if rep_hard.converged:
            state, report = try_solve(boot, linear, opts, "p-limit-init", 1)
    if not report.converged:
        raise ContinuationError(
            "p-limit: unbounded distributed-slack solve diverged",
            frontier=("p-limit", 1.0),
        )
    index = state.index
    dps = float(state.x[index.dps_col])
    p_extra = {}
    for i, kappa, lo, hi in zip(index.agc_member_idx, index.agc_kappa.tolist(),
                                index.agc_lo.tolist(), index.agc_hi.tolist()):
        dp = kappa * dps
        extra_hi, extra_lo = max(0.0, dp - hi), min(0.0, dp - lo)
        if extra_hi or extra_lo:
            p_extra[i] = (extra_lo, extra_hi)
    relaxed = replace(base, p_relax=1.0, p_extra=p_extra)
    return relaxed, state


# Stage functions: (case, opts, target control, warm state or None, phase
# label) -> (path or None, state to start from). The case builds the
# flat start when there is no warm state (and tells p-limit whether it
# has distributed slack); a warm state carries its case in its index map.
# A stage never starts from the DC angles (see the module docstring).

def _smoothing_stage(case, opts, base, state, phase):
    state = state if state is not None else flat_start(case, base)
    return _smoothing_path(base), state


def _tx_stage(case, opts, base, state, phase):
    make = _tx_path(base)
    state = state if state is not None else flat_start(case, make(1.0))
    return make, state


def _q_limit_stage(case, opts, base, state, phase):
    relaxed, state = init_q_limit_relaxation(case, opts, base, state, phase)
    if not relaxed.q_scale and not relaxed.q_widen:
        return None, state  # nothing violated

    def make(t: float) -> ControlMode:
        scale = {k: 1.0 + t * (v - 1.0) for k, v in relaxed.q_scale.items()}
        widen = {k: (t * lo, t * hi) for k, (lo, hi) in relaxed.q_widen.items()}
        return replace(base, q_scale=scale, q_widen=widen)

    return make, state


def _p_limit_stage(case, opts, base, state, phase):
    relaxed, state = init_p_limit_relaxation(case, opts, base, state)
    return (lambda t: replace(relaxed, p_relax=t)), state


STAGES = {
    "none": (),
    "smoothing": (("smoothing", _smoothing_stage, False),),
    "q-limit": (("q-limit", _q_limit_stage, False),),
    "p-limit": (("p-limit", _p_limit_stage, False),),
    "tx": (("tx", _tx_stage, False),),
    "composite": (("composite-tx", _tx_stage, True),
                  ("composite-q", _q_limit_stage, True),
                  ("composite-smoothing", _smoothing_stage, False)),
}
# the limit-relaxation path can dead-end on a fold when the case has
# several nearby equilibria; retrace it at reduced steepness from a flat
# start, then tighten the smoothing separately
FALLBACK = {
    "q-limit": (("q-limit-soft", _q_limit_stage, True),
                ("q-limit-tighten", _smoothing_stage, False)),
}
METHODS = tuple(STAGES)


def _run_stages(case, stages, fallback, opts, base, total):
    """Follow each stage's path from the state the previous one reached,
    the first from its own start.

    Returns the final state and whether any stage had a path. When a
    path dead-ends, the fallback stages, if any, run in place of the rest.
    """
    state, followed = None, False
    for phase, stage, soft in stages:
        make, state = stage(case, opts, _softened(base) if soft else base,
                            state, phase)
        if make is None:
            continue
        try:
            state = _continuation(state, make, opts, phase, total)
        except ContinuationError:
            if not fallback:
                raise
            return _run_stages(case, fallback, (), opts, base, total)
        followed = True
    return state, followed


def run_homotopy(
    case: NetworkCase,
    method: str,
    opts: SolverOptions,
    base: ControlMode | None = None,
) -> tuple[StateVector, SolveReport]:
    """Solve the case by the stages of one of METHODS.

    The final sub-solve runs at the target (unrelaxed) problem; its
    solution is re-verified by an independent residual evaluation before
    being reported converged. The report is the total of every counted
    solve (see the module docstring).
    """
    if method not in STAGES:
        raise ValueError(f"unknown homotopy method {method!r}")
    base = base if base is not None else ControlMode()
    total = SolveReport()
    stages = STAGES[method]
    state, followed = _run_stages(case, stages, FALLBACK.get(method), opts,
                                  base, total)
    if not followed:
        # nothing to relax: one solve at the target problem stands in,
        # from DC angles when no stage left a state
        state = state if state is not None else dc_start(case, base)
        state, report = nr_solve(state, base, opts,
                                 phase=stages[-1][0] if stages else "solve")
        total.add(report)
    return state, endpoint_report(state, base, opts, total)
