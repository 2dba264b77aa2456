"""Continuation loop and the concrete relaxation embeddings.

Each method defines a path of ControlModes parameterized by t in [1, 0]:
t = 1 is the fully relaxed (trivial) problem, t = 0 the original one.
The loop solves at the current t, advances geometrically toward 0 with
warm starts, and backtracks halfway on sub-solve failure. The returned
solution is always re-verified against the unrelaxed equations.

Methods:
  smoothing  - sigmoid steepness relaxed to an initial value (default 100)
               and tightened back to the configured smoothing.
  q-limit    - reactive limits scaled out to cover the unbounded solve
               (ratio per device, additive when the violated limit is 0),
               then shrunk back to 1.
  p-limit    - slack-surplus participation starts purely linear; limits
               reappear as the relaxation is removed.
  tx         - branch series admittances scaled by (1 + t*1e3), starting
               from a virtually shorted network.
  composite  - tx, then q-limit, then smoothing, sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .case_model import NetworkCase
from .circuit_stamps import (
    FIXED_V,
    ControlMode,
    StateVector,
    agc_response,
    base_control,
    build_index,
    classify_regions,
    flat_start,
    residual,
)
from .errors import ContinuationError, SingularPointError, SingularSystemError
from .nr_solver import SolveReport, SolverOptions, nr_solve

METHODS = ("none", "smoothing", "q-limit", "p-limit", "tx", "composite")


@dataclass
class HomotopySchedule:
    method: str = "none"
    initial_steepness: float = 100.0
    tx_initial: float = 1.0
    decrement: float = 0.5  # fraction of remaining distance kept per step
    backtrack: float = 0.5  # shrink factor applied to a failed decrement
    max_backtracks: int = 10
    snap_fraction: float = 1e-3  # remaining distance below which t snaps to 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown homotopy method {self.method!r}")
        if not (0.0 < self.decrement < 1.0):
            raise ValueError("decrement must be in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack must be in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be >= 0")
        if self.initial_steepness <= 0.0:
            raise ValueError("initial_steepness must be > 0")


def _try_solve(case, state, ctl, opts, phase, step):
    try:
        return nr_solve(case, state, ctl, opts, phase=phase, outer_iter=step)
    except (SingularSystemError, SingularPointError):
        report = SolveReport(converged=False, iterations=0,
                             final_residual=float("inf"))
        return state, report


def _continuation(case, state, make_ctl, sched, opts, phase, trace, counters):
    """Drive t from 1 to 0; returns the state solved at t = 0.

    make_ctl(t) produces the ControlMode for progress t. Failed steps
    shrink the attempted decrement by sched.backtrack; more than
    sched.max_backtracks consecutive shrinks abort the continuation.
    Warm-started intermediate sub-solves get a reduced iteration budget
    so failed probes stay cheap; only the final (t = 0) solve uses the
    caller's full budget.
    """
    sub_opts = replace(opts, max_iter=min(opts.max_iter, 40))
    step = 0
    state, report = _try_solve(case, state, make_ctl(1.0), sub_opts, phase, step)
    trace.extend(report.trace)
    counters["iterations"] += report.iterations
    if not report.converged:
        raise ContinuationError(
            f"{phase}: relaxed problem unsolvable", frontier=(phase, 1.0)
        )
    t = 1.0
    while t > 0.0:
        decrement = t * (1.0 - sched.decrement)
        backtracks = 0
        while True:
            t_next = t - decrement
            if t_next <= sched.snap_fraction:
                t_next = 0.0
            step += 1
            candidate, report = _try_solve(
                case, state.copy(), make_ctl(t_next),
                opts if t_next == 0.0 else sub_opts, phase, step,
            )
            trace.extend(report.trace)
            counters["iterations"] += report.iterations
            if report.converged:
                state = candidate
                t = t_next
                break
            backtracks += 1
            counters["backtracks"] += 1
            if backtracks > sched.max_backtracks:
                raise ContinuationError(
                    f"{phase}: stuck at t = {t:.6g} after "
                    f"{backtracks - 1} backtracks",
                    frontier=(phase, t),
                )
            decrement *= sched.backtrack
    return state


def _smoothing_path(base: ControlMode, sched: HomotopySchedule):
    relax_init = max(base.smoothing - sched.initial_steepness, 0.0)

    def make(t: float) -> ControlMode:
        return replace(base, smoothing_relax=t * relax_init)

    return make


def _tx_path(base: ControlMode, sched: HomotopySchedule):
    from .circuit_stamps import TX_SCALE

    # log-spaced in the admittance scale: equal steps in t multiply the
    # shorting factor by a constant, so the hard final stretch (scale
    # approaching 1) is resolved as finely as the start
    top = 1.0 + sched.tx_initial * TX_SCALE

    def make(t: float) -> ControlMode:
        if t <= 0.0:
            return replace(base, tx_relax=0.0)
        lam = (top**t - 1.0) / TX_SCALE
        return replace(base, tx_relax=min(lam, sched.tx_initial))

    return make


def _unbounded_control(case: NetworkCase, base: ControlMode) -> ControlMode:
    """All reactive controls in hard voltage-set mode with no limits."""
    modes = dict(base.device_modes)
    fixed_q = dict(base.fixed_q)
    fixed_v_buses = set()
    index = build_index(case, base)
    for key in index.q_col:
        kind, i = key
        if kind == "gen" and i in index.member_group:
            continue  # handled through the group
        bus = case.generators[i].bus if kind == "gen" else case.shunts[i].bus
        if bus in fixed_v_buses:
            # a second controller on one bus would duplicate the voltage
            # row; pin it mid-range instead
            modes[key] = "fixed-q"
            dev = case.generators[i] if kind == "gen" else case.shunts[i]
            lo = dev.q_min if kind == "gen" else dev.b_min
            hi = dev.q_max if kind == "gen" else dev.b_max
            fixed_q[key] = 0.5 * (lo + hi)
            continue
        fixed_v_buses.add(bus)
        modes[key] = FIXED_V
    for bi in index.tap_col:
        tap = case.branches[bi].tap
        ctl_bus = (case.branches[bi].from_bus
                   if tap.controlled_side == "primary"
                   else case.branches[bi].to_bus)
        if ctl_bus not in fixed_v_buses:
            fixed_v_buses.add(ctl_bus)
            modes[("tap", bi)] = FIXED_V
    group_modes = dict(base.group_modes)
    for gi in range(len(case.remote_groups)):
        group_modes[gi] = FIXED_V
    return replace(base, device_modes=modes, group_modes=group_modes,
                   fixed_q=fixed_q)


def init_q_limit_relaxation(
    case: NetworkCase,
    opts: SolverOptions,
    base: ControlMode | None = None,
    warm: StateVector | None = None,
    sched: HomotopySchedule | None = None,
) -> tuple[ControlMode, StateVector]:
    """Solve once with unbounded reactive limits, then size each device's
    relaxation so the relaxed sigmoid covers its unbounded output.

    Returns the fully-relaxed ControlMode and the unbounded solution to
    warm-start from. Devices with no violation get no relaxation. If the
    unbounded solve diverges, a tx-stepped pre-solve is attempted first.
    """
    base = base if base is not None else base_control(case)
    sched = sched if sched is not None else HomotopySchedule(method="q-limit")
    unbounded = _unbounded_control(case, base)
    state = warm if warm is not None else flat_start(case, unbounded)
    state, report = _try_solve(case, state, unbounded, opts, "q-limit-init", 0)
    if not report.converged:
        # fall back to reaching the unbounded solution via tx stepping
        trace: list = []
        counters = {"iterations": 0, "backtracks": 0}
        state = _continuation(
            case, flat_start(case, replace(unbounded, tx_relax=sched.tx_initial)),
            _tx_path(unbounded, sched), sched, opts, "q-limit-init-tx",
            trace, counters,
        )
    index = state.index
    q_scale = {}
    q_widen = {}

    def size_relax(key, value, lo, hi):
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

    for key, col in index.q_col.items():
        kind, i = key
        dev = case.generators[i] if kind == "gen" else case.shunts[i]
        lo = dev.q_min if kind == "gen" else dev.b_min
        hi = dev.q_max if kind == "gen" else dev.b_max
        size_relax(key, float(state.x[col]), lo, hi)
    for bi, col in index.tap_col.items():
        tap = case.branches[bi].tap
        size_relax(("tap", bi), float(state.x[col]), tap.tr_min, tap.tr_max)
    relaxed = replace(base, q_scale=q_scale, q_widen=q_widen)
    return relaxed, state


def _q_limit_path(base: ControlMode, relaxed: ControlMode):
    def make(t: float) -> ControlMode:
        scale = {k: 1.0 + t * (v - 1.0) for k, v in relaxed.q_scale.items()}
        widen = {k: (t * lo, t * hi) for k, (lo, hi) in relaxed.q_widen.items()}
        return replace(base, q_scale=scale, q_widen=widen)

    return make


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
    base = base if base is not None else base_control(case)
    linear = replace(base, p_relax=1.0)
    state = warm if warm is not None else flat_start(case, linear)
    state, report = _try_solve(case, state, linear, opts, "p-limit-init", 0)
    if not report.converged:
        # steep reactive sigmoids can defeat the flat-started linear solve;
        # bootstrap through the hard voltage-set problem, then warm-start
        hard = _unbounded_control(case, linear)
        boot, rep_hard = _try_solve(case, flat_start(case, hard), hard, opts,
                                    "p-limit-init", 0)
        if rep_hard.converged:
            state, report = _try_solve(case, boot, linear, opts,
                                       "p-limit-init", 1)
    if not report.converged:
        raise ContinuationError(
            "p-limit: unbounded distributed-slack solve diverged",
            frontier=("p-limit", 1.0),
        )
    index = state.index
    dps = float(state.x[index.dps_col])
    p_extra = {}
    for i in index.agc_member_idx:
        g = case.generators[i]
        dp = g.agc_factor * dps
        extra_hi = max(0.0, dp - (g.p_max - g.p_g))
        extra_lo = min(0.0, dp - (g.p_min - g.p_g))
        if extra_hi or extra_lo:
            p_extra[i] = (extra_lo, extra_hi)
    relaxed = replace(base, p_relax=1.0, p_extra=p_extra)
    return relaxed, state


def _p_limit_path(relaxed: ControlMode):
    def make(t: float) -> ControlMode:
        return replace(relaxed, p_relax=t)

    return make


def run_homotopy(
    case: NetworkCase,
    init: StateVector | None,
    sched: HomotopySchedule,
    opts: SolverOptions,
    base: ControlMode | None = None,
) -> tuple[StateVector, SolveReport]:
    """Solve the case by the configured continuation method.

    The final sub-solve runs at the target (unrelaxed) problem; its
    solution is re-verified by an independent residual evaluation before
    being reported converged.
    """
    base = base if base is not None else base_control(case)
    trace: list = []
    counters = {"iterations": 0, "backtracks": 0}

    if sched.method == "none":
        state = init if init is not None else flat_start(case, base)
        state, report = nr_solve(case, state, base, opts)
        counters["iterations"] = report.iterations
        trace = report.trace
    elif sched.method == "smoothing":
        state = init if init is not None else flat_start(case, base)
        state = _continuation(case, state, _smoothing_path(base, sched),
                              sched, opts, "smoothing", trace, counters)
    elif sched.method == "tx":
        make = _tx_path(base, sched)
        state = init if init is not None else flat_start(case, make(1.0))
        state = _continuation(case, state, make, sched, opts, "tx",
                              trace, counters)
    elif sched.method == "q-limit":
        relaxed, state = init_q_limit_relaxation(case, opts, base, init, sched)
        if not relaxed.q_scale and not relaxed.q_widen:
            # nothing violated: the homotopy degenerates to a single solve
            state, report = nr_solve(case, state, base, opts, phase="q-limit")
            trace.extend(report.trace)
            counters["iterations"] += report.iterations
            if not report.converged:
                raise ContinuationError("q-limit: original problem diverged "
                                        "after clean unbounded solve",
                                        frontier=("q-limit", 0.0))
        else:
            try:
                state = _continuation(case, state, _q_limit_path(base, relaxed),
                                      sched, opts, "q-limit", trace, counters)
            except ContinuationError:
                # the limit-relaxation path can dead-end on a fold when the
                # case has several nearby equilibria; retrace it at reduced
                # steepness, then tighten the smoothing separately
                counters["escalations"] = counters.get("escalations", 0) + 1
                soft = replace(base, smoothing_relax=max(
                    base.smoothing - sched.initial_steepness, 0.0))
                relaxed, state = init_q_limit_relaxation(case, opts, soft,
                                                         None, sched)
                state = _continuation(case, state,
                                      _q_limit_path(soft, relaxed), sched,
                                      opts, "q-limit-soft", trace, counters)
                state = _continuation(case, state,
                                      _smoothing_path(base, sched), sched,
                                      opts, "q-limit-tighten", trace,
                                      counters)
    elif sched.method == "p-limit":
        relaxed, state = init_p_limit_relaxation(case, opts, base, init)
        state = _continuation(case, state, _p_limit_path(relaxed), sched,
                              opts, "p-limit", trace, counters)
    elif sched.method == "composite":
        make_tx = _tx_path(replace(base, smoothing_relax=max(
            base.smoothing - sched.initial_steepness, 0.0)), sched)
        state = init if init is not None else flat_start(case, make_tx(1.0))
        state = _continuation(case, state, make_tx, sched, opts,
                              "composite-tx", trace, counters)
        soft = replace(base, smoothing_relax=max(
            base.smoothing - sched.initial_steepness, 0.0))
        relaxed, state = init_q_limit_relaxation(case, opts, soft, state, sched)
        if relaxed.q_scale or relaxed.q_widen:
            state = _continuation(case, state, _q_limit_path(soft, relaxed),
                                  sched, opts, "composite-q", trace, counters)
        state = _continuation(case, state, _smoothing_path(base, sched),
                              sched, opts, "composite-smoothing", trace,
                              counters)
    else:  # pragma: no cover - guarded by HomotopySchedule
        raise ValueError(sched.method)

    # endpoint fidelity: never trust the last sub-solve alone
    final_res = float(np.abs(residual(case, state, base)).max())
    converged = final_res < opts.tol_residual
    report = SolveReport(
        converged=converged,
        iterations=counters["iterations"],
        final_residual=final_res,
        trace=trace,
        device_regions=classify_regions(case, state, base),
        diagnostics=[f"homotopy backtracks: {counters['backtracks']}"]
        if counters["backtracks"] else [],
    )
    return state, report
