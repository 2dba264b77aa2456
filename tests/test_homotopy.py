import re
from dataclasses import replace

import numpy as np
import pytest

import splitflow.circuit_stamps as circuit_stamps
import splitflow.homotopy_driver as homotopy_driver
import splitflow.nr_solver as nr_solver
from splitflow import ContinuationError, Generator, SingularSystemError
from splitflow.circuit_stamps import (
    FIXED_Q,
    FIXED_V,
    ControlMode,
    StateVector,
    assemble,
    build_index,
    dc_start,
    flat_start,
    residual,
    slack_participation,
)
from splitflow.homotopy_driver import (
    BACKTRACK,
    CORRECTOR_TOL,
    DECREMENT,
    INITIAL_STEEPNESS,
    MAX_BACKTRACKS,
    SNAP_FRACTION,
    _continuation,
    _smoothing_path,
    _tx_path,
    _unbounded_control,
    init_p_limit_relaxation,
    init_q_limit_relaxation,
    run_homotopy,
)
from splitflow.nr_solver import (
    TOL_STEP,
    SolveReport,
    SolverOptions,
    nr_solve,
    try_solve,
)
from tests.conftest import (
    as_array,
    load_matpower,
    load_native,
    patch_nr_solve,
    qlimit_rescue_case,
    remote_pair_case,
    stiff_feeder_case,
    tapped_case,
    three_bus_pv_case,
    two_bus_case,
)

OPTS = SolverOptions()


class _AtT:
    """A stand-in state of a stubbed continuation: the t it was solved at."""

    def __init__(self, t):
        self.t = t

    def copy(self):
        return _AtT(self.t)


def recorded_reports(monkeypatch):
    """The list that every later nr_solve report is appended to."""
    reports = []

    def wrap(nr_solve):
        def recorded(*args, **kw):
            state, report = nr_solve(*args, **kw)
            reports.append(report)
            return state, report
        return recorded

    patch_nr_solve(monkeypatch, wrap)
    return reports


class TestScheduleAndPaths:
    def test_method_none_matches_plain_solve(self):
        # `none` is one plain solve from the DC angles
        case = two_bus_case()
        ctl = ControlMode()
        st_plain, rep_plain = nr_solve(dc_start(case, ctl), ctl, OPTS)
        st_h, rep_h = run_homotopy(case, "none", OPTS)
        assert rep_h.converged
        assert np.array_equal(st_h.x, st_plain.x)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="anneal"):
            run_homotopy(two_bus_case(), "anneal", OPTS)

    def test_smoothing_initial_steepness(self):
        # the first relaxed problem runs at effective steepness 100
        assert INITIAL_STEEPNESS == 100.0
        base = ControlMode()
        make = _smoothing_path(base)
        assert make(1.0).effective_steepness() == pytest.approx(100.0)
        assert make(0.0).effective_steepness() == pytest.approx(5000.0)

    def test_tx_ladder_reaches_exact_zero(self):
        # the t values the continuation visits when no step fails
        make = _tx_path(ControlMode())
        ts = [1.0]
        while ts[-1] > 0.0:
            t_next = ts[-1] * DECREMENT
            ts.append(0.0 if t_next <= SNAP_FRACTION else t_next)
        ladder = [make(t) for t in ts]
        assert ladder[0].tx_relax == pytest.approx(1.0)
        relaxes = [c.tx_relax for c in ladder]
        assert all(a > b for a, b in zip(relaxes, relaxes[1:]))
        assert ladder[-1].tx_relax == 0.0

    def test_tx_zero_is_identity(self):
        # at tx_relax = 0 the assembled system equals the unrelaxed one
        case = three_bus_pv_case()
        base = ControlMode()
        state = flat_start(case, base)
        F0, J0 = assemble(state, base)
        F1, J1 = assemble(state, replace(base, tx_relax=0.0))
        assert np.array_equal(as_array(J0), as_array(J1))
        assert np.array_equal(F0, F1)

    def test_tx_shorted_network_pins_voltages(self):
        case = two_bus_case()
        ctl = replace(ControlMode(), tx_relax=1.0)
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        assert abs(state.v_complex(1) - state.v_complex(0)) < 1e-3


class TestQLimitRelaxation:
    def test_no_violation_degenerates_to_single_solve(self):
        case = three_bus_pv_case(q_min=-2.0, q_max=2.0)
        relaxed, state = init_q_limit_relaxation(case, OPTS)
        assert relaxed.q_scale == {}
        assert relaxed.q_widen == {}
        st, rep = run_homotopy(case, "q-limit", OPTS)
        assert rep.converged

    def test_scale_ratio_from_unbounded_solve(self):
        # tight limits force a violation in the unbounded solve; the
        # relaxation scale is the ratio of the violating output over the
        # violated limit
        case = three_bus_pv_case(q_min=-0.05, q_max=0.05)
        relaxed, state = init_q_limit_relaxation(case, OPTS)
        q_unbounded = state.x[state.index.q_col[("gen", 0)]]
        assert q_unbounded > 0.05
        assert relaxed.q_scale[("gen", 0)] == pytest.approx(
            q_unbounded / 0.05)

    def test_zero_limit_uses_additive_widening(self):
        case = three_bus_pv_case(q_min=-0.3, q_max=0.0)
        relaxed, state = init_q_limit_relaxation(case, OPTS)
        q_unbounded = state.x[state.index.q_col[("gen", 0)]]
        assert q_unbounded > 0.0
        lo, hi = relaxed.q_widen[("gen", 0)]
        assert lo == 0.0
        assert hi == pytest.approx(q_unbounded)

    def test_second_regulator_at_a_bus_is_pinned_mid_range(self):
        # two generators hold bus 2: the first takes the hard voltage row,
        # the second, whose row would duplicate it, is held at mid-range
        case = three_bus_pv_case(q_min=-0.05, q_max=0.05)
        case = replace(case, generators=case.generators + (
            Generator(2, 0.2, 1.02, -0.2, 0.6, 0.0, 1.0),))
        base = ControlMode()
        hard = _unbounded_control(build_index(case), base)
        assert hard.device_modes[("gen", 0)] == FIXED_V
        assert hard.device_modes[("gen", 1)] == FIXED_Q
        assert hard.fixed_q == {("gen", 1): pytest.approx(0.2)}
        relaxed, _ = init_q_limit_relaxation(case, OPTS)
        assert set(relaxed.q_scale) == {("gen", 0)}  # the path is followed
        _, rep = run_homotopy(case, "q-limit", OPTS)
        assert rep.converged

    @pytest.mark.parametrize("method", ["q-limit", "composite"])
    def test_failed_unbounded_solve_raises_at_once(self, method,
                                                   monkeypatch):
        # the primary-side tap's unbounded problem has no solution: the
        # q-limit stage gives up after that one solve, at t = 1, and the
        # error names the method's stage and the solve, a top-level one
        phase = "composite-q" if method == "composite" else "q-limit"
        init_iterations = []

        def wrap(nr_solve):
            def counted(*args, **kw):
                state, rep = nr_solve(*args, **kw)
                if kw.get("phase", "").startswith("q-limit-init"):
                    init_iterations.append(rep.iterations)
                return state, rep
            return counted

        patch_nr_solve(monkeypatch, wrap)
        with pytest.raises(ContinuationError) as err:
            run_homotopy(tapped_case("primary"), method, OPTS)
        assert err.value.frontier == (phase, 1.0)
        assert str(err.value).startswith(
            f"{phase}: unbounded solve diverged (not converged after "
            f"{OPTS.max_iter} iterations, residual ")
        assert sum(init_iterations) <= OPTS.max_iter

    def test_relaxed_limits_scale_linearly(self):
        ctl = replace(ControlMode(),
                      q_scale={("gen", 0): 1.5})
        lo, hi = ctl.relaxed_q_limits(("gen", 0), -0.4, 0.4)
        assert (lo, hi) == pytest.approx((-0.6, 0.6))

    def test_rescue_case(self):
        # the q-limit schedule converges this case, and plain flat-start
        # NR reaches the same root after 60 iterations; before the
        # generators' q was landed on their curves after a cut step, plain
        # NR ran out its 100 iterations here. Both answers stop within the
        # tolerance of the root (2.2e-12 apart), so one more Newton step
        # from each shows it is the same one (4e-16 apart)
        case = qlimit_rescue_case()
        ctl = ControlMode()
        plain, rep_plain = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep_plain.converged and rep_plain.iterations == 60
        st, rep = run_homotopy(case, "q-limit", OPTS)
        assert rep.converged
        assert rep.final_residual < OPTS.tol_residual
        one = SolverOptions(max_iter=1)
        polished = [nr_solve(x, ctl, one)[0].x for x in (plain, st)]
        assert np.abs(polished[0] - polished[1]).max() < 1e-12


class TestPLimitRelaxation:
    def test_requires_distributed_slack(self):
        with pytest.raises(ContinuationError, match="distributed slack"):
            init_p_limit_relaxation(two_bus_case(), OPTS)

    def test_extras_clamped_to_violations(self):
        case = load_native("savnw_like").drop_generator(206)
        relaxed, state = init_p_limit_relaxation(case, OPTS)
        assert relaxed.p_relax == 1.0
        dps = state.x[state.index.dps_col]
        assert dps > 0.0
        # generators 0, 1 and 3 overshoot their headroom; member 5 does
        # not, and generator 2 (bus 206) is out
        assert sorted(relaxed.p_extra) == [0, 1, 3]
        for i, (lo, hi) in relaxed.p_extra.items():
            g = case.generators[i]
            dp_linear = g.agc_factor * dps
            assert lo == 0.0  # nothing violates downward here
            assert hi == pytest.approx(
                max(0.0, dp_linear - (g.p_max - g.p_g)))
        # non-violating members get no relaxation entry at all
        for i in state.index.agc_member_idx:
            g = case.generators[i]
            if g.agc_factor * dps <= g.p_max - g.p_g:
                assert i not in relaxed.p_extra

    def test_linear_init_solve_stays_off_the_far_equilibrium(self):
        # oscillation4 with AGC: a landing flat-start linear solve reaches
        # the 1.774 pu equilibrium (see
        # test_plain_nr_reaches_an_undesirable_equilibrium); the init's
        # descent rule sends it to the hard bootstrap, and p-limit ends
        # where tx does
        case = replace(load_native("oscillation4"), agc_enabled=True)
        n = len(case.buses)
        _, init = init_p_limit_relaxation(case, OPTS)
        assert max(init.v_mag(p) for p in range(n)) < 1.01
        st, rep = run_homotopy(case, "p-limit", OPTS)
        ref, rep_tx = run_homotopy(case, "tx", OPTS)
        assert rep.converged and rep_tx.converged
        assert np.abs(st.x[:2 * n] - ref.x[:2 * n]).max() < 1e-6

    def test_conservation_along_path(self):
        # generation minus load minus losses stays balanced at every step
        case = load_native("savnw_like").drop_generator(211)
        relaxed, state = init_p_limit_relaxation(case, OPTS)
        for t in (1.0, 0.5, 0.25, 0.0):
            ctl = replace(relaxed, p_relax=t)
            state, rep = nr_solve(state, ctl, OPTS)
            assert rep.converged
            assert _power_balance(case, state, ctl) < 1e-6


def _power_balance(case, state, ctl):
    """|generation - load - losses| from independent device accounting."""
    dps = float(state.x[state.index.dps_col]) \
        if state.index.dps_col is not None else 0.0
    # the distributed-slack members' extra active power
    dp = dict(zip(state.index.agc_member_idx,
                  slack_participation(ctl, state.index, dps)[0].tolist()))
    gen_p = 0.0
    for i, g in enumerate(case.generators):
        if not g.in_service:
            continue
        if i in state.index.slack_gen_idx:
            gen_p += state.index.slack_p_sched + dps
        elif i in dp:
            gen_p += g.p_g + dp[i]
        else:
            gen_p += g.p_g
    load_p = sum(l.p for l in case.loads)
    shunt_p = 0.0
    bp = case.bus_index()
    for sh in case.fixed_shunts:
        shunt_p += sh.g * state.v_mag(bp[sh.bus]) ** 2
    loss = 0.0
    for br in case.branches:
        vf = state.v_complex(bp[br.from_bus])
        vt = state.v_complex(bp[br.to_bus])
        scale = 1.0 + ctl.tx_relax * 1e3
        y = complex(br.g, br.b) * scale
        if br.ratio != 1.0 or br.tap is not None:
            continue  # savnw-like cases carry plain lines only
        i_ft = y * (vf - vt)
        loss += ((vf - vt) * np.conj(i_ft)).real
    return abs(gen_p - load_p - shunt_p - loss)


class TestRunHomotopy:
    def test_endpoint_fidelity_verified_independently(self):
        case = remote_pair_case()
        base = ControlMode()
        for method in ("smoothing", "q-limit", "tx", "composite"):
            state, rep = run_homotopy(case, method, OPTS)
            assert rep.converged, method
            res = np.abs(residual(state, base)).max()
            assert res < OPTS.tol_residual

    def test_methods_agree(self):
        case = remote_pair_case()
        solutions = []
        for method in ("smoothing", "q-limit", "tx", "composite"):
            state, rep = run_homotopy(case, method, OPTS)
            solutions.append(state.x)
        for x in solutions[1:]:
            assert np.abs(x - solutions[0]).max() < 1e-6

    def test_tx_rescues_knife_edge_case(self):
        # tx converges the rescue case to the solution plain flat-start NR
        # reaches after 60 iterations (see test_rescue_case)
        case = qlimit_rescue_case()
        ctl = ControlMode()
        plain, rep_plain = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep_plain.converged
        st, rep = run_homotopy(case, "tx", OPTS)
        assert rep.converged
        assert np.abs(plain.x - st.x).max() < 1e-12

    def test_plain_nr_reaches_an_undesirable_equilibrium(self):
        # oscillation4 from a flat start: plain NR converges, but to a
        # high-voltage equilibrium (|V| up to 1.774 pu) with both
        # generators at q_min, 0.75 pu from the solution tx and q-limit
        # reach: the paper's convergence to an undesirable region
        case = load_native("oscillation4")
        ctl = ControlMode()
        plain, rep_plain = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep_plain.converged and rep_plain.iterations == 84
        n = len(case.buses)
        assert max(plain.v_mag(p) for p in range(n)) == pytest.approx(
            1.774, abs=1e-3)
        for key, col in plain.index.q_col.items():
            assert plain.x[col] == pytest.approx(case.generators[key[1]].q_min)
        for method in ("tx", "q-limit"):
            st, rep = run_homotopy(case, method, OPTS)
            assert rep.converged
            assert max(st.v_mag(p) for p in range(n)) < 1.01
            assert np.abs(plain.x[:2 * n] - st.x[:2 * n]).max() == \
                pytest.approx(0.755, abs=1e-3)

    def test_none_from_dc_angles_reaches_the_desirable_equilibrium(self):
        # oscillation4 with `none`, which starts from the DC angles: plain
        # NR reaches the solution tx and q-limit reach, below 1.01 pu, in
        # 11 iterations; from the flat start it lands at 1.774 pu after 84
        # (test_plain_nr_reaches_an_undesirable_equilibrium)
        case = load_native("oscillation4")
        st, rep = run_homotopy(case, "none", OPTS)
        assert rep.converged and rep.iterations == 11
        n = len(case.buses)
        assert max(st.v_mag(p) for p in range(n)) < 1.01
        for method in ("tx", "q-limit"):
            other, rep_other = run_homotopy(case, method, OPTS)
            assert rep_other.converged
            assert np.abs(st.x[:2 * n] - other.x[:2 * n]).max() < 1e-6

    def test_tx_solves_stiff_feeder(self):
        # heavily loaded radial feeder: the tx path walks in from the
        # shorted network and lands on the same solution as the direct
        # solve
        case = stiff_feeder_case()
        ctl = ControlMode()
        st_tx, rep_tx = run_homotopy(case, "tx", OPTS)
        assert rep_tx.converged
        st_plain, rep_plain = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep_plain.converged
        assert np.abs(st_tx.x - st_plain.x).max() < 1e-6
        assert min(st_tx.v_mag(p) for p in range(10)) < 0.98

    def test_infeasible_case_raises_with_frontier(self):
        case = two_bus_case(p_load=5.0, q_load=2.0)  # beyond the nose
        with pytest.raises(ContinuationError) as err:
            run_homotopy(case, "tx", OPTS)
        phase, t = err.value.frontier
        assert phase == "tx" and 0.0 < t < 1.0
        # the error names the shortest step tried, no longer than the
        # floor's double, and the last failed sub-solve, which stalled at
        # an iteration that lowered no max|F|, well inside its budget
        match = re.search(r"stuck at t = \S+: no step of (\S+) or longer "
                          r"converges; last sub-solve: stalled after (\d+) "
                          r"iterations, no line-search trial of the last "
                          r"lowered max\|F\|, residual (\S+)$", str(err.value))
        assert match is not None, str(err.value)
        floor = t * (1.0 - DECREMENT) * BACKTRACK**MAX_BACKTRACKS
        assert floor <= float(match.group(1)) < 2.0 * floor
        assert int(match.group(2)) < 4
        assert float(match.group(3)) == pytest.approx(1.347e-3, rel=0.01)

    def test_dead_end_stops_early(self, monkeypatch):
        # no step past the frontier converges, and the floor on the step
        # stops the probe well inside its budget (87 NR iterations)
        reports = recorded_reports(monkeypatch)
        with pytest.raises(ContinuationError, match="tx: stuck at t = "):
            run_homotopy(load_native("two_bus_no_solution"), "tx", OPTS)
        assert sum(r.iterations for r in reports) <= 100

    def test_swallowed_solver_error_kept_in_diagnostics(self):
        # a collapsed bus voltage makes the load stamp raise; the failed
        # sub-solve keeps the message
        case = two_bus_case()
        ctl = ControlMode()
        state = flat_start(case, ctl)
        state.x[2:4] = 0.0
        _, report = try_solve(state, ctl, OPTS, "probe")
        assert not report.converged
        assert report.iterations == 0
        assert report.diagnostics == [
            "voltage magnitude collapsed at bus 2 (|V|^2 = 0.000e+00)"]

    def test_swallowed_sub_solve_error_reaches_the_report(self, monkeypatch):
        # a singular system in the third sub-solve fails that step, which
        # is backed off; the pipeline still converges, and its report
        # keeps the message
        calls = []

        def wrap(nr_solve):
            def third_singular(*args, **kw):
                calls.append(kw["phase"])
                if len(calls) == 3:
                    raise SingularSystemError("singular at the third")
                return nr_solve(*args, **kw)
            return third_singular

        patch_nr_solve(monkeypatch, wrap)
        _, rep = run_homotopy(two_bus_case(), "smoothing", OPTS)
        assert rep.converged and rep.continuation_backtracks == 1
        assert calls[:3] == ["smoothing"] * 3
        assert rep.diagnostics == ["singular at the third"]

    def test_step_carried_forward(self, monkeypatch):
        # case118 tx backtracks on its first steps. After an accepted step
        # of length d, the next trial is min(g d, t (1 - DECREMENT)), g =
        # 1 / BACKTRACK if d was the step's first trial and 1 if it was a
        # shortened one; each failed trial halves its step
        reports = recorded_reports(monkeypatch)
        _, rep = run_homotopy(load_matpower("case118"), "tx", OPTS)
        assert rep.converged and rep.continuation_backtracks > 0
        path = [(r.trace[0].t, r.converged) for r in reports]
        assert path[0] == (1.0, True) and path[-1] == (0.0, True)
        t, reach, trial, carried = 1.0, float("inf"), None, 0
        for t_next, converged in path[1:]:
            if trial is None:  # the first trial after an accepted step
                trial = first = min(t * (1.0 - DECREMENT), reach)
                carried += trial < t * (1.0 - DECREMENT)
            if t_next > 0.0:
                assert t - t_next == pytest.approx(trial, rel=1e-12)
            else:
                assert t - trial <= SNAP_FRACTION
            if converged:
                grow = 1.0 / BACKTRACK if trial == first else 1.0
                t, reach, trial = t_next, (t - t_next) * grow, None
            else:
                trial *= BACKTRACK
        assert carried > 0

    def test_no_growth_after_a_shortened_step(self, monkeypatch):
        # case118 tx: from t = 1, the trials t = 0.5 and 0.75 fail and
        # 0.875 holds. The next step carries that shortened length, 0.125,
        # to t = 0.75 and holds; twice it, to t = 0.625, failed here when
        # every accepted step doubled. From then on the steps hold at once
        reports = recorded_reports(monkeypatch)
        _, rep = run_homotopy(load_matpower("case118"), "tx", OPTS)
        path = [(r.trace[0].t, r.converged) for r in reports]
        assert path == ([(1.0, True), (0.5, False), (0.75, False),
                         (0.875, True), (0.75, True), (0.5, True)]
                        + [(2.0**-k, True) for k in range(2, 10)]
                        + [(0.0, True)])
        assert rep.converged and rep.continuation_backtracks == 2
        assert rep.iterations == 60

    @pytest.mark.parametrize("name,method,phases", [
        ("case118", "tx", {"tx"}),
        ("oscillation4", "composite",
         {"composite-tx", "composite-q", "composite-smoothing"})])
    def test_waypoints_end_below_corrector_tol(self, name, method, phases,
                                               monkeypatch):
        # every stage ends on a t = 0 sub-solve that meets the full test;
        # an accepted sub-solve at t > 0 is a waypoint, ended at its first
        # iteration below CORRECTOR_TOL, some with a step of TOL_STEP or
        # more or a max|F| of tol_residual or more
        reports = recorded_reports(monkeypatch)
        case = load_matpower(name) if name == "case118" else load_native(name)
        _, rep = run_homotopy(case, method, OPTS)
        assert rep.converged
        accepted = [(r.trace[0].phase, r.trace[0].t, r.trace[-1])
                    for r in reports if r.converged and r.trace[0].t is not None]
        ends = [last for _, t, last in accepted if t == 0.0]
        waypoints = [last for _, t, last in accepted if t > 0.0]
        assert {phase for phase, t, _ in accepted if t == 0.0} == phases
        assert len(ends) == len(phases)
        assert all(last.max_residual < OPTS.tol_residual
                   and last.max_step < TOL_STEP for last in ends)
        assert waypoints
        assert all(last.max_residual < CORRECTOR_TOL for last in waypoints)
        assert any(last.max_step >= TOL_STEP for last in waypoints)
        assert any(last.max_residual >= OPTS.tol_residual
                   for last in waypoints)

    def test_snap_only_on_a_step_first_trial(self, monkeypatch):
        # a stubbed path: the t = 0 solve fails from any t above
        # SNAP_FRACTION, every other solve converges. Halving reaches
        # t = 2**-9, just above SNAP_FRACTION; a step's snapped first
        # trial fails there, and its shortened retries must try t below
        # SNAP_FRACTION, not t = 0 again, for t = 0 to converge from one
        tried = []

        def solve(start, t, opts, phase, step, subsolve, waypoint):
            # every t above 0 is a waypoint, and t = 0 gets the full test
            assert waypoint == (CORRECTOR_TOL if t > 0.0 else None)
            tried.append((start.t, t))
            ok = t > 0.0 or start.t <= SNAP_FRACTION
            return _AtT(t), SolveReport(converged=ok, iterations=1)

        monkeypatch.setattr(homotopy_driver, "try_solve", solve)
        total = SolveReport()
        end = _continuation(_AtT(1.0), lambda t: t, OPTS, "stub", total)
        assert end.t == 0.0
        below = [t for _, t in tried if 0.0 < t <= SNAP_FRACTION]
        assert len(below) == 1
        assert tried[-1] == (below[0], 0.0)
        failed_snaps = [start for start, t in tried[:-1] if t == 0.0]
        assert failed_snaps and min(failed_snaps) > SNAP_FRACTION
        assert total.continuation_backtracks == len(failed_snaps)

    def test_trace_carries_lambda_columns(self):
        case = three_bus_pv_case(q_min=-0.05, q_max=0.05)
        state, rep = run_homotopy(case, "q-limit", OPTS)
        assert rep.converged
        assert any(row.lambda_g_max > 1.0 for row in rep.trace)
        final = rep.trace[-1]
        assert final.lambda_g_max == pytest.approx(1.0)
        assert final.lambda_tx == 0.0

    def test_unbounded_mode_probe(self):
        # the unbounded pre-solve holds every regulated bus exactly at its
        # setpoint through hard rows
        case = three_bus_pv_case(q_min=-0.05, q_max=0.05, v_set=1.03)
        base = ControlMode()
        init = flat_start(case, base)
        hard = _unbounded_control(init.index, base)
        assert hard.device_modes[("gen", 0)] == FIXED_V
        state, rep = nr_solve(init, hard, OPTS)
        assert rep.converged
        assert state.v_mag(1) == pytest.approx(1.03, abs=1e-9)


class TestPredictor:
    @pytest.mark.parametrize("name,method", [("case118", "tx"),
                                             ("oscillation4", "q-limit")])
    def test_predictor_factors_nothing(self, name, method, monkeypatch):
        # one factorization per LU of J that a solve reports, init solves
        # included, and one of B′ when the case's map is built: case118's
        # J and B′ are sparse (splu), oscillation4's dense (dgesv), and
        # the predictor reuses the accepted sub-solve's LU. oscillation4's
        # q-limit has iterations that confirm on a held LU, so it factors
        # fewer J than it runs NR iterations
        factored = []

        def counted(attr, factor):
            def call(*args, **kw):
                factored.append(attr)
                return factor(*args, **kw)
            return call

        for attr in ("dgesv", "splu"):
            monkeypatch.setattr(nr_solver, attr,
                                counted(attr, getattr(nr_solver, attr)))
        reports = recorded_reports(monkeypatch)
        case = load_matpower(name) if name == "case118" else load_native(name)
        _, rep = run_homotopy(case, method, OPTS)
        assert rep.converged and rep.continuation_backtracks > 0
        assert len(factored) == sum(r.factorizations for r in reports) + 1
        if name == "oscillation4":
            assert sum(r.factorizations for r in reports) < \
                sum(r.iterations for r in reports)
        assert set(factored) == {"splu" if name == "case118" else "dgesv"}

    def test_trials_start_on_the_secant(self, monkeypatch):
        # each trial after an accepted (x, t) starts at x + v (t_next - t).
        # The first trial's move is -J⁻¹ F(x, t_first), J the accepted
        # sub-solve's last: its kept LU gives that move, and J stamped
        # afresh at the iterate it was stamped at, one step before x (a
        # waypoint ends on a step of any length), does too. The shortened
        # trials' moves lie on the same line, scaled by their step
        solves, stamped = [], []
        jacobian = circuit_stamps._Pass.jacobian

        def recorded_jacobian(st):
            stamped.append(st.x.copy())
            return jacobian(st)

        def wrap(nr_solve):
            def recorded(init, ctl, *args, **kw):
                stamped.clear()
                out, rep = nr_solve(init, ctl, *args, **kw)
                # the continuation frees the LU once it has its slope
                solves.append((init.x.copy(), ctl, out, rep, rep.factors,
                               stamped[-1] if stamped else None))
                return out, rep
            return recorded

        monkeypatch.setattr(circuit_stamps._Pass, "jacobian",
                            recorded_jacobian)
        patch_nr_solve(monkeypatch, wrap)
        case = load_matpower("case118")
        _, total = run_homotopy(case, "tx", OPTS)
        assert total.converged and total.continuation_backtracks > 0
        accepted = first = None
        shortened = 0
        for start, ctl, out, rep, kept, last in solves:
            t = rep.trace[0].t
            if accepted is not None:
                x, ctl_x, t_x, factors, x_last = accepted
                move = start - x
                if first is None:
                    at_x = StateVector(out.index, x)
                    F = residual(at_x, ctl)
                    assert move == pytest.approx(-factors.solve(F),
                                                 rel=1e-12, abs=1e-15)
                    at_last = StateVector(out.index, x_last)
                    J = as_array(assemble(at_last, ctl_x)[1])
                    scale = np.abs(F).max()
                    assert scale > 0.0
                    assert np.abs(J @ move + F).max() <= 1e-3 * scale
                    first = (move, t)
                else:
                    ratio = (t - t_x) / (first[1] - t_x)
                    assert move == pytest.approx(ratio * first[0],
                                                 rel=1e-9, abs=1e-15)
                    shortened += 1
            if rep.converged:
                accepted, first = (out.x.copy(), ctl, t, kept, last), None
            else:
                assert kept is None  # a failed sub-solve hands back no LU
        assert shortened > 0
        assert total.factors is None


def _longest_idle_run(report) -> int:
    """Most consecutive iterations that did not lower max|F| below the
    lowest value reached before them by more than 1% of it."""
    lowest, idle, longest = float("inf"), 0, 0
    for row in report.trace:
        if row.max_residual < lowest * 0.99:
            lowest, idle = row.max_residual, 0
        else:
            lowest = min(lowest, row.max_residual)
            idle += 1
            longest = max(longest, idle)
    return longest


class TestStallWindow:
    def test_top_level_solve_crosses_a_plateau(self):
        # the direct solve of the stiff feeder from a flat start crosses a
        # plateau: eight iterations in a row each lower max|F| by less
        # than 1%, and it still converges, not stalled (13 iterations; 94
        # and 84 before the generators' q was landed after a cut step)
        case = stiff_feeder_case()
        ctl = ControlMode()
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged and not rep.stalled
        assert rep.iterations == 13
        assert _longest_idle_run(rep) == 8

    def test_failed_sub_solves_end_stalled(self):
        case = load_native("oscillation4")
        _, rep = run_homotopy(case, "q-limit", OPTS)
        assert rep.converged
        assert rep.continuation_backtracks > 0
        assert rep.stalled_subsolves == rep.continuation_backtracks
        rejected = [row for row in rep.trace if not row.accepted]
        assert rejected and all(row.t is not None for row in rep.trace)
        # no rejected sub-solve ran its whole budget
        runs = {}
        for row in rejected:
            runs[(row.phase, row.outer_iter)] = row.inner_iter
        assert max(runs.values()) < OPTS.max_iter
