"""The paper's pathology on oscillation4: the hard PV/PQ outer loop lands
on different solutions depending on switching order, while every
continuous pipeline reaches one answer."""

import pytest

from splitflow.baseline_outer_loop import (
    LARGEST_FIRST,
    SMALLEST_FIRST,
    SWITCH_TOL,
    UNSTABLE,
    SwitchTrace,
    _switch_candidates,
    classify_stability,
    solve_outer_loop,
)
from splitflow.circuit_stamps import FIXED_Q, ControlMode, flat_start
from splitflow.cli_reporting import run_baseline
from splitflow.errors import SingularSystemError
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import SolverOptions
from tests.conftest import load_native, patch_nr_solve, three_bus_pv_case

OPTS = SolverOptions()


@pytest.fixture(scope="module")
def oscillation4():
    return load_native("oscillation4")


def v_max(case, state):
    return max(state.v_mag(pos) for pos in range(len(case.buses)))


def unstable(case, state):
    return sum(s == UNSTABLE for s in classify_stability(case, state).values())


@pytest.mark.parametrize("order,vmax,switches,n_unstable", [
    (SMALLEST_FIRST, 1.000, 1, 0),
    (LARGEST_FIRST, 1.385, 6, 1),
])
def test_switching_order_picks_the_solution(oscillation4, order, vmax,
                                            switches, n_unstable):
    state, report, strace = solve_outer_loop(oscillation4, OPTS, order=order)
    assert report.converged
    assert v_max(oscillation4, state) == pytest.approx(vmax, abs=5e-4)
    assert strace.total_switches() == switches
    assert len(strace.events) == switches
    assert unstable(oscillation4, state) == n_unstable


@pytest.mark.parametrize("method", ["q-limit", "composite", "smoothing", "tx"])
def test_continuous_models_reach_one_stable_answer(oscillation4, method):
    state, report = run_homotopy(oscillation4, method, OPTS)
    assert report.converged
    assert v_max(oscillation4, state) == pytest.approx(1.0004, abs=5e-5)
    assert unstable(oscillation4, state) == 0


def test_failed_inner_solve_ends_the_loop(monkeypatch):
    # two_bus_no_solution has no solution: the first inner solve runs out
    # its iterations, and the loop reports that instead of switching
    case = load_native("two_bus_no_solution")
    report = run_baseline(case, OPTS).report
    assert not report.converged
    assert (report.iterations, report.outer_iterations) == (100, 1)
    assert report.diagnostics[0] == "outer loop status: inner-diverged"

    # a singular inner system ends it the same way, and the message says
    # at which outer iteration
    def wrap(nr_solve):
        def singular(*args, **kw):
            raise SingularSystemError("sparse LU factorization failed")
        return singular

    patch_nr_solve(monkeypatch, wrap)
    report = run_baseline(case, OPTS).report
    assert not report.converged
    assert (report.iterations, report.outer_iterations) == (0, 1)
    assert report.diagnostics == [
        "outer loop status: inner-diverged",
        "outer iteration 1: sparse LU factorization failed"]


@pytest.mark.parametrize("offset,recovers", [(-10 * SWITCH_TOL, True),
                                              (10 * SWITCH_TOL, False)])
def test_recovery_from_q_min(offset, recovers):
    # a generator held at q_min was pulling its voltage down: it goes back
    # to PV once the voltage falls below the setpoint, and not before
    case = three_bus_pv_case()
    g, key = case.generators[0], ("gen", 0)
    modes, fixed_q = {key: FIXED_Q}, {key: g.q_min}
    state = flat_start(case, ControlMode())
    pos = state.index.bus_pos[g.bus]
    state.x[2 * pos:2 * pos + 2] = [g.v_set + offset, 0.0]
    out = _switch_candidates(case, state, modes, fixed_q,
                             SwitchTrace(toggles={0: 1}), [0])
    assert out == ([(0, "pq->pv", None)] if recovers else [])


def test_unknown_order_rejected(oscillation4):
    with pytest.raises(ValueError, match="switch order"):
        solve_outer_loop(oscillation4, OPTS, order="random")


def test_stability_labels(oscillation4):
    # at its minimum with the voltage below setpoint a generator is
    # unstable; strictly inside its limits it is stable
    state, _, _ = solve_outer_loop(oscillation4, OPTS)
    for key, col in state.index.q_col.items():
        kind, i = key
        if kind != "gen":
            continue
        g = oscillation4.generators[i]
        state.x[col] = g.q_min
        pos = state.index.bus_pos[g.bus]
        state.x[2 * pos:2 * pos + 2] = [0.5 * g.v_set, 0.0]
        assert classify_stability(oscillation4, state)[i] == UNSTABLE
        state.x[col] = 0.5 * (g.q_min + g.q_max)
        assert classify_stability(oscillation4, state)[i] != UNSTABLE
        break
    else:
        pytest.fail("oscillation4 has no locally controlling generator")
