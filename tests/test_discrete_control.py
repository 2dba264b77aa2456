from dataclasses import replace

import numpy as np
import pytest

from splitflow import (
    Branch,
    Bus,
    ContinuationError,
    Load,
    NetworkCase,
    SnappedInfeasibleError,
    SwitchedShunt,
)
from splitflow.circuit_stamps import ControlMode, StateVector, flat_start
from splitflow.discrete_control import build_steps, resolve_after_snap, snap_to_steps
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import SolverOptions
from tests.conftest import load_native, patch_nr_solve, remote_pair_case
from tests.network_reference import power_mismatch

OPTS = SolverOptions()


class TestSteps:
    def test_steps_cover_range(self):
        assert build_steps(0.0, 0.5, 0.1) == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    def test_tie_goes_to_smaller_step(self):
        assert snap_to_steps(0.15, [0.1, 0.2]) == 0.1
        assert snap_to_steps(0.16, [0.1, 0.2]) == 0.2


class TestResolveAfterSnap:
    @pytest.fixture(scope="class")
    def snapped(self):
        case = load_native("discrete4")
        state, report = run_homotopy(case, "none", OPTS)
        assert report.converged
        return case, resolve_after_snap(case, state, OPTS)

    def test_discrete4_snaps_shunt_and_tap(self, snapped):
        _, (_, report, plan) = snapped
        assert report.converged
        assert plan.shunt_b == {0: pytest.approx(0.2)}
        assert plan.tap_ratio == {2: pytest.approx(0.975)}

    def test_snapped_devices_leave_the_unknowns(self, snapped):
        _, (state, _, _) = snapped
        assert ("shunt", 0) not in state.index.q_col
        assert 2 not in state.index.tap_col
        assert state.index.snapped_taps == [2]

    def test_snapped_solution_balances_power(self, snapped):
        # the snapped tap and shunt are stamped per device; the oracle
        # applies the snapped ratio and susceptance independently
        case, (state, _, plan) = snapped
        assert power_mismatch(case, state, tap_ratio=plan.tap_ratio,
                              shunt_b=plan.shunt_b).max() <= 1e-5


def test_failed_direct_resolve_counts_in_the_sweep(monkeypatch):
    # with two iterations per solve the direct re-solve after smoothing
    # fails (2 iterations) and the sweep takes over (11): the report
    # totals every NR iteration run, the failed direct re-solve's too
    case = load_native("discrete4")
    state, report = run_homotopy(case, "smoothing", OPTS)
    assert report.converged
    reports = []

    def wrap(nr_solve):
        def recorded(*args, **kw):
            out, rep = nr_solve(*args, **kw)
            reports.append((kw["phase"], rep))
            return out, rep
        return recorded

    patch_nr_solve(monkeypatch, wrap)
    _, report, _ = resolve_after_snap(case, state, SolverOptions(max_iter=2))
    assert report.converged
    assert report.diagnostics[0] == "snap continuation used"
    phase, direct = reports[0]
    assert phase == "snap" and not direct.converged
    assert report.iterations == sum(r.iterations for _, r in reports) == 13


def test_infeasible_snap_raises_after_the_sweep():
    # the continuous shunt settles near b = 1.81 and rounds to 0 on its
    # single 4.0 step; without it the load is past the nose, so the warm
    # re-solve fails and the sweep from 1.81 to 0 sticks part-way
    case = NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0), Bus(2, 230.0, "pq")),
        branches=(Branch(1, 2, 1.0, -8.0),),
        generators=(),
        loads=(Load(2, 3.5, 0.5),),
        shunts=(SwitchedShunt(2, 0.0, 4.0, 4.0, 1.0),),
        name="snap_infeasible",
    )
    state, report = run_homotopy(case, "none", OPTS)
    assert report.converged
    with pytest.raises(SnappedInfeasibleError) as err:
        resolve_after_snap(case, state, OPTS)
    sweep = err.value.__cause__
    assert isinstance(sweep, ContinuationError)
    phase, t = sweep.frontier
    assert phase == "snap-sweep"
    assert t == pytest.approx(0.483, abs=1e-3)


@pytest.mark.parametrize("case,shunt_b,tap_ratio", [
    # q and tap columns, and the slack surplus
    (replace(load_native("discrete4"), agc_enabled=True), {0: 0.2},
     {2: 0.975}),
    # q and remote-request columns
    (replace(remote_pair_case(),
             shunts=(SwitchedShunt(4, 0.0, 0.5, 0.1, 1.0),)), {0: 0.2}, {}),
], ids=["discrete4", "remote_pair"])
def test_remap_carries_shared_columns(case, shunt_b, tap_ratio):
    base = ControlMode()
    full = flat_start(case, base).index
    snapped = flat_start(case, replace(base, fixed_shunt_b=shunt_b,
                                       fixed_tap_ratio=tap_ratio)).index
    source = StateVector(full, np.arange(1.0, full.dim + 1.0))
    out = source.remap(snapped)
    assert out.x.size == snapped.dim
    nv = full.voltage_dim()
    assert np.array_equal(out.x[:nv], source.x[:nv])
    for new_cols, old_cols in ((snapped.q_col, full.q_col),
                               (snapped.qreq_col, full.qreq_col),
                               (snapped.tap_col, full.tap_col)):
        for key, col in new_cols.items():
            assert out.x[col] == source.x[old_cols[key]]
    if full.dps_col is not None:
        assert out.x[snapped.dps_col] == source.x[full.dps_col]
    # back again: the snapped devices' columns are zero-filled
    back = out.remap(full)
    dropped = ([full.q_col[("shunt", j)] for j in shunt_b]
               + [full.tap_col[bi] for bi in tap_ratio])
    kept = np.setdiff1d(np.arange(full.dim), dropped)
    assert np.all(back.x[dropped] == 0.0)
    assert np.array_equal(back.x[kept], source.x[kept])
