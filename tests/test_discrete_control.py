import pytest

from splitflow.discrete_control import build_steps, resolve_after_snap, snap_to_steps
from splitflow.homotopy_driver import HomotopySchedule, run_homotopy
from splitflow.nr_solver import SolverOptions
from tests.conftest import load_native
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
        state, report = run_homotopy(case, None, HomotopySchedule(), OPTS)
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
