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
import splitflow.circuit_stamps as circuit_stamps
from splitflow.discrete_control import build_steps, resolve_after_snap, snap_to_steps
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import SolverOptions
from tests.conftest import load_native, patch_function, patch_nr_solve
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
        return case, state, resolve_after_snap(case, state, OPTS)

    def test_discrete4_snaps_shunt_and_tap(self, snapped):
        _, _, (_, report, plan) = snapped
        assert report.converged
        assert plan.shunt_b == {0: pytest.approx(0.2)}
        assert plan.tap_ratio == {2: pytest.approx(0.975)}

    def test_snapped_devices_held_on_the_solution_s_map(self, snapped):
        # the re-solve keeps the continuous solution's index map, and the
        # snapped devices' own columns hold the snapped b and ratio
        _, solution, (state, _, plan) = snapped
        idx = solution.index
        assert state.index is idx
        assert state.x[idx.q_col[("shunt", 0)]] == plan.shunt_b[0]
        assert state.x[idx.tap_col[2]] == plan.tap_ratio[2]

    def test_snapped_solution_balances_power(self, snapped):
        # the snapped tap and shunt are stamped per device; the oracle
        # applies the snapped ratio and susceptance independently
        case, _, (state, _, plan) = snapped
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


@pytest.mark.parametrize("method", ["none", "smoothing"])
def test_snap_run_builds_one_structure(method, monkeypatch):
    # the continuous solve and the snapped re-solve, or its sweep, run on
    # one index map: one build_index and one J structure per run, so
    # SuperLU orders the run's pattern once
    built = {"build_index": 0, "_jacobian_structure": 0}

    def wrap(fn):
        def counted(*args):
            built[fn.__name__] += 1
            return fn(*args)
        return counted

    patch_function(monkeypatch, circuit_stamps.build_index, wrap)
    patch_function(monkeypatch, circuit_stamps._jacobian_structure, wrap)
    opts = SolverOptions(max_iter=2 if method == "smoothing" else 100)
    case = load_native("discrete4")
    state, report = run_homotopy(case, method, OPTS)
    assert report.converged
    _, report, plan = resolve_after_snap(case, state, opts)
    assert report.converged and plan.shunt_b and plan.tap_ratio
    # the smoothing run's re-solve at two iterations sweeps
    assert (report.diagnostics[:1] == ["snap continuation used"]) == (
        method == "smoothing")
    assert built == {"build_index": 1, "_jacobian_structure": 1}
