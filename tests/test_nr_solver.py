import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import splitflow.circuit_stamps as circuit_stamps
import splitflow.nr_solver as nr_solver
from splitflow import SingularPointError, SingularSystemError
from splitflow.circuit_stamps import (
    ControlMode,
    StateVector,
    assemble,
    dc_start,
    flat_start,
    residual,
    stamp,
)
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import (
    SPLU,
    STEP_LIMIT_Q,
    STEP_LIMIT_VOLTAGE,
    TOL_STEP,
    DenseLU,
    SolverOptions,
    SparseLU,
    nr_solve,
    solve_linear,
    step_limit,
)
from tests.conftest import (
    load_matpower,
    patch_function,
    qlimit_rescue_case,
    stiff_feeder_case,
    tapped_case,
    two_bus_case,
)
from tests.network_reference import power_mismatch

OPTS = SolverOptions()


def clamped(move):
    """A landing move as nr_solve takes it, at most STEP_LIMIT_Q."""
    return np.clip(move, -STEP_LIMIT_Q, STEP_LIMIT_Q)


def system(A, b, representation="csc"):
    """(matrix, right-hand side): A as a CSC matrix of its nonzeros, or
    as the dense array `assemble` emits for a small J."""
    A = np.asarray(A, dtype=float)
    mat = A if representation == "dense" else csc_matrix(A)
    return mat, np.asarray(b, dtype=float)


class TestSolveLinear:
    """solve_linear of a CSC matrix, by sparse LU. TestSolveLinearDense
    runs every test again on the dense array, by LAPACK: one contract."""

    representation = "csc"

    def system(self, A, b):
        return system(A, b, self.representation)

    def test_identity(self):
        sys = self.system(np.eye(3), [1.0, 2.0, 3.0])
        assert solve_linear(*sys)[0] == pytest.approx([1.0, 2.0, 3.0])

    def test_diagonal(self):
        sys = self.system([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert solve_linear(*sys)[0] == pytest.approx([1.0, 2.0])

    def test_zero_row_names_row(self):
        sys = self.system([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
        with pytest.raises(SingularSystemError, match="row 1") as exc:
            solve_linear(*sys)
        assert exc.value.row == 1

    def test_stored_zeros_count_as_empty(self):
        # row 1 holds only an explicitly stored zero (a zero entry, dense)
        mat = csc_matrix((np.array([1.0, 0.0]), np.array([0, 1]),
                          np.array([0, 1, 2])), shape=(2, 2))
        assert mat.nnz == 2
        if self.representation == "dense":
            mat = mat.toarray()
        with pytest.raises(SingularSystemError, match="row 1 is empty") as exc:
            solve_linear(mat, np.array([1.0, 1.0]))
        assert exc.value.row == 1

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input(self, where, value):
        A, b = self.system([[2.0, 1.0], [1.0, 3.0]], [1.0, 1.0])
        if where == "rhs":
            b[0] = value
        elif self.representation == "dense":
            A[0, 0] = value
        else:
            A.data[0] = value
        with pytest.raises(SingularSystemError, match="non-finite entries") as exc:
            solve_linear(A, b)
        assert exc.value.row is None

    def test_numerically_singular(self):
        sys = self.system([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(SingularSystemError, match="factorization failed") as exc:
            solve_linear(*sys)
        assert exc.value.row is None

    def test_near_singular(self):
        # one singular value 1e-20 of the others: no pivot is exactly
        # zero, and the solution misses the system far beyond the bound
        rng = np.random.default_rng(0)
        U, V = (np.linalg.qr(rng.normal(size=(6, 6)))[0] for _ in range(2))
        A = U @ np.diag([1.0] * 5 + [1e-20]) @ V.T
        sys = self.system(A, rng.normal(size=6))
        with pytest.raises(SingularSystemError, match="near-singular") as exc:
            solve_linear(*sys)
        assert exc.value.row is None

    def test_solution_quality(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(40, 40)) + 40.0 * np.eye(40)
        b = rng.normal(size=40)
        x, _ = solve_linear(*self.system(A, b))
        err = np.abs(A @ x - b).max() / max(1.0, np.abs(b).max())
        assert err < 1e-10

    def test_duplicate_triplets_sum(self):
        # the stamp pass emits one triplet per contribution; the matrix
        # built from them sums duplicates
        mat = csc_matrix(([1.5, 0.5], ([0, 0], [0, 0])), shape=(1, 1))
        if self.representation == "dense":
            mat = mat.toarray()
        assert solve_linear(mat, np.array([4.0]))[0] == pytest.approx([2.0])

    def test_unit_row_solves_exactly(self):
        # unknown 1 is a degenerate device's output: its own row holds it
        # at rhs[1], and its column also enters two network rows. The
        # diagonal-preferring pivot keeps the unit pivot, so the sparse
        # solve returns rhs[1] exactly; pivoting on the column's largest
        # entry (threshold 1), or LAPACK's partial pivoting, leaves a
        # rounding error there, and the dense solve is within 1e-12
        A = [[4.0, 1.3, 0.0, 2.0],
             [0.0, 1.0, 0.0, 0.0],
             [0.0, 3.7, 5.0, 1.0],
             [1.0, 0.0, 2.0, 6.0]]
        mat, b = self.system(A, [0.3, 0.7, 0.1, -0.9])
        x = solve_linear(mat, b)[0]
        if self.representation == "csc":
            assert x[1] == b[1]
        else:
            assert abs(x[1] - b[1]) < 1e-12
            assert np.abs(x - np.linalg.solve(np.array(A), b)).max() < 1e-12
        largest = splu(csc_matrix(A), **(SPLU | {"diag_pivot_thresh": 1.0}))
        assert largest.solve(b)[1] != b[1]
        assert np.linalg.solve(np.array(A), b)[1] != b[1]

    def test_kept_factors_solve_again(self):
        # the kept LU repeats solve_linear's solution bit for bit, and
        # solves another right-hand side: the sparse one with the unit
        # row's unknown exact, the dense one within 1e-12
        A = [[4.0, 1.3, 0.0, 2.0],
             [0.0, 1.0, 0.0, 0.0],
             [0.0, 3.7, 5.0, 1.0],
             [1.0, 0.0, 2.0, 6.0]]
        mat, b = self.system(A, [0.3, 0.7, 0.1, -0.9])
        x, factors = solve_linear(mat, b)
        assert x.tobytes() == solve_linear(mat, b)[0].tobytes()
        assert factors.solve(b).tobytes() == x.tobytes()
        c = np.array([-1.1, 0.2, 2.5, 0.4])
        y = factors.solve(c)
        if self.representation == "csc":
            assert y[1] == c[1]
        else:
            assert abs(y[1] - c[1]) < 1e-12
        assert np.abs(np.array(A) @ y - c).max() < 1e-12


class TestSolveLinearDense(TestSolveLinear):
    representation = "dense"


@pytest.mark.parametrize("name", ["case9", "case118"])
def test_kept_factors_of_an_assembled_j(name):
    # case9's J is dense; case118's is sparse, and its second
    # factorization solves in the pattern's kept column order
    case = load_matpower(name)
    ctl = ControlMode()
    state = flat_start(case, ctl)
    F, J = assemble(state, ctl)
    solve_linear(J, -F)  # the first factorization orders the pattern
    F, J = assemble(state, ctl)
    x, factors = solve_linear(J, -F)
    assert isinstance(factors, DenseLU if name == "case9" else SparseLU)
    assert name == "case9" or factors.inv is not None
    assert factors.solve(-F).tobytes() == x.tobytes()


@pytest.mark.parametrize("name", ["case9", "case118", "case118-outage"])
def test_solve_frees_its_index_map_without_gc(name):
    # no reference cycle runs through an index map, its J structure or a
    # J (CSC on case118, dense on case9): reference counting frees them.
    # An outage's map shares its base's layout, which deleting the state,
    # the outage and the base frees too
    case = base = load_matpower(name.removesuffix("-outage"))
    if name.endswith("-outage"):
        case = base.drop_generator(94)
    ctl = ControlMode()
    gc.disable()
    try:
        state, report = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert report.converged
        F, J = assemble(state, ctl)
        assert isinstance(J, np.ndarray) == (name == "case9")
        refs = [weakref.ref(state.index), weakref.ref(state.index.jac)]
        if case is not base:
            assert state.index.jac is base._layout.jac
            refs.append(weakref.ref(base._layout))
        del state, report, F, J, case, base
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


class TestStepLimit:
    def test_bounds_kept_per_map_clamp_like_clip(self):
        case = load_matpower("case118")
        state = flat_start(case, ControlMode())
        nv = state.index.voltage_dim()
        dx = np.random.default_rng(1).normal(scale=2.0, size=state.index.dim)
        want = dx.copy()
        np.clip(want[:nv], -STEP_LIMIT_VOLTAGE, STEP_LIMIT_VOLTAGE,
                out=want[:nv])
        np.clip(want[nv:], -STEP_LIMIT_Q, STEP_LIMIT_Q, out=want[nv:])
        assert step_limit(dx, state).tobytes() == want.tobytes()
        bound = state.index.step_bound
        assert step_limit(-dx, state).tobytes() == (-want).tobytes()
        assert state.index.step_bound is bound

    def _state(self):
        case = two_bus_case()
        return flat_start(case, ControlMode())

    def test_voltage_clamp(self):
        state = self._state()
        dx = np.array([0.5, -0.3, 0.01, 0.02])
        out = step_limit(dx, state)
        assert out == pytest.approx([0.1, -0.1, 0.01, 0.02])

    def test_within_limits_unchanged(self):
        state = self._state()
        dx = np.array([0.05, -0.03, 0.09, -0.09])
        assert step_limit(dx, state) == pytest.approx(dx)

    def test_sign_preserved(self):
        state = self._state()
        rng = np.random.default_rng(4)
        for _ in range(50):
            dx = rng.normal(scale=2.0, size=4)
            out = step_limit(dx, state)
            assert np.all(np.sign(out) == np.sign(dx))
            assert np.all(np.abs(out) <= np.abs(dx) + 1e-15)


class TestNrSolve:
    def test_two_bus_closed_form(self):
        # |V2| from the scalar power-balance quadratic:
        # u^2 + (2 Re(z S*) - 1) u + |z S*|^2 = 0, V2 = conj(z S* + u)
        case = two_bus_case(p_load=0.5, q_load=0.1, r=0.01, x=0.1)
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        z = complex(0.01, 0.1)
        zs = z * complex(0.5, -0.1)
        disc = (2.0 * zs.real - 1.0) ** 2 - 4.0 * abs(zs) ** 2
        u = (1.0 - 2.0 * zs.real + np.sqrt(disc)) / 2.0
        v2 = np.conj(zs + u)
        got = state.v_complex(1)
        assert abs(got - v2) < 1e-8

    def test_zero_load_flat_profile(self):
        case = two_bus_case(p_load=0.0, q_load=0.0)
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        assert rep.iterations <= 2
        assert state.v_complex(1) == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_case9_plain_iteration_bound(self, bundled_matpower):
        # continuous models at full smoothing, no homotopy, flat start
        case = bundled_matpower["case9"]
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        assert rep.iterations <= 25

    def test_fixed_point(self):
        case = two_bus_case()
        ctl = ControlMode()
        solved, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        again, rep2 = nr_solve(solved, ctl, OPTS)
        assert rep2.converged
        assert rep2.iterations == 1
        assert np.abs(again.x - solved.x).max() < 1e-9

    def test_re_solve_at_round_off_takes_the_full_step(self):
        # case118's converged direct solve sits at max|F| ~ 1e-12; a trial
        # there holds even when rounding leaves it above the start's
        # max|F|, so solving again takes the full step, with no backtracks
        case = load_matpower("case118")
        solved, rep = run_homotopy(case, "none", OPTS)
        assert rep.converged and rep.final_residual < OPTS.tol_residual
        _, again = nr_solve(solved, ControlMode(), OPTS)
        assert again.converged
        assert again.iterations == again.residual_evals == 1
        assert again.line_search_backtracks == 0
        assert again.trace[0].alpha == 1.0

    def test_residual_decreases_near_solution(self, bundled_matpower):
        case = bundled_matpower["case9"]
        ctl = ControlMode()
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        tail = [row.max_residual for row in rep.trace[-3:]]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_trace_completeness(self, bundled_matpower):
        case = bundled_matpower["case14"]
        ctl = ControlMode()
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert len(rep.trace) == rep.iterations
        assert [row.inner_iter for row in rep.trace] == \
            list(range(1, rep.iterations + 1))

    def test_determinism(self, bundled_matpower):
        case = bundled_matpower["case30"]
        ctl = ControlMode()
        s1, r1 = nr_solve(flat_start(case, ctl), ctl, OPTS)
        s2, r2 = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert np.array_equal(s1.x, s2.x)
        assert [(t.max_residual, t.max_step) for t in r1.trace] == \
            [(t.max_residual, t.max_step) for t in r2.trace]

    def test_non_convergence_is_reported_not_raised(self):
        case = two_bus_case(p_load=5.0, q_load=2.0)  # far past the nose
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert not rep.converged

    def test_stall_window_ends_solve_past_the_nose(self):
        # past the nose max|F| falls for three iterations; no trial of the
        # fourth lowers it, and the sub-solve ends there
        case = two_bus_case(p_load=5.0, q_load=2.0)
        ctl = ControlMode()
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS,
                          subsolve=True)
        assert rep.stalled and not rep.converged
        res = [row.max_residual for row in rep.trace]
        assert rep.iterations == len(res) == 4
        assert res[0] > res[1] > res[2] and res[3] >= res[2]
        # every trial of the fourth iteration was tried and rejected
        assert rep.residual_evals - rep.line_search_backtracks == 3

    def test_no_descent_ends_only_a_sub_solve(self):
        # the same input as a top-level solve goes on past the iteration
        # that lowered no max|F|, to max_iter
        case = two_bus_case(p_load=5.0, q_load=2.0)
        ctl = ControlMode()
        _, sub = nr_solve(flat_start(case, ctl), ctl, OPTS,
                          subsolve=True)
        _, top = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert not top.converged and not top.stalled
        assert top.iterations == OPTS.max_iter > sub.iterations
        # the two walk alike up to the sub-solve's end
        assert [r.max_residual for r in top.trace[:sub.iterations]] == \
            [r.max_residual for r in sub.trace]

    def test_equal_residual_is_no_progress(self, monkeypatch):
        # every line-search trial reports exactly the starting norm, which
        # is no descent: a sub-solve ends at its first iteration, after
        # all seven trials, and a top-level solve runs on
        case = two_bus_case()
        ctl = ControlMode()
        init = flat_start(case, ctl)
        start = float(np.abs(residual(init, ctl)).max())
        monkeypatch.setattr(nr_solver, "_residual_norm", lambda *a: (start, None))
        _, rep = nr_solve(init, ctl, OPTS, subsolve=True)
        assert rep.stalled and not rep.converged
        assert rep.iterations == 1 and rep.residual_evals == 7
        assert rep.final_residual == start
        opts = SolverOptions(max_iter=5)
        _, top = nr_solve(init, ctl, opts)
        assert not top.stalled and top.iterations == opts.max_iter

    @pytest.mark.parametrize("drop", [0.005, 0.02])
    def test_creeping_sub_solve_runs_to_max_iter(self, drop, monkeypatch):
        # each iteration's first trial lowers max|F| by the fraction drop:
        # however little that is, it is descent, so the sub-solve runs on
        case = two_bus_case()
        ctl = ControlMode()
        init = flat_start(case, ctl)
        norm = [float(np.abs(residual(init, ctl)).max())]

        def creeping(*args):
            norm[0] *= 1.0 - drop
            return norm[0], None

        monkeypatch.setattr(nr_solver, "_residual_norm", creeping)
        opts = SolverOptions(max_iter=6)
        _, rep = nr_solve(init, ctl, opts, subsolve=True)
        assert not rep.stalled and not rep.converged
        assert rep.iterations == rep.residual_evals == opts.max_iter

    def test_no_finite_trial_ends_the_solve(self, monkeypatch):
        # every line-search trial sees a collapsed voltage: the solve
        # ends at once, not converged, at an infinite residual
        case = two_bus_case()
        ctl = ControlMode()
        init = flat_start(case, ctl)
        monkeypatch.setattr(nr_solver, "_residual_norm",
                            lambda *a: (float("inf"), None))
        state, rep = nr_solve(init, ctl, OPTS)
        assert not rep.converged and not rep.stalled
        assert rep.iterations == 1
        assert rep.final_residual == float("inf")
        assert len(rep.trace) == 1 and rep.trace[0].max_step == 0.0
        assert state.x.tobytes() == init.x.tobytes()

    def test_waypoint_ends_at_the_first_iteration_below_it(self,
                                                           bundled_matpower):
        # case9 from a flat start, as a sub-solve: with a waypoint bound
        # the solve converges at its first iteration below the bound, here
        # with a step still above TOL_STEP, and hands back its last LU;
        # without one it runs on to the full test. A bound of 0 is the
        # full test
        case = bundled_matpower["case9"]
        ctl = ControlMode()
        bound = 1e-3
        _, full = nr_solve(flat_start(case, ctl), ctl, OPTS,
                           subsolve=True)
        first = next(row for row in full.trace if row.max_residual < bound)
        assert first.max_step >= TOL_STEP
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS,
                          subsolve=True, waypoint=bound)
        assert rep.converged and rep.factors is not None
        assert rep.iterations == first.inner_iter < full.iterations
        assert full.converged
        assert [(r.max_residual, r.max_step) for r in rep.trace] == \
            [(r.max_residual, r.max_step) for r in full.trace[:rep.iterations]]
        _, zero = nr_solve(flat_start(case, ctl), ctl, OPTS,
                           subsolve=True, waypoint=0.0)
        assert zero.iterations == full.iterations

    def test_without_stall_window_runs_to_max_iter(self):
        case = two_bus_case(p_load=5.0, q_load=2.0)
        ctl = ControlMode()
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert not rep.converged and not rep.stalled
        assert rep.iterations == OPTS.max_iter

    def test_max_iter_respected(self, bundled_matpower):
        case = bundled_matpower["case9"]
        ctl = ControlMode()
        opts = SolverOptions(max_iter=3)
        _, rep = nr_solve(flat_start(case, ctl), ctl, opts)
        assert rep.iterations <= 3

    def test_start_evaluated_once(self, bundled_matpower, monkeypatch):
        # the starting norm is the F of iteration 1's pass, which gives
        # its J; every later pass is a line-search trial's
        case = bundled_matpower["case9"]
        ctl = ControlMode()
        init = flat_start(case, ctl)
        passes = count_passes(monkeypatch)
        built = record_jacobians(monkeypatch)
        _, rep = nr_solve(init, ctl, OPTS)
        assert len(built) == rep.iterations
        assert np.array_equal(built[0].x, init.x)
        assert np.array_equal(passes[0], init.x)
        assert not any(np.array_equal(x, init.x) for x in passes[1:])

    def test_collapsed_start_raises(self):
        case = two_bus_case()
        ctl = ControlMode()
        state = flat_start(case, ctl)
        pos = state.index.bus_pos[2]
        state.x[2 * pos] = 1e-5
        state.x[2 * pos + 1] = 0.0
        with pytest.raises(SingularPointError, match="bus 2"):
            nr_solve(state, ctl, OPTS)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol_residual=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SolverOptions(tol_residual=bad)
        # a bool is a number to Python, but no tolerance
        for bad in (True, False, "1e-6", None, 1e-6j, [1e-6]):
            with pytest.raises(ValueError, match="number"):
                SolverOptions(tol_residual=bad)
        for good in (np.float64(1e-6), np.float32(1e-3), 1):
            assert SolverOptions(tol_residual=good).tol_residual == good
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="integer"):
                SolverOptions(max_iter=bad)
        assert SolverOptions(max_iter=np.int64(3)).max_iter == 3
        with pytest.raises(TypeError):
            SolverOptions(damping="none")  # the step is always clamped


def count_passes(monkeypatch):
    """The states of the stamp passes made from here on, in order."""
    passes = []

    def counted(fn):
        def wrapper(state, ctl):
            passes.append(state.x.copy())
            return fn(state, ctl)
        return wrapper

    patch_function(monkeypatch, stamp, counted)
    return passes


def record_jacobians(monkeypatch):
    """The passes whose J is built from here on, in order."""
    built = []
    jacobian = circuit_stamps._Pass.jacobian

    def recorded(st):
        built.append(st)
        return jacobian(st)

    monkeypatch.setattr(circuit_stamps._Pass, "jacobian", recorded)
    return built


class TestStampedOnce:
    """nr_solve builds each iteration's J from the line search's pass at
    the trial it accepted, so every state is stamped once."""

    @pytest.mark.parametrize("name", ["case9", "case118"])
    def test_one_stamp_pass_per_state(self, name, monkeypatch):
        case = load_matpower(name)
        ctl = ControlMode()
        passes = count_passes(monkeypatch)
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        # the start, then one pass per line-search trial and no other
        assert len(passes) == 1 + rep.residual_evals
        assert len({x.tobytes() for x in passes}) == len(passes)

    def test_negative_ratio_trial_is_halved(self, monkeypatch):
        # from the primary-side tap case's flat start, a later trial takes
        # the ratio below 0: a singular point, read as max|F| = inf with no
        # pass, and the step is halved from the same iterate. Nothing is
        # stamped again, so every state is still stamped once
        case = tapped_case("primary")
        ctl = ControlMode()
        init = flat_start(case, ctl)
        (col,) = init.index.tap_col.values()
        trials = []
        norm = nr_solver._residual_norm

        def recorded_norm(state, ctl):
            r, st = norm(state, ctl)
            trials.append((len(built), state.x.copy(), r, st))
            return r, st

        monkeypatch.setattr(nr_solver, "_residual_norm", recorded_norm)
        passes = count_passes(monkeypatch)
        built = record_jacobians(monkeypatch)
        _, rep = nr_solve(init, ctl, OPTS)
        assert rep.converged
        assert len(passes) == 1 + rep.residual_evals
        k = next(k for k, t in enumerate(trials) if t[1][col] < 0.0)
        it, x, r, st = trials[k]
        assert r == math.inf and st is None
        with pytest.raises(SingularPointError,
                           match=f"tap ratio of branch 1 is {x[col]:g}"):
            residual(StateVector(init.index, x), ctl)
        later, halved, r_half, _ = trials[k + 1]
        start = built[it - 1].x
        assert later == it and r_half < math.inf and halved[col] > 0.0
        assert np.allclose(halved - start, (x - start) / 2.0, rtol=0.0,
                           atol=1e-15)

    def test_best_trial_pass_kept(self, monkeypatch):
        # no trial lowers max|F|, and the second of each iteration's seven
        # (alpha 1/2) reads lowest: its pass, not the last one's, must
        # give the next J. The case has no generator to land (see
        # test_best_trial_pass_lands), and the solve is no sub-solve,
        # which would end at its first iteration without descent
        case = tapped_case()
        ctl = ControlMode()
        init = flat_start(case, ctl)
        trials = []
        norm = nr_solver._residual_norm

        def second_best(state, ctl):
            _, st = norm(state, ctl)
            trials.append(state.x)
            return (1e9 if len(trials) % 7 == 2 else 2e9), st

        monkeypatch.setattr(nr_solver, "_residual_norm", second_best)
        built = record_jacobians(monkeypatch)
        _, rep = nr_solve(init, ctl, SolverOptions(max_iter=3))
        assert [r.alpha for r in rep.trace] == [0.5] * 3
        assert rep.residual_evals == rep.line_search_backtracks == 21
        assert np.array_equal(built[0].x, init.x)  # the start's pass
        assert [st.x is trials[7 * i + 1] for i, st in
                enumerate(built[1:])] == [True, True]

    def test_best_trial_pass_lands(self, monkeypatch):
        # as above, outside a sub-solve: each iteration's seven trials
        # are followed by the landing evaluation, which reads the true
        # max|F| (far below every trial's), and the generators land from
        # the best trial's pass, not the last one's
        case = load_matpower("case9")
        ctl = ControlMode()
        init = flat_start(case, ctl)
        land = stamp(init, ctl).c.gen_curves
        calls = []
        norm = nr_solver._residual_norm

        def second_best(state, ctl):
            r, st = norm(state, ctl)
            calls.append((state.x.copy(), st))
            k = len(calls) % 8
            return (r if k == 0 else 1e9 if k == 2 else 2e9), st

        monkeypatch.setattr(nr_solver, "_residual_norm", second_best)
        assembled = record_jacobians(monkeypatch)
        _, rep = nr_solve(init, ctl, SolverOptions(max_iter=3))
        assert [r.alpha for r in rep.trace] == [0.5] * 3
        assert rep.residual_evals == len(calls) == 24
        assert rep.line_search_backtracks == 21
        assert np.array_equal(assembled[0].x, init.x)  # the start's pass
        for i in range(3):
            (x, best), (y, landed) = calls[8 * i + 1], calls[8 * i + 7]
            assert np.array_equal(np.delete(y, land), np.delete(x, land))
            assert np.array_equal(y[land], x[land] - clamped(best.F[land]))
            assert not np.array_equal(y[land], x[land])
            if i < 2:
                assert assembled[i + 1] is landed

    def test_landing_pass_gives_the_next_j(self, monkeypatch):
        # after a cut step, each local generator's q is moved toward its
        # curve at the accepted voltages, q - F[col] from the accepted
        # trial's pass clamped at STEP_LIMIT_Q; the state is stamped once
        # more, and that pass gives the next J. The row is linear in q, so
        # a landed row reads F - move: 0 up to a rounding where the move
        # was not clamped. case9 lowers max|F| on every iteration, so the
        # accepted trial is the last one
        case = load_matpower("case9")
        ctl = ControlMode()
        land = stamp(flat_start(case, ctl), ctl).c.gen_curves
        assert land.size == 2
        events = []
        norm = nr_solver._residual_norm
        jacobian = circuit_stamps._Pass.jacobian

        def recorded(state, ctl):
            r, st = norm(state, ctl)
            events.append(("trial", state.x.copy(), st))
            return r, st

        def checked(st):
            events.append(("assemble", None, st))
            return jacobian(st)

        monkeypatch.setattr(nr_solver, "_residual_norm", recorded)
        monkeypatch.setattr(circuit_stamps._Pass, "jacobian", checked)
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        at = [i for i, e in enumerate(events) if e[0] == "assemble"]
        assert len(at) == rep.iterations
        clamps = 0
        for row, i in zip(rep.trace, at[1:]):
            (_, x, trial), (_, y, landed) = events[i - 2:i]
            if row.alpha == 1.0:
                assert events[i - 1][2] is events[i][2]
                continue
            assert events[i][2] is landed
            move = clamped(trial.F[land])
            assert np.array_equal(np.delete(y, land), np.delete(x, land))
            assert np.array_equal(y[land], x[land] - move)
            assert np.abs(landed.F[land] - (trial.F[land] - move)).max() \
                <= 1e-15
            clamps += int(np.any(move != trial.F[land]))
        assert sum(r.alpha < 1.0 for r in rep.trace) > 1
        assert clamps > 0
        assert rep.residual_evals == len(events) - len(at)


class TestLineSearchCounters:
    def test_counts_match_the_trials(self, monkeypatch):
        # case9 backtracks, and every iteration finds a lower residual
        case = load_matpower("case9")
        ctl = ControlMode()
        passes = count_passes(monkeypatch)
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        calls = passes[1:]  # after the start's
        assert rep.converged and rep.line_search_backtracks > 0
        assert rep.residual_evals == len(calls)
        # every iteration's accepted trial, every rejected one, and one
        # landing evaluation per iteration that cut the step
        landed = sum(r.alpha < 1.0 for r in rep.trace)
        assert landed > 0
        assert rep.line_search_backtracks == \
            len(calls) - rep.iterations - landed
        # each row's step is the full one halved once per rejected trial
        assert sum(-math.log2(r.alpha) for r in rep.trace) == \
            rep.line_search_backtracks

    def test_iteration_without_a_lower_trial(self):
        # the two-bus load past the nose has no solution; an iteration
        # whose seven trials all fail to lower max|F| still takes the best
        case = two_bus_case(p_load=5.0)
        ctl = ControlMode()
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert not rep.converged and rep.iterations == OPTS.max_iter
        lowered = rep.residual_evals - rep.line_search_backtracks
        assert 0 < lowered < rep.iterations
        assert all(1.0 / 64.0 <= r.alpha <= 1.0 for r in rep.trace)


class TestOutageSweep:
    def test_case118_outages_at_three_load_levels(self):
        # n1-screen's input set: every generator outage of case118 with
        # distributed slack, at loads x0.95, x1.00 and x1.05, from a flat
        # start. Each solution balances power by the independent oracle.
        # The sums per level pin the step rule: landing the generators' q
        # after a cut step took them from (175, 346), (369, 1264) and
        # (330, 1210) (iterations, evaluations), 874 and 2820 in all, to
        # (141, 239), (199, 482) and (232, 606), and clamping the landing
        # move at STEP_LIMIT_Q to the pins below; dP_S started at 0 gave
        # (512, 2244) at x1.05
        base = load_matpower("case118")
        sums = {}
        for level in (0.95, 1.00, 1.05):
            case = replace(base, agc_enabled=True, loads=tuple(
                replace(ld, p=ld.p * level, q=ld.q * level)
                for ld in base.loads))
            iterations = evals = 0
            for gen in case.generators:
                out = case.drop_generator(gen.bus)
                ctl = ControlMode()
                state, rep = nr_solve(flat_start(out, ctl), ctl, OPTS)
                assert rep.converged
                assert power_mismatch(out, state).max() <= 1e-5
                iterations += rep.iterations
                evals += rep.residual_evals
            sums[level] = (iterations, evals)
        assert len(base.generators) == 20
        assert sums == {0.95: (140, 230), 1.00: (199, 458), 1.05: (226, 568)}


def held_iterations(monkeypatch):
    """The list that records, for every later NR iteration, whether it
    solved with the LU it held: True when no `solve_linear` ran in it."""
    held, solved = [], []
    solve, row = nr_solver.solve_linear, nr_solver.TraceRow

    def counted(*args):
        solved.append(True)
        return solve(*args)

    def traced(*args, **kw):
        held.append(not solved)
        solved.clear()
        return row(*args, **kw)

    monkeypatch.setattr(nr_solver, "solve_linear", counted)
    monkeypatch.setattr(nr_solver, "TraceRow", traced)
    return held


def fresh_step(state):
    """max|dx| of a Newton step from a J stamped and factored at state."""
    F, J = assemble(state, ControlMode())
    return float(np.abs(solve_linear(J, -F)[0]).max())


def agc_outages():
    """case118's 20 generator outages with distributed slack, load x1.00."""
    case = replace(load_matpower("case118"), agc_enabled=True)
    return [case.drop_generator(gen.bus) for gen in case.generators]


class TestHeldLU:
    """An iteration that starts with max|F| below tol_residual first
    solves with the LU it holds, of the last J factored, checked against
    that J; it keeps the step only if it is below TOL_STEP, which
    converges it, and else factors a J of its own."""

    @staticmethod
    def check_held(rep, held):
        # only an iteration that starts within tolerance holds, and it
        # converges the solve
        assert len(held) == rep.iterations
        assert rep.factorizations == held.count(False)
        for k, h in enumerate(held):
            if h:
                assert k > 0 and rep.trace[k - 1].max_residual < \
                    OPTS.tol_residual
                assert k == rep.iterations - 1 and rep.converged
                assert rep.trace[k].max_step < TOL_STEP

    @pytest.mark.parametrize("representation", ["csc", "dense"])
    def test_case118_outages_confirm_on_the_held_lu(self, representation,
                                                     monkeypatch):
        # n1-screen's solves: each outage from the DC angles ends an
        # iteration below tolerance with a step just over TOL_STEP, and
        # the next one confirms on that iteration's LU, in either
        # representation of J
        if representation == "dense":
            monkeypatch.setattr(circuit_stamps, "DENSE_MAX_DIM", 10 ** 6)
        held = held_iterations(monkeypatch)
        for out in agc_outages():
            held.clear()
            state, rep = run_homotopy(out, "none", OPTS)
            assert rep.converged
            assert rep.factorizations == rep.iterations - 1
            self.check_held(rep, held)
            assert held[-1]
            assert rep.trace[-2].max_step > TOL_STEP
            assert fresh_step(state) < TOL_STEP

    def test_every_held_step_is_one_a_fresh_lu_confirms(self, monkeypatch):
        # at every returned state that took its last step on a held LU,
        # a J stamped and factored there gives a step below TOL_STEP too
        held = held_iterations(monkeypatch)
        solves = [(flat_start(c, ControlMode()), ControlMode()) for c in (
            load_matpower("case14"), qlimit_rescue_case(),
            stiff_feeder_case(), *agc_outages())]
        confirmed = 0
        for init, ctl in solves:
            held.clear()
            state, rep = nr_solve(init, ctl, OPTS)
            assert rep.converged
            self.check_held(rep, held)
            if held[-1]:
                confirmed += 1
                assert fresh_step(state) < TOL_STEP
        assert confirmed >= 5

    def test_a_stale_step_too_long_is_discarded(self, monkeypatch):
        # plain flat-start NR on the rescue case: iteration 59 starts at
        # max|F| 3.9e-7, but its LU is 8.6e-4 away, and the step it gives
        # is over TOL_STEP, so the iteration factors a J of its own.
        # Iteration 60 starts at 2.3e-12, 2.0e-6 from that LU, and
        # confirms on it
        case = qlimit_rescue_case()
        ctl = ControlMode()
        held = held_iterations(monkeypatch)
        _, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged and rep.iterations == 60
        within = [k + 1 for k in range(1, rep.iterations)
                  if rep.trace[k - 1].max_residual < OPTS.tol_residual]
        assert within == [59, 60]
        assert rep.trace[57].max_step > 8e-4
        assert [k + 1 for k, h in enumerate(held) if h] == [60]
        assert rep.factorizations == 59

    @pytest.mark.parametrize("name", ["case14", "case118-outage"])
    def test_held_solution_is_checked(self, name, monkeypatch):
        # a held LU whose solution does not satisfy its J to 1e-8 gives no
        # step, however short: every iteration then factors its own J,
        # and the solve takes as many iterations as on a true held LU.
        # case14's J is dense, the outage's sparse, solved from the DC
        # angles as n1-screen solves it
        ctl = ControlMode()
        if name == "case14":
            init = flat_start(load_matpower(name), ctl)
        else:
            init = dc_start(agc_outages()[0], ctl)
        _, rep = nr_solve(init, ctl, OPTS)
        assert rep.factorizations == rep.iterations - 1

        class Off:
            """An LU whose every later solution is 1e-7 off, alternating."""

            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                x = self.lu.solve(rhs)
                return x + 1e-7 * (-1.0) ** np.arange(x.size)

        solve = nr_solver.solve_linear

        def off(mat, rhs):
            x, factors = solve(mat, rhs)
            return x, Off(factors)

        monkeypatch.setattr(nr_solver, "solve_linear", off)
        held = held_iterations(monkeypatch)
        _, checked = nr_solve(init, ctl, OPTS)
        assert checked.converged and checked.iterations == rep.iterations
        assert checked.factorizations == checked.iterations
        assert not any(held)
