"""Newton-Raphson inner loop: evaluate, solve, damp, iterate.

Each iteration takes the residual F and Jacobian J from one stamp pass
(`circuit_stamps.stamp`) at the state, whose index map holds the case,
so a solve takes a start state and no case; solves J dx = -F by
LU, clamps the step per variable and backtracks it until the residual
norm drops, or lies below tolerance from a start below it too: there
max|F| is round-off, and a rounding-level rise is no failure (a
residual-based acceptance test; Deuflhard, Newton Methods for Nonlinear
Problems, 2004, ch. 3). If that cut the step, a solve that is not a
sub-solve lands each local generator's q on its sigmoid at the accepted
voltages: its row is q - sigmoid(|V|), so q - F is on the curve
(approximate nonlinear elimination; Lanzkron, Rose & Wilkes, SIAM J.
Sci. Comput. 17(2), 1996); the move is clamped like a Newton step, at
STEP_LIMIT_Q. A steep curve, crossed by almost any full voltage step,
would otherwise hold max|F| up at every trial. Convergence requires both
the residual and the step below tolerance: near-saturated sigmoid
plateaus can make steps tiny while the network equations are still
violated, so the step alone is never trusted, except under a waypoint
bound (`nr_solve`'s waypoint), below which max|F| alone converges. A
sub-solve gives up early, at its first iteration that no trial brings
below the max|F| it started from (a monotonicity test; Deuflhard, Newton
Methods for Nonlinear Problems, 2004, ch. 5).

Every state is stamped once. The next iteration builds J from the pass
at the accepted trial, or at the landed state (`_Pass.jacobian`), and a
landing reads its columns from the accepted trial's pass; only the
first iteration stamps anew. A trial that takes a tap ratio to 0 or
below is a singular point, like a collapsed voltage: its max|F| counts
as infinite, and the step is halved. An iteration that starts with
max|F| below tolerance builds no J unless it must: it first solves with
the LU it holds, of the last J factored, and takes that step if it
solves that J (`check_solution`) and, clamped, is below TOL_STEP, which
converges it. Near a solution an LU factored one short step back gives
the Newton step up to a relative error of the order of that step (a
chord step; Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, 5.4), so it confirms a converged iterate without
stamping and factoring J. Any other start, and a held step that is too
long or fails its check, stamps and factors J. The held LU is never
tried from max|F| above tolerance: held at every iteration (the chord
method), it took the 60 case118 outages' flat-start solves from 565 to
1659 NR iterations, and tried from max|F| < 1e-3 it took the census
from 7581 to 7663.

J comes in two representations, by its dimension alone. Up to
`circuit_stamps.DENSE_MAX_DIM` unknowns it is a dense array, and
`solve_linear` runs LAPACK's LU (gesv): at those sizes SuperLU's fixed
cost per call, not its arithmetic, dominates the solve, and a dense
fill plus LAPACK is the cheaper call (`tools/lu_probe.py`, whose
`BENCH_lu.json` times both). The two LUs round differently, and the
step rule below tolerance makes no count depend on it. Above the
crossover J is a CSC matrix, and every sparse LU runs with the settings
in `SPLU`: a minimum-degree column order on the pattern of J + Jᵀ,
which suits power-flow Jacobians (near-symmetric in pattern), no
relaxed supernodes or panels (their supernodes are tiny), and
diagonal-preferring pivots. J has one pattern per index map, and the
first factorization on a map orders its columns; later ones factor J
with its columns already in that order, which gives the same LU and the
same solution bit for bit.

`solve_linear` also returns its factorization: `DenseLU` holds LAPACK's
LU and pivots and solves again by getrs, `SparseLU` the SuperLU object
and its stored order. A solve holds one LU at a time, each factored J's
until the next replaces it, and a converged solve hands the LU of the
last J it factored back in `SolveReport.factors`, which a continuation
predicts its next step from (`homotopy_driver`). A waypoint sub-solve
ends at max|F| < 1e-3, before any iteration starts below the default
tolerance, so it always hands back the LU of the J at the iterate
before its last step. `SolveReport.factorizations` counts a solve's LUs
of J.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrs
from scipy.sparse import spmatrix
from scipy.sparse.linalg import splu

from .circuit_stamps import ControlMode, StateVector, stamp
from .errors import SingularPointError, SingularSystemError

TOL_STEP = 1e-6  # largest step of a converged iteration
STEP_LIMIT_VOLTAGE = 0.1  # per-iteration clamp on each voltage component
STEP_LIMIT_Q = 1.0  # per-iteration clamp on every other unknown
# SuperLU settings of every factorization. The diagonal stays the pivot
# unless it is below a tenth of its column's largest entry, so a unit row
# whose column has entries elsewhere (a degenerate device) keeps its unit
# pivot and solves exactly, which LAPACK's partial pivoting need not
SPLU = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 1,
        "diag_pivot_thresh": 0.1}
# the same settings for a matrix whose columns are already in order
_SPLU_ORDERED = SPLU | {"permc_spec": "NATURAL"}


@dataclass
class SolverOptions:
    tol_residual: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if (isinstance(self.tol_residual, bool)  # a number, but no tolerance
                or not isinstance(self.tol_residual, Real)
                or not 0.0 < self.tol_residual < float("inf")):
            raise ValueError("tol_residual must be a finite number > 0")
        if (isinstance(self.max_iter, bool)  # an int, but no count
                or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise ValueError("max_iter must be an integer >= 1")


@dataclass
class TraceRow:
    """One NR iteration in the solver trace (CSV-ready)."""

    phase: str
    outer_iter: int
    inner_iter: int
    lambda_s: float
    lambda_g_max: float
    lambda_p: float
    lambda_tx: float
    max_residual: float
    max_step: float
    pv_to_pq: int = 0
    pq_to_pv: int = 0
    t: float | None = None  # continuation progress; None outside one
    accepted: bool = True  # whether the continuation took this sub-solve
    alpha: float = 0.0  # line-search step taken; 0 when none was


@dataclass
class SolveReport:
    """One NR solve, or a pipeline's total. SolveReport() is an empty
    total, and `add` is the one rule that forms any total. A solve counts
    itself alone (stalled_subsolves is 1 if it ended stalled);
    continuation backtracks and outer iterations count into totals."""

    converged: bool = False
    iterations: int = 0
    final_residual: float = float("inf")
    trace: list = field(default_factory=list)
    outer_iterations: int = 0
    diagnostics: list = field(default_factory=list)
    # whether a sub-solve ended early, at an iteration that lowered no max|F|
    stalled: bool = False
    stalled_subsolves: int = 0  # sub-solves ended stalled
    continuation_backtracks: int = 0  # failed continuation steps retried
    residual_evals: int = 0  # line-search trials evaluated
    line_search_backtracks: int = 0  # trials rejected, each halving the step
    factorizations: int = 0  # LUs of J made (`solve_linear` calls)
    # a converged solve's own: the LU of the last J it factored, at the
    # iterate before its last step (of any length at a waypoint), or at
    # an earlier one when that step was taken on the held LU; a
    # continuation predicts its next step from it; no total ever holds it
    factors: DenseLU | SparseLU | None = field(
        default=None, repr=False, compare=False)

    def add(self, later: SolveReport) -> None:
        """Add a later solve into this total: counters, trace rows and
        diagnostics add up; the outcome (converged, final_residual,
        stalled) becomes the later solve's; factors stay the solve's."""
        for f in fields(self):
            if f.name == "factors":
                continue
            value = getattr(later, f.name)
            if f.name not in ("converged", "final_residual", "stalled"):
                value = getattr(self, f.name) + value
            setattr(self, f.name, value)


def solve_linear(mat: np.ndarray | spmatrix, rhs: np.ndarray):
    """Direct solve of mat x = rhs: LAPACK for a dense array, sparse LU
    for a sparse matrix. Returns (x, factors): factors, a `DenseLU` or
    `SparseLU`, solve mat x = b for another b without factoring anew.

    The sparse LU factors with the `SPLU` settings. A J from a stamp
    pass carries its index map's structure, which keeps the LU column order
    of its pattern after the first factorization (see `_factor`); any
    other sparse matrix is ordered on each call.

    Raises SingularSystemError, carrying a suspect row index for an
    empty row, when an entry is not finite, a row is empty (stored zeros
    count as empty), the factorization fails or the solution does not
    satisfy the system. Both paths look for an empty row only once the
    factorization or solution check has failed: an all-zero row never
    holds a pivot, so it always leaves an exactly zero one, and a solve
    that succeeds has no empty row.
    """
    dense = isinstance(mat, np.ndarray)
    if not dense:
        mat = mat.tocsc()
    if (not np.isfinite(mat if dense else mat.data).all()
            or not np.isfinite(rhs).all()):
        raise SingularSystemError("non-finite entries in assembled system")
    try:
        factors, x = (_factor_dense if dense else _factor_sparse)(mat, rhs)
        check_solution(mat, x, rhs)
    except SingularSystemError:
        # a row with no nonzero, stored zeros counted as empty (CSC
        # indices are row indices)
        empty = (~mat.any(axis=1) if dense else np.bincount(
            mat.indices, np.abs(mat.data), minlength=mat.shape[0]) == 0.0)
        if empty.any():
            row = int(empty.argmax())
            raise SingularSystemError(
                f"structurally singular system: row {row} is empty",
                row=row)
        raise
    return x, factors


def check_solution(mat, x, rhs) -> None:
    """Raise SingularSystemError unless x is finite and satisfies
    mat x = rhs to a relative 1e-8."""
    if not np.isfinite(x).all():
        raise SingularSystemError("linear solve produced non-finite values")
    err = np.abs(mat @ x - rhs).max() / max(1.0, np.abs(rhs).max())
    if err > 1e-8:
        raise SingularSystemError(
            f"near-singular system: relative solve error {err:.3e}"
        )


class DenseLU:
    """LAPACK's LU of a dense matrix with its pivots (from gesv): `solve`
    is the matrix's solution for any right-hand side, by getrs."""

    def __init__(self, lu, piv):
        self.lu, self.piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgetrs(self.lu, self.piv, rhs)[0]


class SparseLU:
    """SuperLU's factors of a sparse matrix and the order inv they solve
    in, or None (see `_factor`): `solve` is the matrix's solution for any
    right-hand side."""

    def __init__(self, lu, inv):
        self.lu, self.inv = lu, inv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.inv is None:
            return self.lu.solve(rhs)
        x = np.empty_like(rhs)
        x[self.inv] = self.lu.solve(rhs[self.inv])
        return x


def _factor_dense(mat, rhs):
    """LAPACK's LU of mat, and its solution of mat x = rhs."""
    lu, piv, x, info = dgesv(mat, rhs)
    if info > 0:
        raise SingularSystemError(
            f"dense LU factorization failed: exactly zero pivot {info}")
    return DenseLU(lu, piv), x


def _factor_sparse(mat, rhs):
    """SuperLU's factors of mat, in the stored order if any, and their
    solution of mat x = rhs."""
    try:
        factors = SparseLU(*_factor(mat))
        return factors, factors.solve(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc


def _factor(mat):
    """splu of mat, and the order inv that it solves in, or None: with
    inv, mat x = b is solved as y = lu.solve(b[inv]), x[inv] = y.

    A J that shares its pattern with the structure it carries is factored
    as the structure's permuted matrix, refilled with J's values, in the
    NATURAL order, once the structure has the pattern's order; the first
    factorization on an index map orders it (minimum degree on J + Jᵀ)
    and gives the structure that order. Every call uses the `SPLU`
    settings."""
    s = getattr(mat, "structure", None)
    # scipy keeps the structure's column pointers and a view of its row
    # indices; a J whose pattern arrays were replaced is ordered afresh
    if s is None or mat.indptr is not s.indptr or (
            mat.indices is not s.indices and mat.indices.base is not s.indices):
        return splu(mat, **SPLU), None
    if s.permuted is None:
        lu = splu(mat, **SPLU)
        s.keep_order(lu.perm_c)
        return lu, None
    np.take(mat.data, s.gather, out=s.permuted.data)
    return splu(s.permuted, **_SPLU_ORDERED), s.inv


def step_limit(dx: np.ndarray, state: StateVector) -> np.ndarray:
    """Per-variable clamp: voltages move at most STEP_LIMIT_VOLTAGE per
    iteration, all other unknowns at most STEP_LIMIT_Q. Signs preserved.
    The bounds per unknown are built once per index map
    (`IndexMap.step_bound`)."""
    idx = state.index
    if idx.step_bound is None:
        bound = np.full(idx.dim, STEP_LIMIT_Q)
        bound[:idx.voltage_dim()] = STEP_LIMIT_VOLTAGE
        idx.step_bound = (-bound, bound)
    lo, hi = idx.step_bound
    return np.minimum(np.maximum(dx, lo), hi)


def _confirming_step(J, factors, F, state):
    """The clamped step -J⁻¹ F by the held LU of J, factored at an
    earlier iterate, or None unless it solves J dx = -F (`check_solution`)
    and is below TOL_STEP: a step that short converges the iteration that
    starts below tolerance, and costs no J and no LU."""
    rhs = -F
    dx = factors.solve(rhs)
    try:
        check_solution(J, dx, rhs)
    except SingularSystemError:
        return None
    dx = step_limit(dx, state)
    return dx if np.abs(dx).max() < TOL_STEP else None


def _trace_lambdas(ctl: ControlMode):
    lg = max(ctl.q_scale.values()) if ctl.q_scale else 1.0
    return ctl.smoothing_relax, lg, ctl.p_relax, ctl.tx_relax


def _residual_norm(state, ctl):
    """max|F| at a line-search trial, and its stamp pass, which gives the
    next J; a singular point (a collapsed voltage, a tap ratio not > 0)
    counts as an infinite residual, with no pass."""
    try:
        st = stamp(state, ctl)
    except SingularPointError:
        return float("inf"), None
    return float(np.abs(st.F).max()), st


def nr_solve(init: StateVector, ctl: ControlMode, opts: SolverOptions,
             phase: str = "solve", outer_iter: int = 0, subsolve: bool = False,
             waypoint: float | None = None,
             ) -> tuple[StateVector, SolveReport]:
    """Iterate until residual and step are both below tolerance, or
    max|F| alone is below a given waypoint, or max_iter is reached.
    Non-convergence is reported, not raised; singular systems raise
    SingularSystemError with the iteration.

    The step rule: the Newton step is clamped per variable (`step_limit`)
    and backtracked (halving, floor 1/64) until max|F| decreases, or is
    below opts.tol_residual from a start below it too, else the best
    trial is taken; without the guard, steep saturation curves settle
    into period-2 limit cycles. Outside a sub-solve, a cut step
    (alpha < 1) is followed by landing the local generators on their
    curves, q -= F[q] from the accepted trial's pass clamped at
    STEP_LIMIT_Q, at the q columns that pass has on a sigmoid, and one
    more evaluation, whose pass gives the next F and J; the landing move
    counts in max_step.
    residual_evals counts trials and landings, line_search_backtracks the
    rejected trials.

    An iteration that starts with max|F| below opts.tol_residual first
    takes the clamped step of the LU it holds (`_confirming_step`), if
    that step solves the held LU's J and is below TOL_STEP; it then
    stamps and factors no J. Otherwise, and at iteration 1, J is stamped
    and factored; factorizations counts those LUs.

    A subsolve lands no generator, and also ends, not converged and with
    report.stalled set, at the first iteration that does not converge
    and whose line search found no trial below the max|F| it started
    from; one that creeps down by any amount runs on to max_iter.
    Measured without this rule over `tools/pipeline_census.py`, 156 of
    162 failed sub-solves had an iteration without descent before their
    last, and 2 of 3574 accepted ones (one solve, run with snap off and
    on) did, so the rule ends failing sub-solves early and almost never
    a converging one.
    Continuation sub-solves and p-limit's linear init solve are
    sub-solves, to give up on a step that has stopped contracting:
    landing cost the continuations iterations and took that init solve
    to a far equilibrium on oscillation4. Other top-level solves are
    not, since they can cross a plateau (eight idle iterations on a
    stiff radial feeder's direct solve, say) and still converge. A
    converged solve's report also carries the LU of the last J it
    factored (`SolveReport.factors`).
    """
    state = init.copy()
    lam_s, lam_g, lam_p, lam_tx = _trace_lambdas(ctl)
    trace: list[TraceRow] = []
    converged = stalled = False
    it = evals = backtracks = factorizations = 0
    max_res = st = factors = J = None
    for it in range(1, opts.max_iter + 1):
        dx = None
        if factors is not None and max_res < opts.tol_residual:
            dx = _confirming_step(J, factors, st.F, state)
        if dx is None:
            # the start, or a trial that left no pass; a collapsed
            # start raises in stamp
            st = st or stamp(state, ctl)
            if max_res is None:  # the starting norm
                max_res = float(np.abs(st.F).max())
            J = st.jacobian()
            try:
                factors = None  # one LU at a time: this one goes first
                dx, factors = solve_linear(J, -st.F)
            except SingularSystemError as exc:
                exc.iteration = it
                raise
            factorizations += 1
            dx = step_limit(dx, state)
        alpha, best_x, best_res, best_alpha = 1.0, None, float("inf"), 0.0
        while alpha >= 1.0 / 64.0:
            trial = StateVector(state.index, state.x + alpha * dx)
            r, trial_pass = _residual_norm(trial, ctl)
            evals += 1
            if r < best_res:
                best_x, best_res, best_alpha, st = trial.x, r, alpha, trial_pass
            # below tolerance max|F| is round-off, so a trial there holds
            # if the start was there too, not only if it is lower
            if r < max_res or max(r, max_res) < opts.tol_residual:
                break
            backtracks += 1
            alpha /= 2.0
        if best_x is None:
            max_res = float("inf")
            trace.append(TraceRow(phase, outer_iter, it, lam_s, lam_g,
                                  lam_p, lam_tx, max_res, 0.0))
            break
        dx = best_alpha * dx
        state.x = best_x
        start, max_res = max_res, best_res
        if best_alpha < 1.0 and not subsolve and (
                land := st.c.gen_curves).size:
            move = np.clip(st.F[land], -STEP_LIMIT_Q, STEP_LIMIT_Q)
            state.x[land] -= move
            dx[land] -= move
            max_res, st = _residual_norm(state, ctl)
            evals += 1
        max_step = float(np.abs(dx).max())
        trace.append(TraceRow(phase, outer_iter, it, lam_s, lam_g, lam_p,
                              lam_tx, max_res, max_step, alpha=best_alpha))
        if (max_res < opts.tol_residual and max_step < TOL_STEP
                or waypoint is not None and max_res < waypoint):
            converged = True
            break
        if subsolve and max_res >= start:
            stalled = True
            break
    report = SolveReport(
        converged=converged,
        iterations=it,
        final_residual=max_res,
        trace=trace,
        stalled=stalled,
        stalled_subsolves=int(stalled),
        residual_evals=evals,
        line_search_backtracks=backtracks,
        factorizations=factorizations,
        factors=factors if converged else None,
    )
    return state, report


def try_solve(init, ctl, opts, phase="solve", outer_iter=0,
              **kw) -> tuple[StateVector, SolveReport]:
    """nr_solve, keywords (subsolve, waypoint) passed on, with a singular
    system or point reported as a failed solve at init, of no iterations,
    whose diagnostics hold the error."""
    try:
        return nr_solve(init, ctl, opts, phase=phase,
                        outer_iter=outer_iter, **kw)
    except (SingularSystemError, SingularPointError) as exc:
        return init, SolveReport(diagnostics=[str(exc)])
