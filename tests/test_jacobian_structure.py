"""`assemble` sums J's values into a CSC structure built once per
IndexMap. Its J must equal the pass's triplets, the network block's
matrix entries at the pass's scale and then the slots in emitted order,
with duplicates summed in that order, byte for byte, also when modes
switch under one map, and when it is built from a pass the line search
kept. Every J on one map shares one structure. `solve_linear` factors
with the `nr_solver.SPLU` settings and keeps each structure's LU column
order, ordering once per map, and its solutions must equal `splu` with
those settings byte for byte. The network block's entries, kept on the
map per tx relaxation scale and representation, must give the same
bytes when either changes under one map.

Up to `circuit_stamps.DENSE_MAX_DIM` unknowns J is emitted dense; these
tests have every J emitted as CSC (`emit`), but for those that check
the dense J against the same references."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import splitflow.circuit_stamps as circuit_stamps
import splitflow.nr_solver as nr_solver
from splitflow import SingularSystemError
from splitflow.baseline_outer_loop import LARGEST_FIRST, solve_outer_loop
from splitflow.circuit_stamps import (
    ControlMode,
    StateVector,
    assemble,
    build_index,
    flat_start,
    residual,
    stamp,
)
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import SPLU, SolverOptions, solve_linear
from tests.conftest import load_matpower, load_native, random_state
from tests.test_residual_paths import (
    CASES,
    VARIANTS,
    load,
    variant,
    with_slack_members,
)


REPRESENTATIONS = ("csc", "dense")


def emit(monkeypatch, representation):
    """Have `assemble` emit every J in the representation, at any size."""
    monkeypatch.setattr(circuit_stamps, "DENSE_MAX_DIM",
                        sys.maxsize if representation == "dense" else 0)


@pytest.fixture(autouse=True)
def csc_everywhere(monkeypatch):
    emit(monkeypatch, "csc")


def triplets(st):
    """The pass's J triplets (rows, cols, vals) in emitted order: the
    network block's matrix entries at the pass's scale, row by row, then
    every slot of the index map; slack bus rows not yet rewritten."""
    idx, keep = st.index, st.index.j_mask
    Y = idx.net_series
    rows = np.repeat(np.arange(Y.shape[0]), np.diff(Y.indptr))
    return (np.concatenate((rows, idx.j_rows[keep])),
            np.concatenate((Y.indices, idx.j_cols[keep])),
            np.concatenate((st.scale * Y.data + idx.net_shunt.data,
                            st.slot_values()[keep])))


def reference_jacobian(state, ctl):
    """The pass's triplets with the slack rows rewritten the direct way
    (see `rewritten`)."""
    st = stamp(state, ctl)
    return rewritten(state.index, state.x, *triplets(st), st.slack_currents)


def rewritten(idx, x, rows, cols, vals, slack_currents):
    """The slack bus triplets leave their rows, which become unit
    diagonals, and with distributed slack move to the surplus row times
    their row's own voltage, followed by the surplus row's entries I_SR,
    I_SI and -1. Duplicates are summed in that order, each from 0.0, and
    the entries sorted by column and row."""
    r, d = 2 * idx.slack_pos, idx.dps_col
    at = (rows >> 1) == idx.slack_pos
    parts = [(rows[~at], cols[~at], vals[~at]),
             ([r, r + 1], [r, r + 1], [1.0, 1.0])]
    if d is not None:
        on = rows[at]
        parts.append((np.full(on.size, d), cols[at], vals[at] * x[on]))
        parts.append(([d, d, d], [r, r + 1, d], [*slack_currents, -1.0]))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    sums = {}
    for entry, v in zip(zip(cols.tolist(), rows.tolist()), vals.tolist()):
        sums[entry] = sums.get(entry, 0.0) + v
    entries = sorted(sums)
    counts = np.bincount([c for c, _ in entries], minlength=idx.dim)
    return csc_matrix((np.array([sums[e] for e in entries]),
                       np.array([r for _, r in entries], dtype=np.int32),
                       np.r_[0, np.cumsum(counts)].astype(np.int32)),
                      shape=(idx.dim, idx.dim))


def assert_same_bytes(J, ref):
    """J's bytes are ref's: a CSC J's data and pattern, or a dense J's
    every entry, ref given in either representation."""
    if isinstance(J, np.ndarray):
        want = ref if isinstance(ref, np.ndarray) else ref.toarray()
        assert J.dtype == want.dtype and J.shape == want.shape
        assert J.tobytes() == want.tobytes()
        return
    for name in ("data", "indices", "indptr"):
        got, want = getattr(J, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def check(state, ctl):
    """assemble's J at the state, after checking it against the reference."""
    J = assemble(state, ctl)[1]
    assert_same_bytes(J, reference_jacobian(state, ctl))
    return J


ORDER = "MMD_AT_PLUS_A"  # the column order of a pattern's first factorization


class SpyFactor:
    """Records the permc_spec of every splu call nr_solver makes, after
    checking that the call carries every other `SPLU` setting."""

    def __init__(self, monkeypatch):
        self.specs = []
        monkeypatch.setattr(nr_solver, "splu", self)

    def __call__(self, mat, **kw):
        # the settings, but for the column order (checked by the caller)
        assert kw | {"permc_spec": ORDER} == SPLU
        self.specs.append(kw["permc_spec"])
        return splu(mat, **kw)


def plain_solve(J, rhs):
    """The path for any matrix: splu with the `SPLU` settings."""
    return splu(csc_matrix(J), **SPLU).solve(rhs)


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_jacobian_equals_scipy_conversion(case_name, variant_name, monkeypatch):
    case, ctl = variant(load(case_name), variant_name)
    for representation in REPRESENTATIONS:
        emit(monkeypatch, representation)
        for seed in (0, 1):
            J = check(random_state(case, ctl, seed), ctl)
            assert isinstance(J, np.ndarray) == (representation == "dense")


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_dense_jacobian_equals_csc(case_name, variant_name, monkeypatch):
    # one pass, both representations: the dense J is the CSC J's
    # toarray() byte for byte
    case, ctl = variant(load(case_name), variant_name)
    for seed in (0, 1):
        state = random_state(case, ctl, seed)
        st = stamp(state, ctl)
        J = {}
        for representation in REPRESENTATIONS:
            emit(monkeypatch, representation)
            J[representation] = st.jacobian()
        assert isinstance(J["dense"], np.ndarray)
        assert J["dense"].tobytes() == J["csc"].toarray().tobytes()


@pytest.mark.parametrize("variant_name", ["base", "slack-0.5"])
@pytest.mark.parametrize("case_name", CASES)
def test_network_sums_follow_scale_and_representation(case_name,
                                                      variant_name,
                                                      monkeypatch):
    # the network block's entries are kept on the map once per tx
    # relaxation scale and representation: one index map assembled at
    # tx_relax a, b, a, in csc, dense, csc, gives the reference J each time
    case, ctl = variant(load(case_name), variant_name)
    state = random_state(case, ctl, 0)
    for representation in ("csc", "dense", "csc"):
        emit(monkeypatch, representation)
        for tx_relax in (0.0, 0.3, 0.0):
            check(state, replace(ctl, tx_relax=tx_relax))


def test_modes_share_one_structure_on_case30(monkeypatch):
    # FIXED_V rows have no (col, col) partial and held rows no voltage
    # partials: those slots hold stored zeros, so switching modes on one
    # index map keeps its structure and the column order of its first
    # factorization
    case, base = variant(load_matpower("case30"), "base")
    _, fixed = variant(case, "fixed-modes")
    state = random_state(case, base, 0)
    spy = SpyFactor(monkeypatch)
    Js = []
    for ctl in (base, fixed, base):
        Js.append(check(state, ctl))
        F = residual(state, ctl)
        assert (solve_linear(Js[-1], -F)[0].tobytes()
                == plain_solve(Js[-1], -F).tobytes())
    assert all(J.structure is state.index.jac for J in Js)
    assert spy.specs == [ORDER, "NATURAL", "NATURAL"]
    assert np.count_nonzero(Js[1].data == 0.0) > np.count_nonzero(
        Js[0].data == 0.0)


def test_slack_member_on_a_flat():
    # a distributed-slack member past the end of its headroom has slope
    # exactly 0: its surplus-column slots hold stored zeros, and J keeps
    # its index map's structure
    case = with_slack_members(load_matpower("case30"))
    ctl = ControlMode()
    state = random_state(case, ctl, 0)
    idx = state.index
    k = idx.agc_kappa
    past_end = idx.agc_hi / k + 0.001 * (idx.agc_hi - idx.agc_lo) / k
    on_flat = state.copy()
    on_flat.x[idx.dps_col] = past_end.min() + 1e-6
    assert on_flat.index is idx
    Js = [check(s, ctl) for s in (state, on_flat, state)]
    assert all(J.structure is idx.jac for J in Js)
    zeros = [np.count_nonzero(J.data == 0.0) for J in Js]
    assert zeros[1] > zeros[0] == zeros[2]


def test_outer_loop_switches(monkeypatch):
    # every PV <-> PQ switch of the outer loop re-stamps generator rows of
    # another kind under the index map it started with: one structure,
    # ordered by the first factorization of J alone (the first splu call
    # factors the map's B′, at its build)
    case = load_native("oscillation4")
    seen = []
    nr_solve = nr_solver.nr_solve

    def recording(init, ctl, opts, **kw):
        state, report = nr_solve(init, ctl, opts, **kw)
        seen.append((state, ctl))
        return state, report

    monkeypatch.setattr(nr_solver, "nr_solve", recording)
    spy = SpyFactor(monkeypatch)
    _, _, strace = solve_outer_loop(case, SolverOptions(), order=LARGEST_FIRST)
    assert strace.total_switches() == len(seen) - 1 == 6
    assert len({id(state.index) for state, _ in seen}) == 1
    assert spy.specs[:2] == [ORDER, ORDER] and spy.specs.count(ORDER) == 2
    idx = seen[0][0].index
    for state, ctl in seen + seen[::-1]:
        J, F = check(state, ctl), residual(state, ctl)
        assert J.structure is idx.jac
        assert solve_linear(J, -F)[0].tobytes() == plain_solve(J, -F).tobytes()
    assert spy.specs.count(ORDER) == 2


def test_order_dropped_with_the_structure(monkeypatch):
    # the column order lives on the structure, and the structure on its
    # index map: the outer loop's solution moved to the map of a copy of
    # the case, built complete but not yet ordered, is ordered afresh, and
    # the first map keeps its own order
    case = load_native("oscillation4")
    seen = []
    nr_solve = nr_solver.nr_solve

    def recording(init, ctl, opts, **kw):
        state, report = nr_solve(init, ctl, opts, **kw)
        seen.append((state, ctl))
        return state, report

    monkeypatch.setattr(nr_solver, "nr_solve", recording)
    solve_outer_loop(case, SolverOptions(), order=LARGEST_FIRST)
    state, ctl = seen[-1]
    old = state.index.jac
    inv = old.inv
    assert inv is not None
    assert build_index(case) is state.index
    moved = StateVector(build_index(replace(case)), state.x.copy())
    assert moved.index is not state.index and moved.index.jac is not old
    assert moved.index.jac.inv is None
    spy = SpyFactor(monkeypatch)
    for s in (moved, moved, state):
        J, F = check(s, ctl), residual(s, ctl)
        assert J.structure is s.index.jac
        assert solve_linear(J, -F)[0].tobytes() == plain_solve(J, -F).tobytes()
    assert spy.specs == [ORDER, "NATURAL", "NATURAL"]
    assert moved.index.jac is not old and moved.index.jac.inv is not None
    assert old.inv is inv


def test_q_limit_steps_share_one_structure(monkeypatch):
    # the q-limit run's unbounded init holds voltages (FIXED_V rows), and
    # its continuation steps follow sigmoids under scaled limits: every J
    # of the run is on one index map and shares its structure
    case = replace(load_matpower("case30"), agc_enabled=False)
    seen = []
    real = circuit_stamps._Pass.jacobian

    def recording(st):
        J = real(st)
        seen.append((st.index, st.ctl, J.structure))
        return J

    monkeypatch.setattr(circuit_stamps._Pass, "jacobian", recording)
    _, report = run_homotopy(case, "q-limit", SolverOptions())
    assert report.converged
    assert any(ctl.device_modes for _, ctl, _ in seen)
    assert len({id(ctl) for _, ctl, _ in seen if ctl.q_scale}) > 2
    assert len({id(idx) for idx, _, _ in seen}) == 1
    assert all(s is idx.jac for idx, _, s in seen)


def test_returned_jacobian_keeps_its_values():
    case, base = variant(load_matpower("case118"), "base")
    _, fixed = variant(case, "fixed-modes")
    state = random_state(case, base, 0)
    J = assemble(state, base)[1]
    kept = J.data.copy()
    other = StateVector(state.index, random_state(case, base, 1).x)
    assemble(other, base)
    assemble(state, fixed)
    assert J.data.tobytes() == kept.tobytes()
    assert_same_bytes(J, reference_jacobian(state, base))


def test_cached_index_arrays_are_read_only():
    case, ctl = variant(load_matpower("case9"), "base")
    state = random_state(case, ctl, 0)
    J = assemble(state, ctl)[1]
    cached = state.index.jac
    for arr in (J.indices, J.indptr, cached.indices, cached.indptr):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        J.indices[0] = 0
    with pytest.raises(ValueError):
        J.eliminate_zeros()  # scipy would compress the shared arrays in place
    assert_same_bytes(assemble(state, ctl)[1],
                      reference_jacobian(state, ctl))


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_jacobian_from_kept_pass_equals_assembled(case_name, variant_name,
                                                  monkeypatch):
    # the line search's pass at a trial gives the same F and J as a
    # fresh assemble at that state, byte for byte, in either
    # representation
    case, ctl = variant(load(case_name), variant_name)
    for representation in REPRESENTATIONS:
        emit(monkeypatch, representation)
        for seed in (0, 1):
            state = random_state(case, ctl, seed)
            st = stamp(state, ctl)
            F_full, J_full = assemble(state, ctl)
            assert st.F.tobytes() == F_full.tobytes()
            assert_same_bytes(st.jacobian(), J_full)


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_stored_order_solves_bit_equal(case_name, variant_name, monkeypatch):
    # the first factorization of a structure orders its columns; later
    # ones reuse that order and still give plain splu's solution bytes
    case, ctl = variant(load(case_name), variant_name)
    idx = random_state(case, ctl, 0).index
    spy = SpyFactor(monkeypatch)
    structures = []
    # a flat start ties pivot candidates with the diagonal
    for seed in (0, "flat", 1, 2, 0):
        x = (flat_start(case, ctl) if seed == "flat"
             else random_state(case, ctl, seed)).x
        state = StateVector(idx, x)
        F, J = assemble(state, ctl)
        x, _ = solve_linear(J, -F)
        assert x.tobytes() == plain_solve(J, -F).tobytes()
        new = not any(s is J.structure for s in structures)
        structures.append(J.structure)
        assert spy.specs[-1] == (ORDER if new else "NATURAL")
        assert J.structure.inv is not None
    assert "NATURAL" in spy.specs


@pytest.mark.parametrize("agc", [False, True])
def test_kept_order_fill_on_case118(agc):
    # minimum degree on J + Jᵀ: at case118's flat start the kept order's
    # L and U hold at most 6000 entries (COLAMD's held 8455 without
    # distributed slack and 8927 with it)
    case = replace(load_matpower("case118"), agc_enabled=agc)
    ctl = ControlMode()
    F, J = assemble(flat_start(case, ctl), ctl)
    solve_linear(J, -F)
    lu, inv = nr_solver._factor(J)
    assert inv is J.structure.inv is not None  # factored in the kept order
    assert lu.L.nnz + lu.U.nnz <= 6000


def test_singular_first_factorization_stores_nothing():
    case, ctl = variant(load_matpower("case30"), "base")
    state = random_state(case, ctl, 0)
    F, J = assemble(state, ctl)
    # a column of zeros whose rows all hold other entries: no row is
    # empty, but the factorization meets an exactly zero pivot
    rows_per = np.bincount(J.indices, minlength=J.shape[0])
    col = next(c for c in range(J.shape[1])
               if all(rows_per[J.indices[J.indptr[c]:J.indptr[c + 1]]] > 1))
    singular = J.copy()
    singular.structure = J.structure
    singular.indices, singular.indptr = J.indices, J.indptr
    singular.data[J.indptr[col]:J.indptr[col + 1]] = 0.0
    with pytest.raises(SingularSystemError):
        solve_linear(singular, -F)
    s = J.structure
    assert s.inv is None and s.gather is None and s.permuted is None
    # the same matrix with J's values is ordered and stores the order
    singular.data[:] = J.data
    assert (solve_linear(singular, -F)[0].tobytes()
            == plain_solve(J, -F).tobytes())
    assert s.inv is not None


def test_earlier_jacobian_keeps_its_data_and_solution():
    # every solve refills the structure's permuted matrix; the J handed
    # out earlier is left as it was and still solves to the same bytes
    case, ctl = variant(load_matpower("case118"), "slack-0.5")
    first = random_state(case, ctl, 0)
    F1, J1 = assemble(first, ctl)
    data = J1.data.copy()
    x1, _ = solve_linear(J1, -F1)
    F2, J2 = assemble(StateVector(first.index,
                                  random_state(case, ctl, 1).x), ctl)
    assert J2.structure is J1.structure
    solve_linear(J2, -F2)
    assert J1.data.tobytes() == data.tobytes()
    assert solve_linear(J1, -F1)[0].tobytes() == x1.tobytes()


def test_csc_jacobians_are_copies_of_one_template():
    # each CSC J is a shallow copy of the structure's template: an object
    # and data of its own, the structure's row indices and column
    # pointers, and scipy's results of a matrix built from its arrays
    case, ctl = variant(load_matpower("case118"), "base")
    state = random_state(case, ctl, 0)
    J1 = assemble(state, ctl)[1]
    other = StateVector(state.index, random_state(case, ctl, 1).x)
    J2 = assemble(other, ctl)[1]
    s = state.index.jac
    assert J1 is not J2 and J1 is not s.template
    assert not np.shares_memory(J1.data, J2.data)
    assert not np.shares_memory(J1.data, s.template.data)
    assert not hasattr(s.template, "structure")
    x = np.random.default_rng(0).normal(size=J1.shape[0])
    for J in (J1, J2):
        assert J.structure is s
        assert J.indices is J1.indices and J.indptr is s.indptr
        assert np.shares_memory(J.indices, s.indices)
        ref = csc_matrix((J.data.copy(), J.indices, J.indptr), shape=J.shape)
        assert (J @ x).tobytes() == (ref @ x).tobytes()
        assert J.toarray().tobytes() == ref.toarray().tobytes()
        assert_same_bytes(J.tocsr(), ref.tocsr())


def test_empty_row_named_after_the_order_is_kept():
    # the sparse solve looks for an empty row only when factoring fails:
    # zeroing any one row of case118's J, factored in its kept order,
    # still names that row
    case = load_matpower("case118")
    ctl = ControlMode()
    state = flat_start(case, ctl)
    F, J = assemble(state, ctl)
    solve_linear(J, -F)  # the first factorization keeps the order
    F, J = assemble(state, ctl)
    data = J.data.copy()
    for row in range(J.shape[0]):
        J.data[:] = data
        J.data[J.indices == row] = 0.0
        with pytest.raises(SingularSystemError,
                           match=f"row {row} is empty") as exc:
            solve_linear(J, -F)
        assert exc.value.row == row
    assert J.structure.inv is not None
