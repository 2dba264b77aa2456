"""`assemble` sums J's values into a CSC structure cached on the
IndexMap, keyed by the J slots a pass keeps. Its J must equal the pass's
triplets with duplicates summed in the order they are emitted, byte for
byte, also when the structure changes under one map, and when it is
built from a pass the line search kept. `solve_linear` keeps each
structure's LU column order, and its solutions must equal plain `splu`
byte for byte."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import splitflow.baseline_outer_loop as outer_loop
import splitflow.nr_solver as nr_solver
from splitflow import SingularSystemError
from splitflow.baseline_outer_loop import LARGEST_FIRST, solve_outer_loop
from splitflow.circuit_stamps import (
    StateVector,
    _Pass,
    _stamp_pass,
    assemble,
    base_control,
    flat_start,
    residual,
)
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import SolverOptions, solve_linear
from tests.conftest import load_matpower, load_native, random_state
from tests.test_residual_paths import (
    CASES,
    VARIANTS,
    load,
    variant,
    with_slack_members,
)


def triplets(st):
    """The pass's J triplets (rows, cols, vals) in emitted order: the
    network block's, then every kept slot's; slack bus rows not yet
    rewritten."""
    idx, keep = st.index, st.kept()
    return (np.concatenate((idx.net_rows, idx.j_rows[keep])),
            np.concatenate((idx.net_cols, idx.j_cols[keep])),
            np.concatenate((st.net, st.slot_values()[keep])))


def reference_jacobian(case, state, ctl):
    """The pass's triplets with the slack rows rewritten the direct way
    (see `rewritten`)."""
    st = _stamp_pass(case, state, ctl)
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


def pattern(J):
    return J.indices.tobytes(), J.indptr.tobytes()


def assert_same_bytes(J, ref):
    for name in ("data", "indices", "indptr"):
        got, want = getattr(J, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def check(case, state, ctl):
    """assemble's J at the state, after checking it against the reference."""
    J = assemble(case, state, ctl)[1]
    assert_same_bytes(J, reference_jacobian(case, state, ctl))
    return J


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_jacobian_equals_scipy_conversion(case_name, variant_name):
    case, ctl = variant(load(case_name), variant_name)
    for seed in (0, 1):
        check(case, random_state(case, ctl, seed), ctl)


def test_alternating_structures_on_one_index_map():
    case, base = variant(load_matpower("case30"), "base")
    _, fixed = variant(case, "fixed-modes")
    state = random_state(case, base, 0)
    patterns = []
    for ctl in (base, fixed, base):
        patterns.append(pattern(check(case, state, ctl)))
    assert patterns[0] != patterns[1] and patterns[0] == patterns[2]


def test_slack_member_on_a_flat():
    # a distributed-slack member past the end of its headroom has slope
    # exactly 0 and emits no surplus-column entries, which changes J's
    # structure under the same index map
    case = with_slack_members(load_matpower("case30"))
    ctl = base_control(case)
    state = random_state(case, ctl, 0)
    idx = state.index
    k = idx.agc_kappa
    past_end = idx.agc_hi / k + 0.001 * (idx.agc_hi - idx.agc_lo) / k
    on_flat = state.copy()
    on_flat.x[idx.dps_col] = past_end.min() + 1e-6
    assert on_flat.index is idx
    sizes = []
    for s in (state, on_flat, state):
        sizes.append(np.count_nonzero(_stamp_pass(case, s, ctl).kept()))
        check(case, s, ctl)
    assert sizes[1] < sizes[0] == sizes[2]


def test_outer_loop_switches(monkeypatch):
    # every PV <-> PQ switch of the outer loop re-stamps generator rows of
    # another kind under the index map it started with
    case = load_native("oscillation4")
    seen = []
    nr_solve = outer_loop.nr_solve

    def recording(case, init, ctl, opts, **kw):
        state, report = nr_solve(case, init, ctl, opts, **kw)
        seen.append((state, ctl))
        return state, report

    monkeypatch.setattr(outer_loop, "nr_solve", recording)
    _, _, strace = solve_outer_loop(case, SolverOptions(), order=LARGEST_FIRST)
    assert strace.total_switches() == len(seen) - 1 == 6
    assert len({id(state.index) for state, _ in seen}) == 1
    patterns = set()
    for state, ctl in seen + seen[::-1]:
        patterns.add(pattern(check(case, state, ctl)))
    assert len(patterns) > 1


def test_flipping_one_kept_slot_rebuilds_the_structure(monkeypatch):
    # the kept slots are the key: one slot turned off gives a new
    # structure, and turned on again another new one with the first's
    # pattern (only the last structure is cached)
    case, ctl = variant(load_matpower("case9"), "base")
    state = random_state(case, ctl, 0)
    idx = state.index
    first = check(case, state, ctl)
    keep = _stamp_pass(case, state, ctl).kept()
    entries = Counter(zip(idx.j_rows[keep].tolist(), idx.j_cols[keep].tolist()))
    entries.update(zip(idx.net_rows.tolist(), idx.net_cols.tolist()))
    # a kept slot outside the slack rows whose entry no other source has
    k = next(k for k in np.flatnonzero(keep)
             if idx.j_rows[k] >> 1 != idx.slack_pos
             and entries[idx.j_rows[k], idx.j_cols[k]] == 1)
    kept = _Pass.kept

    def flipped(st):
        keep = kept(st).copy()
        keep[k] = False
        return keep

    monkeypatch.setattr(_Pass, "kept", flipped)
    off = check(case, state, ctl)
    assert off.structure is not first.structure
    assert off.nnz == first.nnz - 1
    monkeypatch.undo()
    on = check(case, state, ctl)
    assert on.structure is not off.structure
    assert on.structure is not first.structure
    assert pattern(on) == pattern(first)


def test_q_limit_steps_share_one_structure(monkeypatch):
    # the q-limit continuation's steps differ in q_scale alone, which
    # keeps the same slots: every step of the path reuses one structure
    case = replace(load_matpower("case30"), agc_enabled=False)
    seen = []
    real = nr_solver.assemble

    def recording(case, state, ctl, kept=None):
        F, J = real(case, state, ctl, kept)
        if ctl.q_scale and not ctl.device_modes:
            seen.append((ctl, J.structure))
        return F, J

    monkeypatch.setattr(nr_solver, "assemble", recording)
    _, report = run_homotopy(case, None, "q-limit", SolverOptions())
    assert report.converged
    assert len({id(ctl) for ctl, _ in seen}) > 2
    assert len({id(s) for _, s in seen}) == 1


def test_returned_jacobian_keeps_its_values():
    case, base = variant(load_matpower("case118"), "base")
    _, fixed = variant(case, "fixed-modes")
    state = random_state(case, base, 0)
    J = assemble(case, state, base)[1]
    kept = J.data.copy()
    other = StateVector(state.index, random_state(case, base, 1).x)
    assemble(case, other, base)
    assemble(case, state, fixed)
    assert J.data.tobytes() == kept.tobytes()
    assert_same_bytes(J, reference_jacobian(case, state, base))


def test_cached_index_arrays_are_read_only():
    case, ctl = variant(load_matpower("case9"), "base")
    state = random_state(case, ctl, 0)
    J = assemble(case, state, ctl)[1]
    cached = state.index.jac
    for arr in (J.indices, J.indptr, cached.indices, cached.indptr):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        J.indices[0] = 0
    with pytest.raises(ValueError):
        J.eliminate_zeros()  # scipy would compress the shared arrays in place
    assert_same_bytes(assemble(case, state, ctl)[1],
                      reference_jacobian(case, state, ctl))


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_jacobian_from_kept_pass_equals_assembled(case_name, variant_name):
    # the line search's pass at a trial gives the same J as a fresh
    # assemble at that state, byte for byte
    case, ctl = variant(load(case_name), variant_name)
    for seed in (0, 1):
        state = random_state(case, ctl, seed)
        F, kept = residual(case, state, ctl, keep=True)
        F_kept, J_kept = assemble(case, state, ctl, kept)
        F_full, J_full = assemble(case, state, ctl)
        assert F_kept is F
        assert F_kept.tobytes() == F_full.tobytes()
        assert_same_bytes(J_kept, J_full)


def test_kept_pass_of_another_state_rejected():
    case, ctl = variant(load_matpower("case9"), "base")
    state = random_state(case, ctl, 0)
    _, kept = residual(case, state, ctl, keep=True)
    with pytest.raises(ValueError, match="another state"):
        assemble(case, state.copy(), ctl, kept)


class SpyFactor:
    """Records the permc_spec of every splu call nr_solver makes."""

    def __init__(self, monkeypatch):
        self.specs = []
        monkeypatch.setattr(nr_solver, "splu", self)

    def __call__(self, mat, permc_spec=None):
        self.specs.append(permc_spec)
        return splu(mat, permc_spec=permc_spec)


def plain_solve(J, rhs):
    """Today's path for any matrix: splu with its default ordering."""
    return splu(csc_matrix(J)).solve(rhs)


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
        F, J = assemble(case, state, ctl)
        x = solve_linear(J, -F)
        assert x.tobytes() == plain_solve(J, -F).tobytes()
        new = not any(s is J.structure for s in structures)
        structures.append(J.structure)
        assert spy.specs[-1] == (None if new else "NATURAL")
        assert J.structure.inv is not None
    assert "NATURAL" in spy.specs


def test_order_dropped_with_the_structure(monkeypatch):
    # oscillation4's PV <-> PQ switches rebuild J's structure under one
    # index map; each new structure orders its columns afresh
    case = load_native("oscillation4")
    seen = []
    nr_solve = outer_loop.nr_solve

    def recording(case, init, ctl, opts, **kw):
        state, report = nr_solve(case, init, ctl, opts, **kw)
        seen.append((state, ctl))
        return state, report

    monkeypatch.setattr(outer_loop, "nr_solve", recording)
    solve_outer_loop(case, SolverOptions(), order=LARGEST_FIRST)
    spy = SpyFactor(monkeypatch)
    last, rebuilt = None, 0
    for state, ctl in seen + seen[::-1]:
        F, J = assemble(case, state, ctl)
        if J.structure is not last:
            assert J.structure.inv is None
            rebuilt += 1
        x = solve_linear(J, -F)
        assert spy.specs[-1] == (None if J.structure is not last
                                 else "NATURAL")
        assert x.tobytes() == plain_solve(J, -F).tobytes()
        last = J.structure
    assert rebuilt > 2


def test_singular_first_factorization_stores_nothing():
    case, ctl = variant(load_matpower("case30"), "base")
    state = random_state(case, ctl, 0)
    F, J = assemble(case, state, ctl)
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
    assert solve_linear(singular, -F).tobytes() == plain_solve(J, -F).tobytes()
    assert s.inv is not None


def test_earlier_jacobian_keeps_its_data_and_solution():
    # every solve refills the structure's permuted matrix; the J handed
    # out earlier is left as it was and still solves to the same bytes
    case, ctl = variant(load_matpower("case118"), "slack-0.5")
    first = random_state(case, ctl, 0)
    F1, J1 = assemble(case, first, ctl)
    data = J1.data.copy()
    x1 = solve_linear(J1, -F1)
    F2, J2 = assemble(case, StateVector(first.index,
                                        random_state(case, ctl, 1).x), ctl)
    assert J2.structure is J1.structure
    solve_linear(J2, -F2)
    assert J1.data.tobytes() == data.tobytes()
    assert solve_linear(J1, -F1).tobytes() == x1.tobytes()
