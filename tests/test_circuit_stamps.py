from dataclasses import replace

import numpy as np
import pytest

from splitflow import (
    Branch,
    Bus,
    Generator,
    Load,
    NetworkCase,
    SingularPointError,
    SwitchedShunt,
    parse_matpower,
)
import splitflow.circuit_stamps as circuit_stamps
import splitflow.nr_solver as nr_solver
from splitflow.case_model import TapControl
from splitflow.cli_reporting import run_baseline, run_continuous, summary_lines
from splitflow.circuit_stamps import (
    FIXED_Q,
    FIXED_V,
    ControlMode,
    StateVector,
    assemble,
    build_index,
    classify_regions,
    controlled_devices,
    dc_start,
    flat_start,
    residual,
    slack_participation,
    stamp,
)
from splitflow.homotopy_driver import _unbounded_control, run_homotopy
from splitflow.nr_solver import SolverOptions, nr_solve
from tests.conftest import (
    CASE_DIR,
    MATPOWER_CASES,
    NATIVE_CASES,
    as_array,
    assert_jacobian_matches,
    in_case_numbering,
    load_matpower,
    load_native,
    lossless_agc_case,
    qlimit_rescue_case,
    random_state,
    remote_pair_case,
    series_gb,
    shunt_case,
    stiff_feeder_case,
    tapped_case,
    three_bus_pv_case,
    two_bus_case,
    without_out_of_service,
)

OPTS = SolverOptions()

def full_configuration_case():
    """A local PV generator, a remote group of 2, a controlled tap and
    AGC."""
    gt, bt = series_gb(0.002, 0.06)
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pv", 1.02),
               Bus(3, 230.0, "pq"), Bus(4, 230.0, "pq"),
               Bus(5, 230.0, "pq"), Bus(6, 230.0, "pq")),
        branches=(Branch(1, 5, 1.0, -8.0), Branch(2, 5, 1.0, -8.0),
                  Branch(3, 5, 1.0, -8.0), Branch(4, 5, 1.0, -8.0),
                  Branch(5, 6, gt, bt,
                         tap=TapControl(0.9, 1.1, 1.0, "secondary")),),
        generators=(
            Generator(2, 0.2, 1.02, -1, 1, 0, 1, agc_factor=0.5),
            Generator(3, 0.2, 1.02, -1, 1, 0, 1, remote_bus=5,
                      remote_factor=0.5),
            Generator(4, 0.2, 1.02, -1, 1, 0, 1, remote_bus=5,
                      remote_factor=0.5),
        ),
        loads=(Load(6, 0.5, 0.2),),
        agc_enabled=True,
    )


# every bundled case and every case the conftest builders make, and one
# with every kind of device
ALL_CASES = {
    **{n: lambda n=n: load_matpower(n) for n in MATPOWER_CASES},
    **{n: lambda n=n: load_native(n) for n in NATIVE_CASES},
    "two_bus": two_bus_case, "three_bus_pv": three_bus_pv_case,
    "remote_pair": remote_pair_case,
    "tapped_secondary": lambda: tapped_case("secondary"),
    "tapped_primary": lambda: tapped_case("primary"),
    "shunted": shunt_case, "lossless_agc": lossless_agc_case,
    "qlimit_rescue": qlimit_rescue_case, "stiff_feeder": stiff_feeder_case,
    "every_device": lambda: replace(
        full_configuration_case(),
        shunts=(SwitchedShunt(6, 0.0, 0.5, 0.1, 1.0),)),
}


def snapped_variants(case):
    """ControlModes of the first shunt snapped at b = 0.1 and of the first
    tap held at ratio 1.0 (FIXED_Q), each where the case has one, and of
    both; with the held values by device key."""
    taps = [bi for bi, br in enumerate(case.branches) if br.tap is not None]
    shunt = [({0: 0.1}, {("shunt", 0): 0.1})] if case.shunts else []
    tap = [{("tap", taps[0]): 1.0}] if taps else []
    out = []
    for shunt_b, held in shunt + [({}, {})]:
        for fixed in tap + [{}]:
            ctl = replace(ControlMode(), fixed_shunt_b=shunt_b,
                          device_modes=dict.fromkeys(fixed, FIXED_Q),
                          fixed_q=fixed)
            out.append((ctl, held | fixed))
    return out[:-1]


def case_limits(case, key):
    """The (lo, hi) limits the case gives the device key: q_min/q_max,
    b_min/b_max or tr_min/tr_max."""
    kind, i = key
    if kind == "gen":
        return case.generators[i].q_min, case.generators[i].q_max
    if kind == "shunt":
        return case.shunts[i].b_min, case.shunts[i].b_max
    return case.branches[i].tap.tr_min, case.branches[i].tap.tr_max


def branch_jacobian(branch):
    """J of a two-bus case holding only the given branch from bus 1 to 2,
    at positions 0 and 1: bus position pos has its V_R and V_I columns
    at 2 * pos and 2 * pos + 1."""
    case = NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pq")),
        branches=(branch,), generators=(), loads=(),
    )
    ctl = ControlMode()
    state = flat_start(case, ctl)
    return as_array(assemble(state, ctl)[1])


def load_delta(case):
    """(dF, dJ): what the case's loads add at its flat start."""
    ctl = ControlMode()
    state = flat_start(case, ctl)
    F, J = assemble(state, ctl)
    # the index holds the case's device arrays, so the load-free case
    # gets its own (same-shaped) index
    bare = replace(case, loads=())
    F0, J0 = assemble(StateVector(build_index(bare), state.x), ctl)
    return F - F0, as_array(J - J0)


class TestBranchStamp:
    def test_hand_expanded_entries(self):
        # series g=1, b=-5: the real KCL row at the from bus carries
        # +g on V_R1, -b on V_I1, -g on V_R2, +b on V_I2
        A = branch_jacobian(Branch(1, 2, 1.0, -5.0))
        f, t = 0, 1  # bus positions
        row = 2 * t  # real KCL at bus 2 (bus 1 rows are slack-replaced)
        assert A[row, 2 * t] == pytest.approx(1.0)
        assert A[row, 2 * t + 1] == pytest.approx(5.0)
        assert A[row, 2 * f] == pytest.approx(-1.0)
        assert A[row, 2 * f + 1] == pytest.approx(-5.0)
        rowi = 2 * t + 1
        assert A[rowi, 2 * t] == pytest.approx(-5.0)
        assert A[rowi, 2 * t + 1] == pytest.approx(1.0)

    def test_zero_charging_adds_no_shunt_term(self):
        g, b = 1.0, -5.0
        A = branch_jacobian(Branch(1, 2, g, b, b_sh=0.0))
        # without charging, the cross term V_I2 in the real row at bus 2
        # (position 1) is exactly -b; charging would shift it
        t = 1
        assert A[2 * t, 2 * t + 1] == pytest.approx(-b)

    def test_fixed_ratio_blocks(self):
        # a fixed-ratio transformer scales the from-side self block by
        # 1/ratio^2 and the transfer blocks by 1/ratio
        ratio = 0.95
        A = branch_jacobian(Branch(1, 2, 1.0, -5.0, ratio=ratio))
        f, t = 0, 1  # bus positions
        assert A[2 * t, 2 * t] == pytest.approx(1.0)
        assert A[2 * t, 2 * f] == pytest.approx(-1.0 / ratio)


class TestLoadStamp:
    def test_zero_load_contributes_nothing(self):
        dF, dJ = load_delta(two_bus_case(p_load=0.0, q_load=0.0))
        assert np.all(dF == 0.0)
        assert np.all(dJ == 0.0)

    def test_unit_load_partials(self):
        # P=1, Q=0 at V=1+j0: injection I_R = -1 and dI_R/dV_R = +1
        dF, dJ = load_delta(two_bus_case(p_load=1.0, q_load=0.0))
        # KCL subtracts the injection, so the row carries -dI/dV; the
        # load's bus 2 is at position 1
        pos = 1
        assert dJ[2 * pos, 2 * pos] == pytest.approx(-1.0)
        assert dF[2 * pos] == pytest.approx(1.0)  # -(I_R) = +1

    def test_collapsed_voltage_raises(self):
        case = two_bus_case()
        ctl = ControlMode()
        state = flat_start(case, ctl)
        pos = state.index.bus_pos[2]
        state.x[2 * pos] = 1e-5
        state.x[2 * pos + 1] = 0.0
        with pytest.raises(SingularPointError, match="bus 2"):
            residual(state, ctl)

    def test_collapse_names_the_bus_id_from_the_index(self, monkeypatch):
        # bus ids that are not positions: the state's index map alone
        # names the collapsed bus, in residual and in nr_solve's first
        # stamp pass
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(101, 230.0, "slack"), Bus(205, 230.0, "pq")),
            branches=(Branch(101, 205, 1.0, -8.0),), generators=(),
            loads=(Load(205, 0.5, 0.1),))
        ctl = ControlMode()
        state = flat_start(case, ctl)
        assert state.index.bus_ids == [101, 205]
        state.x[2:4] = (1e-5, 0.0)
        message = "voltage magnitude collapsed at bus 205 (|V|^2 = 1.000e-10)"
        with pytest.raises(SingularPointError) as exc:
            residual(state, ctl)
        assert exc.value.bus == 205 and str(exc.value) == message
        calls = []

        def counted(*args):
            calls.append(args)
            return stamp(*args)

        monkeypatch.setattr(nr_solver, "stamp", counted)
        with pytest.raises(SingularPointError) as exc:
            nr_solve(state, ctl, OPTS)
        assert len(calls) == 1
        assert exc.value.bus == 205 and str(exc.value) == message


class TestTapRatio:
    def test_zero_ratio_is_singular_point(self):
        case = tapped_case("primary")
        ctl = ControlMode()
        state = flat_start(case, ctl)
        state.x[state.index.tap_col[1]] = 0.0
        for evaluate in (residual, assemble):
            with pytest.raises(SingularPointError,
                               match="tap ratio of branch 1 is 0"):
                evaluate(state, ctl)

    def test_solve_through_a_zero_ratio_trial(self):
        # the first full Newton step takes the primary-side tap from ratio
        # 1.0 to exactly 0; the line search must back off, not crash
        case = tapped_case("primary")
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        assert rep.line_search_backtracks >= 1
        assert 0.9 <= state.x[state.index.tap_col[1]] <= 1.1


class TestJacobians:
    """Each device type's stamped partials against central differences."""

    def test_branch_and_load(self):
        case = two_bus_case()
        ctl = ControlMode()
        for seed in range(100):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)

    def test_generator_sigmoid(self):
        case = three_bus_pv_case()
        ctl = ControlMode()
        for seed in range(100):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)

    def test_generator_relaxed_limits(self):
        case = three_bus_pv_case()
        ctl = replace(ControlMode(), q_scale={("gen", 0): 1.7},
                      q_widen={("gen", 0): (0.05, 0.1)}, smoothing_relax=4900.0)
        for seed in range(40):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)

    def test_generator_hard_rows(self):
        case = three_bus_pv_case()
        for mode, extra in ((FIXED_V, {}), (FIXED_Q, {("gen", 0): 0.25})):
            ctl = replace(ControlMode(),
                          device_modes={("gen", 0): mode}, fixed_q=extra)
            for seed in range(25):
                assert_jacobian_matches(random_state(case, ctl, seed),
                                        ctl)

    def test_remote_group(self):
        case = remote_pair_case()
        ctl = ControlMode()
        for seed in range(100):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)

    def test_transformer(self):
        for side in ("primary", "secondary"):
            case = tapped_case(controlled_side=side)
            ctl = ControlMode()
            for seed in range(50):
                assert_jacobian_matches(random_state(case, ctl, seed),
                                        ctl)

    def test_switched_shunt(self):
        case = shunt_case()
        ctl = ControlMode()
        for seed in range(100):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)

    def test_distributed_slack(self):
        case = lossless_agc_case()
        ctl = ControlMode()
        assert case.agc_enabled
        for seed in range(100):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)

    def test_tx_relaxed_network(self):
        case = three_bus_pv_case()
        ctl = replace(ControlMode(), tx_relax=0.3, smoothing_relax=4900.0)
        for seed in range(25):
            assert_jacobian_matches(random_state(case, ctl, seed), ctl)


class TestCountingRule:
    def test_two_bus_dimension(self):
        case = two_bus_case()
        idx = build_index(case)
        assert idx.dim == 4

    def test_full_configuration_dimension(self):
        # 1 local PV gen + remote group of 2 + 1 controlled tap + AGC:
        # dim = 2N + (1 + 2) + 1 + 1 + 1
        case = full_configuration_case()
        n = len(case.buses)
        idx = build_index(case)
        assert idx.dim == 2 * n + 3 + 1 + 1 + 1

    def test_unknowns_equal_equations(self):
        # the assembled matrix is square with a fully structurally
        # nonempty row set for every configuration we bundle
        for case in (two_bus_case(), three_bus_pv_case(), remote_pair_case(),
                     tapped_case(), shunt_case(), lossless_agc_case()):
            ctl = ControlMode()
            state = flat_start(case, ctl)
            mat = assemble(state, ctl)[1]
            assert mat.shape == (state.index.dim, state.index.dim)
            assert np.all(np.asarray(abs(mat).sum(axis=1)).ravel() > 0)

    @pytest.mark.parametrize("agc", [False, True])
    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_column_layout(self, name, agc):
        # the module docstring's order: the voltages, one q column per
        # injector row after the loads, the group requests, the taps, and
        # dP_S last; each local control row holds its injector row's q
        # column
        case = replace(ALL_CASES[name](), agc_enabled=agc)
        slack = case.slack_bus().id
        members = [i for grp in case.remote_groups for i in grp.members]
        local = [i for i, g in enumerate(case.generators)
                 if g.bus != slack and i not in members]
        taps = [bi for bi, br in enumerate(case.branches) if br.tap is not None]
        idx = build_index(case)
        t, n = idx.inj, 2 * len(case.buses)
        assert t.keys == ([None] * len(case.loads)
                          + [("gen", i) for i in local + members]
                          + [("shunt", j) for j in range(len(case.shunts))])
        expected = ([("q", k) for k in t.keys[t.n_loads:]]
                    + [("qreq", gi) for gi in range(len(case.remote_groups))]
                    + [("tap", bi) for bi in taps]
                    + [("dps", None)] * agc)
        named = {c: ("q", k) for k, c in idx.q_col.items()}
        named.update({c: ("qreq", gi) for gi, c in idx.qreq_col.items()})
        named.update({c: ("tap", bi) for bi, c in idx.tap_col.items()})
        if idx.dps_col is not None:
            named[idx.dps_col] = ("dps", None)
        assert [named.get(c) for c in range(n, idx.dim)] == expected
        assert idx.dim == n + len(named) == n + len(expected)
        assert t.q_cols.tolist() == list(range(n, n + len(t.q_cols)))
        r = idx.rows
        assert r.keys[:r.n_local] == [t.keys[k] for k in t.local]
        assert r.cols[:r.n_local].tolist() == \
            t.q_cols[t.local - t.n_loads].tolist()

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_snapped_variants_keep_the_layout(self, name, monkeypatch):
        # snapping is a control mode, not a layout: every snapped variant
        # stamps on the case's one index map and shares its J structure,
        # and a snapped device's row holds its own column at its value
        monkeypatch.setattr(circuit_stamps, "DENSE_MAX_DIM", 0)
        case = ALL_CASES[name]()
        state = random_state(case, ControlMode(), 0)
        idx = state.index
        J = assemble(state, ControlMode())[1]
        cols = idx.q_col | {("tap", bi): c for bi, c in idx.tap_col.items()}
        for ctl, held in snapped_variants(case):
            F, Js = assemble(state, ctl)
            assert Js.structure is J.structure is idx.jac
            for key, value in held.items():
                col = cols[key]
                assert F[col] == state.x[col] - value
                assert Js[col].nonzero()[1].tolist() == [col]


class TestControlledDevices:
    @pytest.mark.parametrize("agc", [False, True])
    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_limits_are_the_case_s(self, name, agc):
        # every generator off the slack bus, switched shunt and tap once,
        # at its q or ratio column, with the case's own limits
        case = replace(ALL_CASES[name](), agc_enabled=agc)
        slack = case.slack_bus().id
        idx = build_index(case)
        walk = list(controlled_devices(idx))
        cols = {key: col for key, col, _, _ in walk}
        assert len(cols) == len(walk)
        assert cols == {**idx.q_col, **{("tap", bi): c for bi, c
                                        in idx.tap_col.items()}}
        assert set(cols) == (
            {("gen", i) for i, g in enumerate(case.generators)
             if g.bus != slack}
            | {("shunt", j) for j in range(len(case.shunts))}
            | {("tap", bi) for bi, br in enumerate(case.branches)
               if br.tap is not None})
        for key, _, lo, hi in walk:
            assert (lo, hi) == case_limits(case, key)


def test_state_vector_of_another_length_rejected():
    # a ValueError, not an assert: `python -O` keeps the check
    idx = build_index(load_matpower("case9"))
    with pytest.raises(ValueError,
                       match=f"has {idx.dim - 1} entries.* {idx.dim} unknowns"):
        StateVector(idx, np.zeros(idx.dim - 1))


class TestStructuralSymmetry:
    def test_bundled_matpower_pattern(self, bundled_matpower, monkeypatch):
        # structural symmetry is a property of which entries the stamps
        # write (values may be zero, e.g. a fully saturated sigmoid slope),
        # and the replaced slack voltage rows are exempt; a CSC J holds
        # the written entries, a dense J would drop the zeros
        monkeypatch.setattr(circuit_stamps, "DENSE_MAX_DIM", 0)
        for name in ("case9", "case14"):
            case = bundled_matpower[name]
            ctl = ControlMode()
            state = random_state(case, ctl, 1)
            J = assemble(state, ctl)[1].tocoo()
            s = state.index.slack_pos
            skip = {2 * s, 2 * s + 1}
            written = {(r, c) for r, c in zip(J.row, J.col)
                       if r not in skip and c not in skip}
            missing = {(c, r) for r, c in written} - written
            assert not missing, f"unpaired structural entries: {missing}"


class TestGeneratorBehavior:
    def test_midpoint_at_setpoint_voltage(self):
        # a converged solution with |V| exactly at the setpoint has the
        # reactive output at the middle of its range
        case = three_bus_pv_case()
        ctl = ControlMode()
        state = flat_start(case, ctl)
        idx = state.index
        pos = idx.bus_pos[2]
        state.x[2 * pos] = 1.02
        state.x[2 * pos + 1] = 0.0
        state.x[idx.q_col[("gen", 0)]] = 0.0  # midpoint of [-0.4, 0.4]
        F = residual(state, ctl)
        assert F[idx.q_col[("gen", 0)]] == pytest.approx(0.0, abs=1e-14)

    def test_flat_start_on_sigmoid_at_degenerate_limits(self):
        # the pass holds a generator whose limits span less than
        # DEGENERATE_RANGE at its lower one, but its start is still its
        # sigmoid at the case voltage, here the midpoint; a switched
        # shunt's start holds the lower limit
        lo, hi = 0.1, 0.1 + 5e-13
        case = three_bus_pv_case(q_min=lo, q_max=hi)
        state = flat_start(case, ControlMode())
        start = state.x[state.index.q_col[("gen", 0)]]
        assert start == (hi - lo) * 0.5 + lo != lo
        case = shunt_case(b_min=lo, b_max=hi)
        state = flat_start(case, ControlMode())
        assert state.x[state.index.q_col[("shunt", 0)]] == lo

    def test_default_smoothing_is_5000(self):
        assert ControlMode().smoothing == 5000.0

    def test_stable_region_invariant(self, bundled_matpower):
        # on the continuous model, |V| below setpoint implies output above
        # the midpoint and vice versa: the unstable quadrants cannot occur
        for name, case in bundled_matpower.items():
            ctl = ControlMode()
            state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
            assert rep.converged, name
            for key, col in state.index.q_col.items():
                kind, i = key
                if kind != "gen":
                    continue
                g = case.generators[i]
                mid = 0.5 * (g.q_min + g.q_max)
                vm = state.v_mag(state.index.bus_pos[g.bus])
                if vm < g.v_set - 1e-12:
                    assert state.x[col] > mid
                elif vm > g.v_set + 1e-12:
                    assert state.x[col] < mid

    def test_kcl_at_convergence(self):
        case = three_bus_pv_case()
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        F = residual(state, ctl)
        nv = state.index.voltage_dim()
        assert np.abs(F[:nv]).max() < OPTS.tol_residual


class TestSwitchedShuntBehavior:
    def test_degenerate_zero_range_is_noop(self):
        case = shunt_case(b_min=0.0, b_max=0.0)
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        assert state.x[state.index.q_col[("shunt", 0)]] == 0.0

    def test_midpoint_at_setpoint(self):
        case = shunt_case(b_min=0.0, b_max=0.5)
        ctl = ControlMode()
        state = flat_start(case, ctl)
        idx = state.index
        pos = idx.bus_pos[2]
        state.x[2 * pos] = 1.0
        state.x[2 * pos + 1] = 0.0
        state.x[idx.q_col[("shunt", 0)]] = 0.25
        F = residual(state, ctl)
        assert F[idx.q_col[("shunt", 0)]] == pytest.approx(0.0, abs=1e-14)

    def test_saturated_shunt_raises_voltage(self):
        ctl_off = ControlMode()
        case_off = shunt_case(b_min=0.0, b_max=0.0)
        st_off, rep_off = nr_solve(flat_start(case_off, ctl_off),
                                   ctl_off, OPTS)
        case_on = shunt_case(b_min=0.0, b_max=0.5)
        ctl_on = ControlMode()
        st_on, rep_on = nr_solve(flat_start(case_on, ctl_on),
                                 ctl_on, OPTS)
        assert rep_off.converged and rep_on.converged
        assert st_on.v_mag(1) > st_off.v_mag(1)


class TestRemoteGroup:
    def test_single_member_matches_local_generator(self):
        # a unit whose remote bus is its own bus forms no group: it is
        # the local PV model, with the same injection and solution
        base = three_bus_pv_case(q_min=-0.4, q_max=0.4, v_set=1.02)
        local_ctl = ControlMode()
        st_local, rep1 = nr_solve(flat_start(base, local_ctl),
                                  local_ctl, OPTS)
        own = replace(base, generators=(replace(
            base.generators[0], remote_bus=2, remote_factor=1.0),))
        assert own.remote_groups == ()
        ctl = ControlMode()
        st_own, rep2 = nr_solve(flat_start(own, ctl), ctl, OPTS)
        assert rep1.converged and rep2.converged
        for pos in range(3):
            assert st_own.v_mag(pos) == pytest.approx(
                st_local.v_mag(pos), abs=1e-6)
        q_local = st_local.x[st_local.index.q_col[("gen", 0)]]
        q_own = st_own.x[st_own.index.q_col[("gen", 0)]]
        assert q_own == pytest.approx(q_local, abs=1e-6)

    def test_kappa_proportional_sharing(self):
        case = remote_pair_case()
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        q1 = state.x[state.index.q_col[("gen", 0)]]
        q2 = state.x[state.index.q_col[("gen", 1)]]
        assert q1 / q2 == pytest.approx(0.6 / 0.4, abs=1e-6)
        qreq = state.x[state.index.qreq_col[0]]
        assert q1 + q2 == pytest.approx(qreq, abs=1e-6)

    def test_all_members_saturated(self):
        # load far beyond the group's combined capability: the request
        # saturates at the summed member maxima and the controlled voltage
        # sags below its setpoint; member limits proportional to the
        # factors saturate every member together
        case = remote_pair_case()
        gens = (
            replace(case.generators[0], q_min=-0.6, q_max=0.6),
            replace(case.generators[1], q_min=-0.4, q_max=0.4),
        )
        case = replace(case, generators=gens, loads=(Load(4, 0.8, 1.8),))
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        qreq = state.x[state.index.qreq_col[0]]
        assert qreq == pytest.approx(1.0, abs=5e-3)  # sum of member maxima
        assert state.v_mag(3) < 1.03
        q1 = state.x[state.index.q_col[("gen", 0)]]
        q2 = state.x[state.index.q_col[("gen", 1)]]
        assert q1 == pytest.approx(0.6, abs=0.01)
        assert q2 == pytest.approx(0.4, abs=0.01)


class TestDistributedSlack:
    def test_zero_contingency_zero_surplus(self):
        case = lossless_agc_case()
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        assert state.x[state.index.dps_col] == pytest.approx(0.0, abs=1e-9)
        dp, _ = slack_participation(ctl, state.index, 0.0)
        assert dp.tolist() == [0.0]

    def test_linear_mode(self):
        case = lossless_agc_case()
        gen = Generator(2, 0.5, 1.0, -9, 9, 0.0, 5.0, agc_factor=0.4)
        case = replace(case, generators=(case.generators[0], gen))
        ctl = replace(ControlMode(), p_relax=1.0)
        idx = build_index(case)
        for dps in (-2.0, 0.0, 3.0, 50.0):
            dp, ddp = slack_participation(ctl, idx, dps)
            assert dp.tolist() == [pytest.approx(0.4 * dps)]
            assert ddp.tolist() == [0.4]

    def test_substitution_consistency(self):
        # the participation value recomputed at the converged surplus
        # matches what the currents used, exactly
        case = replace(lossless_agc_case(), loads=(Load(3, 1.4, 0.2),))
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert rep.converged
        idx = state.index
        dp, _ = slack_participation(ctl, idx, float(state.x[idx.dps_col]))
        used = stamp(state, ctl).inj[3]
        at = idx.inj.agc_at
        assert used[at].tolist() == \
            (idx.inj.p[at] + dp[idx.inj.agc_pos]).tolist()
        assert dp.tolist() == [case.generators[1].agc_factor
                               * state.x[idx.dps_col]]

    def test_flat_start_surplus_is_lossless_estimate(self):
        # 0.4 pu of load beyond the schedule, shared 1 : 0.5 by the slack
        # and its member; the network is lossless, so that is the solution
        case = replace(lossless_agc_case(), loads=(Load(3, 1.4, 0.2),))
        ctl = ControlMode()
        init = flat_start(case, ctl)
        assert init.x[init.index.dps_col] == pytest.approx(0.4 / 1.5)
        state, rep = nr_solve(init, ctl, OPTS)
        assert rep.converged
        assert state.x[state.index.dps_col] == pytest.approx(0.4 / 1.5,
                                                             abs=1e-6)

    def test_slack_voltage_pinned(self):
        case = lossless_agc_case()
        ctl = ControlMode()
        state, rep = nr_solve(flat_start(case, ctl), ctl, OPTS)
        assert state.v_complex(0) == pytest.approx(1.0 + 0.0j, abs=1e-12)


class TestRegions:
    def test_classification_thresholds(self):
        case = three_bus_pv_case(q_min=-1.0, q_max=1.0)
        ctl = ControlMode()
        state = flat_start(case, ctl)
        col = state.index.q_col[("gen", 0)]
        for q, expect in ((-1.0, "at-min"), (-0.999, "at-min"),
                          (0.0, "controlling"), (0.999, "at-max")):
            state.x[col] = q
            assert classify_regions(state, ctl)[("gen", 0)] == expect


def reference_dc_angles(case):
    """The DC angles by bus position, from the case alone: dense B′ over
    the branches with no TapControl and x = Im(1/(g + jb)) != 0, each
    weighted 1/(x ratio), and P the generators' p_g less the loads' p;
    the slack's row and column dropped, its angle 0."""
    pos = case.bus_index()
    n, s = len(case.buses), pos[case.slack_bus().id]
    B, P = np.zeros((n, n)), np.zeros(n)
    for br in case.branches:
        x = (1.0 / complex(br.g, br.b)).imag if br.b else 0.0
        if br.tap is None and x != 0.0:
            f, t, w = pos[br.from_bus], pos[br.to_bus], 1.0 / (x * br.ratio)
            B[f, f] += w
            B[t, t] += w
            B[f, t] -= w
            B[t, f] -= w
    for g in case.generators:
        P[pos[g.bus]] += g.p_g
    for ld in case.loads:
        P[pos[ld.bus]] -= ld.p
    rest = np.arange(n) != s
    theta = np.zeros(n)
    theta[rest] = np.linalg.solve(B[np.ix_(rest, rest)], P[rest])
    return theta


def beyond_tap_case():
    """tapped_case("primary") with a bus 4 hung off bus 3 by a line: buses
    3 and 4 are reached from the slack only through the controlled tap."""
    case = tapped_case("primary")
    g, b = series_gb(0.01, 0.05)
    return replace(case, buses=case.buses + (Bus(4, 115.0, "pq"),),
                   branches=case.branches + (Branch(3, 4, g, b),),
                   loads=case.loads + (Load(4, 0.1, 0.05),))


def balanced_island_case():
    """case118 with a triangle of buses 901, 902 and 903 beyond a
    controlled tap, whose generator at bus 902 covers their loads: B′
    without the tap is singular but consistent, and SuperLU factors it
    (J has 263 unknowns, so B′ is sparse)."""
    case = load_matpower("case118")
    tap = Branch(118, 901, *series_gb(0.002, 0.06),
                 tap=TapControl(0.9, 1.1, 1.0, "primary", 0.0125))
    triangle = tuple(Branch(f, t, *series_gb(0.01, x)) for f, t, x in
                     ((901, 902, 0.031), (902, 903, 0.047), (901, 903, 0.013)))
    return replace(
        case, buses=case.buses + (Bus(901, 115.0, "pq"), Bus(902, 115.0, "pv"),
                                  Bus(903, 115.0, "pq")),
        branches=case.branches + (tap,) + triangle,
        generators=case.generators + (
            Generator(902, 0.8, 1.0, -1.0, 1.0, 0.0, 2.0),),
        loads=case.loads + (Load(901, 0.5, 0.2), Load(902, 0.1, 0.05),
                            Load(903, 0.2, 0.05)))


class TestDcStart:
    @pytest.mark.parametrize("name", MATPOWER_CASES + ["savnw_like",
                                                       "oscillation4"])
    def test_angles_solve_b_prime(self, name):
        case = load_matpower(name) if name in MATPOWER_CASES else \
            load_native(name)
        state = dc_start(case, ControlMode())
        n = len(case.buses)
        theta = np.arctan2(state.x[1:2 * n:2], state.x[0:2 * n:2])
        slack = state.index.slack_pos
        assert state.x[2 * slack + 1] == 0.0 and theta[slack] == 0.0
        ref = reference_dc_angles(case)
        assert np.abs(ref).max() > 0.01
        assert np.abs(theta - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("name", MATPOWER_CASES + NATIVE_CASES)
    @pytest.mark.parametrize("agc", [False, True])
    def test_magnitudes_and_controls_are_the_flat_start_s(self, name, agc):
        # every column after the voltages is flat_start's bit for bit;
        # |V| is turned, and cos and sin round, so hypot gives it back to
        # within one ulp (case118 moves 4 buses by one ulp)
        case = load_matpower(name) if name in MATPOWER_CASES else \
            load_native(name)
        case = replace(case, agc_enabled=agc)
        ctl = ControlMode()
        flat, dc = flat_start(case, ctl), dc_start(case, ctl)
        nv = flat.index.voltage_dim()
        assert dc.x[nv:].tobytes() == flat.x[nv:].tobytes()
        np.testing.assert_array_max_ulp(
            np.hypot(dc.x[0:nv:2], dc.x[1:nv:2]),
            np.hypot(flat.x[0:nv:2], flat.x[1:nv:2]), maxulp=1)

    @pytest.mark.parametrize("make", [
        # the slack alone: no angle to solve
        lambda: NetworkCase(s_base=100.0, buses=(Bus(1, 230.0, "slack"),),
                            branches=(), generators=(), loads=()),
        lambda: tapped_case("primary"),
        beyond_tap_case,
        balanced_island_case,
        # an x = 0 branch (a pure conductance) is no B′ branch
        lambda: replace(two_bus_case(), branches=(Branch(1, 2, 5.0, 0.0),)),
        # two parallel branches of reactance x and -x: B′ is singular
        lambda: replace(two_bus_case(), branches=(
            Branch(1, 2, *series_gb(0.01, 0.1)),
            Branch(1, 2, *series_gb(0.01, -0.1)))),
    ], ids=["one-bus", "primary-tap", "two-beyond-tap", "balanced-island",
            "zero-x", "singular"])
    def test_flat_start_when_a_bus_is_cut_off_or_b_prime_singular(self, make):
        case = make()
        ctl = ControlMode()
        assert dc_start(case, ctl).x.tobytes() == \
            flat_start(case, ctl).x.tobytes()

    def test_case118_outages_reach_the_flat_start_solutions(self):
        # the 60 case118 generator outages (each generator's, at loads
        # 0.95, 1.00 and 1.05) with distributed slack: `none` from the DC
        # angles reaches each plain flat-start solve's solution in 298 NR
        # iterations against 565
        base = replace(load_matpower("case118"), agc_enabled=True)
        ctl = ControlMode()
        totals = {"dc": 0, "flat": 0}
        for level in (0.95, 1.00, 1.05):
            loads = tuple(replace(ld, p=ld.p * level, q=ld.q * level)
                          for ld in base.loads)
            for gen in base.generators:
                case = replace(base, loads=loads).drop_generator(gen.bus)
                st, rep = run_homotopy(case, "none", OPTS)
                plain, rep_plain = nr_solve(flat_start(case, ctl), ctl, OPTS)
                assert rep.converged and rep_plain.converged
                assert np.abs(st.x - plain.x).max() < 1e-6
                totals["dc"] += rep.iterations
                totals["flat"] += rep_plain.iterations
        assert totals == {"dc": 298, "flat": 565}


class TestOneMapPerCase:
    """A case object's map is built once and kept on it for every solve."""

    def test_every_solve_of_a_case_object_runs_on_its_map(self, monkeypatch):
        built = []
        build = circuit_stamps._build

        def counted(case):
            built.append(case)
            return build(case)

        monkeypatch.setattr(circuit_stamps, "_build", counted)
        case = load_matpower("case9")
        results = [run_continuous(case, OPTS),
                   run_continuous(case, OPTS, method="tx"),
                   run_baseline(case, OPTS)]
        assert all(result.report.converged for result in results)
        a, b, c = (result.state.index for result in results)
        assert a is b is c is case._layout
        assert a.jac is b.jac is c.jac
        assert len(built) == 1 and built[0] is case
        # a copy is another object, and builds a map of its own
        copy = replace(case)
        idx = build_index(copy)
        assert idx is not a and idx.jac is not a.jac
        assert len(built) == 2 and built[1] is copy


def outage_pair(base, bus, method="none"):
    """The outage of the first generator at bus solved on its base's
    layout, J's structure and B′'s LU, and its oracle, the unit deleted
    (`without_out_of_service`) on a map of its own, by `run_continuous`."""
    out = base.drop_generator(bus)
    idx = build_index(out)
    assert idx.jac is base._layout.jac and idx.dc is base._layout.dc
    return (run_continuous(out, OPTS, method=method),
            run_continuous(without_out_of_service(out), OPTS, method=method))


def assert_same_solve(shared, fresh):
    """Both converged, in the same NR iterations, to voltages within 1e-9
    pu, with the same summary but for final_residual, fresh's generators
    numbered as shared's case numbers them."""
    nv = fresh.state.index.voltage_dim()
    assert shared.report.converged and fresh.report.converged
    assert shared.report.iterations == fresh.report.iterations
    assert np.abs(shared.state.x[:nv] - fresh.state.x[:nv]).max() < 1e-9

    def lines(result):
        return [line for line in summary_lines(result)
                if not line.startswith("final_residual:")]

    assert sorted(lines(shared)) == in_case_numbering(lines(fresh),
                                                      shared.case)


class TestOutageLayout:
    """A generator outage is its base's layout with the unit switched off,
    which every outage of one base object shares."""

    def test_outages_of_one_base_share_structure_order_and_b_prime(self):
        base = replace(load_matpower("case118"), agc_enabled=True)
        ctl = ControlMode()
        states = []
        for bus in (94, 12):
            state, rep = nr_solve(dc_start(base.drop_generator(bus), ctl),
                                  ctl, OPTS)
            assert rep.converged
            states.append(state)
        a, b = (s.index for s in states)
        assert a is not b and a.last is not b.last
        assert a.jac is b.jac is base._layout.jac
        assert a.jac.inv is not None
        assert a.jac.inv is b.jac.inv and a.jac.permuted is b.jac.permuted
        assert a.dc is b.dc and a.dc[1] is b.dc[1]

    def test_outage_of_a_replaced_base_gets_its_own_layout(self):
        base = replace(load_matpower("case118"), agc_enabled=True)
        other = replace(base, loads=tuple(replace(ld, p=1.05 * ld.p)
                                          for ld in base.loads))
        ctl = ControlMode()
        a = flat_start(base.drop_generator(94), ctl).index
        b = flat_start(other.drop_generator(94), ctl).index
        assert a.jac is base._layout.jac and b.jac is other._layout.jac
        assert a.jac is not b.jac and a.dc is not b.dc
        # with no link to a base, the outage builds a complete map of its
        # own, its structure's with the unit switched off, and keeps it
        alone = replace(base.drop_generator(94))
        fresh = flat_start(alone, ctl).index
        assert fresh is alone._layout and fresh.dim == a.dim
        assert fresh.q_col == a.q_col and fresh.inj.keys == a.inj.keys
        assert fresh.jac.indptr.size == fresh.dim + 1 and fresh.dc
        assert fresh.jac is not a.jac and fresh.dc is not a.dc

    def test_switched_off_unit_keeps_its_columns_and_holds_zero(self):
        # generator 1 is local; the outage keeps its q column, whose row
        # holds q = 0 under any ControlMode, its own key's included
        base = load_matpower("case9")
        out = base.drop_generator(base.generators[1].bus)
        idx = build_index(out)
        lay = base._layout
        col = lay.q_col[("gen", 1)]
        assert idx.dim == lay.dim and col not in idx.q_col.values()
        assert idx.q_col == {("gen", 2): lay.q_col[("gen", 2)]}
        assert idx.local_gen_idx == [2] and idx.slack_gen_idx == [0]
        assert [key for key, *_ in controlled_devices(idx)] == [("gen", 2)]
        state = flat_start(out, ControlMode())
        assert state.x[col] == 0.0
        state.x[col] = 0.7
        every = [("gen", 1), None]
        for ctl in (ControlMode(),
                    ControlMode(device_modes=dict.fromkeys(every, FIXED_V)),
                    ControlMode(device_modes=dict.fromkeys(every, FIXED_Q),
                                fixed_q=dict.fromkeys(every, 5.0)),
                    ControlMode(q_scale=dict.fromkeys(every, 3.0),
                                q_widen=dict.fromkeys(every, (2.0, 2.0)))):
            assert residual(state, ctl)[col] == 0.7

    def test_dropped_member_leaves_its_group_and_the_slack_members(self):
        # generator 1 is the first member of the remote group of 2, and
        # generator 0 the one distributed-slack member: dropping either is
        # a value change on the arrays the base's map holds
        base = full_configuration_case()
        out = base.drop_generator(3)
        idx, lay = build_index(out), base._layout
        assert idx.jac is lay.jac and idx.rows.v_set is lay.rows.v_set
        assert idx.inj.kappa.tolist() == [0.0, 1.0]
        assert idx.inj.member_min.tolist() == [0.0, -1.0]
        assert [key for key, *_ in controlled_devices(idx)] == [
            ("gen", 0), ("tap", 4), ("gen", 2)]
        for method in ("none", "tx", "q-limit", "p-limit"):
            assert_same_solve(*outage_pair(base, 3, method))
        idx = build_index(base.drop_generator(2))
        assert lay.agc_member_idx == [0] and idx.agc_member_idx == []
        assert len(idx.inj.agc_at) == len(idx.agc_kappa) == 0
        assert idx.jac is lay.jac

    @pytest.mark.parametrize("method", ["none", "q-limit", "composite"])
    def test_switched_off_unit_regulates_nothing(self, method):
        # a switched shunt shares bus 2 with the local generator 0: once
        # the generator is out, the shunt is the first device there, and
        # q-limit's unbounded init holds the bus's voltage by it
        base = replace(full_configuration_case(),
                       shunts=(SwitchedShunt(2, -0.5, 0.5, 0.1, 1.02),))
        out = base.drop_generator(2)
        deleted = without_out_of_service(out)
        assert _unbounded_control(build_index(out), ControlMode()) == \
            _unbounded_control(build_index(deleted), ControlMode())
        assert_same_solve(*outage_pair(base, 2, method))

    @pytest.mark.parametrize("method", ["none", "q-limit", "composite"])
    def test_outage_that_empties_a_remote_group_shares_its_base_map(
            self, method):
        # with generator 2 local, generator 1 is its group's only member:
        # its outage keeps the group, whose factors are 0, and holds its
        # request at 0 whatever the group's mode (q-limit's unbounded
        # init holds every group's bus)
        base = full_configuration_case()
        base = replace(base, generators=(
            *base.generators[:2], replace(base.generators[2], remote_bus=None)))
        assert len(base.remote_groups) == 1
        out = base.drop_generator(3)
        assert out.remote_groups == base.remote_groups
        idx = build_index(out)
        assert idx is out._layout and idx.jac is base._layout.jac
        assert idx.dim == base._layout.dim and idx.inj.kappa.tolist() == [0.0]
        request = idx.qreq_col[0]
        for ctl in (ControlMode(), _unbounded_control(idx, ControlMode())):
            state = flat_start(out, ctl)
            state.x[request] = 0.7
            assert residual(state, ctl)[request] == 0.7
        shared, fresh = outage_pair(base, 3, method)
        assert shared.state.x[request] == 0.0
        assert_same_solve(shared, fresh)

    def test_n_2_outage_shares_the_root_base_map(self):
        # an outage of an outage switches both units off on the root
        # base's map, and solves as the case with both units deleted
        base = replace(load_matpower("case118"), agc_enabled=True)
        out = base.drop_generator(94).drop_generator(12)
        assert out._base is base
        assert [g.bus for g in out.generators if not g.in_service] == [12, 94]
        idx = build_index(out)
        assert idx.jac is base._layout.jac and idx.dc is base._layout.dc
        assert len(idx.local_gen_idx) == len(base._layout.local_gen_idx) - 2
        assert_same_solve(run_continuous(out, OPTS),
                          run_continuous(without_out_of_service(out), OPTS))

    @pytest.mark.parametrize("method", ["none", "composite"])
    def test_status_0_row_solves_as_the_text_without_it(self, method):
        # case9 with a second unit at bus 2, out of service (GEN_STATUS
        # 0): the parsed case's map switches it off, as an outage's does
        text = (CASE_DIR / "case9.m").read_text()
        row = "\t2\t163\t6.54\t300\t-300\t1.025\t100\t1\t300\t10;"
        case = parse_matpower(text.replace(row, row + row.replace(
            "\t100\t1\t", "\t100\t0\t")))
        assert [g.in_service for g in case.generators] == [
            True, True, False, True]
        plain = parse_matpower(text)
        assert without_out_of_service(case) == plain
        idx = build_index(case)
        assert idx.dim == build_index(plain).dim + 1
        assert ("gen", 2) not in idx.q_col
        a = run_continuous(case, OPTS, method=method)
        b = run_continuous(plain, OPTS, method=method)
        nv = idx.voltage_dim()
        assert a.report.converged and b.report.converged
        assert np.abs(a.state.x[:nv] - b.state.x[:nv]).max() < 1e-9
        # an outage of that case keeps the status-0 unit off on its map
        out = case.drop_generator(3)
        assert build_index(out).jac is idx.jac
        assert_same_solve(*outage_pair(case, 3, method))

    @pytest.mark.parametrize("base_solved", [False, True])
    def test_case118_outages_solve_as_on_maps_of_their_own(self, base_solved):
        # a base solved first leaves its ControlMode cache on its map,
        # which its outages must not take: the cached rows keep the unit on
        base = replace(load_matpower("case118"), agc_enabled=True)
        if base_solved:
            assert run_continuous(base, OPTS).report.converged
            assert base._layout.last is not None
        for gen in base.generators:
            assert_same_solve(*outage_pair(base, gen.bus))

    @pytest.mark.parametrize("method, agc", [
        *((m, agc) for m in ("none", "tx", "q-limit", "composite")
          for agc in (False, True)), ("p-limit", True)])
    def test_savnw_like_outages_solve_as_on_maps_of_their_own(self, method,
                                                              agc):
        base = replace(load_native("savnw_like"), agc_enabled=agc)
        for gen in base.generators:
            assert_same_solve(*outage_pair(base, gen.bus, method))

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_every_outage_of_every_case_solves_as_on_a_map_of_its_own(
            self, name):
        # where a failed solve ends follows rounding, so of those only
        # the failure is compared
        base = ALL_CASES[name]()
        for gen in base.generators:
            shared, fresh = outage_pair(base, gen.bus)
            if shared.report.converged or fresh.report.converged:
                assert_same_solve(shared, fresh)
