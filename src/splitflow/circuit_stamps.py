"""Residual F and Jacobian J of the split-circuit NR system, in one pass.

In current-voltage coordinates the network is linear. The ratio-fixed
branches and the fixed shunts form a constant real 2n x 2n block, built
once per IndexMap in two parts: a series part, scaled by the tx
relaxation 1 + tx_relax * TX_SCALE, and an unscaled shunt part (line
charging and fixed shunts). A pass adds the block's currents to F and
its triplets to J. Only the devices stamp themselves one by one: loads,
generators, switched shunts, remote groups, controlled and snapped taps,
and the slack rows. Each adds its nonlinear residual to F and its exact
partial derivatives to J, so `residual` and `assemble` come from the same
code and J is testable against finite differences of `residual`.

Unknown ordering: interleaved bus voltages (V_real, V_imag per bus), then
one reactive-power column per voltage-controlling device (local
generators, remote members, switched shunts), one group-request column
per remote control group, one ratio column per controlled tap, and the
slack-surplus column when distributed slack is active. Each control
equation lives on the row with the same index as its unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix

from .case_model import NetworkCase
from .errors import SingularPointError
from .smooth_primitives import (
    DECREASING,
    INCREASING,
    SigmoidSaturation,
    participation_build,
    participation_deriv,
    participation_eval,
    sigmoid_deriv,
    sigmoid_eval,
)

# voltage magnitudes below this are treated as a collapsed (singular) point
EPS_V = 1e-4
# relaxed smoothing never drops below this steepness
STEEPNESS_FLOOR = 10.0
# admittance scale for the virtually-shorted network: 1 + tx_relax * TX_SCALE
TX_SCALE = 1e3
# degenerate-limit threshold: below this range a device is a fixed injection
DEGENERATE_RANGE = 1e-12

SIGMOID = "sigmoid"
FIXED_V = "fixed-v"
FIXED_Q = "fixed-q"

AT_MIN = "at-min"
AT_MAX = "at-max"
CONTROLLING = "controlling"
# fraction of the output range that counts as "at the limit"
REGION_TOL = 0.004


@dataclass
class ControlMode:
    """How device controls are stamped for one solve.

    The default instance is the original problem: full smoothing, exact
    limits, no admittance relaxation. Homotopy drivers and the baseline
    outer loop build variants of this.
    """

    smoothing: float = 5000.0
    smoothing_relax: float = 0.0  # effective steepness = smoothing - relax
    q_scale: dict = field(default_factory=dict)  # device key -> scale >= 1
    q_widen: dict = field(default_factory=dict)  # device key -> (lo, hi) additive
    p_relax: float = 0.0  # 1.0 means purely linear slack participation
    p_extra: dict = field(default_factory=dict)  # gen idx -> (extra_lo, extra_hi)
    tx_relax: float = 0.0
    agc_enabled: bool = False
    device_modes: dict = field(default_factory=dict)  # key -> SIGMOID|FIXED_V|FIXED_Q
    fixed_q: dict = field(default_factory=dict)  # key -> value for FIXED_Q
    group_modes: dict = field(default_factory=dict)  # group idx -> SIGMOID|FIXED_V
    fixed_shunt_b: dict = field(default_factory=dict)  # shunt idx -> susceptance
    fixed_tap_ratio: dict = field(default_factory=dict)  # branch idx -> ratio

    def effective_steepness(self) -> float:
        return max(self.smoothing - self.smoothing_relax, STEEPNESS_FLOOR)

    def relaxed_q_limits(self, key, q_min: float, q_max: float):
        scale = self.q_scale.get(key, 1.0)
        lo, hi = scale * q_min, scale * q_max
        wlo, whi = self.q_widen.get(key, (0.0, 0.0))
        return lo - wlo, hi + whi


def base_control(case: NetworkCase, smoothing: float = 5000.0) -> ControlMode:
    return ControlMode(smoothing=smoothing, agc_enabled=case.agc_enabled)


@dataclass
class IndexMap:
    """Row/column assignment for one case + control configuration."""

    n_bus: int
    bus_pos: dict
    slack_pos: int
    q_col: dict  # ("gen", i) | ("shunt", j) -> column index
    qreq_col: dict  # group index -> column
    tap_col: dict  # branch index -> column
    dps_col: int | None
    dim: int
    member_group: dict  # gen index -> (group index, member position)
    local_gen_idx: list
    agc_member_idx: list
    slack_gen_idx: list
    slack_p_sched: float
    snapped_taps: list  # branch indices stamped at ctl.fixed_tap_ratio
    # network block triplets; J gets scale * net_series + net_shunt
    net_rows: np.ndarray
    net_cols: np.ndarray
    net_series: np.ndarray
    net_shunt: np.ndarray

    def vr(self, pos: int) -> int:
        return 2 * pos

    def vi(self, pos: int) -> int:
        return 2 * pos + 1

    def voltage_dim(self) -> int:
        return 2 * self.n_bus


def build_index(case: NetworkCase, ctl: ControlMode) -> IndexMap:
    bus_pos = case.bus_index()
    slack_pos = bus_pos[case.slack_bus().id]

    member_group = {}
    for gi, grp in enumerate(case.remote_groups):
        for mpos, gen_i in enumerate(grp.members):
            member_group[gen_i] = (gi, mpos)

    slack_bus_id = case.buses[slack_pos].id
    local_gen_idx = []
    agc_member_idx = []
    slack_gen_idx = []
    for i, g in enumerate(case.generators):
        if g.bus == slack_bus_id:
            slack_gen_idx.append(i)
            continue
        if i not in member_group:
            local_gen_idx.append(i)
        if ctl.agc_enabled and g.agc_factor > 0.0:
            agc_member_idx.append(i)

    col = 2 * len(case.buses)
    q_col = {}
    for i in local_gen_idx:
        q_col[("gen", i)] = col
        col += 1
    for gi, grp in enumerate(case.remote_groups):
        for gen_i in grp.members:
            q_col[("gen", gen_i)] = col
            col += 1
    for j in range(len(case.shunts)):
        if j in ctl.fixed_shunt_b:
            continue  # snapped: stamped as a constant admittance
        q_col[("shunt", j)] = col
        col += 1
    qreq_col = {}
    for gi in range(len(case.remote_groups)):
        qreq_col[gi] = col
        col += 1
    tap_col = {}
    for bi, br in enumerate(case.branches):
        if br.tap is not None and bi not in ctl.fixed_tap_ratio:
            tap_col[bi] = col
            col += 1
    dps_col = None
    if ctl.agc_enabled:
        dps_col = col
        col += 1

    in_block = [bi for bi in range(len(case.branches))
                if bi not in tap_col and bi not in ctl.fixed_tap_ratio]
    net_rows, net_cols, net_series, net_shunt = _network_block(
        case, bus_pos, in_block)
    return IndexMap(
        n_bus=len(case.buses),
        bus_pos=bus_pos,
        slack_pos=slack_pos,
        q_col=q_col,
        qreq_col=qreq_col,
        tap_col=tap_col,
        dps_col=dps_col,
        dim=col,
        member_group=member_group,
        local_gen_idx=local_gen_idx,
        agc_member_idx=agc_member_idx,
        slack_gen_idx=slack_gen_idx,
        slack_p_sched=sum(case.generators[i].p_g for i in slack_gen_idx),
        snapped_taps=sorted(ctl.fixed_tap_ratio),
        net_rows=net_rows,
        net_cols=net_cols,
        net_series=net_series,
        net_shunt=net_shunt,
    )


def _network_block(case: NetworkCase, bus_pos: dict, in_block: list):
    """Real I-V triplets (rows, cols, series, shunt) of the branches in
    in_block and of the fixed shunts.

    The complex entries follow MATPOWER's makeYbus: a branch with series
    admittance y and ratio t adds y/t^2, -y/t, -y/t and y to the series
    part, and b_sh/2 at each end (over t^2 at the from end) to the shunt
    part; a fixed shunt adds its admittance to the shunt part. An entry
    G + jB at (i, j) becomes the real block [[G, -B], [B, G]].
    """
    brs = [case.branches[bi] for bi in in_block]
    f = np.array([bus_pos[br.from_bus] for br in brs], dtype=np.intp)
    t = np.array([bus_pos[br.to_bus] for br in brs], dtype=np.intp)
    tr = np.array([br.ratio for br in brs], dtype=float)
    y = np.array([complex(br.g, br.b) for br in brs], dtype=complex)
    c = np.array([complex(0.0, br.b_sh / 2.0) for br in brs], dtype=complex)
    k = np.array([bus_pos[sh.bus] for sh in case.fixed_shunts], dtype=np.intp)
    ysh = np.array([complex(sh.g, sh.b) for sh in case.fixed_shunts],
                   dtype=complex)
    none = np.zeros(len(brs))
    i = np.concatenate((f, f, t, t, k))
    j = np.concatenate((f, t, f, t, k))
    series = np.concatenate((y / tr**2, -y / tr, -y / tr, y, np.zeros(len(k))))
    shunt = np.concatenate((c / tr**2, none, none, c, ysh))

    def real(z):
        return np.concatenate((z.real, -z.imag, z.imag, z.real))

    rows = np.concatenate((2 * i, 2 * i, 2 * i + 1, 2 * i + 1))
    cols = np.concatenate((2 * j, 2 * j + 1, 2 * j, 2 * j + 1))
    return rows, cols, real(series), real(shunt)


class StateVector:
    """Dense unknown vector plus its index map."""

    def __init__(self, index: IndexMap, x: np.ndarray):
        assert len(x) == index.dim
        self.index = index
        self.x = x

    def copy(self) -> "StateVector":
        return StateVector(self.index, self.x.copy())

    def v_complex(self, pos: int) -> complex:
        return complex(self.x[2 * pos], self.x[2 * pos + 1])

    def v_mag(self, pos: int) -> float:
        return abs(self.v_complex(pos))

    def remap(self, new_index: IndexMap) -> "StateVector":
        """Transfer shared unknowns into a differently-shaped state."""
        x = np.zeros(new_index.dim)
        x[: new_index.voltage_dim()] = self.x[: self.index.voltage_dim()]
        for key, c in new_index.q_col.items():
            if key in self.index.q_col:
                x[c] = self.x[self.index.q_col[key]]
        for gi, c in new_index.qreq_col.items():
            if gi in self.index.qreq_col:
                x[c] = self.x[self.index.qreq_col[gi]]
        for bi, c in new_index.tap_col.items():
            if bi in self.index.tap_col:
                x[c] = self.x[self.index.tap_col[bi]]
        if new_index.dps_col is not None and self.index.dps_col is not None:
            x[new_index.dps_col] = self.x[self.index.dps_col]
        return StateVector(new_index, x)


def flat_start(case: NetworkCase, ctl: ControlMode) -> StateVector:
    """Initial state: case voltages, model-consistent control values."""
    index = build_index(case, ctl)
    x = np.zeros(index.dim)
    for pos, bus in enumerate(case.buses):
        x[index.vr(pos)] = bus.v_init_real
        x[index.vi(pos)] = bus.v_init_imag
    steep = ctl.effective_steepness()
    for i in index.local_gen_idx:
        g = case.generators[i]
        lo, hi = ctl.relaxed_q_limits(("gen", i), g.q_min, g.q_max)
        vm = abs(complex(x[index.vr(index.bus_pos[g.bus])],
                         x[index.vi(index.bus_pos[g.bus])]))
        x[index.q_col[("gen", i)]] = sigmoid_eval(
            SigmoidSaturation(lo, hi, g.v_set, steep), vm
        )
    for gi, grp in enumerate(case.remote_groups):
        lo = hi = 0.0
        for m in grp.members:
            g = case.generators[m]
            mlo, mhi = ctl.relaxed_q_limits(("gen", m), g.q_min, g.q_max)
            lo += mlo
            hi += mhi
        pos = index.bus_pos[grp.controlled_bus]
        vm = abs(complex(x[index.vr(pos)], x[index.vi(pos)]))
        if hi - lo < DEGENERATE_RANGE:
            qreq = lo
        else:
            qreq = sigmoid_eval(SigmoidSaturation(lo, hi, grp.v_set, steep), vm)
        x[index.qreq_col[gi]] = qreq
        for m, kappa in zip(grp.members, grp.factors):
            g = case.generators[m]
            mlo, mhi = ctl.relaxed_q_limits(("gen", m), g.q_min, g.q_max)
            if mhi - mlo < DEGENERATE_RANGE:
                x[index.q_col[("gen", m)]] = mlo
            else:
                curve = participation_build(kappa, mlo, mhi)
                x[index.q_col[("gen", m)]] = participation_eval(curve, qreq)
    for j, sh in enumerate(case.shunts):
        key = ("shunt", j)
        if key not in index.q_col:
            continue
        lo, hi = ctl.relaxed_q_limits(key, sh.b_min, sh.b_max)
        pos = index.bus_pos[sh.bus]
        vm = abs(complex(x[index.vr(pos)], x[index.vi(pos)]))
        if hi - lo < DEGENERATE_RANGE:
            x[index.q_col[key]] = lo
        else:
            x[index.q_col[key]] = sigmoid_eval(
                SigmoidSaturation(lo, hi, sh.v_set, steep), vm
            )
    for bi, c in index.tap_col.items():
        tap = case.branches[bi].tap
        ratio = case.branches[bi].ratio
        x[c] = min(max(ratio, tap.tr_min), tap.tr_max)
    if index.dps_col is not None:
        x[index.dps_col] = 0.0
    return StateVector(index, x)


class _Pass:
    """One stamp pass at a state: the residual F and the Jacobian triplets.

    Every KCL contribution goes to row 2 * pos + comp of its bus, the
    slack bus included; `_stamp_slack` then turns the slack rows into
    voltage constraints and, with distributed slack, into the surplus row.
    """

    def __init__(self, case: NetworkCase, state: StateVector, ctl: ControlMode):
        self.case = case
        self.ctl = ctl
        self.index = state.index
        self.x = state.x
        self.F = np.zeros(self.index.dim)
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, row: int, col: int, grad: float):
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(grad)


# ---------------------------------------------------------------------------
# Elementary contribution helpers
# ---------------------------------------------------------------------------

def _kcl_admittance(st: _Pass, at_pos: int, y: complex, v_pos: int):
    """Current y * V(v_pos) entering the KCL sum at at_pos (linear)."""
    g, b = y.real, y.imag
    row, vr_c, vi_c = 2 * at_pos, 2 * v_pos, 2 * v_pos + 1
    vr, vi = st.x[vr_c], st.x[vi_c]
    st.F[row] += g * vr - b * vi
    st.F[row + 1] += b * vr + g * vi
    st.add(row, vr_c, g)
    st.add(row, vi_c, -b)
    st.add(row + 1, vr_c, b)
    st.add(row + 1, vi_c, g)


def _kcl_injection(st: _Pass, pos: int, p: float, q: float,
                   q_col: int | None = None, p_col: int | None = None,
                   dp_dcol: float = 0.0):
    """Power injection as currents I_R = (p vr + q vi)/|V|^2,
    I_I = (p vi - q vr)/|V|^2, entering KCL with negative sign.

    q_col: column of the reactive-power unknown, when q is one.
    p_col/dp_dcol: chain-rule column for p when it depends on an unknown
    (slack surplus participation).
    """
    vr_c, vi_c = 2 * pos, 2 * pos + 1
    vr, vi = st.x[vr_c], st.x[vi_c]
    dd = vr * vr + vi * vi
    if dd <= EPS_V * EPS_V:
        bus = st.case.buses[pos].id
        raise SingularPointError(
            f"voltage magnitude collapsed at bus {bus} (|V|^2 = {dd:.3e})", bus=bus
        )
    ir = (p * vr + q * vi) / dd
    ii = (p * vi - q * vr) / dd
    # injections enter the KCL sum negatively
    st.F[vr_c] -= ir
    st.F[vi_c] -= ii
    st.add(vr_c, vr_c, -(p / dd - 2.0 * vr * ir / dd))
    st.add(vr_c, vi_c, -(q / dd - 2.0 * vi * ir / dd))
    st.add(vi_c, vr_c, -(-q / dd - 2.0 * vr * ii / dd))
    st.add(vi_c, vi_c, -(p / dd - 2.0 * vi * ii / dd))
    if q_col is not None:
        st.add(vr_c, q_col, -(vi / dd))
        st.add(vi_c, q_col, vr / dd)
    if p_col is not None and dp_dcol != 0.0:
        st.add(vr_c, p_col, -(vr / dd) * dp_dcol)
        st.add(vi_c, p_col, -(vi / dd) * dp_dcol)


def _vmag(st: _Pass, pos: int):
    vr_c, vi_c = 2 * pos, 2 * pos + 1
    vr, vi = st.x[vr_c], st.x[vi_c]
    vm = math.hypot(vr, vi)
    if vm <= EPS_V:
        bus = st.case.buses[pos].id
        raise SingularPointError(
            f"voltage magnitude collapsed at bus {bus} (|V| = {vm:.3e})", bus=bus
        )
    return vr_c, vi_c, vr, vi, vm


def _sigmoid_control_row(st: _Pass, row: int, value_col: int, pos: int,
                         curve: SigmoidSaturation):
    """Row: value - sigmoid(|V(pos)|) = 0, chain rule through |V|."""
    vr_c, vi_c, vr, vi, vm = _vmag(st, pos)
    st.F[row] += st.x[value_col] - sigmoid_eval(curve, vm)
    ds = sigmoid_deriv(curve, vm)
    st.add(row, value_col, 1.0)
    st.add(row, vr_c, -ds * vr / vm)
    st.add(row, vi_c, -ds * vi / vm)


def _fixed_v_row(st: _Pass, row: int, pos: int, v_set: float):
    """Hard voltage-magnitude row: V_R^2 + V_I^2 - V_set^2 = 0."""
    vr_c, vi_c = 2 * pos, 2 * pos + 1
    vr, vi = st.x[vr_c], st.x[vi_c]
    st.F[row] += vr * vr + vi * vi - v_set * v_set
    st.add(row, vr_c, 2.0 * vr)
    st.add(row, vi_c, 2.0 * vi)


def _fixed_q_row(st: _Pass, row: int, value_col: int, q_fixed: float):
    st.F[row] += st.x[value_col] - q_fixed
    st.add(row, value_col, 1.0)


# ---------------------------------------------------------------------------
# Device stamps
# ---------------------------------------------------------------------------

def _stamp_tapped_branch(st: _Pass, branch, tau: float,
                         tau_col: int | None = None):
    """Pi-model branch at ratio tau, outside the network block: a
    controlled tap (tau is the unknown at tau_col) or a snapped one."""
    f = st.index.bus_pos[branch.from_bus]
    t = st.index.bus_pos[branch.to_bus]
    y = complex(branch.g, branch.b) * (1.0 + st.ctl.tx_relax * TX_SCALE)
    c = complex(0.0, branch.b_sh / 2.0)
    yft = -y / tau
    _kcl_admittance(st, f, (y + c) / (tau * tau), f)
    _kcl_admittance(st, f, yft, t)
    _kcl_admittance(st, t, yft, f)
    _kcl_admittance(st, t, y + c, t)
    if tau_col is None:
        return
    vf = complex(st.x[2 * f], st.x[2 * f + 1])
    vt = complex(st.x[2 * t], st.x[2 * t + 1])
    dif = -2.0 * (y + c) / tau**3 * vf + y / (tau * tau) * vt
    dit = y / (tau * tau) * vf
    st.add(2 * f, tau_col, dif.real)
    st.add(2 * f + 1, tau_col, dif.imag)
    st.add(2 * t, tau_col, dit.real)
    st.add(2 * t + 1, tau_col, dit.imag)


def stamp_transformer(st: _Pass, br_idx: int, branch):
    """Branch with a controllable ratio: tapped currents plus the ratio
    control row tr = sigmoid(|V_ctl|)."""
    idx = st.index
    tau_col = idx.tap_col[br_idx]
    _stamp_tapped_branch(st, branch, st.x[tau_col], tau_col)
    tap = branch.tap
    ctl_pos = idx.bus_pos[branch.from_bus if tap.controlled_side == "primary"
                          else branch.to_bus]
    key = ("tap", br_idx)
    if st.ctl.device_modes.get(key) == FIXED_V:
        # limit-free regulation: hold the controlled voltage outright
        _fixed_v_row(st, tau_col, ctl_pos, tap.v_set)
        return
    orientation = DECREASING if tap.controlled_side == "primary" else INCREASING
    lo, hi = st.ctl.relaxed_q_limits(key, tap.tr_min, tap.tr_max)
    curve = SigmoidSaturation(
        lo, hi, tap.v_set, st.ctl.effective_steepness(), orientation
    )
    _sigmoid_control_row(st, tau_col, tau_col, ctl_pos, curve)


def stamp_load(st: _Pass, load):
    _kcl_injection(st, st.index.bus_pos[load.bus], -load.p, -load.q)


def agc_response(gen, ctl: ControlMode, gen_idx: int, dps: float):
    """Participating generator's extra active power for a given slack
    surplus, with its sensitivity d(dP_G)/d(dP_S).

    At full relaxation (p_relax >= 1) the participation is purely linear;
    below that, limits are the active-power headrooms widened by
    p_relax * extra, where extra comes from the unbounded pre-solve.
    """
    kappa = gen.agc_factor
    if ctl.p_relax >= 1.0:
        return kappa * dps, kappa
    extra_lo, extra_hi = ctl.p_extra.get(gen_idx, (0.0, 0.0))
    lo = (gen.p_min - gen.p_g) + ctl.p_relax * extra_lo
    hi = (gen.p_max - gen.p_g) + ctl.p_relax * extra_hi
    if hi - lo < DEGENERATE_RANGE:
        return 0.0, 0.0
    # active-power spans dwarf typical surpluses, so the default 2% patch
    # would swallow the linear sharing region; use 0.1% here
    curve = participation_build(kappa, lo, hi, delta=0.001 * (hi - lo) / kappa)
    return participation_eval(curve, dps), participation_deriv(curve, dps)


def _gen_active_power(st: _Pass, gen_idx: int, gen):
    """(p_effective, p_col, dp/dcol) for a generator's injection,
    substituting the slack-surplus participation when active."""
    idx = st.index
    if gen_idx in idx.agc_member_idx and idx.dps_col is not None:
        dp, ddp = agc_response(gen, st.ctl, gen_idx, st.x[idx.dps_col])
        return gen.p_g + dp, idx.dps_col, ddp
    return gen.p_g, None, 0.0


def stamp_q_device(st: _Pass, key, bus: int, p: tuple, q_min: float,
                   q_max: float, v_set: float):
    """Locally controlling reactive device: injection currents plus the
    control row of its reactive-power unknown.

    p is (p_effective, p_col, dp/dcol) as from _gen_active_power. A
    generator passes its active power and reactive limits; a continuous
    switched shunt passes zero active power and its susceptance limits,
    which are its reactive limits at nominal voltage.
    """
    q_col = st.index.q_col[key]
    pos = st.index.bus_pos[bus]
    p_eff, p_col, ddp = p
    _kcl_injection(st, pos, p_eff, st.x[q_col], q_col=q_col,
                   p_col=p_col, dp_dcol=ddp)
    mode = st.ctl.device_modes.get(key, SIGMOID)
    if mode == FIXED_V:
        _fixed_v_row(st, q_col, pos, v_set)
        return
    if mode == FIXED_Q:
        _fixed_q_row(st, q_col, q_col, st.ctl.fixed_q[key])
        return
    lo, hi = st.ctl.relaxed_q_limits(key, q_min, q_max)
    if hi - lo < DEGENERATE_RANGE:
        _fixed_q_row(st, q_col, q_col, lo)
        return
    curve = SigmoidSaturation(lo, hi, v_set, st.ctl.effective_steepness())
    _sigmoid_control_row(st, q_col, q_col, pos, curve)


def stamp_remote_group(st: _Pass, gi: int, group):
    """Remote voltage control: per-member participation rows driven by the
    shared group request, the group request row tying the request to the
    remote bus voltage, and member injection currents."""
    idx = st.index
    qreq_col = idx.qreq_col[gi]
    qreq = st.x[qreq_col]
    sum_lo = sum_hi = 0.0
    hard = st.ctl.group_modes.get(gi, SIGMOID) == FIXED_V

    for gen_i, kappa in zip(group.members, group.factors):
        gen = st.case.generators[gen_i]
        key = ("gen", gen_i)
        q_col = idx.q_col[key]
        p_eff, p_col, ddp = _gen_active_power(st, gen_i, gen)
        _kcl_injection(st, idx.bus_pos[gen.bus], p_eff, st.x[q_col],
                       q_col=q_col, p_col=p_col, dp_dcol=ddp)
        lo, hi = st.ctl.relaxed_q_limits(key, gen.q_min, gen.q_max)
        sum_lo += lo
        sum_hi += hi
        if hard:
            # unbounded mode: pure linear split, no flats
            st.F[q_col] += st.x[q_col] - kappa * qreq
            st.add(q_col, q_col, 1.0)
            st.add(q_col, qreq_col, -kappa)
            continue
        if hi - lo < DEGENERATE_RANGE:
            _fixed_q_row(st, q_col, q_col, lo)
            continue
        curve = participation_build(kappa, lo, hi)
        st.F[q_col] += st.x[q_col] - participation_eval(curve, qreq)
        st.add(q_col, q_col, 1.0)
        st.add(q_col, qreq_col, -participation_deriv(curve, qreq))

    rpos = idx.bus_pos[group.controlled_bus]
    if hard:
        _fixed_v_row(st, qreq_col, rpos, group.v_set)
    elif sum_hi - sum_lo < DEGENERATE_RANGE:
        _fixed_q_row(st, qreq_col, qreq_col, sum_lo)
    else:
        curve = SigmoidSaturation(
            sum_lo, sum_hi, group.v_set, st.ctl.effective_steepness()
        )
        _sigmoid_control_row(st, qreq_col, qreq_col, rpos, curve)


def _stamp_slack(st: _Pass, rows, cols, vals):
    """Replace the slack bus KCL rows by V_R = V_set, V_I = 0 and return
    the final triplets.

    With distributed slack, the KCL sums at the slack bus are the slack
    source currents I_S, and they build the surplus row
    P_S + dP_S = V_SR * I_SR + V_SI * I_SI.
    """
    idx, x, F = st.index, st.x, st.F
    r = 2 * idx.slack_pos
    at_slack = (rows >> 1) == idx.slack_pos
    keep = ~at_slack
    parts = [(rows[keep], cols[keep], vals[keep]),
             (np.array([r, r + 1]), np.array([r, r + 1]), np.ones(2))]
    if idx.dps_col is not None:
        d = idx.dps_col
        f_r, f_i = F[r], F[r + 1]
        on = rows[at_slack]  # r or r + 1, the row's own voltage column
        parts.append((np.full(on.size, d), cols[at_slack], vals[at_slack] * x[on]))
        parts.append((np.full(3, d), np.array([r, r + 1, d]),
                      np.array([f_r, f_i, -1.0])))
        F[d] = x[r] * f_r + x[r + 1] * f_i - idx.slack_p_sched - x[d]
    v_set = st.case.buses[idx.slack_pos].v_init_real
    if idx.slack_gen_idx:
        v_set = st.case.generators[idx.slack_gen_idx[0]].v_set
    F[r] = x[r] - v_set
    F[r + 1] = x[r + 1]
    return tuple(np.concatenate(p) for p in zip(*parts))


# ---------------------------------------------------------------------------
# Full-system evaluation
# ---------------------------------------------------------------------------

def _stamp_pass(case: NetworkCase, state: StateVector, ctl: ControlMode):
    """F and the Jacobian triplets (rows, cols, vals) at the state."""
    st = _Pass(case, state, ctl)
    idx = st.index
    nv = idx.voltage_dim()
    net = (1.0 + ctl.tx_relax * TX_SCALE) * idx.net_series + idx.net_shunt
    st.F[:nv] = np.bincount(idx.net_rows, net * st.x[idx.net_cols],
                            minlength=nv)
    for bi in idx.tap_col:
        stamp_transformer(st, bi, case.branches[bi])
    for bi in idx.snapped_taps:
        _stamp_tapped_branch(st, case.branches[bi], ctl.fixed_tap_ratio[bi])
    for load in case.loads:
        stamp_load(st, load)
    for i in idx.local_gen_idx:
        g = case.generators[i]
        stamp_q_device(st, ("gen", i), g.bus, _gen_active_power(st, i, g),
                       g.q_min, g.q_max, g.v_set)
    for gi, grp in enumerate(case.remote_groups):
        stamp_remote_group(st, gi, grp)
    for j, sh in enumerate(case.shunts):
        if j in ctl.fixed_shunt_b:
            pos = idx.bus_pos[sh.bus]
            _kcl_admittance(st, pos, complex(0.0, ctl.fixed_shunt_b[j]), pos)
        else:
            stamp_q_device(st, ("shunt", j), sh.bus, (0.0, None, 0.0),
                           sh.b_min, sh.b_max, sh.v_set)
    rows = np.concatenate((idx.net_rows, np.array(st.rows, dtype=np.intp)))
    cols = np.concatenate((idx.net_cols, np.array(st.cols, dtype=np.intp)))
    vals = np.concatenate((net, np.array(st.vals, dtype=float)))
    return (st.F, *_stamp_slack(st, rows, cols, vals))


def assemble(case: NetworkCase, state: StateVector,
             ctl: ControlMode) -> tuple[np.ndarray, csc_matrix]:
    """Residual F and Jacobian J at the state; NR solves J dx = -F."""
    F, rows, cols, vals = _stamp_pass(case, state, ctl)
    dim = state.index.dim
    return F, csc_matrix((vals, (rows, cols)), shape=(dim, dim))


def residual(case: NetworkCase, state: StateVector, ctl: ControlMode) -> np.ndarray:
    """Exact nonlinear residuals F(x) of every equation at the given state."""
    return _stamp_pass(case, state, ctl)[0]


# ---------------------------------------------------------------------------
# Operating-region classification
# ---------------------------------------------------------------------------

def _classify(value: float, lo: float, hi: float) -> str:
    span = hi - lo
    if span < DEGENERATE_RANGE:
        return AT_MIN
    if value <= lo + REGION_TOL * span:
        return AT_MIN
    if value >= hi - REGION_TOL * span:
        return AT_MAX
    return CONTROLLING


def classify_regions(case: NetworkCase, state: StateVector, ctl: ControlMode) -> dict:
    """Label every controlled device at-min / controlling / at-max based on
    where its output sits within its (unrelaxed) limits."""
    idx = state.index
    out = {}
    for key, col in idx.q_col.items():
        kind, i = key
        if kind == "gen":
            g = case.generators[i]
            out[key] = _classify(state.x[col], g.q_min, g.q_max)
        else:
            sh = case.shunts[i]
            out[key] = _classify(state.x[col], sh.b_min, sh.b_max)
    for bi, col in idx.tap_col.items():
        tap = case.branches[bi].tap
        out[("tap", bi)] = _classify(state.x[col], tap.tr_min, tap.tr_max)
    if idx.dps_col is not None:
        dps = state.x[idx.dps_col]
        for i in idx.agc_member_idx:
            g = case.generators[i]
            dp, _ = agc_response(g, ctl, i, dps)
            out[("agc", i)] = _classify(dp, g.p_min - g.p_g, g.p_max - g.p_g)
    return out
