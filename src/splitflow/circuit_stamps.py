"""Residual F and Jacobian J of the split-circuit NR system, in one pass.

`build_index` turns a case into static arrays once per IndexMap. In
current-voltage coordinates the network is linear: the ratio-fixed
branches and the fixed shunts form a constant real 2n x 2n block, kept
as a series part, scaled by the tx relaxation 1 + tx_relax * TX_SCALE,
and an unscaled shunt part (line charging and fixed shunts). Next to it
sits one table of every injecting device (`Injectors`): loads, local
generators, remote-group members and switched shunts, with their buses,
reactive-power columns, active power, limits, v_set, participation
factors and the fixed row/column of each Jacobian entry they can emit;
and the distributed-slack members' factors and headrooms. A stamp pass
evaluates the table as arrays. Of the ControlMode it derives only what
the mode sets (relaxed limits, fixed modes, group modes), and that once
per mode; a mode that sets none of them uses the table's default.
Controlled and snapped taps, snapped shunts and the remote groups'
request rows stamp one by one; the slack rows come last.

One pass serves F and J alike. It computes F and keeps what J needs:
the one-by-one devices' triplets, and the injection table's currents,
|V|^2 and curve slopes, from which J's values are only built when J is
asked for. `residual` returns the pass's F, and on request the pass
itself; `assemble` builds J from a new pass or from one `residual` kept
at the same state (the NR line search keeps the pass of the trial it
accepts), so F is the same either way and J is testable against finite
differences of `residual`. All KCL terms, network and devices alike,
enter F through one bincount in stamp order, and J's triplets keep the
device-by-device stamp order. J's CSC structure (row indices, column
pointers, the slack-row rewrite and the order in which duplicate
triplets are summed, which is scipy's own) is cached on the IndexMap,
keyed by the stamp-order triplet rows and columns, and rebuilt when they
change; each `assemble` fills in only the values, so J equals scipy's
COO -> CSC conversion of the triplets byte for byte. The structure also
keeps the LU column order of its pattern for `nr_solver.solve_linear`.

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
    default_patch_width,
    participation_arrays,
    participation_build,
    participation_eval,
    sigmoid_arrays,
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
class Injectors:
    """Every device that injects power at its bus, as one table in stamp
    order: loads, local generators, remote-group members and the switched
    shunts that are not snapped. Local generators and switched shunts
    ("local" rows) have a control row each, members a participation row.

    J slots of a row, in order: the four voltage partials of its current,
    its q column (twice), the slack-surplus column (twice), then its
    control or participation row: (col, col), and (col, V_R), (col, V_I)
    for a local row or (col, group request) for a member.
    """

    pos: np.ndarray  # bus position
    vr_c: np.ndarray  # V_R and V_I columns of the bus
    vi_c: np.ndarray
    p: np.ndarray  # scheduled active power (a load's -p, a shunt's 0)
    q: np.ndarray  # a load's -q; the rows after the loads read q from x
    n_loads: int
    q_cols: np.ndarray  # q columns of the rows after the loads
    agc_at: np.ndarray  # rows of distributed-slack members, and their
    agc_pos: np.ndarray  # positions in IndexMap.agc_member_idx
    local: np.ndarray  # rows of the local generators and switched shunts
    local_keys: list  # their ControlMode keys, limits and v_set
    local_min: np.ndarray
    local_max: np.ndarray
    local_v_set: np.ndarray
    members: np.ndarray  # rows of the remote-group members
    member_keys: list
    member_min: np.ndarray
    member_max: np.ndarray
    kappa: np.ndarray  # participation factors
    qreq: np.ndarray  # request column of each member's group
    # per group: request column, controlled bus position, v_set, and the
    # first and end positions of its members in `members`
    groups: list
    # (row, group, shunt): before table row `row`, stamp the request row
    # of that group or the snapped shunt with that index
    breaks: list
    ctl_rows: np.ndarray  # F rows of the control rows: local, then members
    j_rows: np.ndarray  # J row and column of every slot, row by row
    j_cols: np.ndarray
    j_keep: np.ndarray  # (slot, row): slots kept in every control mode
    # _controls of a ControlMode that sets no modes, relaxed limits or
    # group modes, and (fields, _Controls) of the last one that does
    default: "_Controls | None" = None
    last: tuple | None = None


@dataclass
class IndexMap:
    """Row/column assignment and static stamp arrays for one case +
    control configuration."""

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
    slack_v_set: float
    snapped_taps: list  # branch indices stamped at ctl.fixed_tap_ratio
    # network block triplets; J gets scale * net_series + net_shunt
    net_rows: np.ndarray
    net_cols: np.ndarray
    net_series: np.ndarray
    net_shunt: np.ndarray
    inj: Injectors
    # distributed-slack members (agc_member_idx): factors, P headrooms
    agc_kappa: np.ndarray
    agc_lo: np.ndarray
    agc_hi: np.ndarray
    # J's CSC structure for the last triplet pattern `assemble` saw
    jac: "_JacobianStructure | None" = field(default=None, repr=False,
                                             compare=False)

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

    agc_gens = [case.generators[i] for i in agc_member_idx]
    slack_v_set = case.buses[slack_pos].v_init_real
    if slack_gen_idx:
        slack_v_set = case.generators[slack_gen_idx[0]].v_set
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
        slack_v_set=slack_v_set,
        snapped_taps=sorted(ctl.fixed_tap_ratio),
        net_rows=net_rows,
        net_cols=net_cols,
        net_series=net_series,
        net_shunt=net_shunt,
        inj=_injectors(case, bus_pos, q_col, qreq_col, local_gen_idx,
                       agc_member_idx, dps_col),
        agc_kappa=np.array([g.agc_factor for g in agc_gens], dtype=float),
        agc_lo=np.array([g.p_min - g.p_g for g in agc_gens], dtype=float),
        agc_hi=np.array([g.p_max - g.p_g for g in agc_gens], dtype=float),
    )


def _injectors(case: NetworkCase, bus_pos: dict, q_col: dict, qreq_col: dict,
               local_gen_idx: list, agc_member_idx: list,
               dps_col: int | None) -> Injectors:
    gens = case.generators

    def gen(i):
        g = gens[i]
        return ("gen", i), g.bus, g.p_g, 0.0, g.q_min, g.q_max, g.v_set

    # (key, bus, p, q, q_min, q_max, v_set) per row, in stamp order
    table = [(None, ld.bus, -ld.p, -ld.q, 0.0, 0.0, 0.0) for ld in case.loads]
    table += [gen(i) for i in local_gen_idx]
    first_member = len(table)
    groups = []
    for gi, grp in enumerate(case.remote_groups):
        start = len(table) - first_member
        table += [gen(m) for m in grp.members]
        groups.append((qreq_col[gi], bus_pos[grp.controlled_bus], grp.v_set,
                       start, len(table) - first_member))
    # each group's request row follows its last member, and each snapped
    # shunt stamps as an admittance between its switched neighbours
    breaks = [(first_member + end, gi, None)
              for gi, (*_, end) in enumerate(groups)]
    first_shunt = len(table)
    for j, sh in enumerate(case.shunts):
        if ("shunt", j) in q_col:
            table.append((("shunt", j), sh.bus, 0.0, 0.0, sh.b_min, sh.b_max,
                          sh.v_set))
        else:
            breaks.append((len(table), None, j))

    n, n_loads = len(table), len(case.loads)
    keys = [row[0] for row in table]
    pos = np.array([bus_pos[row[1]] for row in table], dtype=np.intp)
    p, q, q_min, q_max, v_set = (
        np.array([row[2:] for row in table], dtype=float).reshape(-1, 5).T.copy())
    col = np.array([q_col.get(k, 0) for k in keys], dtype=np.intp)
    local = np.r_[n_loads:first_member, first_shunt:n]
    members = np.arange(first_member, first_shunt)
    qreq = np.array([qreq_col[gi] for gi, grp in enumerate(case.remote_groups)
                     for _ in grp.members], dtype=np.intp)
    agc = {("gen", i): k for k, i in enumerate(agc_member_idx)}
    agc_at = np.array([r for r, k in enumerate(keys) if k in agc], dtype=np.intp)

    vr_c = 2 * pos
    vi_c = vr_c + 1
    d = np.full(n, 0 if dps_col is None else dps_col)
    j_rows = np.array((vr_c, vr_c, vi_c, vi_c, vr_c, vi_c, vr_c, vi_c,
                       col, col, col))
    j_cols = np.array((vr_c, vi_c, vr_c, vi_c, col, col, d, d,
                       col, vr_c, vi_c))
    j_cols[9, members] = qreq
    j_keep = np.zeros(j_rows.shape, dtype=bool)
    j_keep[:4] = True
    j_keep[4:6, n_loads:] = True
    j_keep[8, members] = True
    t = Injectors(
        pos=pos, vr_c=vr_c, vi_c=vi_c,
        p=p, q=q, n_loads=n_loads, q_cols=col[n_loads:],
        agc_at=agc_at,
        agc_pos=np.array([agc[keys[r]] for r in agc_at], dtype=np.intp),
        local=local, local_keys=[keys[r] for r in local],
        local_min=q_min[local], local_max=q_max[local],
        local_v_set=v_set[local],
        members=members, member_keys=[keys[r] for r in members],
        member_min=q_min[members], member_max=q_max[members],
        kappa=np.array([f for grp in case.remote_groups for f in grp.factors],
                       dtype=float),
        qreq=qreq, groups=groups, breaks=breaks,
        ctl_rows=np.concatenate((col[local], col[members])),
        j_rows=j_rows.T.ravel(), j_cols=j_cols.T.ravel(), j_keep=j_keep,
    )
    t.default = _controls(ControlMode(), t)
    return t


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
    """One stamp pass at a state.

    Stamps append F terms to `f` as (rows, values) and their J triplets
    to `j` as (rows, cols, values), both in stamp order; the injection
    table's J slots wait in `j` as a range of table rows, to be filled
    from the values the pass keeps (`inj`) only when J is asked for
    (`triplets`). Every KCL term goes to row 2 * pos + comp of its bus,
    the slack bus included; `_slack_rows` then turns the slack rows into
    voltage constraints and, with distributed slack, into the surplus row.
    """

    def __init__(self, case: NetworkCase, state: StateVector, ctl: ControlMode):
        self.case = case
        self.ctl = ctl
        self.index = idx = state.index
        self.x = state.x
        self.f: list = []
        self.j: list = []
        self.inj = None  # what stamp_injections keeps for its J slots
        self.F = self.slack_currents = None
        # (extra active power, its slope in the surplus) per slack member
        self.agc = None
        if idx.dps_col is not None and idx.agc_member_idx:
            self.agc = _slack_participation(
                ctl, idx.agc_member_idx, idx.agc_kappa, idx.agc_lo, idx.agc_hi,
                self.x[idx.dps_col])

    def triplets(self):
        """J triplets (rows, cols, vals) in stamp order, slack bus rows not
        yet rewritten, and the slack source currents (I_SR, I_SI)."""
        t = self.index.inj
        V, keep = _injection_slots(self)
        parts = []
        for part in self.j:
            if isinstance(part, range):
                a, b = 11 * part.start, 11 * part.stop
                k = keep[a:b]
                part = (t.j_rows[a:b][k], t.j_cols[a:b][k], V[a:b][k])
            parts.append(part)
        rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
        return rows, cols, vals, self.slack_currents


# ---------------------------------------------------------------------------
# Scalar helpers for the devices that stamp one by one
# ---------------------------------------------------------------------------

def _kcl_admittance(st: _Pass, at_pos: int, y: complex, v_pos: int):
    """Current y * V(v_pos) entering the KCL sum at at_pos (linear)."""
    g, b = y.real, y.imag
    row, vr_c, vi_c = 2 * at_pos, 2 * v_pos, 2 * v_pos + 1
    vr, vi = st.x[vr_c], st.x[vi_c]
    st.f.append(((row, row + 1), (g * vr - b * vi, b * vr + g * vi)))
    st.j.append(((row, row, row + 1, row + 1), (vr_c, vi_c, vr_c, vi_c),
                 (g, -b, b, g)))


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
    st.f.append(((row,), (st.x[value_col] - sigmoid_eval(curve, vm),)))
    ds = sigmoid_deriv(curve, vm)
    st.j.append(((row, row, row), (value_col, vr_c, vi_c),
                 (1.0, -ds * vr / vm, -ds * vi / vm)))


def _fixed_v_row(st: _Pass, row: int, pos: int, v_set: float):
    """Hard voltage-magnitude row: V_R^2 + V_I^2 - V_set^2 = 0."""
    vr_c, vi_c = 2 * pos, 2 * pos + 1
    vr, vi = st.x[vr_c], st.x[vi_c]
    st.f.append(((row,), (vr * vr + vi * vi - v_set * v_set,)))
    st.j.append(((row, row), (vr_c, vi_c), (2.0 * vr, 2.0 * vi)))


def _fixed_q_row(st: _Pass, row: int, value_col: int, q_fixed: float):
    st.f.append(((row,), (st.x[value_col] - q_fixed,)))
    st.j.append(((row,), (value_col,), (1.0,)))


# ---------------------------------------------------------------------------
# Array helpers for the devices that stamp as arrays
# ---------------------------------------------------------------------------

def _check_collapse(st: _Pass, pos: np.ndarray, dd: np.ndarray):
    """Raise SingularPointError at the first device whose bus voltage
    collapsed, |V|^2 <= EPS_V^2."""
    low = dd <= EPS_V * EPS_V
    if np.count_nonzero(low):
        k = int(low.argmax())
        bus = st.case.buses[pos[k]].id
        raise SingularPointError(
            f"voltage magnitude collapsed at bus {bus} (|V|^2 = {dd[k]:.3e})",
            bus=bus)


def _relaxed_limits(ctl: ControlMode, keys: list, q_min, q_max):
    """ControlMode.relaxed_q_limits of each device, as two arrays."""
    return np.array([ctl.relaxed_q_limits(k, a, b) for k, a, b
                     in zip(keys, q_min.tolist(), q_max.tolist())],
                    dtype=float).reshape(-1, 2).T


def _slack_participation(ctl: ControlMode, members: list, kappa, lo, hi, dps):
    """Participating generators' extra active power for a given slack
    surplus, with its sensitivity d(dP_G)/d(dP_S), as arrays.

    members are generator indices, kappa their factors and lo/hi their
    active-power headrooms p_min - p_g and p_max - p_g. At full
    relaxation (p_relax >= 1) the participation is purely linear; below
    that, limits are the headrooms widened by p_relax * extra, where
    extra comes from the unbounded pre-solve.
    """
    if ctl.p_relax >= 1.0:
        return kappa * dps, kappa
    extra_lo = extra_hi = 0.0
    if ctl.p_extra:
        extra_lo, extra_hi = np.array(
            [ctl.p_extra.get(i, (0.0, 0.0)) for i in members],
            dtype=float).reshape(-1, 2).T
    lo = lo + ctl.p_relax * extra_lo
    hi = hi + ctl.p_relax * extra_hi
    live = ~(hi - lo < DEGENERATE_RANGE)
    dp, ddp = np.zeros(len(members)), np.zeros(len(members))
    if live.any():
        k, lo, hi = kappa[live], lo[live], hi[live]
        # active-power spans dwarf typical surpluses, so the default 2%
        # patch would swallow the linear sharing region; use 0.1% here
        dp[live], ddp[live] = participation_arrays(
            k, lo, hi, 0.001 * (hi - lo) / k, dps)
    return dp, ddp


def agc_response(gen, ctl: ControlMode, gen_idx: int, dps: float):
    """Participating generator's extra active power for a given slack
    surplus, with its sensitivity d(dP_G)/d(dP_S)."""
    dp, ddp = _slack_participation(
        ctl, [gen_idx], np.array([gen.agc_factor]),
        np.array([gen.p_min - gen.p_g]), np.array([gen.p_max - gen.p_g]), dps)
    return float(dp[0]), float(ddp[0])


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
    st.j.append(((2 * f, 2 * f + 1, 2 * t, 2 * t + 1), (tau_col,) * 4,
                 (dif.real, dif.imag, dit.real, dit.imag)))


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


def _modes(ctl: ControlMode, keys: list):
    """(FIXED_V mask, FIXED_Q mask, FIXED_Q values) of the devices."""
    modes = [ctl.device_modes.get(k, SIGMOID) for k in keys]
    fixed_q = [m == FIXED_Q for m in modes]
    return (np.array([m == FIXED_V for m in modes], dtype=bool),
            np.array(fixed_q, dtype=bool),
            np.array([ctl.fixed_q[k] if on else 0.0
                      for k, on in zip(keys, fixed_q)], dtype=float))


@dataclass
class _Controls:
    """What a ControlMode makes of the rows of an Injectors table."""

    held: np.ndarray  # local rows' value off the curve: fixed_q or lo
    fixed_v: np.ndarray  # local positions that hold |V| at v_set
    sig: np.ndarray  # local positions on their sigmoid, their table rows
    on: np.ndarray  # and their relaxed limits and v_set
    lo: np.ndarray
    hi: np.ndarray
    v_set: np.ndarray
    m_lo: np.ndarray  # members: relaxed limits
    m_hi: np.ndarray
    hard: np.ndarray  # members of FIXED_V groups
    follow: np.ndarray  # members whose row reads the request
    curve: np.ndarray  # members on their participation curve
    keep: np.ndarray  # J slots kept, row by row (surplus slots off)


def _controls(ctl: ControlMode, t: Injectors) -> _Controls:
    """The _Controls of ctl: the table's default when ctl sets none of
    the fields below, else the last one derived when they are unchanged
    (an NR solve stamps many states under one ControlMode)."""
    key = (ctl.device_modes, ctl.fixed_q, ctl.q_scale, ctl.q_widen,
           ctl.group_modes)
    if t.default is not None and not any(key):
        return t.default
    if t.last is not None and t.last[0] == key:
        return t.last[1]
    fixed_v, fixed_q, q_fixed = _modes(ctl, t.local_keys)
    lo, hi = _relaxed_limits(ctl, t.local_keys, t.local_min, t.local_max)
    sig = ~(fixed_v | fixed_q | (hi - lo < DEGENERATE_RANGE))
    hard = np.zeros(len(t.members), dtype=bool)
    for gi, (*_, a, b) in enumerate(t.groups):
        hard[a:b] = ctl.group_modes.get(gi, SIGMOID) == FIXED_V
    m_lo, m_hi = _relaxed_limits(ctl, t.member_keys, t.member_min, t.member_max)
    follow = hard | ~(m_hi - m_lo < DEGENERATE_RANGE)
    keep = t.j_keep.copy()
    keep[8, t.local] = ~fixed_v
    keep[9, t.local] = keep[10, t.local] = fixed_v | sig
    keep[9, t.members] = follow
    c = _Controls(np.where(fixed_q, q_fixed, lo), np.flatnonzero(fixed_v),
                  sig, t.local[sig], lo[sig], hi[sig], t.local_v_set[sig],
                  m_lo, m_hi, hard, follow, follow & ~hard, keep.T.ravel())
    # copies, so that a ControlMode changed in place is not mistaken
    t.last = (tuple(dict(d) for d in key), c)
    return c


def stamp_injections(st: _Pass):
    """Every injecting device at once (IndexMap.inj): its current into
    the KCL sums, and the control row of each local generator and
    switched shunt and the participation row of each remote-group member.
    Each group's request row follows its last member, and each snapped
    shunt, an admittance, stamps between its switched neighbours.

    An injection p + jq enters KCL as -(I_R, I_I), with
    I_R = (p vr + q vi)/|V|^2 and I_I = (p vi - q vr)/|V|^2. A load
    injects its -p - jq; a generator its active power (plus its slack
    participation) and its reactive unknown q; a continuous switched
    shunt no active power and q, with susceptance limits, which are its
    reactive limits at nominal voltage. A local row holds |V| at v_set
    (FIXED_V), q at ctl.fixed_q (FIXED_Q), q at its lower limit when the
    relaxed limits are degenerate, and q = sigmoid(|V|) between them
    otherwise. A member's row splits the group request through its
    participation curve, or linearly in a FIXED_V group.
    """
    t, x, ctl = st.index.inj, st.x, st.ctl
    n = len(t.pos)
    c = _controls(ctl, t)
    vr, vi = x[t.vr_c], x[t.vi_c]
    dd = vr * vr + vi * vi
    # a local row reads |V| at its own bus, whose |V|^2 this checks
    _check_collapse(st, t.pos, dd)
    q = t.q.copy()
    q[t.n_loads:] = x[t.q_cols]
    p, dp = t.p, None
    if st.agc is not None and len(t.agc_at):
        extra, slope = st.agc
        p, dp = t.p.copy(), np.zeros(n)
        p[t.agc_at] = t.p[t.agc_at] + extra[t.agc_pos]
        dp[t.agc_at] = slope[t.agc_pos]

    ir = (p * vr + q * vi) / dd
    ii = (p * vi - q * vr) / dd
    kcl = -np.concatenate((ir, ii))
    L = t.local
    target = c.held.copy()
    vm = ds = m_slope = None
    if len(c.on):
        vm = np.array(list(map(math.hypot, vr[c.on].tolist(),
                               vi[c.on].tolist())))
        target[c.sig], ds = sigmoid_arrays(
            c.lo, c.hi, c.v_set, ctl.effective_steepness(), vm)
    f_ctl = q[L] - target
    fv = L[c.fixed_v]
    if len(fv):
        v_set = t.local_v_set[c.fixed_v]
        f_ctl[c.fixed_v] = dd[fv] - v_set * v_set

    M = t.members
    if len(M):
        qreq = x[t.qreq]
        # FIXED_V groups split the request linearly, with no flats
        m_target = np.where(c.hard, t.kappa * qreq, c.m_lo)
        m_slope = np.where(c.hard, t.kappa, 0.0)
        if np.count_nonzero(c.curve):
            k, lo, hi = t.kappa[c.curve], c.m_lo[c.curve], c.m_hi[c.curve]
            m_target[c.curve], m_slope[c.curve] = participation_arrays(
                k, lo, hi, default_patch_width(k, lo, hi), qreq[c.curve])
        f_ctl = np.concatenate((f_ctl, q[M] - m_target))
    st.f.append((t.ctl_rows, f_ctl))
    # what the J slots are built from, if J is asked for (_injection_slots)
    st.inj = (c, vr, vi, dd, p, q, ir, ii, dp, vm, ds, fv, m_slope)

    def emit(a, b):
        """The currents of table rows a to b, and their J slots' place."""
        if a == b:
            return
        st.f.append((np.concatenate((t.vr_c[a:b], t.vi_c[a:b])),
                     np.concatenate((kcl[a:b], kcl[n + a:n + b]))))
        st.j.append(range(a, b))

    start = 0
    for row, gi, j in t.breaks:
        emit(start, row)
        start = row
        if j is not None:
            pos = st.index.bus_pos[st.case.shunts[j].bus]
            _kcl_admittance(st, pos, complex(0.0, ctl.fixed_shunt_b[j]), pos)
            continue
        qreq_col, pos, v_set, a, b = t.groups[gi]
        s_lo = s_hi = 0.0
        for lo, hi in zip(c.m_lo[a:b].tolist(), c.m_hi[a:b].tolist()):
            s_lo += lo
            s_hi += hi
        if c.hard[a]:
            _fixed_v_row(st, qreq_col, pos, v_set)
        elif s_hi - s_lo < DEGENERATE_RANGE:
            _fixed_q_row(st, qreq_col, qreq_col, s_lo)
        else:
            curve = SigmoidSaturation(s_lo, s_hi, v_set,
                                      ctl.effective_steepness())
            _sigmoid_control_row(st, qreq_col, qreq_col, pos, curve)
    emit(start, n)


def _injection_slots(st: _Pass):
    """The values of every J slot of the injection table, row by row, and
    which slots are kept, from what `stamp_injections` kept of the pass."""
    t = st.index.inj
    c, vr, vi, dd, p, q, ir, ii, dp, vm, ds, fv, m_slope = st.inj
    # slot-major values; the same expressions as the scalar partials
    V = np.empty(t.j_keep.shape)
    v2 = np.array((vr, vi))
    V[:4] = -(np.array((p, q, -q, p)) / dd
              - 2.0 * v2[[0, 1, 0, 1]] * np.array((ir, ir, ii, ii)) / dd)
    vd = v2 / dd
    V[4] = -vd[1]
    V[5] = vd[0]
    V[8] = 1.0
    keep = c.keep
    if dp is not None:
        V[6:8] = -vd * dp
        keep = keep.copy()
        keep[6::11] = keep[7::11] = dp != 0.0
    if vm is not None:
        V[9:, c.on] = -ds * v2[:, c.on] / vm
    if len(fv):
        V[9:, fv] = 2.0 * v2[:, fv]
    if m_slope is not None:
        V[9, t.members] = -m_slope
    return V.T.ravel(), keep


def _slack_rows(st: _Pass, F: np.ndarray):
    """Replace the slack bus KCL rows of F by V_R = V_set, V_I = 0, and
    return what they held, the slack source currents (I_SR, I_SI).

    With distributed slack, those currents build the surplus row
    P_S + dP_S = V_SR * I_SR + V_SI * I_SI.
    """
    idx, x = st.index, st.x
    r, d = 2 * idx.slack_pos, idx.dps_col
    f_r, f_i = F[r], F[r + 1]
    if d is not None:
        F[d] = x[r] * f_r + x[r + 1] * f_i - idx.slack_p_sched - x[d]
    F[r] = x[r] - idx.slack_v_set
    F[r + 1] = x[r + 1]
    return f_r, f_i


# ---------------------------------------------------------------------------
# Jacobian structure
# ---------------------------------------------------------------------------

@dataclass
class _JacobianStructure:
    """J's CSC structure for one pattern of stamp-order triplets.

    A call's J values come from its source vector: the pass's triplet
    values, the two unit diagonals of the slack voltage rows and, with
    distributed slack, the slack-row triplets moved to the surplus row
    (each times its row's own voltage) and the surplus row's own entries
    I_SR, I_SI and -1.
    """

    rows: np.ndarray  # the key: the pass's triplet rows and cols
    cols: np.ndarray
    at: np.ndarray  # triplets in the slack bus rows, and their voltage
    on: np.ndarray  # columns (each row's own)
    first: np.ndarray  # source position of each stored entry's first term
    rest: np.ndarray  # source positions of the other terms, in the order
    rest_slot: np.ndarray  # scipy adds them, and the entry each adds to
    indices: np.ndarray  # CSC row indices and column pointers, read-only
    indptr: np.ndarray
    # the pattern's LU column order, once `keep_order` has it: its
    # inverse, the gather that puts J's data into that order, and the
    # permuted matrix each factorization refills
    inv: np.ndarray | None = None
    gather: np.ndarray | None = None
    permuted: csc_matrix | None = None

    def keep_order(self, perm_c: np.ndarray) -> None:
        """Keep perm_c, the column order SuperLU chose for this pattern.

        The order (COLAMD by default) reads the pattern alone, so every J
        of this structure shares it. With inv = argsort(perm_c), the
        permuted matrix is J[inv][:, inv]: factored in its NATURAL order
        it gives the LU, pivots and solution bits that J gives with
        perm_c, and J x = b becomes permuted y = b[inv], x[inv] = y.
        SuperLU prefers the diagonal of Pc' A Pc as pivot when it ties
        for the largest, so the rows are renumbered with the columns;
        and its column search visits a column's rows in stored order, so
        each column keeps J's row order (unsorted in the new numbering)."""
        inv = np.argsort(perm_c)
        counts = np.diff(self.indptr)[inv]
        indptr = np.r_[0, np.cumsum(counts)].astype(np.int32)
        self.gather = (np.repeat(self.indptr[inv] - indptr[:-1], counts)
                       + np.arange(indptr[-1]))
        rows = perm_c[self.indices[self.gather]].astype(np.int32)
        dim = len(inv)
        self.permuted = csc_matrix((np.empty(len(rows)), rows, indptr),
                                   shape=(dim, dim))
        # no duplicates, and splu must not sort the rows (see above)
        self.permuted.has_canonical_format = True
        self.inv = inv


def _jacobian_structure(idx: IndexMap, rows: np.ndarray,
                        cols: np.ndarray) -> _JacobianStructure:
    """Analyse the pass's triplets once: the slack-row rewrite, and the
    CSC structure scipy's COO -> CSC conversion gives the rewritten ones.

    scipy buckets the triplets by column in input order, sorts each
    column by row with an unstable std::sort, and sums runs of equal
    rows from the first. A stable sort would order equal rows
    differently, and floating-point sums depend on the order, so scipy
    sorts the triplet ids itself here: its permutation depends on the
    row keys alone.
    """
    dim, r, d = idx.dim, 2 * idx.slack_pos, idx.dps_col
    at = np.flatnonzero((rows >> 1) == idx.slack_pos)
    # rows and columns of the source vector (see _JacobianStructure); the
    # slack-row triplets' own places are left out
    src_rows, src_cols = [rows, (r, r + 1)], [cols, (r, r + 1)]
    if d is not None:
        src_rows += [np.full(at.size, d), (d, d, d)]
        src_cols += [cols[at], (r, r + 1, d)]
    src_rows, src_cols = np.concatenate(src_rows), np.concatenate(src_cols)
    used = np.ones(src_rows.size, dtype=bool)
    used[at] = False
    src = np.flatnonzero(used)
    rows_f, cols_f = src_rows[src], src_cols[src]

    order = np.argsort(cols_f, kind="stable")
    raw = csc_matrix((order.astype(float), rows_f[order].astype(np.int32),
                      _col_pointers(cols_f, dim)), shape=(dim, dim))
    raw.sort_indices()
    perm = src[raw.data.astype(np.intp)]
    s_rows, s_cols = raw.indices, cols_f[order]
    new = np.r_[True, (s_rows[1:] != s_rows[:-1]) | (s_cols[1:] != s_cols[:-1])]
    slot = np.cumsum(new) - 1
    indices, indptr = s_rows[new], _col_pointers(s_cols[new], dim)
    # every J returned shares these two; an in-place scipy op must not
    # rewrite the cache
    indices.flags.writeable = indptr.flags.writeable = False
    return _JacobianStructure(rows, cols, at, rows[at], perm[new], perm[~new],
                              slot[~new], indices, indptr)


def _col_pointers(cols: np.ndarray, dim: int) -> np.ndarray:
    """CSC column pointers of entries with these columns, sorted."""
    return np.r_[0, np.cumsum(np.bincount(cols, minlength=dim))].astype(np.int32)


def _jacobian(idx: IndexMap, x: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              vals: np.ndarray, slack_currents) -> csc_matrix:
    """J from the pass's triplets, filled into the structure cached on the
    index map; the structure is rebuilt when the triplet rows or columns
    differ from the cached ones (a generator switched between PV and PQ,
    a slack member's slope exactly 0, a tap or group row of another
    kind). The result equals csc_matrix((vals, (rows, cols))) of the
    rewritten triplets byte for byte."""
    s = idx.jac
    if s is None or not (np.array_equal(rows, s.rows)
                         and np.array_equal(cols, s.cols)):
        s = idx.jac = _jacobian_structure(idx, rows, cols)
    parts = [vals, (1.0, 1.0)]
    if idx.dps_col is not None:
        parts += [vals[s.at] * x[s.on], (*slack_currents, -1.0)]
    src = np.concatenate(parts)
    data = src[s.first]
    np.add.at(data, s.rest_slot, src[s.rest])
    J = csc_matrix((data, s.indices, s.indptr), shape=(idx.dim, idx.dim))
    J.has_canonical_format = True  # sorted and summed by construction
    J.structure = s
    return J


# ---------------------------------------------------------------------------
# Full-system evaluation
# ---------------------------------------------------------------------------

def _stamp_pass(case: NetworkCase, state: StateVector,
                ctl: ControlMode) -> _Pass:
    """One stamp pass at the state: F in `F` (slack rows rewritten, see
    `_slack_rows`), and what `_Pass.triplets` builds J's triplets from."""
    st = _Pass(case, state, ctl)
    idx = st.index
    net = (1.0 + ctl.tx_relax * TX_SCALE) * idx.net_series + idx.net_shunt
    st.f.append((idx.net_rows, net * st.x[idx.net_cols]))
    st.j.append((idx.net_rows, idx.net_cols, net))
    for bi in idx.tap_col:
        stamp_transformer(st, bi, case.branches[bi])
    for bi in idx.snapped_taps:
        _stamp_tapped_branch(st, case.branches[bi], ctl.fixed_tap_ratio[bi])
    stamp_injections(st)
    rows, vals = (np.concatenate(a) for a in zip(*st.f))
    st.F = np.bincount(rows, vals, minlength=idx.dim)
    st.slack_currents = _slack_rows(st, st.F)
    return st


def assemble(case: NetworkCase, state: StateVector, ctl: ControlMode,
             kept: _Pass | None = None) -> tuple[np.ndarray, csc_matrix]:
    """Residual F and Jacobian J at the state; NR solves J dx = -F.

    kept, if given, is the pass `residual(case, state, ctl, keep=True)`
    returned at this very state (state.x unchanged since): J is built
    from the values that pass kept, and the state is not stamped again.
    J's CSC structure is cached on the state's IndexMap, keyed by the
    pass's stamp-order triplet rows and columns, and only its values are
    filled per call, duplicates summed in scipy's own order (see
    `_jacobian`). J carries that structure as `J.structure`, where
    `nr_solver.solve_linear` keeps the LU column order of the pattern."""
    st = kept
    if st is None:
        st = _stamp_pass(case, state, ctl)
    elif st.x is not state.x or st.ctl is not ctl:
        raise ValueError("kept pass was stamped at another state or control")
    return st.F, _jacobian(state.index, state.x, *st.triplets())


def residual(case: NetworkCase, state: StateVector, ctl: ControlMode,
             keep: bool = False):
    """Exact nonlinear residuals F(x) of every equation at the given state;
    the same F as `assemble`, without building J. With keep, returns
    (F, pass): the pass lets `assemble(..., kept=pass)` build J at this
    state without stamping it again."""
    st = _stamp_pass(case, state, ctl)
    return (st.F, st) if keep else st.F


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
