"""Residual F and Jacobian J of the split-circuit NR system, in one pass.

`build_index` turns a case into static arrays once per IndexMap. In
current-voltage coordinates the network is linear: the ratio-fixed
branches and the fixed shunts form a constant real 2n x 2n block, kept
as a series part, scaled by the tx relaxation 1 + tx_relax * TX_SCALE,
and an unscaled shunt part (line charging and fixed shunts). Every other
device is a row of one of three tables: `Taps` (controlled and snapped),
`Injectors` (loads, generators, switched shunts) and `ControlRows`
(every row that holds a value against a bus voltage magnitude: local
generators and switched shunts, controlled taps, group requests). A
stamp pass evaluates them as a fixed list of array segments: network,
taps, injections, control rows, slack rows. Of the ControlMode it
derives only what the mode sets, once per mode (`_controls`).

One pass serves F and J alike. It computes F and keeps what J needs
(currents, |V|^2, curve slopes), from which J's values are only built
when J is asked for. `residual` returns the pass's F, and on request the
pass itself; `assemble` builds J from a new pass or from one `residual`
kept at the same state (the NR line search keeps the pass of the trial it
accepts), so F is the same either way and J is testable against finite
differences of `residual`. All KCL terms enter F through one bincount.
J's pattern is fixed by the index map and the J slots a pass keeps
(`_Pass.kept`), so J's CSC structure (row indices, column pointers, the
slack-row rewrite and the entry each value adds to) is cached on the
IndexMap, keyed by the kept slots, and rebuilt when they change; each
`assemble` emits values only and sums them into the structure with one
bincount, duplicates in emitted order. The structure also keeps the LU
column order of its pattern for `nr_solver.solve_linear`.

Unknown ordering: interleaved bus voltages (V_real, V_imag per bus), then
one reactive-power column per voltage-controlling device (local
generators, remote members, switched shunts), one group-request column
per remote control group, one ratio column per controlled tap, and the
slack-surplus column when distributed slack is active. Each control
equation lives on the row with the same index as its unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csc_matrix

from .case_model import NetworkCase
from .errors import SingularPointError
from .smooth_primitives import (
    default_patch_width,
    participation_arrays,
    sigmoid_arrays,
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


def device_limits(case: NetworkCase, key) -> tuple[float, float]:
    """(lo, hi) output limits of the controlled device ("gen" | "shunt" |
    "tap", i): reactive power, susceptance or ratio."""
    kind, i = key
    if kind == "gen":
        g = case.generators[i]
        return g.q_min, g.q_max
    if kind == "shunt":
        sh = case.shunts[i]
        return sh.b_min, sh.b_max
    tap = case.branches[i].tap
    return tap.tr_min, tap.tr_max


@dataclass
class Taps:
    """The taps outside the network block: the controlled ones in
    ratio-column order, then the snapped ones (IndexMap.snapped_taps).
    Each is a pi-model branch at ratio tau from bus f to t, with series
    admittance y and half its line charging, jc, at each end: it adds
    (y + jc)/tau^2, -y/tau, -y/tau and y + jc at (f, f), (f, t), (t, f)
    and (t, t). J slots of a tap: those four 2 x 2 blocks, then, if it is
    controlled, its ratio column in the rows of f and t.
    """

    branches: list  # branch indices
    y: np.ndarray  # complex
    jc: np.ndarray  # complex
    cols: np.ndarray  # ratio columns of the controlled taps
    at: np.ndarray  # V_R rows (2f, 2f, 2t, 2t) and V_R columns
    v: np.ndarray  # (2f, 2t, 2f, 2t) of the blocks, per tap


@dataclass
class Injectors:
    """Every device that injects current at its bus, as one table:
    loads, local generators, remote-group members, switched shunts. A
    snapped shunt is the admittance jb; every other row injects power
    p + jq. J slots of a row: the four voltage partials of its
    current, its q column (twice), the slack-surplus column (twice); and a
    member's participation row has (col, col) and (col, group request).
    """

    keys: list  # ControlMode key of each row (None for a load)
    pos: np.ndarray  # bus position
    vr_c: np.ndarray  # V_R and V_I columns of the bus
    vi_c: np.ndarray
    p: np.ndarray  # scheduled active power (a load's -p, a shunt's 0)
    q: np.ndarray  # a load's -q; the rows after the loads read q from x
    n_loads: int
    q_cols: np.ndarray  # q columns of the rows after the loads
    kcl_rows: np.ndarray  # F rows of the currents: V_R rows, then V_I rows
    agc_at: np.ndarray  # rows of distributed-slack members, and their
    agc_pos: np.ndarray  # positions in IndexMap.agc_member_idx
    local: np.ndarray  # rows with a control row (IndexMap.rows)
    snapped: np.ndarray  # rows of the snapped shunts
    divides: np.ndarray  # buses of the other rows, whose |V|^2 they divide by
    members: np.ndarray  # rows of the remote-group members, their limits,
    member_min: np.ndarray  # q columns, factors and request columns
    member_max: np.ndarray
    m_cols: np.ndarray
    kappa: np.ndarray
    qreq: np.ndarray
    spans: list  # each group's first and end positions in `members`


@dataclass
class ControlRows:
    """Every row that holds a value against a bus voltage magnitude: the
    local generators' and switched shunts' (Injectors.local), the
    controlled taps', then the remote groups' requests.

    Row k is the F row of its own unknown, cols[k]. It holds |V| at bus
    pos[k] at v_set[k] (FIXED_V), holds its unknown at a value (FIXED_Q,
    local devices only, or degenerate limits), or follows the sigmoid of
    |V| between its limits, decreasing with sign 1 and increasing with
    sign -1. A tap regulates the bus of its controlled side, lowering its
    ratio as a primary-side voltage rises and raising it as a
    secondary-side one does, and follows its sigmoid unless FIXED_V. A
    group's limits are the sums of its members'. J slots of a row:
    (col, col), (col, V_R), (col, V_I).
    """

    cols: np.ndarray
    pos: np.ndarray
    v_set: np.ndarray
    sign: np.ndarray
    keys: list  # ControlMode keys of the local rows and taps, and
    lo: np.ndarray  # their limits before relaxing
    hi: np.ndarray
    n_local: int


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
    taps: Taps
    inj: Injectors
    rows: ControlRows
    # the tables' J slots, table by table (taps, injections, control
    # rows, participation rows) and slot by slot: rows, cols, whether the
    # first two tables' are kept, and the injection rows' slack-surplus
    # slots
    j_rows: np.ndarray
    j_cols: np.ndarray
    j_keep: np.ndarray
    surplus: np.ndarray
    # distributed-slack members (agc_member_idx): factors, P headrooms
    agc_kappa: np.ndarray
    agc_lo: np.ndarray
    agc_hi: np.ndarray
    # _controls of a ControlMode that sets none of the fields it reads,
    # and (fields, _Controls) of the last one that does
    default: "_Controls | None" = field(default=None, repr=False,
                                        compare=False)
    last: tuple | None = field(default=None, repr=False, compare=False)
    # J's CSC structure for the last kept slots `assemble` saw
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

    members = {gen_i for grp in case.remote_groups for gen_i in grp.members}

    slack_bus_id = case.buses[slack_pos].id
    local_gen_idx = []
    agc_member_idx = []
    slack_gen_idx = []
    for i, g in enumerate(case.generators):
        if g.bus == slack_bus_id:
            slack_gen_idx.append(i)
            continue
        if i not in members:
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

    snapped_taps = sorted(ctl.fixed_tap_ratio)
    in_block = [bi for bi in range(len(case.branches))
                if bi not in tap_col and bi not in ctl.fixed_tap_ratio]
    taps = _taps(case, bus_pos, tap_col, snapped_taps)
    inj = _injectors(case, bus_pos, q_col, qreq_col, local_gen_idx,
                     agc_member_idx)
    rows = _control_rows(case, bus_pos, q_col, qreq_col, tap_col, inj)
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
        local_gen_idx=local_gen_idx,
        agc_member_idx=agc_member_idx,
        slack_gen_idx=slack_gen_idx,
        slack_p_sched=sum(case.generators[i].p_g for i in slack_gen_idx),
        slack_v_set=slack_v_set,
        snapped_taps=snapped_taps,
        **_network_block(case, bus_pos, in_block),
        taps=taps,
        inj=inj,
        rows=rows,
        **_slots(taps, inj, rows, dps_col),
        agc_kappa=np.array([g.agc_factor for g in agc_gens], dtype=float),
        agc_lo=np.array([g.p_min - g.p_g for g in agc_gens], dtype=float),
        agc_hi=np.array([g.p_max - g.p_g for g in agc_gens], dtype=float),
    )


def _taps(case: NetworkCase, bus_pos: dict, tap_col: dict,
          snapped: list) -> Taps:
    branches = list(tap_col) + snapped
    brs = [case.branches[bi] for bi in branches]
    f = 2 * np.array([bus_pos[br.from_bus] for br in brs], dtype=np.intp)
    t = 2 * np.array([bus_pos[br.to_bus] for br in brs], dtype=np.intp)
    return Taps(branches,
                np.array([complex(br.g, br.b) for br in brs], dtype=complex),
                np.array([complex(0.0, br.b_sh / 2.0) for br in brs],
                         dtype=complex),
                np.array(list(tap_col.values()), dtype=np.intp),
                np.array((f, f, t, t)), np.array((f, t, f, t)))


def _injectors(case: NetworkCase, bus_pos: dict, q_col: dict, qreq_col: dict,
               local_gen_idx: list, agc_member_idx: list) -> Injectors:
    gens = case.generators

    def gen(i):
        g = gens[i]
        return ("gen", i), g.bus, g.p_g, 0.0, g.q_min, g.q_max

    # (key, bus, p, q, q_min, q_max) per row
    table = [(None, ld.bus, -ld.p, -ld.q, 0.0, 0.0) for ld in case.loads]
    table += [gen(i) for i in local_gen_idx]
    first_member = len(table)
    spans = []
    for grp in case.remote_groups:
        start = len(table) - first_member
        table += [gen(m) for m in grp.members]
        spans.append((start, len(table) - first_member))
    first_shunt = len(table)
    table += [(("shunt", j), sh.bus, 0.0, 0.0, sh.b_min, sh.b_max)
              for j, sh in enumerate(case.shunts)]

    n_loads = len(case.loads)
    keys = [row[0] for row in table]
    pos = np.array([bus_pos[row[1]] for row in table], dtype=np.intp)
    p, q, q_min, q_max = (
        np.array([row[2:] for row in table], dtype=float).reshape(-1, 4).T.copy())
    col = np.array([q_col.get(k, 0) for k in keys], dtype=np.intp)
    members = np.arange(first_member, first_shunt)
    snapped = np.array([r for r in range(first_shunt, len(keys))
                        if keys[r] not in q_col], dtype=np.intp)
    agc = {("gen", i): k for k, i in enumerate(agc_member_idx)}
    agc_at = np.array([r for r, k in enumerate(keys) if k in agc], dtype=np.intp)
    return Injectors(
        keys=keys, pos=pos, vr_c=2 * pos, vi_c=2 * pos + 1,
        p=p, q=q, n_loads=n_loads, q_cols=col[n_loads:],
        kcl_rows=np.concatenate((2 * pos, 2 * pos + 1)), agc_at=agc_at,
        agc_pos=np.array([agc[keys[r]] for r in agc_at], dtype=np.intp),
        local=np.array([r for r, k in enumerate(keys) if k in q_col
                        and not first_member <= r < first_shunt], dtype=np.intp),
        snapped=snapped, divides=np.delete(pos, snapped),
        members=members, member_min=q_min[members], member_max=q_max[members],
        m_cols=col[members],
        kappa=np.array([f for grp in case.remote_groups for f in grp.factors],
                       dtype=float),
        qreq=np.array([qreq_col[gi] for gi, grp in enumerate(case.remote_groups)
                       for _ in grp.members], dtype=np.intp),
        spans=spans)


def _control_rows(case: NetworkCase, bus_pos: dict, q_col: dict,
                  qreq_col: dict, tap_col: dict, inj: Injectors) -> ControlRows:
    # (key, col, regulated bus, v_set, sign) per row
    table = []
    for key in [inj.keys[r] for r in inj.local]:
        kind, i = key
        dev = case.generators[i] if kind == "gen" else case.shunts[i]
        table.append((key, q_col[key], dev.bus, dev.v_set, 1.0))
    for bi, c in tap_col.items():
        br = case.branches[bi]
        primary = br.tap.controlled_side == "primary"
        table.append((("tap", bi), c, br.from_bus if primary else br.to_bus,
                      br.tap.v_set, 1.0 if primary else -1.0))
    keys = [row[0] for row in table]
    table += [(gi, qreq_col[gi], grp.controlled_bus, grp.v_set, 1.0)
              for gi, grp in enumerate(case.remote_groups)]
    lo, hi = np.array([device_limits(case, k) for k in keys],
                      dtype=float).reshape(-1, 2).T
    return ControlRows(
        np.array([row[1] for row in table], dtype=np.intp),
        np.array([bus_pos[row[2]] for row in table], dtype=np.intp),
        np.array([row[3] for row in table], dtype=float),
        np.array([row[4] for row in table], dtype=float),
        keys, lo, hi, len(inj.local))


def _slots(taps: Taps, inj: Injectors, rows: ControlRows, dps_col) -> dict:
    """The tables' J slots (IndexMap.j_rows to surplus). Each table is a
    (slot, row) grid, raveled slot by slot."""
    T, tc, n = len(taps.branches), len(taps.cols), len(inj.pos)
    f, t = taps.at[0], taps.at[2]
    tau = np.zeros(T, dtype=np.intp)
    tau[:tc] = taps.cols
    k = np.arange(16) % 4  # the blocks' (R, R), (R, I), (I, R), (I, I)
    vr, vi, q = inj.vr_c, inj.vi_c, np.zeros(n, dtype=np.intp)
    q[inj.n_loads:] = inj.q_cols
    d = np.full(n, dps_col or 0)
    c, v, m = rows.cols, 2 * rows.pos, inj.m_cols
    # (rows, cols) of the taps, injections, control and participation rows
    grids = [
        (np.vstack((np.repeat(taps.at, 4, axis=0) + (k >> 1)[:, None],
                    (f, f + 1, t, t + 1))),
         np.vstack((np.repeat(taps.v, 4, axis=0) + (k & 1)[:, None],
                    (tau, tau, tau, tau)))),
        ((vr, vr, vi, vi, vr, vi, vr, vi), (vr, vi, vr, vi, q, q, d, d)),
        ((c, c, c), (c, v, v + 1)),
        ((m, m), (m, inj.qreq)),
    ]
    tap_keep = np.ones((20, T), dtype=bool)
    tap_keep[16:, tc:] = False
    inj_keep = np.zeros((8, n), dtype=bool)
    inj_keep[:4] = True
    inj_keep[4:6, inj.local] = inj_keep[4:6, inj.members] = True
    return dict(j_rows=np.concatenate([np.ravel(r) for r, _ in grids]),
                j_cols=np.concatenate([np.ravel(c) for _, c in grids]),
                j_keep=np.concatenate((tap_keep.ravel(), inj_keep.ravel())),
                surplus=20 * T + n * np.array([[6], [7]]) + np.arange(n))


def _network_block(case: NetworkCase, bus_pos: dict, in_block: list) -> dict:
    """Real I-V triplets (IndexMap.net_rows to net_shunt) of the branches
    in in_block and of the fixed shunts.

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

    return dict(net_rows=np.concatenate((2 * i, 2 * i, 2 * i + 1, 2 * i + 1)),
                net_cols=np.concatenate((2 * j, 2 * j + 1, 2 * j, 2 * j + 1)),
                net_series=real(series), net_shunt=real(shunt))


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
        for name in ("q_col", "qreq_col", "tap_col"):
            old = getattr(self.index, name)
            for key, c in getattr(new_index, name).items():
                if key in old:
                    x[c] = self.x[old[key]]
        if new_index.dps_col is not None and self.index.dps_col is not None:
            x[new_index.dps_col] = self.x[self.index.dps_col]
        return StateVector(new_index, x)


def flat_start(case: NetworkCase, ctl: ControlMode) -> StateVector:
    """Initial state: case voltages, model-consistent control values.

    Every control row starts on its curve at those voltages whatever
    ctl's modes (degenerate limits hold the lower one, except a local
    generator's), and every member on its participation curve; a
    controlled tap starts at its case ratio, within its limits."""
    index = build_index(case, ctl)
    n = index.n_bus
    x = np.zeros(index.dim)
    x[0:2 * n:2] = [bus.v_init_real for bus in case.buses]
    x[1:2 * n:2] = [bus.v_init_imag for bus in case.buses]
    if ctl.device_modes or ctl.fixed_q or ctl.group_modes:
        ctl = replace(ctl, device_modes={}, fixed_q={}, group_modes={})
    c, r = _controls(ctl, index), index.rows
    on = c.sig.copy()
    on[:len(index.local_gen_idx)] = True  # the local generators' rows
    c = replace(c, sig=on, curves=_curves(r, *c.limits, on))
    x[r.cols] = _targets(c, x, ctl.effective_steepness())[0]
    x[index.inj.m_cols] = _member_targets(c, index.inj, x)[0]
    ratio = [case.branches[bi].ratio for bi in index.tap_col]
    x[index.taps.cols] = np.minimum(np.maximum(ratio, r.lo[r.n_local:]),
                                    r.hi[r.n_local:])
    return StateVector(index, x)


# ---------------------------------------------------------------------------
# What a ControlMode makes of the tables
# ---------------------------------------------------------------------------

@dataclass
class _Controls:
    """What a ControlMode makes of an IndexMap's tables."""

    held: np.ndarray  # control rows' values off the curve: fixed_q, else lo
    sig: np.ndarray  # control rows on their sigmoid, and their (V_R and
    curves: tuple  # V_I columns, relaxed lo, hi, v_set, sign)
    limits: tuple  # every control row's relaxed (lo, hi)
    fixed_v: np.ndarray  # control rows that hold |V|, and (V_R and V_I
    held_v: tuple  # columns, bus, v_set)
    sensed: np.ndarray  # buses whose |V| the pass divides by, in the
    # order they are checked: sigmoid taps, injections, sigmoid groups
    m_lo: np.ndarray  # members: relaxed limits
    m_hi: np.ndarray
    hard: np.ndarray  # members of FIXED_V groups
    curve: np.ndarray  # members on their participation curve
    tap_ratio: np.ndarray  # snapped taps' ratios
    shunt_b: np.ndarray  # snapped shunts' susceptances
    keep: np.ndarray  # J slots kept (IndexMap.j_rows; surplus slots off)


def _relaxed_limits(ctl: ControlMode, keys: list, q_min, q_max):
    """ControlMode.relaxed_q_limits of each device, as two arrays."""
    return np.array([ctl.relaxed_q_limits(k, a, b) for k, a, b
                     in zip(keys, q_min.tolist(), q_max.tolist())],
                    dtype=float).reshape(-1, 2).T


def _curves(r: ControlRows, lo, hi, on):
    """(V_R and V_I columns, lo, hi, v_set, sign) of the rows in on."""
    return (np.array((2 * r.pos[on], 2 * r.pos[on] + 1)), lo[on], hi[on],
            r.v_set[on], r.sign[on])


def _controls(ctl: ControlMode, idx: IndexMap) -> _Controls:
    """The _Controls of ctl: the index map's default when ctl sets none
    of the fields below, else the last one derived when they are
    unchanged (an NR solve stamps many states under one ControlMode)."""
    key = (ctl.device_modes, ctl.fixed_q, ctl.q_scale, ctl.q_widen,
           ctl.group_modes, ctl.fixed_shunt_b, ctl.fixed_tap_ratio)
    if not any(key) and idx.default is not None:
        return idx.default
    if idx.last is not None and idx.last[0] == key:
        return idx.last[1]
    r, t = idx.rows, idx.inj
    L, n = r.n_local, len(r.keys)
    modes = ([ctl.device_modes.get(k, SIGMOID) for k in r.keys]
             + [ctl.group_modes.get(gi, SIGMOID) for gi in range(len(t.spans))])
    fixed_v = np.array([m == FIXED_V for m in modes], dtype=bool)
    # only local devices take FIXED_Q, and only taps never hold a value
    fixed_q = np.zeros(len(modes), dtype=bool)
    fixed_q[:L] = [m == FIXED_Q for m in modes[:L]]
    m_lo, m_hi = _relaxed_limits(ctl, [t.keys[m] for m in t.members],
                                 t.member_min, t.member_max)
    sums = []  # each group's members' relaxed limits, summed in order
    for a, b in t.spans:
        lo = hi = 0.0
        for mlo, mhi in zip(m_lo[a:b].tolist(), m_hi[a:b].tolist()):
            lo, hi = lo + mlo, hi + mhi
        sums.append((lo, hi))
    lo, hi = np.hstack((_relaxed_limits(ctl, r.keys, r.lo, r.hi),
                        np.reshape(sums, (-1, 2)).T))
    degenerate = hi - lo < DEGENERATE_RANGE
    degenerate[L:n] = False
    sig = ~(fixed_v | fixed_q | degenerate)
    held = lo.copy()
    held[fixed_q] = [ctl.fixed_q[k] for k, on in zip(r.keys, fixed_q) if on]
    hard = np.repeat(fixed_v[n:], [b - a for a, b in t.spans])
    follow = hard | ~(m_hi - m_lo < DEGENERATE_RANGE)
    tap, grp = np.zeros(len(sig), dtype=bool), np.zeros(len(sig), dtype=bool)
    tap[L:n], grp[n:] = sig[L:n], sig[n:]
    v = np.array((2 * r.pos, 2 * r.pos + 1))
    c = _Controls(
        held=held, sig=sig, curves=_curves(r, lo, hi, sig), limits=(lo, hi),
        fixed_v=fixed_v,
        held_v=(v[:, fixed_v], r.pos[fixed_v], r.v_set[fixed_v]),
        sensed=np.concatenate((r.pos[tap], t.divides, r.pos[grp])),
        m_lo=m_lo, m_hi=m_hi, hard=hard, curve=follow & ~hard,
        tap_ratio=np.array([ctl.fixed_tap_ratio[bi] for bi in idx.snapped_taps],
                           dtype=float),
        shunt_b=np.array([ctl.fixed_shunt_b[t.keys[k][1]] for k in t.snapped],
                         dtype=float),
        keep=np.concatenate((idx.j_keep, ~fixed_v, fixed_v | sig,
                             fixed_v | sig, np.ones_like(follow), follow)))
    if not any(key):
        idx.default = c
    else:
        # copies, so that a ControlMode changed in place is not mistaken
        idx.last = (tuple(dict(d) for d in key), c)
    return c


def _targets(c: _Controls, x: np.ndarray, steepness: float):
    """The control rows' values at x: held, or on the sigmoid of |V|;
    and the sigmoid rows' |V| and slopes."""
    target = c.held.copy()
    vm = ds = None
    if np.count_nonzero(c.sig):
        cols, lo, hi, v_set, sign = c.curves
        vm = np.hypot(*x[cols])
        target[c.sig], ds = sigmoid_arrays(lo, hi, v_set, steepness, vm, sign)
    return target, vm, ds


def _member_targets(c: _Controls, t: Injectors, x: np.ndarray):
    """The members' outputs for their groups' requests at x, and their
    slopes: on the participation curve, at the lower limit when the
    limits are degenerate, and split linearly in a FIXED_V group."""
    qreq = x[t.qreq]
    target = np.where(c.hard, t.kappa * qreq, c.m_lo)
    slope = np.where(c.hard, t.kappa, 0.0)
    if np.count_nonzero(c.curve):
        k, lo, hi = t.kappa[c.curve], c.m_lo[c.curve], c.m_hi[c.curve]
        target[c.curve], slope[c.curve] = participation_arrays(
            k, lo, hi, default_patch_width(k, lo, hi), qreq[c.curve])
    return target, slope


# ---------------------------------------------------------------------------
# The stamp pass
# ---------------------------------------------------------------------------

class _Pass:
    """One stamp pass at a state.

    Each segment returns its F terms as (rows, values) and keeps what its
    J slots are built from when J is asked for (`slot_values`). Every KCL
    term goes to row 2 * pos + comp of its bus, the slack bus included;
    `_slack_rows` then turns the slack rows into voltage constraints and,
    with distributed slack, into the surplus row.
    """

    def __init__(self, case: NetworkCase, state: StateVector, ctl: ControlMode):
        self.case = case
        self.ctl = ctl
        self.index = idx = state.index
        self.x = state.x
        self.c = _controls(ctl, idx)
        # what the segments keep for the J slots
        self.net = self.taps = self.inj = self.curves = self.m_slope = None
        self.F = self.slack_currents = None

    def kept(self) -> np.ndarray:
        """The J slots the pass emits (IndexMap.j_rows): its ControlMode's,
        and a slack member's surplus slots where its slope is not 0."""
        keep, dp = self.c.keep, self.inj[-1]
        if dp is not None:
            keep = keep.copy()
            keep[self.index.surplus] = dp != 0.0
        return keep

    def slot_values(self) -> np.ndarray:
        """Every J slot's value, kept or not, in IndexMap.j_rows order."""
        return np.concatenate((_tap_slots(self), _injection_slots(self),
                               _control_slots(self)))


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


def _stamp_taps(st: _Pass) -> list:
    """The taps' currents into the KCL sums: each block's admittance
    times its voltage."""
    tp, x = st.index.taps, st.x
    if not tp.branches:
        return []
    tau = np.concatenate((x[tp.cols], st.c.tap_ratio))
    if not tau.all():
        bi = tp.branches[int(np.argmin(tau != 0.0))]
        raise SingularPointError(f"tap ratio of branch {bi} is 0")
    y = tp.y * (1.0 + st.ctl.tx_relax * TX_SCALE)
    yc = y + tp.jc
    ft = -y / tau
    Y = np.array((yc / (tau * tau), ft, ft, yc))
    I = Y * (x[tp.v] + 1j * x[tp.v + 1])
    st.taps = (tau, y, yc, Y)
    return [(np.concatenate((tp.at.ravel(), tp.at.ravel() + 1)),
             np.concatenate((I.real.ravel(), I.imag.ravel())))]


def _tap_slots(st: _Pass) -> np.ndarray:
    """The taps' J slot values: the blocks' [[G, -B], [B, G]], and a
    controlled tap's ratio column, d/dtau of its currents at f and t."""
    tp, x = st.index.taps, st.x
    if not tp.branches:
        return np.empty(0)
    tau, y, yc, Y = st.taps
    V = np.zeros((20, len(tau)))
    V[0:16:4] = V[3:16:4] = Y.real
    V[1:16:4], V[2:16:4] = -Y.imag, Y.imag
    k = len(tp.cols)
    if k:
        # -2 (y + jc) / tau^3 * V_f + y / tau^2 * V_t, and y / tau^2 * V_f
        t, f, to = tau[:k], tp.at[0][:k], tp.at[2][:k]
        vf, vt = x[f] + 1j * x[f + 1], x[to] + 1j * x[to + 1]
        b = y[:k] / (t * t)
        at_f, at_t = -2.0 * yc[:k] / (t * t * t) * vf + b * vt, b * vf
        V[16:20, :k] = at_f.real, at_f.imag, at_t.real, at_t.imag
    return V.ravel()


def _stamp_injections(st: _Pass, dd_bus: np.ndarray) -> list:
    """Every injecting device's current into the KCL sums, and the
    snapped shunts'.

    An injection p + jq enters KCL as -(I_R, I_I), with
    I_R = (p vr + q vi)/|V|^2 and I_I = (p vi - q vr)/|V|^2. A load
    injects its -p - jq; a generator its active power (plus its slack
    participation) and its reactive unknown q; a continuous switched
    shunt no active power and q, with susceptance limits, which are its
    reactive limits at nominal voltage. A snapped shunt is the admittance
    jb at its bus.
    """
    idx, x = st.index, st.x
    t = idx.inj
    vr, vi, dd = x[t.vr_c], x[t.vi_c], dd_bus[t.pos]
    q = t.q.copy()
    q[t.n_loads:] = x[t.q_cols]
    p, dp = t.p, None
    if idx.dps_col is not None and len(t.agc_at):
        # the slack members' extra active power, and its slope in the surplus
        extra, slope = _slack_participation(
            st.ctl, idx.agc_member_idx, idx.agc_kappa, idx.agc_lo, idx.agc_hi,
            x[idx.dps_col])
        p, dp = t.p.copy(), np.zeros(len(t.pos))
        p[t.agc_at] = t.p[t.agc_at] + extra[t.agc_pos]
        dp[t.agc_at] = slope[t.agc_pos]
    ir = (p * vr + q * vi) / dd
    ii = (p * vi - q * vr) / dd
    if len(t.snapped):
        b, sv = st.c.shunt_b, t.vr_c[t.snapped]
        ir[t.snapped], ii[t.snapped] = b * x[sv + 1], -b * x[sv]
    st.inj = (vr, vi, dd, p, q, ir, ii, dp)
    return [(t.kcl_rows, -np.concatenate((ir, ii)))]


def _injection_slots(st: _Pass) -> np.ndarray:
    """The injection rows' J slot values."""
    vr, vi, dd, p, q, ir, ii, dp = st.inj
    V = np.zeros((8, len(vr)))
    v2 = np.array((vr, vi))
    V[:4] = -(np.array((p, q, -q, p)) / dd
              - 2.0 * v2[[0, 1, 0, 1]] * np.array((ir, ir, ii, ii)) / dd)
    vd = v2 / dd
    V[4] = -vd[1]
    V[5] = vd[0]
    if dp is not None:
        V[6:8] = -vd * dp
    t, b = st.index.inj, st.c.shunt_b
    if len(t.snapped):
        V[:4, t.snapped] = (np.zeros_like(b), -b, b, np.zeros_like(b))
    return V.ravel()


def _stamp_control_rows(st: _Pass, dd_bus: np.ndarray) -> list:
    """Every control row (IndexMap.rows), and the participation rows.

    A control row holds |V| at v_set (FIXED_V): |V|^2 - v_set^2 = 0; its
    value at ctl.fixed_q (FIXED_Q) or at its lower limit when the relaxed
    limits are degenerate; or value = sigmoid(|V|) between them. A
    member's row splits the group request through its participation
    curve, or linearly in a FIXED_V group.
    """
    c, x, r, t = st.c, st.x, st.index.rows, st.index.inj
    target, *st.curves = _targets(c, x, st.ctl.effective_steepness())
    f = x[r.cols] - target
    if np.count_nonzero(c.fixed_v):
        _, pos, v_set = c.held_v
        f[c.fixed_v] = dd_bus[pos] - v_set * v_set
    if not len(t.members):
        return [(r.cols, f)]
    target, st.m_slope = _member_targets(c, t, x)
    return [(r.cols, f), (t.m_cols, x[t.m_cols] - target)]


def _control_slots(st: _Pass) -> np.ndarray:
    """The control rows' J slot values, then the participation rows'."""
    c, x = st.c, st.x
    V = np.ones((3, len(c.held)))
    vm, ds = st.curves
    if vm is not None:
        V[1:, c.sig] = -ds * x[c.curves[0]] / vm
    if np.count_nonzero(c.fixed_v):
        V[1:, c.fixed_v] = 2.0 * x[c.held_v[0]]
    if st.m_slope is None:
        return V.ravel()
    return np.concatenate((V.ravel(), np.ones_like(st.m_slope),
                           -st.m_slope))


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
    """J's CSC structure for one set of kept slots.

    A call's J values come from its source vector: the network block's
    values, every slot's value, the two unit diagonals of the slack
    voltage rows and, with distributed slack, the kept values in the slack
    bus rows moved to the surplus row (each times its row's own voltage)
    and the surplus row's own entries I_SR, I_SI and -1. The used source
    values are summed into their entries in source order, from 0.0.
    """

    keep: np.ndarray  # the key: the kept slots (_Pass.kept)
    at: np.ndarray  # kept sources in the slack bus rows, and their
    on: np.ndarray  # voltage columns (each row's own)
    used: np.ndarray  # source positions that enter J, and the entry each
    slot: np.ndarray  # adds to
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


def _jacobian_structure(idx: IndexMap, keep: np.ndarray) -> _JacobianStructure:
    """J's structure when a pass keeps these slots: the slack-row
    rewrite, and the distinct (row, col) entries of the used sources,
    sorted by column and row."""
    dim, r, d = idx.dim, 2 * idx.slack_pos, idx.dps_col
    rows = np.concatenate((idx.net_rows, idx.j_rows))
    cols = np.concatenate((idx.net_cols, idx.j_cols))
    kept = np.concatenate((np.ones(idx.net_rows.size, dtype=bool), keep))
    slack = (rows >> 1) == idx.slack_pos
    at = np.flatnonzero(kept & slack)
    # rows and columns of the source vector (see _JacobianStructure)
    src_rows, src_cols = [rows, (r, r + 1)], [cols, (r, r + 1)]
    if d is not None:
        src_rows += [np.full(at.size, d), (d, d, d)]
        src_cols += [cols[at], (r, r + 1, d)]
    src_rows, src_cols = np.concatenate(src_rows), np.concatenate(src_cols)
    used = np.ones(src_rows.size, dtype=bool)
    used[:rows.size] = kept & ~slack
    used = np.flatnonzero(used)
    entries, slot = np.unique(src_cols[used] * dim + src_rows[used],
                              return_inverse=True)
    indices = (entries % dim).astype(np.int32)
    indptr = np.searchsorted(entries, dim * np.arange(dim + 1)).astype(np.int32)
    # every J returned shares these two; an in-place scipy op must not
    # rewrite the cache
    indices.flags.writeable = indptr.flags.writeable = False
    return _JacobianStructure(keep.copy(), at, rows[at], used, slot, indices,
                              indptr)


def _jacobian(st: _Pass) -> csc_matrix:
    """J from the pass's values, summed into the structure cached on the
    index map; the structure is rebuilt when the pass keeps other slots
    (a generator switched between PV and PQ, a slack member's slope
    exactly 0, a tap or group row of another kind)."""
    idx, keep = st.index, st.kept()
    s = idx.jac
    if s is None or not np.array_equal(keep, s.keep):
        s = idx.jac = _jacobian_structure(idx, keep)
    head = np.concatenate((st.net, st.slot_values()))
    parts = [head, (1.0, 1.0)]
    if idx.dps_col is not None:
        parts += [head[s.at] * st.x[s.on], (*st.slack_currents, -1.0)]
    data = np.bincount(s.slot, np.concatenate(parts)[s.used],
                       minlength=s.indices.size)
    J = csc_matrix((data, s.indices, s.indptr), shape=(idx.dim, idx.dim))
    J.has_canonical_format = True  # sorted and summed by construction
    J.structure = s
    return J


# ---------------------------------------------------------------------------
# Full-system evaluation
# ---------------------------------------------------------------------------

def _stamp_pass(case: NetworkCase, state: StateVector,
                ctl: ControlMode) -> _Pass:
    """One stamp pass at the state, segment by segment: F in `F` (slack
    rows rewritten, see `_slack_rows`), and what `_Pass.slot_values`
    builds J's values from."""
    st = _Pass(case, state, ctl)
    idx, x = st.index, st.x
    vr, vi = x[0:2 * idx.n_bus:2], x[1:2 * idx.n_bus:2]
    dd = vr * vr + vi * vi
    _check_collapse(st, st.c.sensed, dd[st.c.sensed])
    st.net = (1.0 + ctl.tx_relax * TX_SCALE) * idx.net_series + idx.net_shunt
    parts = [(idx.net_rows, st.net * x[idx.net_cols])]
    parts += _stamp_taps(st)
    parts += _stamp_injections(st, dd)
    parts += _stamp_control_rows(st, dd)
    rows, vals = (np.concatenate(a) for a in zip(*parts))
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
    J slots the pass keeps, and only its values are emitted per call,
    duplicates summed in emitted order (see `_jacobian`). J carries that
    structure as `J.structure`, where `nr_solver.solve_linear` keeps the
    LU column order of the pattern."""
    st = kept
    if st is None:
        st = _stamp_pass(case, state, ctl)
    elif st.x is not state.x or st.ctl is not ctl:
        raise ValueError("kept pass was stamped at another state or control")
    return st.F, _jacobian(st)


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
    taps = ((("tap", bi), col) for bi, col in idx.tap_col.items())
    for key, col in (*idx.q_col.items(), *taps):
        out[key] = _classify(state.x[col], *device_limits(case, key))
    if idx.dps_col is not None:
        dps = state.x[idx.dps_col]
        for i in idx.agc_member_idx:
            g = case.generators[i]
            dp, _ = agc_response(g, ctl, i, dps)
            out[("agc", i)] = _classify(dp, g.p_min - g.p_g, g.p_max - g.p_g)
    return out
