"""Residual F and Jacobian J of the split-circuit NR system, in one pass.

`build_index` turns a case into static arrays, its one IndexMap, and a
StateVector carries the map it lives on. The stamps read the case from
that map alone, so `stamp`, `residual` and `assemble` take a state and
no case: a state cannot be stamped against another case's data. In
current-voltage coordinates the network is linear: the ratio-fixed
branches and the fixed shunts form a constant real 2n x 2n block, stored
as a series part, scaled by the tx relaxation 1 + tx_relax * TX_SCALE,
and an unscaled shunt part (line charging and fixed shunts) on one CSR
pattern. Every other device is a row of one of three tables: `Taps`
(the controlled taps), `Injectors` (loads, generators, switched shunts)
and `ControlRows` (every row that holds a value against a bus voltage
magnitude: local generators and switched shunts, controlled taps, group
requests). A stamp pass evaluates them as a fixed list of array
segments: taps, injections, control rows, then the network and the
slack rows. Of the ControlMode it derives only what the mode sets, once
per mode (`_controls`).

One pass serves F and J alike. `stamp` returns it: it computes F and
holds what J needs (currents, |V|^2, curve slopes), from which its
`jacobian()` builds J's values only when J is asked for, so a J can only
come from the pass at its own state (the NR line search builds the next
J from the pass of the trial it accepts). `residual` is a pass's F and
`assemble` its F and J, so J is testable against finite differences of
`residual`. F is the network's part Y x plus one bincount of the device
terms (rows IndexMap.f_rows); J's network entries are Y's; Y is made
from the block once per tx relaxation scale (`_network`). The index map
has every J slot that can be non-zero (a mode without a partial emits
0.0 in it), so J's CSC structure is built once per IndexMap
(`_JacobianStructure`). Up to DENSE_MAX_DIM unknowns Y and J are dense,
for a LAPACK solve; above, Y is CSR and J is CSC.

A case object's map is built once, with J's structure and B′'s LU, and
stored on it for every solve, as KLU reuses one symbolic analysis across
matrices of one pattern (Davis & Palamadai Natarajan, ACM TOMS 37(3),
2010). `flat_start` gives a state on it: the case's initial voltages,
and control values on their curves at them. `dc_start` turns its
voltages to the DC power-flow angles, B′θ = P over the network block's
branches, whose ends and 1/(x τ) the map keeps (IndexMap.dc_branches).

Columns follow one rule, fixed by one walk over the devices in
`build_index`. The bus at position pos has V_real and V_imag at 2 pos
and 2 pos + 1. The injector table's rows are the loads, the local
generators, the remote members group by group, then the switched
shunts; each row after the loads takes the next column, from 2n, for
its q. Then come one request column per remote group, one ratio column
per controlled tap (in branch order), and dP_S last when the case has
distributed slack. Each control equation lives on the row with the
index of its unknown, so a local control row's column is its injector
row's q column. The layout is the case's, and a mode changes values
only: a snapped device keeps its column, which its control row holds at
the snapped value (see `ControlMode`).

An out-of-service generator (`Generator.in_service`) is a value change
too. A case's map is the map of its structure, every unit in service,
with each out-of-service unit switched off (`_switched_off`): the unit
keeps its columns and rows, injects no p, and the map holds its control
row at q = 0, whatever the ControlMode, under the key None (a load's).
MATPOWER keeps an out-of-service unit's row the same way (GEN_STATUS
0). A generator outage (`NetworkCase.drop_generator`) takes its
structure's map from its base, so a base and its outages share J's
structure, CSC template and LU column order, and B′'s LU (IndexMap.dc).
Keys and index lists stay in the case's numbering, which an outage
leaves as it is.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from .case_model import NetworkCase, _islands
from .errors import SingularPointError, SingularSystemError
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
# J of at most this many unknowns is emitted dense, for a LAPACK solve.
# A dense fill and LAPACK beat a CSC fill and SuperLU, whose fixed cost
# dominates a small solve, on every generated case up to 97 unknowns and
# lose from 129 on (by 3-6% at 129), and case118's 255 are 2.4 times
# slower dense (tools/lu_probe.py, BENCH_lu.json). The crossover lies
# between 97 and 129; no bundled case has a J in that range
DENSE_MAX_DIM = 128

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
    limits, no admittance relaxation. Homotopy drivers, the baseline
    outer loop and snapping build variants of this. Distributed slack is
    no mode: it comes from the case (`NetworkCase.agc_enabled`).

    A local device or tap in FIXED_Q holds its column at fixed_q[key]; a
    snapped tap is such a hold at its snapped ratio. A shunt in
    fixed_shunt_b is snapped: its current is the admittance jb, and its
    control row holds its q column at b.
    """

    smoothing: float = 5000.0
    smoothing_relax: float = 0.0  # effective steepness = smoothing - relax
    q_scale: dict = field(default_factory=dict)  # device key -> scale >= 1
    q_widen: dict = field(default_factory=dict)  # device key -> (lo, hi) additive
    p_relax: float = 0.0  # 1.0 means purely linear slack participation
    p_extra: dict = field(default_factory=dict)  # gen idx -> (extra_lo, extra_hi)
    tx_relax: float = 0.0
    device_modes: dict = field(default_factory=dict)  # key -> SIGMOID|FIXED_V|FIXED_Q
    fixed_q: dict = field(default_factory=dict)  # key -> value for FIXED_Q
    group_modes: dict = field(default_factory=dict)  # group idx -> SIGMOID|FIXED_V
    fixed_shunt_b: dict = field(default_factory=dict)  # shunt idx -> susceptance

    def effective_steepness(self) -> float:
        return max(self.smoothing - self.smoothing_relax, STEEPNESS_FLOOR)

    def relaxed_q_limits(self, key, q_min: float, q_max: float):
        scale = self.q_scale.get(key, 1.0)
        lo, hi = scale * q_min, scale * q_max
        wlo, whi = self.q_widen.get(key, (0.0, 0.0))
        return lo - wlo, hi + whi


@dataclass
class Taps:
    """The taps outside the network block, every branch with a
    TapControl, in ratio-column order. Each is a pi-model branch at the
    ratio tau of its column from bus f to t, with series admittance y and
    half its line charging, jc, at each end: it adds (y + jc)/tau^2,
    -y/tau, -y/tau and y + jc at (f, f), (f, t), (t, f) and (t, t). J
    slots of a tap: those four 2 x 2 blocks, then its ratio column in the
    rows of f and t.
    """

    branches: list  # branch indices
    y: np.ndarray  # complex
    jc: np.ndarray  # complex
    cols: np.ndarray  # ratio columns
    at: np.ndarray  # V_R rows (2f, 2f, 2t, 2t) and V_R columns
    v: np.ndarray  # (2f, 2t, 2f, 2t) of the blocks, per tap


@dataclass
class Injectors:
    """Every device that injects current at its bus, as one table:
    loads, local generators, remote-group members, switched shunts. A
    row injects power p + jq, but a snapped shunt's is the admittance jb
    (ControlMode.fixed_shunt_b). J slots of a row: the four voltage
    partials of its current, its q column (twice; 0.0 for a snapped
    shunt), the slack-surplus column (twice); and a member's
    participation row has (col, col) and (col, group request).
    """

    keys: list  # ControlMode key of each row (None for a load)
    pos: np.ndarray  # bus position
    vr_c: np.ndarray  # V_R and V_I columns of the bus
    vi_c: np.ndarray
    p: np.ndarray  # scheduled active power (a load's -p, a shunt's 0)
    q: np.ndarray  # a load's -q; the rows after the loads read q from x
    n_loads: int
    q_cols: np.ndarray  # q columns of the rows after the loads
    agc_at: np.ndarray  # rows of distributed-slack members, and their
    agc_pos: np.ndarray  # positions in IndexMap.agc_member_idx
    local: np.ndarray  # rows with a control row (IndexMap.rows)
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
    pos[k] at v_set[k] (FIXED_V), holds its unknown at a value (FIXED_Q or
    a snapped shunt's b, local devices and taps; or degenerate limits,
    local devices only), or follows the sigmoid of |V| between its
    limits, decreasing with sign 1 and increasing with sign -1. A tap
    regulates the bus of its controlled side, lowering its ratio as a
    primary-side voltage rises and raising it as a secondary-side one
    does. A group's limits are the sums of its members'. J slots of a
    row: (col, col), (col, V_R), (col, V_I).
    """

    cols: np.ndarray
    pos: np.ndarray
    v_set: np.ndarray
    sign: np.ndarray
    keys: list  # ControlMode keys of the local rows and taps (None for a
    lo: np.ndarray  # switched-off unit), and their limits before relaxing
    hi: np.ndarray
    n_local: int
    n_gens: int  # the local generators' rows, the first ones


@dataclass
class IndexMap:
    """Row/column assignment and static stamp arrays of one case."""

    bus_ids: list  # bus id at each position
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
    # the network block's series part, to be scaled, and its shunt part:
    # CSR matrices on one pattern over all unknowns (`_network_block`)
    net_series: csr_matrix
    net_shunt: csr_matrix
    # (from, to, 1/(x tau)) of the block's branches with x != 0, B′'s
    # branches (`dc_start`)
    dc_branches: tuple
    taps: Taps
    inj: Injectors
    rows: ControlRows
    f_rows: np.ndarray  # F's row of every device term a pass emits
    # the tables' J slots, table by table (taps, injections, control
    # rows, participation rows) and slot by slot: rows, cols, and whether
    # the map has the slot
    j_rows: np.ndarray
    j_cols: np.ndarray
    j_mask: np.ndarray
    # distributed-slack members (agc_member_idx): factors, P headrooms
    agc_kappa: np.ndarray
    agc_lo: np.ndarray
    agc_hi: np.ndarray
    # (fields, _Controls) of the last ControlMode _controls derived
    last: tuple | None = field(default=None, repr=False, compare=False)
    # what `_network` keeps for the last scale and representation
    net: tuple | None = field(default=None, repr=False, compare=False)
    # built with the map (`build_index`): J's CSC structure, and (B′
    # without the slack's row and column, its LU) or () when there are no
    # DC angles (`dc_start`)
    jac: "_JacobianStructure | None" = field(default=None, repr=False,
                                             compare=False)
    dc: tuple | None = field(default=None, repr=False, compare=False)
    # (-bound, bound) per unknown of `nr_solver.step_limit`, built by its
    # first call on the map
    step_bound: tuple | None = field(default=None, repr=False, compare=False)

    def voltage_dim(self) -> int:
        return 2 * len(self.bus_ids)


def controlled_devices(idx: IndexMap):
    """(key, column, lo, hi) of every device with an unknown of its own:
    the control rows' local devices and taps, then the remote-group
    members; a switched-off unit is none. lo and hi are its output limits
    before relaxing: reactive power, susceptance or ratio."""
    r, t = idx.rows, idx.inj
    for row in itertools.chain(
            zip(r.keys, r.cols[:len(r.keys)].tolist(), r.lo.tolist(),
                r.hi.tolist()),
            zip([t.keys[m] for m in t.members], t.m_cols.tolist(),
                t.member_min.tolist(), t.member_max.tolist())):
        if row[0] is not None:
            yield row


def build_index(case: NetworkCase) -> IndexMap:
    """The case's index map, built by the first call, complete with J's
    structure and B′'s LU, and stored on the case as `_layout`, an
    attribute that is no field, so `dataclasses.replace` drops it. It is
    the map of the case's structure with its out-of-service units
    switched off (`_switched_off`); an outage from
    `NetworkCase.drop_generator` takes the structure's map from its base
    (`_base`)."""
    idx = case.__dict__.get("_layout")
    if idx is None:
        base = case.__dict__.get("_base")
        if base is not None:
            lay = build_index(base)
        else:
            lay = _build(case)
            lay.jac, lay.dc = _jacobian_structure(lay), _b_prime(lay)
        idx = _switched_off(lay, case)
        object.__setattr__(case, "_layout", idx)
    return idx


def _switched_off(lay: IndexMap, case: NetworkCase) -> IndexMap:
    """lay, a map of case's structure, with case's out-of-service units
    switched off; lay itself when every unit is in service. A unit's
    injector row injects no p and its key is None, which holds its
    control row at q = 0 (`_controls`) and its member row at 0 (limits
    0); its group's factors are renormalised over the members in service,
    and a group with none left has factors 0, which holds its request at
    0. The unit leaves the distributed-slack members, whose surplus slots
    it keeps in J at 0, and the slack units. A unit that lay switched off
    already (the base's, for an outage) stays off. Shares lay's arrays, J
    structure and B′ LU, but not the ControlMode cache `last`, whose keys
    would leave the units on."""
    gens = case.generators
    off = {("gen", i) for i, g in enumerate(gens) if not g.in_service}
    if not off:
        return lay
    t, r = lay.inj, lay.rows
    keys = [None if k in off else k for k in t.keys]
    p = t.p.copy()
    p[[row for row, k in enumerate(t.keys) if k in off]] = 0.0
    gone = np.array([keys[m] is None for m in t.members], dtype=bool)
    kappa = t.kappa.copy()
    for a, b in t.spans:
        if gone[a:b].any():
            kappa[a:b][gone[a:b]] = 0.0
            if kappa[a:b].any():
                kappa[a:b] /= kappa[a:b].sum()
    # the distributed-slack members left, and their new positions
    on = [k for k, i in enumerate(lay.agc_member_idx) if gens[i].in_service]
    at = np.full(len(lay.agc_member_idx), -1, dtype=np.intp)
    at[on] = np.arange(len(on))
    live = at[t.agc_pos] >= 0
    return replace(
        lay,
        last=None,
        q_col={k: c for k, c in lay.q_col.items() if k not in off},
        local_gen_idx=[i for i in lay.local_gen_idx if gens[i].in_service],
        agc_member_idx=[lay.agc_member_idx[k] for k in on],
        **_slack(case, [i for i in lay.slack_gen_idx if gens[i].in_service],
                 lay.slack_pos),
        inj=replace(t, keys=keys, p=p, agc_at=t.agc_at[live],
                    agc_pos=at[t.agc_pos[live]],
                    member_min=np.where(gone, 0.0, t.member_min),
                    member_max=np.where(gone, 0.0, t.member_max),
                    kappa=kappa),
        rows=replace(r, keys=[None if k in off else k for k in r.keys]),
        agc_kappa=lay.agc_kappa[on], agc_lo=lay.agc_lo[on],
        agc_hi=lay.agc_hi[on])


def _slack(case: NetworkCase, slack_gen_idx: list, slack_pos: int) -> dict:
    """The slack units' IndexMap fields: their indices, their scheduled p,
    and the slack's setpoint, the first unit's, or the bus's initial
    voltage when there is none."""
    gens = case.generators
    v_set = case.buses[slack_pos].v_init_real
    if slack_gen_idx:
        v_set = gens[slack_gen_idx[0]].v_set
    return dict(slack_gen_idx=slack_gen_idx,
                slack_p_sched=sum(gens[i].p_g for i in slack_gen_idx),
                slack_v_set=v_set)


def _build(case: NetworkCase) -> IndexMap:
    """A new index map of the case's structure, every unit in service (see
    the module docstring)."""
    bus_pos = case.bus_index()
    slack_pos = bus_pos[case.slack_bus().id]
    slack_bus, gens = case.buses[slack_pos].id, case.generators
    members = {i for grp in case.remote_groups for i in grp.members}
    slack_gen_idx = [i for i, g in enumerate(gens) if g.bus == slack_bus]
    local_gen_idx = [i for i, g in enumerate(gens)
                     if g.bus != slack_bus and i not in members]
    agc_member_idx = [i for i, g in enumerate(gens) if case.agc_enabled
                      and g.bus != slack_bus and g.agc_factor > 0.0]

    def gen(i):
        g = gens[i]
        return ("gen", i), g.bus, g.p_g, 0.0, g.q_min, g.q_max, g.v_set

    # the injectors, (key, bus, p, q, lo, hi, v_set) per row
    table = [(None, ld.bus, -ld.p, -ld.q, 0.0, 0.0, 0.0) for ld in case.loads]
    table += [gen(i) for i in local_gen_idx]
    table += [gen(i) for grp in case.remote_groups for i in grp.members]
    table += [(("shunt", j), sh.bus, 0.0, 0.0, sh.b_min, sh.b_max, sh.v_set)
              for j, sh in enumerate(case.shunts)]
    # the columns after the voltages, in the order of their rows (see the
    # module docstring)
    cols = itertools.count(2 * len(case.buses))
    q_col = {row[0]: next(cols) for row in table[len(case.loads):]}
    qreq_col = {gi: next(cols) for gi in range(len(case.remote_groups))}
    tap_col = {bi: next(cols) for bi, br in enumerate(case.branches)
               if br.tap is not None}
    dps_col = next(cols) if case.agc_enabled else None
    dim = next(cols)

    in_block = [bi for bi in range(len(case.branches)) if bi not in tap_col]
    net = _network_block(case, bus_pos, in_block, dim)
    taps = _taps(case, bus_pos, tap_col)
    inj, rows = _tables(case, table, bus_pos, q_col, qreq_col, tap_col,
                        len(local_gen_idx), agc_member_idx)
    at = taps.at.ravel()
    # the device terms of a pass: taps and injections (V_R rows, then V_I
    # rows), control rows, participation rows
    f_rows = np.concatenate((at, at + 1, inj.vr_c, inj.vi_c, rows.cols,
                             inj.m_cols))
    agc_gens = [gens[i] for i in agc_member_idx]
    return IndexMap(
        bus_ids=[bus.id for bus in case.buses],
        bus_pos=bus_pos,
        slack_pos=slack_pos,
        q_col=q_col,
        qreq_col=qreq_col,
        tap_col=tap_col,
        dps_col=dps_col,
        dim=dim,
        local_gen_idx=local_gen_idx,
        agc_member_idx=agc_member_idx,
        **_slack(case, slack_gen_idx, slack_pos),
        **net,
        taps=taps,
        inj=inj,
        rows=rows,
        f_rows=f_rows,
        **_slots(taps, inj, rows, dps_col),
        agc_kappa=np.array([g.agc_factor for g in agc_gens], dtype=float),
        agc_lo=np.array([g.p_min - g.p_g for g in agc_gens], dtype=float),
        agc_hi=np.array([g.p_max - g.p_g for g in agc_gens], dtype=float),
    )


def _taps(case: NetworkCase, bus_pos: dict, tap_col: dict) -> Taps:
    branches = list(tap_col)
    brs = [case.branches[bi] for bi in branches]
    f = 2 * np.array([bus_pos[br.from_bus] for br in brs], dtype=np.intp)
    t = 2 * np.array([bus_pos[br.to_bus] for br in brs], dtype=np.intp)
    return Taps(branches,
                np.array([complex(br.g, br.b) for br in brs], dtype=complex),
                np.array([complex(0.0, br.b_sh / 2.0) for br in brs],
                         dtype=complex),
                np.array(list(tap_col.values()), dtype=np.intp),
                np.array((f, f, t, t)), np.array((f, t, f, t)))


def _tables(case: NetworkCase, table: list, bus_pos: dict, q_col: dict,
            qreq_col: dict, tap_col: dict, n_local_gens: int,
            agc_member_idx: list) -> tuple[Injectors, ControlRows]:
    """The Injectors of the injector table and the ControlRows, whose
    local rows take their column, bus, v_set and limits from it."""
    n_loads = len(case.loads)
    first_member = n_loads + n_local_gens
    first_shunt = len(table) - len(case.shunts)
    spans = list(itertools.pairwise(itertools.accumulate(
        (len(grp.members) for grp in case.remote_groups), initial=0)))
    keys = [row[0] for row in table]
    pos = np.array([bus_pos[row[1]] for row in table], dtype=np.intp)
    p, q, lo, hi, v_set = (
        np.array([row[2:] for row in table], dtype=float).reshape(-1, 5).T.copy())
    col = np.array([q_col.get(k, 0) for k in keys], dtype=np.intp)
    members = np.arange(first_member, first_shunt)
    local = np.r_[n_loads:first_member, first_shunt:len(keys)].astype(np.intp)
    agc = {("gen", i): k for k, i in enumerate(agc_member_idx)}
    agc_at = np.array([r for r, k in enumerate(keys) if k in agc], dtype=np.intp)
    inj = Injectors(
        keys=keys, pos=pos, vr_c=2 * pos, vi_c=2 * pos + 1,
        p=p, q=q, n_loads=n_loads, q_cols=col[n_loads:],
        agc_at=agc_at,
        agc_pos=np.array([agc[keys[r]] for r in agc_at], dtype=np.intp),
        local=local, members=members, member_min=lo[members],
        member_max=hi[members], m_cols=col[members],
        kappa=np.array([f for grp in case.remote_groups for f in grp.factors],
                       dtype=float),
        qreq=np.array([qreq_col[gi] for gi, grp in enumerate(case.remote_groups)
                       for _ in grp.members], dtype=np.intp),
        spans=spans)
    # (key, col, regulated bus, v_set, sign, lo, hi) per control row
    rows = [(keys[r], col[r], table[r][1], v_set[r], 1.0, lo[r], hi[r])
            for r in local]
    for bi, c in tap_col.items():
        br = case.branches[bi]
        tap, primary = br.tap, br.tap.controlled_side == "primary"
        rows.append((("tap", bi), c, br.from_bus if primary else br.to_bus,
                     tap.v_set, 1.0 if primary else -1.0, tap.tr_min,
                     tap.tr_max))
    limited = len(rows)
    rows += [(gi, qreq_col[gi], grp.controlled_bus, grp.v_set, 1.0, 0.0, 0.0)
             for gi, grp in enumerate(case.remote_groups)]
    return inj, ControlRows(
        np.array([row[1] for row in rows], dtype=np.intp),
        np.array([bus_pos[row[2]] for row in rows], dtype=np.intp),
        np.array([row[3] for row in rows], dtype=float),
        np.array([row[4] for row in rows], dtype=float),
        [row[0] for row in rows[:limited]],
        np.array([row[5] for row in rows[:limited]], dtype=float),
        np.array([row[6] for row in rows[:limited]], dtype=float),
        len(local), n_local_gens)


def _slots(taps: Taps, inj: Injectors, rows: ControlRows, dps_col) -> dict:
    """The tables' J slots (IndexMap.j_rows to j_mask). Each table is a
    (slot, row) grid, raveled slot by slot. The map has every slot but a
    load's q slots and the surplus slots of a row that is no
    distributed-slack member."""
    T, n, tau = len(taps.branches), len(inj.pos), taps.cols
    f, t = taps.at[0], taps.at[2]
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
    keep = [np.ones(20 * T, dtype=bool), np.zeros((8, n), dtype=bool)]
    keep[1][:4] = True
    keep[1][4:6, inj.local] = keep[1][4:6, inj.members] = True
    if dps_col is not None:
        keep[1][6:, inj.agc_at] = True
    keep += [np.ones(3 * len(c) + 2 * len(m), dtype=bool)]
    return dict(j_rows=np.concatenate([np.ravel(r) for r, _ in grids]),
                j_cols=np.concatenate([np.ravel(c) for _, c in grids]),
                j_mask=np.concatenate([np.ravel(k) for k in keep]))


def _network_block(case: NetworkCase, bus_pos: dict, in_block: list,
                   dim: int) -> dict:
    """The network block (IndexMap.net_series, net_shunt) of the branches
    in in_block and of the fixed shunts, and B′'s branches.

    The complex entries follow MATPOWER's makeYbus: a branch with series
    admittance y and ratio t adds y/t^2, -y/t, -y/t and y to the series
    part, and b_sh/2 at each end (over t^2 at the from end) to the shunt
    part; a fixed shunt adds its admittance to the shunt part. An entry
    G + jB at (i, j) becomes the real block [[G, -B], [B, G]]. Both parts
    are dim x dim CSR matrices on one sorted pattern, zeros stored.
    """
    # one walk over the branches: ends, ratio, series g and b, b_sh/2
    f, t, tr, g, b, half = np.fromiter(itertools.chain.from_iterable(
        (bus_pos[br.from_bus], bus_pos[br.to_bus], br.ratio, br.g, br.b,
         br.b_sh / 2.0) for br in map(case.branches.__getitem__, in_block)),
        dtype=float, count=6 * len(in_block)).reshape(-1, 6).T
    f, t = f.astype(np.intp), t.astype(np.intp)
    y, c = np.zeros((2, len(tr)), dtype=complex)
    y.real, y.imag, c.imag = g, b, half
    k = np.array([bus_pos[sh.bus] for sh in case.fixed_shunts], dtype=np.intp)
    ysh = np.array([complex(sh.g, sh.b) for sh in case.fixed_shunts],
                   dtype=complex)
    none, tr2, ft = np.zeros(len(tr)), tr**2, -y / tr
    i = np.concatenate((f, f, t, t, k))
    j = np.concatenate((f, t, f, t, k))
    series = np.concatenate((y / tr2, ft, ft, y, np.zeros(len(k))))
    shunt = np.concatenate((c / tr2, none, none, c, ysh))
    rows = np.concatenate((2 * i, 2 * i, 2 * i + 1, 2 * i + 1))
    cols = np.concatenate((2 * j, 2 * j + 1, 2 * j, 2 * j + 1))

    # keyed row-major, `_csc_pattern` gives CSR's pattern
    _, at, indices, indptr = _csc_pattern(rows * dim + cols, dim)

    def real(z):  # the blocks [[G, -B], [B, G]], summed on the pattern
        return csr_matrix((np.bincount(at, np.concatenate(
            (z.real, -z.imag, z.imag, z.real))), indices, indptr),
            shape=(dim, dim))

    # B′'s branches: x = Im(1/y) != 0, which needs b != 0
    dc = np.flatnonzero(b)
    x = (1.0 / y[dc]).imag
    dc, x = dc[x != 0.0], x[x != 0.0]
    return dict(net_series=real(series), net_shunt=real(shunt),
                dc_branches=(f[dc], t[dc], 1.0 / (x * tr[dc])))


class StateVector:
    """Dense unknown vector plus its index map."""

    def __init__(self, index: IndexMap, x: np.ndarray):
        if len(x) != index.dim:
            raise ValueError(f"state vector has {len(x)} entries; its index "
                             f"map has {index.dim} unknowns")
        self.index = index
        self.x = x

    def copy(self) -> "StateVector":
        return StateVector(self.index, self.x.copy())

    def v_complex(self, pos: int) -> complex:
        return complex(self.x[2 * pos], self.x[2 * pos + 1])

    def v_mag(self, pos: int) -> float:
        return abs(self.v_complex(pos))


def flat_start(case: NetworkCase, ctl: ControlMode) -> StateVector:
    """Initial state: case voltages, model-consistent control values.

    Every control row starts on its curve at those voltages whatever
    ctl's modes (degenerate limits hold the lower one, except a local
    generator's; a switched-off unit holds 0), and every member on its
    participation curve; a controlled tap starts at its case ratio,
    within its limits. The slack surplus dP_S starts at the lossless
    estimate: total load less scheduled generation, shared by the slack
    and its members in proportion 1 : agc_factor."""
    index = build_index(case)
    n = index.voltage_dim()
    x = np.zeros(index.dim)
    x[0:n:2] = [bus.v_init_real for bus in case.buses]
    x[1:n:2] = [bus.v_init_imag for bus in case.buses]
    if index.dps_col is not None:
        x[index.dps_col] = (sum(ld.p for ld in case.loads)
                            - sum(g.p_g for g in case.generators
                                  if g.in_service)
                            ) / (1.0 + index.agc_kappa.sum())
    if ctl.device_modes or ctl.fixed_q or ctl.group_modes:
        ctl = replace(ctl, device_modes={}, fixed_q={}, group_modes={})
    c, r = _controls(ctl, index), index.rows
    on = c.sig.copy()
    # the local generators' rows, but a switched-off unit's
    on[:r.n_gens] = [k is not None for k in r.keys[:r.n_gens]]
    c = replace(c, sig=on, any_sig=bool(on.any()),
                curves=_curves(r, *c.limits, on))
    x[r.cols] = _targets(c, x, ctl.effective_steepness())[0]
    x[index.inj.m_cols] = _member_targets(c, index.inj, x)[0]
    ratio = [case.branches[bi].ratio for bi in index.tap_col]
    x[index.taps.cols] = np.minimum(np.maximum(ratio, r.lo[r.n_local:]),
                                    r.hi[r.n_local:])
    return StateVector(index, x)


def dc_start(case: NetworkCase, ctl: ControlMode) -> StateVector:
    """`flat_start` with every bus voltage turned to its DC power-flow
    angle and its magnitude unchanged (Stott, Jardim & Alsaç, "DC power
    flow revisited", IEEE TPWRS 24(3), 2009). The control rows read |V|
    alone, so every one that flat_start put on its curve stays there.

    The angles solve B′θ = P, with B′'s LU stored per map (IndexMap.dc,
    see `_b_prime`); B′ depends on the branches alone, so the outages of one
    base solve with one LU. P is each bus's scheduled injection
    (IndexMap.inj; a switched-off unit's is 0). The slack's row and
    column are dropped, so its angle is 0. Returns the flat start itself
    when `_b_prime` gives no B′, or when the solution fails
    `nr_solver.check_solution`."""
    from .nr_solver import check_solution  # nr_solver imports this module

    state = flat_start(case, ctl)
    idx, x = state.index, state.x
    if not idx.dc:
        return state
    B, lu = idx.dc
    n = len(idx.bus_ids)
    rest = np.arange(n) != idx.slack_pos
    P = np.bincount(idx.inj.pos, idx.inj.p, minlength=n)[rest]
    theta = np.zeros(n)
    theta[rest] = lu.solve(P)
    try:
        check_solution(B, theta[rest], P)
    except SingularSystemError:
        return state
    nv = idx.voltage_dim()
    vm = np.hypot(x[0:nv:2], x[1:nv:2])
    x[0:nv:2], x[1:nv:2] = vm * np.cos(theta), vm * np.sin(theta)
    return state


def _b_prime(idx: IndexMap) -> tuple:
    """(B′ without the slack's row and column, its LU) of the map, or ()
    when the slack is the only bus, when some bus is not reached from the
    slack through B′'s branches, or when the LU fails.

    B′ is MATPOWER's makeBdc over the network block's branches, the ones
    with no TapControl, each weighted 1/(x τ), x = Im(1/(g + jb)) and τ
    its fixed ratio; a branch with x = 0 is left out (IndexMap.dc_branches).
    It takes J's representation (`DENSE_MAX_DIM`), so its LU runs the
    code that J's run: SuperLU where J is sparse, LAPACK where it is
    dense; `nr_solver.solve_linear` factors it, with a zero right-hand
    side. A sparse B′ on the small cases, the first SuperLU call in the
    process, raised perfbench small-mix's peak RSS by 1.0 MB."""
    from .nr_solver import solve_linear  # nr_solver imports this module

    f, t, w = idx.dc_branches
    n, s = len(idx.bus_ids), idx.slack_pos
    if n == 1 or max(_islands(n, zip(f.tolist(), t.tolist()))):
        return ()
    # B′ without the slack's row and column, every later bus one up: its
    # entries keyed col * m + row, parallel branches summed, as J's are
    # (B′ is symmetric, so the dense reshape needs no transpose)
    on, rest, m = (f != s) & (t != s), np.arange(n) != s, n - 1
    a, b, diag = f[on], t[on], np.arange(m)
    a, b = a - (a > s), b - (b > s)
    key = np.concatenate((b * m + a, a * m + b, diag * (m + 1)))
    sums = np.bincount(np.concatenate((f, t)), np.concatenate((w, w)),
                       minlength=n)
    vals = np.concatenate((-w[on], -w[on], sums[rest]))
    if idx.dim <= DENSE_MAX_DIM:
        B = np.bincount(key, vals, minlength=m * m).reshape(m, m)
    else:
        _, at, indices, indptr = _csc_pattern(key, m)
        B = csc_matrix((np.bincount(at, vals), indices, indptr), shape=(m, m))
        B.has_canonical_format = True  # sorted and summed
    try:
        return B, solve_linear(B, np.zeros(m))[1]
    except SingularSystemError:
        return ()


# ---------------------------------------------------------------------------
# What a ControlMode makes of the tables
# ---------------------------------------------------------------------------

@dataclass
class _Controls:
    """What a ControlMode makes of an IndexMap's tables."""

    held: np.ndarray  # control rows' values off the curve: fixed_q or a
    # snapped shunt's b, else lo
    sig: np.ndarray  # control rows on their sigmoid, whether any is, and
    any_sig: bool  # their (V_R and V_I columns, relaxed lo, hi, v_set,
    curves: tuple  # sign)
    limits: tuple  # every control row's relaxed (lo, hi)
    fixed_v: np.ndarray  # control rows that hold |V|, whether any does,
    any_fixed_v: bool  # and their (V_R and V_I columns, bus, v_set)
    held_v: tuple
    sensed: np.ndarray  # buses whose |V| the pass divides by, in the
    # order they are checked: sigmoid taps, injections, sigmoid groups
    snapped: np.ndarray  # injector rows of the snapped shunts, and their
    shunt_b: np.ndarray  # susceptances
    m_lo: np.ndarray  # members: relaxed limits
    m_hi: np.ndarray
    hard: np.ndarray  # members of FIXED_V groups
    curve: np.ndarray  # members on their participation curve, and
    any_curve: bool  # whether any is
    gen_curves: np.ndarray  # local generators' q columns on their sigmoid


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
    """The _Controls of ctl: the last one derived when the fields below
    are unchanged (an NR solve stamps many states under one ControlMode)."""
    key = (ctl.device_modes, ctl.fixed_q, ctl.q_scale, ctl.q_widen,
           ctl.group_modes, ctl.fixed_shunt_b)
    if idx.last is not None and idx.last[0] == key:
        return idx.last[1]
    r, t = idx.rows, idx.inj
    G, L, n = r.n_gens, r.n_local, len(r.keys)
    # a switched-off unit (key None) holds 0, whatever ctl says, and so
    # does a group with no member in service (factors 0), by its limits 0
    modes = ([FIXED_Q if k is None else ctl.device_modes.get(k, SIGMOID)
              for k in r.keys]
             + [ctl.group_modes.get(gi, SIGMOID) if t.kappa[a:b].any()
                else SIGMOID for gi, (a, b) in enumerate(t.spans)])
    fixed_v = np.array([m == FIXED_V for m in modes], dtype=bool)
    # local devices and taps take FIXED_Q, and a snapped shunt holds its b
    fixed_q = np.zeros(len(modes), dtype=bool)
    fixed_q[:n] = [m == FIXED_Q for m in modes[:n]]
    snapped = np.array([k for k, key in enumerate(r.keys[:L])
                        if key is not None and key[0] == "shunt"
                        and key[1] in ctl.fixed_shunt_b],
                       dtype=np.intp)
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
    held = lo.copy()
    held[fixed_q] = [0.0 if k is None else ctl.fixed_q[k]
                     for k, on in zip(r.keys, fixed_q) if on]
    held[snapped] = [ctl.fixed_shunt_b[r.keys[k][1]] for k in snapped]
    fixed_q[snapped] = True
    sig = ~(fixed_v | fixed_q | degenerate)
    hard = np.repeat(fixed_v[n:], [b - a for a, b in t.spans])
    follow = hard | ~(m_hi - m_lo < DEGENERATE_RANGE)
    tap, grp = np.zeros(len(sig), dtype=bool), np.zeros(len(sig), dtype=bool)
    tap[L:n], grp[n:] = sig[L:n], sig[n:]
    v = np.array((2 * r.pos, 2 * r.pos + 1))
    curve = follow & ~hard
    c = _Controls(
        held=held, sig=sig, any_sig=bool(sig.any()),
        curves=_curves(r, lo, hi, sig), limits=(lo, hi), fixed_v=fixed_v,
        any_fixed_v=bool(fixed_v.any()),
        held_v=(v[:, fixed_v], r.pos[fixed_v], r.v_set[fixed_v]),
        sensed=np.concatenate((r.pos[tap], np.delete(t.pos, t.local[snapped]),
                               r.pos[grp])),
        snapped=t.local[snapped], shunt_b=held[snapped],
        m_lo=m_lo, m_hi=m_hi, hard=hard, curve=curve,
        any_curve=bool(curve.any()), gen_curves=r.cols[:G][sig[:G]])
    # copies, so that a ControlMode changed in place is not mistaken
    idx.last = (tuple(dict(d) for d in key), c)
    return c


def _targets(c: _Controls, x: np.ndarray, steepness: float):
    """The control rows' values at x: held, or on the sigmoid of |V|;
    and the sigmoid rows' |V| and slopes."""
    target = c.held.copy()
    vm = ds = None
    if c.any_sig:
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
    if c.any_curve:
        k, lo, hi = t.kappa[c.curve], c.m_lo[c.curve], c.m_hi[c.curve]
        target[c.curve], slope[c.curve] = participation_arrays(
            k, lo, hi, default_patch_width(k, lo, hi), qreq[c.curve])
    return target, slope


# ---------------------------------------------------------------------------
# The stamp pass
# ---------------------------------------------------------------------------

class _Pass:
    """One stamp pass at a state (`stamp`): F, and J on request.

    Each segment returns the values of its F terms, whose rows the index
    map holds (IndexMap.f_rows), and holds on to what its J slots are
    built from when J is asked for (`slot_values`). Every KCL term goes
    to row 2 * pos + comp of its bus, the slack bus included;
    `_slack_rows` then turns the slack rows into voltage constraints and,
    with distributed slack, into the surplus row.
    """

    def __init__(self, state: StateVector, ctl: ControlMode):
        self.ctl = ctl
        self.index = idx = state.index
        self.x = state.x
        self.c = _controls(ctl, idx)
        # the network's scale, and what the segments hold for J's slots
        self.scale = self.taps = self.inj = self.curves = self.m_slope = None
        self.F = self.slack_currents = None

    def slot_values(self) -> np.ndarray:
        """Every J slot's value, the map's or not, in IndexMap.j_rows
        order."""
        return np.concatenate((_tap_slots(self), _injection_slots(self),
                               _control_slots(self)))

    def jacobian(self) -> np.ndarray | csc_matrix:
        """J from the pass's values: the slots, the slack rows and the
        surplus row added in source order to a copy of the network
        block's entries at the pass's scale (`_network`). Up to
        DENSE_MAX_DIM unknowns J is a dense array, Y's with the slack
        bus rows zeroed to start from, else a CSC matrix, a shallow copy
        of the structure's template (see `_JacobianStructure`); both sum
        the same values in the same order, so their entries are equal
        bit for bit."""
        idx, dim = self.index, self.index.dim
        s, dense = idx.jac, dim <= DENSE_MAX_DIM
        _, Y, vals, sums = _network(idx, self.scale)
        slots = self.slot_values()
        parts = [slots, (1.0, 1.0)]
        if idx.dps_col is not None:
            moved = np.concatenate((vals[s.slack], slots[s.slot_at]))
            parts += [moved * self.x[s.on], (*self.slack_currents, -1.0)]
        if dense:
            data = Y.flatten()
            data[2 * idx.slack_pos * dim:][:2 * dim] = 0.0
        else:
            data = sums.copy()
        # add.at adds one source at a time onto the block's entries, as
        # one bincount over every source would; summing the other sources
        # apart first would round differently
        np.add.at(data, s.dense if dense else s.slot,
                  np.concatenate(parts)[s.used])
        if dense:
            return data.reshape(dim, dim)
        if s.template is None:
            s.template = csc_matrix((np.zeros(s.indices.size), s.indices,
                                     s.indptr), shape=(dim, dim))
            s.template.has_canonical_format = True  # sorted and summed
        J = copy.copy(s.template)  # scipy's constructor would check it again
        J.data = data
        J.structure = s
        return J


def _check_collapse(st: _Pass, pos: np.ndarray, dd: np.ndarray):
    """Raise SingularPointError at the first device whose bus voltage
    collapsed, |V|^2 <= EPS_V^2."""
    low = dd <= EPS_V * EPS_V
    if np.count_nonzero(low):
        k = int(low.argmax())
        bus = st.index.bus_ids[pos[k]]
        raise SingularPointError(
            f"voltage magnitude collapsed at bus {bus} (|V|^2 = {dd[k]:.3e})",
            bus=bus)


def slack_participation(ctl: ControlMode, idx: IndexMap, dps):
    """The distributed-slack members' (IndexMap.agc_member_idx) extra
    active power for a given slack surplus, with its sensitivity
    d(dP_G)/d(dP_S), as arrays.

    Each member has its factor agc_kappa and its active-power headrooms
    agc_lo = p_min - p_g and agc_hi = p_max - p_g. At full relaxation
    (p_relax >= 1) the participation is purely linear; below that,
    limits are the headrooms widened by p_relax * extra, where extra
    comes from the unbounded pre-solve.
    """
    members, kappa = idx.agc_member_idx, idx.agc_kappa
    if ctl.p_relax >= 1.0:
        return kappa * dps, kappa
    extra_lo = extra_hi = 0.0
    if ctl.p_extra:
        extra_lo, extra_hi = np.array(
            [ctl.p_extra.get(i, (0.0, 0.0)) for i in members],
            dtype=float).reshape(-1, 2).T
    lo = idx.agc_lo + ctl.p_relax * extra_lo
    hi = idx.agc_hi + ctl.p_relax * extra_hi
    live = ~(hi - lo < DEGENERATE_RANGE)
    dp, ddp = np.zeros(len(members)), np.zeros(len(members))
    if live.any():
        k, lo, hi = kappa[live], lo[live], hi[live]
        # active-power spans dwarf typical surpluses, so the default 2%
        # patch would swallow the linear sharing region; use 0.1% here
        dp[live], ddp[live] = participation_arrays(
            k, lo, hi, 0.001 * (hi - lo) / k, dps)
    return dp, ddp


def _stamp_taps(st: _Pass) -> list:
    """The taps' currents into the KCL sums: each block's admittance
    times its voltage, V_R rows then V_I rows. A ratio that is not > 0 is
    a singular point."""
    tp, x = st.index.taps, st.x
    if not tp.branches:
        return []
    tau = x[tp.cols]
    if not (tau > 0.0).all():
        k = int(np.argmin(tau > 0.0))
        raise SingularPointError(
            f"tap ratio of branch {tp.branches[k]} is {tau[k]:g}")
    y = tp.y * (1.0 + st.ctl.tx_relax * TX_SCALE)
    yc = y + tp.jc
    ft = -y / tau
    Y = np.array((yc / (tau * tau), ft, ft, yc))
    I = Y * (x[tp.v] + 1j * x[tp.v + 1])
    st.taps = (tau, y, yc, Y)
    return [I.real.ravel(), I.imag.ravel()]


def _tap_slots(st: _Pass) -> np.ndarray:
    """The taps' J slot values: the blocks' [[G, -B], [B, G]], and the
    ratio column, d/dtau of the currents at f and t."""
    tp, x = st.index.taps, st.x
    if not tp.branches:
        return np.empty(0)
    tau, y, yc, Y = st.taps
    V = np.empty((20, len(tau)))
    V[0:16:4] = V[3:16:4] = Y.real
    V[1:16:4], V[2:16:4] = -Y.imag, Y.imag
    # -2 (y + jc) / tau^3 * V_f + y / tau^2 * V_t, and y / tau^2 * V_f
    f, to = tp.at[0], tp.at[2]
    vf, vt = x[f] + 1j * x[f + 1], x[to] + 1j * x[to + 1]
    b = y / (tau * tau)
    at_f, at_t = -2.0 * yc / (tau * tau * tau) * vf + b * vt, b * vf
    V[16:20] = at_f.real, at_f.imag, at_t.real, at_t.imag
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
        extra, slope = slack_participation(st.ctl, idx, x[idx.dps_col])
        p, dp = t.p.copy(), np.zeros(len(t.pos))
        p[t.agc_at] = t.p[t.agc_at] + extra[t.agc_pos]
        dp[t.agc_at] = slope[t.agc_pos]
    ir = (p * vr + q * vi) / dd
    ii = (p * vi - q * vr) / dd
    s = st.c.snapped
    if len(s):
        b, sv = st.c.shunt_b, t.vr_c[s]
        ir[s], ii[s] = b * x[sv + 1], -b * x[sv]
    st.inj = (vr, vi, dd, p, q, ir, ii, dp)
    return [-ir, -ii]


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
    s, b = st.c.snapped, st.c.shunt_b
    if len(s):
        # the admittance jb, with no partial in its q column
        V[:6, s] = 0.0
        V[1, s], V[2, s] = -b, b
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
    if c.any_fixed_v:
        _, pos, v_set = c.held_v
        f[c.fixed_v] = dd_bus[pos] - v_set * v_set
    if not len(t.members):
        return [f]
    target, st.m_slope = _member_targets(c, t, x)
    return [f, x[t.m_cols] - target]


def _control_slots(st: _Pass) -> np.ndarray:
    """The control rows' J slot values, then the participation rows'; 0.0
    where a row's mode has no partial (a FIXED_V row's own column, a held
    row's voltages)."""
    c, x = st.c, st.x
    V = np.zeros((3, len(c.held)))
    V[0] = ~c.fixed_v
    vm, ds = st.curves
    if vm is not None:
        V[1:, c.sig] = -ds * x[c.curves[0]] / vm
    if c.any_fixed_v:
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
    """J's CSC structure on one IndexMap, and the same entries as flat
    indices into a dense J.

    J's values come from a source vector: the network block's entries in
    CSR order, every slot's value, the two unit diagonals of the slack
    voltage rows and, with distributed slack, the map's values in the
    slack bus rows moved to the surplus row (each times its row's own
    voltage) and the surplus row's own entries I_SR, I_SI and -1. The
    used source values are summed into their entries in source order,
    from 0.0. The block's entries are distinct and come first, put in
    place once per scale (`_network`); the slack bus rows are contiguous
    in CSR, so the block's entries in them are one slice.

    A CSC J is a shallow copy (`copy.copy`) of `template`, the csc_matrix
    of the pattern that the first CSC J on the map builds, given its own
    data and `.structure`; scipy's constructor, which checks the arrays
    again on every call, runs once per map. The template does not refer
    back to the structure, so no reference cycle keeps a map alive.
    """

    slack: slice  # the map's sources in the slack bus rows: the network
    slot_at: np.ndarray  # block's entries, the slots, and their voltage
    on: np.ndarray  # columns (each row's own)
    used: np.ndarray  # the other sources that enter J, after the block,
    slot: np.ndarray  # and the entry each adds to: CSC position and
    dense: np.ndarray  # row-major flat index into a dense J
    net_slot: np.ndarray  # the block's used entries' CSC positions, and
    net_dense: np.ndarray  # all its entries' flat indices into a dense J
    indices: np.ndarray  # CSC row indices and column pointers, read-only
    indptr: np.ndarray
    # the CSC matrix of the pattern, whose copies are the CSC Js; it has
    # no `.structure`
    template: csc_matrix | None = None
    # the pattern's LU column order, once `keep_order` has it: its
    # inverse, the gather that puts J's data into that order, and the
    # permuted matrix each factorization refills
    inv: np.ndarray | None = None
    gather: np.ndarray | None = None
    permuted: csc_matrix | None = None

    def keep_order(self, perm_c: np.ndarray) -> None:
        """Keep perm_c, the column order SuperLU chose for this pattern.

        The order (minimum degree on J + Jᵀ, `nr_solver.SPLU`) reads the
        pattern alone, so every J of this structure shares it. With
        inv = argsort(perm_c), the permuted matrix is J[inv][:, inv]:
        factored in its NATURAL order it gives the LU, pivots and solution
        bits that J gives with perm_c, and J x = b becomes permuted
        y = b[inv], x[inv] = y. SuperLU prefers the diagonal of Pc' A Pc
        as pivot, so the rows take the columns' new numbers; and its
        column search visits a column's rows in stored order, so each
        column keeps J's row order (unsorted in the new numbering)."""
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


def _jacobian_structure(idx: IndexMap) -> _JacobianStructure:
    """J's structure on the map: the slack-row rewrite, and the distinct
    (row, col) entries of the used sources, sorted by column and row."""
    dim, r, d = idx.dim, 2 * idx.slack_pos, idx.dps_col
    Y, n = idx.net_series.tocoo(), idx.net_series.nnz
    rows = np.concatenate((Y.row, idx.j_rows))
    cols = np.concatenate((Y.col, idx.j_cols))
    has = np.concatenate((np.ones(n, dtype=bool), idx.j_mask))
    on_slack = (rows >> 1) == idx.slack_pos
    at = np.flatnonzero(has & on_slack)
    # rows and columns of the source vector (see _JacobianStructure)
    src_rows, src_cols = [rows, (r, r + 1)], [cols, (r, r + 1)]
    if d is not None:
        src_rows += [np.full(at.size, d), (d, d, d)]
        src_cols += [cols[at], (r, r + 1, d)]
    src_rows, src_cols = np.concatenate(src_rows), np.concatenate(src_cols)
    used = np.ones(src_rows.size, dtype=bool)
    used[:rows.size] = has & ~on_slack
    used = np.flatnonzero(used)
    entries, slot, indices, indptr = _csc_pattern(
        src_cols[used] * dim + src_rows[used], dim)
    # every J returned shares these two; an in-place scipy op must not
    # rewrite the cache
    indices.flags.writeable = indptr.flags.writeable = False
    slack = slice(*idx.net_series.indptr[r:r + 3:2].tolist())
    cut = n - (slack.stop - slack.start)
    dense = ((entries % dim) * dim + entries // dim)[slot[cut:]]
    return _JacobianStructure(slack, at[at >= n] - n, rows[at],
                              used[cut:] - n, slot[cut:], dense, slot[:cut],
                              rows[:n] * dim + cols[:n], indices, indptr)


def _csc_pattern(key: np.ndarray, dim: int):
    """The distinct keys col * dim + row of a dim x dim matrix's entries,
    sorted by column and row; each key's position among them; and their
    CSC row indices and column pointers."""
    entries, at = np.unique(key, return_inverse=True)
    return (entries, at, (entries % dim).astype(np.int32),
            np.searchsorted(entries, dim * np.arange(dim + 1)).astype(np.int32))


def _network(idx: IndexMap, scale: float) -> tuple:
    """((scale, dense), Y, Y's values, J's network entries in CSC order,
    or None for a dense J, which starts from Y) of the last scale and J's
    representation, stored on the map: F's network part is Y x,
    Y = scale * net_series + net_shunt, dense or CSR as J is."""
    dense, S, s = idx.dim <= DENSE_MAX_DIM, idx.net_series, idx.jac
    if idx.net is None or idx.net[0] != (scale, dense):
        vals = scale * S.data + idx.net_shunt.data
        if dense:
            Y, sums = np.zeros(S.shape), None
            Y.flat[s.net_dense] = vals
        else:
            Y = copy.copy(S)  # cheaper than a new one
            Y.data = vals
            sums = np.zeros(s.indices.size)
            sums[s.net_slot] = np.delete(vals, s.slack)
        idx.net = ((scale, dense), Y, vals, sums)
    return idx.net


# ---------------------------------------------------------------------------
# Full-system evaluation
# ---------------------------------------------------------------------------

def stamp(state: StateVector, ctl: ControlMode) -> _Pass:
    """One stamp pass at the state, segment by segment: F in `.F` (slack
    rows rewritten, see `_slack_rows`), and J, built from that pass's
    values when asked for, by `.jacobian()`."""
    st = _Pass(state, ctl)
    idx, x = st.index, st.x
    n = idx.voltage_dim()
    vr, vi = x[0:n:2], x[1:n:2]
    dd = vr * vr + vi * vi
    _check_collapse(st, st.c.sensed, dd[st.c.sensed])
    st.scale = 1.0 + ctl.tx_relax * TX_SCALE
    vals = np.concatenate((*_stamp_taps(st), *_stamp_injections(st, dd),
                           *_stamp_control_rows(st, dd)))
    st.F = _network(idx, st.scale)[1].dot(x)
    st.F += np.bincount(idx.f_rows, vals, minlength=idx.dim)
    st.slack_currents = _slack_rows(st, st.F)
    return st


def assemble(state: StateVector, ctl: ControlMode,
             ) -> tuple[np.ndarray, np.ndarray | csc_matrix]:
    """Residual F and Jacobian J of one stamp pass at the state; NR
    solves J dx = -F.

    J has two representations, by its dimension alone (`DENSE_MAX_DIM`):
    up to it a dense ndarray, which `nr_solver.solve_linear` solves with
    LAPACK, and above a csc_matrix carrying its structure as
    `J.structure`, where `solve_linear` holds the LU column order of the
    pattern. Both sum the same values in the same order
    (`_Pass.jacobian`): the dense J equals the CSC J's toarray() bit for
    bit; their LUs round differently, which moves no NR or evaluation
    count (`nr_solve`'s step rule)."""
    st = stamp(state, ctl)
    return st.F, st.jacobian()


def residual(state: StateVector, ctl: ControlMode) -> np.ndarray:
    """Exact nonlinear residuals F(x) of every equation at the given state;
    the same F as `assemble`, without building J."""
    return stamp(state, ctl).F


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


def classify_regions(state: StateVector, ctl: ControlMode) -> dict:
    """Label every controlled device at-min / controlling / at-max based on
    where its output sits within its (unrelaxed) limits."""
    idx, x = state.index, state.x.tolist()
    out = {key: _classify(x[col], lo, hi)
           for key, col, lo, hi in controlled_devices(idx)}
    if idx.dps_col is not None:
        dp, _ = slack_participation(ctl, idx, x[idx.dps_col])
        for i, value, lo, hi in zip(idx.agc_member_idx, dp.tolist(),
                                    idx.agc_lo.tolist(), idx.agc_hi.tolist()):
            out[("agc", i)] = _classify(value, lo, hi)
    return out
