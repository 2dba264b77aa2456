"""An independent bus admittance matrix and power-mismatch oracle.

Built per branch in the form of MATPOWER's makeYbus (Zimmerman et al.,
IEEE TPWRS 2011) from NetworkCase data alone, so it shares no code with
circuit_stamps and can check both the network block and converged
solutions.
"""

import numpy as np

from splitflow.circuit_stamps import TX_SCALE


def make_ybus(case, tx_relax=0.0, ratios=None, skip=()):
    """Complex n x n bus admittance matrix.

    A branch with series admittance y (scaled by the tx relaxation),
    charging b_sh and ratio t adds y/t^2, -y/t, -y/t and y, plus b_sh/2
    at each end (over t^2 at the from end); fixed shunts add to the
    diagonal. ratios overrides branch ratios by branch index; branches in
    skip are left out.
    """
    ratios = ratios or {}
    pos = case.bus_index()
    Y = np.zeros((len(case.buses), len(case.buses)), dtype=complex)
    for bi, br in enumerate(case.branches):
        if bi in skip:
            continue
        t = ratios.get(bi, br.ratio)
        y = complex(br.g, br.b) * (1.0 + tx_relax * TX_SCALE)
        charging = complex(0.0, br.b_sh / 2.0)
        f, k = pos[br.from_bus], pos[br.to_bus]
        Y[f, f] += (y + charging) / (t * t)
        Y[f, k] -= y / t
        Y[k, f] -= y / t
        Y[k, k] += y + charging
    for sh in case.fixed_shunts:
        Y[pos[sh.bus], pos[sh.bus]] += complex(sh.g, sh.b)
    return Y


def real_expansion(Y):
    """The real 2n x 2n matrix acting on interleaved (V_R, V_I)."""
    n = Y.shape[0]
    R = np.zeros((2 * n, 2 * n))
    R[0::2, 0::2] = Y.real
    R[0::2, 1::2] = -Y.imag
    R[1::2, 0::2] = Y.imag
    R[1::2, 1::2] = Y.real
    return R


def power_mismatch(case, state, tap_ratio=None, shunt_b=None):
    """|S_i - injection_i| per bus in pu, zero at the slack bus.

    S_i = V_i conj(sum_j Y_ij V_j). Injections are read from the state:
    generator active power as scheduled, generator and switched-shunt
    reactive power and tap ratios from their columns; an out-of-service
    unit injects nothing. tap_ratio and
    shunt_b give the values of snapped taps and shunts, used in place of
    their columns; a snapped shunt is an admittance on the diagonal.
    """
    idx = state.index
    pos = case.bus_index()
    nv = idx.voltage_dim()
    V = state.x[0:nv:2] + 1j * state.x[1:nv:2]
    shunt_b = shunt_b or {}
    ratios = {bi: state.x[col] for bi, col in idx.tap_col.items()}
    ratios.update(tap_ratio or {})
    Y = make_ybus(case, ratios=ratios)
    for j, b in shunt_b.items():
        Y[pos[case.shunts[j].bus], pos[case.shunts[j].bus]] += complex(0.0, b)
    injection = np.zeros(len(case.buses), dtype=complex)
    for i, g in enumerate(case.generators):
        if not g.in_service:
            continue
        col = idx.q_col.get(("gen", i))
        q = state.x[col] if col is not None else 0.0
        injection[pos[g.bus]] += complex(g.p_g, q)
    for load in case.loads:
        injection[pos[load.bus]] -= complex(load.p, load.q)
    for j, sh in enumerate(case.shunts):
        if j not in shunt_b:
            q = state.x[idx.q_col[("shunt", j)]]
            injection[pos[sh.bus]] += complex(0.0, q)
    mismatch = np.abs(V * np.conj(Y @ V) - injection)
    mismatch[idx.slack_pos] = 0.0
    return mismatch
