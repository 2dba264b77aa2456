"""Shared fixtures: bundled case files and constructed test networks."""

import json
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import issparse

from splitflow import (
    Branch,
    Bus,
    FixedShunt,
    Generator,
    Load,
    NetworkCase,
    SwitchedShunt,
    parse_matpower,
    parse_native,
    serialize_native,
)
import splitflow.nr_solver as nr_solver
from splitflow.case_model import TapControl
from splitflow.circuit_stamps import StateVector, assemble, residual

CASE_DIR = pathlib.Path(__file__).parent / "cases"

# the property tests' long run, selected with --hypothesis-profile=ci:
# more examples, drawn the same way on every run
settings.register_profile("ci", max_examples=1000, derandomize=True)

MATPOWER_CASES = ["case9", "case14", "case30", "case118"]
NATIVE_CASES = ["savnw_like", "oscillation4", "discrete4"]


def load_matpower(name):
    return parse_matpower((CASE_DIR / f"{name}.m").read_text(), name=name)


def load_native(name):
    return parse_native((CASE_DIR / f"{name}.native.json").read_text(), name=name)


def patch_function(monkeypatch, fn, wrap):
    """Replace fn by wrap(fn) in every splitflow module that holds it, so
    that a pipeline's calls reach the wrapper whichever module makes
    them."""
    wrapped = wrap(fn)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "splitflow"
                and getattr(module, fn.__name__, None) is fn):
            monkeypatch.setattr(module, fn.__name__, wrapped)


def patch_nr_solve(monkeypatch, wrap):
    """patch_function for nr_solve."""
    patch_function(monkeypatch, nr_solver.nr_solve, wrap)


@pytest.fixture(scope="session")
def bundled_matpower():
    return {name: load_matpower(name) for name in MATPOWER_CASES}


@pytest.fixture(scope="session")
def bundled_native():
    return {name: load_native(name) for name in NATIVE_CASES}


def without_out_of_service(case):
    """The case with its out-of-service generators deleted, the oracle a
    switched-off unit is checked against: every later generator is
    renumbered, and the remote groups are inferred again from the
    generators left."""
    return replace(case, generators=tuple(
        g for g in case.generators if g.in_service))


def in_case_numbering(lines, case):
    """Summary lines of `without_out_of_service(case)` with each region
    line's generator index turned back into case's, sorted."""
    keep = [i for i, g in enumerate(case.generators) if g.in_service]

    def renamed(line):
        name, _, rest = line.partition(":")
        parts = name.split(".")
        if parts[0] == "region" and parts[1] in ("gen", "agc"):
            return f"region.{parts[1]}.{keep[int(parts[2])]}:{rest}"
        return line

    return sorted(map(renamed, lines))


def series_gb(r, x):
    d = r * r + x * x
    return r / d, -x / d


def two_bus_case(p_load=0.5, q_load=0.1, r=0.01, x=0.1):
    g, b = series_gb(r, x)
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0), Bus(2, 230.0, "pq")),
        branches=(Branch(1, 2, g, b),),
        generators=(),
        loads=(Load(2, p_load, q_load),),
        name="two_bus",
    )


def three_bus_pv_case(q_min=-0.4, q_max=0.4, v_set=1.02):
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0),
               Bus(2, 230.0, "pv", v_set, 0.0),
               Bus(3, 230.0, "pq")),
        branches=(Branch(1, 3, 1.0, -8.0, b_sh=0.02),
                  Branch(2, 3, 0.8, -6.0),
                  Branch(1, 2, 0.5, -4.0)),
        generators=(Generator(2, 0.6, v_set, q_min, q_max, 0.0, 1.0),),
        loads=(Load(3, 0.9, 0.3),),
        name="three_bus_pv",
    )


def remote_pair_case():
    """Two generators jointly regulating a fourth bus (factors 0.6 / 0.4)."""
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0), Bus(2, 230.0, "pq"),
               Bus(3, 230.0, "pq"), Bus(4, 230.0, "pq")),
        branches=(Branch(1, 4, 1.0, -8.0), Branch(2, 4, 0.8, -6.0),
                  Branch(3, 4, 0.9, -7.0)),
        generators=(
            Generator(2, 0.3, 1.03, -0.5, 0.5, 0.0, 1.0,
                      remote_bus=4, remote_factor=0.6),
            Generator(3, 0.2, 1.03, -0.5, 0.5, 0.0, 1.0,
                      remote_bus=4, remote_factor=0.4),
        ),
        loads=(Load(4, 0.8, 0.25),),
        name="remote_pair",
    )


def zero_factor_remote_pair_text():
    """remote_pair_case as native JSON, with generator 1's remote factor
    0: its normalized share is 0 while generator 0's is 1."""
    doc = json.loads(serialize_native(remote_pair_case()))
    doc["generators"][1]["remote_factor"] = 0.0
    return json.dumps(doc)


def tapped_case(controlled_side="secondary", step_size=0.0125):
    g, b = series_gb(0.01, 0.1)
    gt, bt = series_gb(0.002, 0.06)
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0), Bus(2, 230.0, "pq"),
               Bus(3, 115.0, "pq")),
        branches=(Branch(1, 2, g, b),
                  Branch(2, 3, gt, bt,
                         tap=TapControl(0.9, 1.1, 1.0, controlled_side,
                                        step_size))),
        generators=(),
        loads=(Load(2, 0.3, 0.1), Load(3, 0.5, 0.2)),
        name="tapped",
    )


def shunt_case(b_min=0.0, b_max=0.5, step=0.1):
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0), Bus(2, 230.0, "pq")),
        branches=(Branch(1, 2, 1.0, -8.0),),
        generators=(),
        loads=(Load(2, 0.5, 0.3),),
        shunts=(SwitchedShunt(2, b_min, b_max, step, 1.0),),
        name="shunted",
    )


def lossless_agc_case():
    """Lossless (r = 0) network whose schedule exactly covers the load, so
    the distributed-slack surplus is zero at the base solution."""
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0),
               Bus(2, 230.0, "pv", 1.0, 0.0),
               Bus(3, 230.0, "pq")),
        branches=(Branch(1, 3, 0.0, -10.0), Branch(2, 3, 0.0, -8.0),
                  Branch(1, 2, 0.0, -5.0)),
        generators=(Generator(1, 0.5, 1.0, -9.0, 9.0, 0.0, 5.0),
                    Generator(2, 0.5, 1.0, -9.0, 9.0, 0.0, 5.0,
                              agc_factor=0.5)),
        loads=(Load(3, 1.0, 0.2),),
        agc_enabled=True,
        name="lossless_agc",
    )


def qlimit_rescue_case():
    """Two tightly-limited regulators whose saturated equilibria sit
    close together on this 3-bus case: one pressed over a negative
    reactive ceiling by the load pocket, the other pushed under its floor
    by the capacitor bank. The continuation schedules converge it, and
    plain flat-start NR reaches the same solution only after 60
    iterations."""
    g1, b1 = series_gb(0.015, 0.15)
    g3, b3 = series_gb(0.025, 0.25)
    return NetworkCase(
        s_base=100.0,
        buses=(Bus(1, 230.0, "slack", 1.0, 0.0),
               Bus(2, 230.0, "pv", 1.0, 0.0),
               Bus(3, 230.0, "pv", 1.0, 0.0)),
        branches=(Branch(1, 2, g1, b1), Branch(2, 3, g3, b3)),
        generators=(Generator(2, 0.3, 1.0, -0.901, -0.601, 0.0, 2.0),
                    Generator(3, 0.3, 1.0, -0.819, 3.181, 0.0, 2.0)),
        loads=(Load(2, 0.9, 0.65),),
        fixed_shunts=(FixedShunt(3, 0.0, 1.4),),
        name="qlimit_rescue",
    )


def stiff_feeder_case():
    """Radial 10-bus feeder with an end-of-line regulating generator;
    plain flat-start NR crosses a plateau of idle iterations on it, and
    the tx schedule reaches the same solution."""
    g, b = series_gb(0.03, 0.12)
    buses = [Bus(1, 115.0, "slack", 1.0, 0.0)]
    buses += [Bus(i, 115.0, "pq") for i in range(2, 10)]
    buses.append(Bus(10, 115.0, "pv", 1.0, 0.0))
    return NetworkCase(
        s_base=100.0,
        buses=tuple(buses),
        branches=tuple(Branch(i, i + 1, g, b) for i in range(1, 10)),
        generators=(Generator(10, 0.1, 1.0, -1.0, 1.0, 0.0, 0.5),),
        loads=tuple(Load(i, 0.04, 0.016) for i in range(2, 11)),
        name="stiff_feeder",
    )


def random_state(case, ctl, seed, v_scale=0.04, consistent_offset=1e-3):
    """Random solver state for derivative checks.

    Voltages (and the slack surplus) are perturbed freely; control values
    are then re-derived from their own curves plus a small offset, so no
    residual row is orders of magnitude larger than the matrix entries it
    is differentiated against (which would drown the finite differences
    in cancellation noise).
    """
    rng = np.random.default_rng(seed)
    from splitflow.circuit_stamps import flat_start

    state = flat_start(case, ctl)
    idx = state.index
    nv = idx.voltage_dim()
    state.x[:nv] += rng.uniform(-v_scale, v_scale, nv)
    for _, col in idx.tap_col.items():
        state.x[col] = 1.0 + rng.uniform(-0.05, 0.05)
    if idx.dps_col is not None:
        state.x[idx.dps_col] += rng.uniform(-0.5, 0.5)
    fresh = flat_start_like(case, ctl, state)
    for key, col in idx.q_col.items():
        state.x[col] = fresh.x[col] + rng.uniform(-1.0, 1.0) * consistent_offset
    for _, col in idx.qreq_col.items():
        state.x[col] = fresh.x[col] + rng.uniform(-1.0, 1.0) * consistent_offset
    return state


def flat_start_like(case, ctl, voltages_from):
    """Model-consistent control values at the voltages of another state."""
    from splitflow.circuit_stamps import flat_start

    probe = flat_start(case, ctl)
    nv = probe.index.voltage_dim()
    # rebuild the model-consistent initialization on top of the given
    # voltage profile by round-tripping through a shifted case
    import dataclasses

    buses = []
    for pos, bus in enumerate(case.buses):
        buses.append(dataclasses.replace(
            bus,
            v_init_real=float(voltages_from.x[2 * pos]),
            v_init_imag=float(voltages_from.x[2 * pos + 1]),
        ))
    shifted = dataclasses.replace(case, buses=tuple(buses))
    return flat_start(shifted, ctl)


def fd_jacobian(state, ctl, h=1e-6):
    """Central finite differences of the residual vector."""
    idx = state.index
    J = np.zeros((idx.dim, idx.dim))
    for c in range(idx.dim):
        xp, xm = state.x.copy(), state.x.copy()
        xp[c] += h
        xm[c] -= h
        rp = residual(StateVector(idx, xp), ctl)
        rm = residual(StateVector(idx, xm), ctl)
        J[:, c] = (rp - rm) / (2.0 * h)
    return J


def as_array(J):
    """J as a dense array, whichever representation `assemble` emitted
    (a dense array up to `circuit_stamps.DENSE_MAX_DIM` unknowns, CSC above)."""
    return J.toarray() if issparse(J) else J


def assert_jacobian_matches(state, ctl, rel_tol=1e-5, abs_floor=1e-8,
                            steps=(1e-6,)):
    """J against finite differences of the residual; each entry is judged
    by the closest of the differences with the given steps."""
    A = as_array(assemble(state, ctl)[1])
    bad = np.inf
    for h in steps:
        J = fd_jacobian(state, ctl, h)
        err = np.abs(A - J)
        rel = err / np.maximum(abs_floor, np.abs(J))
        rel[err <= abs_floor] = 0.0
        bad = np.minimum(bad, rel)
    assert bad.max() < rel_tol, f"worst relative Jacobian error {bad.max():.3e}"
