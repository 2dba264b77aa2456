"""The constant network block and every converged bundled solution,
checked against the independent admittance matrix of network_reference."""

import sys
from dataclasses import replace

import numpy as np
import pytest

import splitflow.circuit_stamps as circuit_stamps
from splitflow.circuit_stamps import TX_SCALE, build_index
from splitflow.homotopy_driver import run_homotopy
from splitflow.nr_solver import SolverOptions
from tests.conftest import (
    CASE_DIR,
    MATPOWER_CASES,
    NATIVE_CASES,
    load_matpower,
    load_native,
)
from tests.network_reference import make_ybus, power_mismatch, real_expansion

sys.path.insert(0, str(CASE_DIR.parent.parent / "tools"))
import lu_probe  # noqa: E402

ALL_CASES = MATPOWER_CASES + NATIVE_CASES
OPTS = SolverOptions()


def bundled(name):
    return load_matpower(name) if name in MATPOWER_CASES else load_native(name)


@pytest.mark.parametrize("tx_relax", [0.0, 0.3])
@pytest.mark.parametrize("name", ALL_CASES)
def test_block_equals_ybus_expansion(name, tx_relax, monkeypatch):
    # the block holds every branch without a tap column, and the fixed
    # shunts; F's network operator at the scale, dense or CSR by J's rule,
    # applies it to a random x
    case = bundled(name)
    idx = build_index(case)
    scale, nv = 1.0 + tx_relax * TX_SCALE, idx.voltage_dim()
    ref = np.zeros((idx.dim, idx.dim))
    ref[:nv, :nv] = real_expansion(make_ybus(case, tx_relax,
                                             skip=idx.tap_col))
    block = (scale * idx.net_series + idx.net_shunt).toarray()
    assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()
    x = np.random.default_rng(0).normal(size=idx.dim)
    for dense in (False, True):
        monkeypatch.setattr(circuit_stamps, "DENSE_MAX_DIM",
                            sys.maxsize if dense else 0)
        Y = circuit_stamps._network(idx, scale)[1]
        assert isinstance(Y, np.ndarray) == dense
        assert dense or Y.format == "csr"
        assert (np.abs(Y @ x - ref @ x).max()
                <= 1e-12 * np.abs(ref @ x).max())


@pytest.mark.parametrize("name", ALL_CASES)
def test_block_pattern_is_canonical_and_shared(name):
    # CSR over all unknowns, with entries in the voltage rows and columns
    # alone, each row's columns strictly increasing (sorted, no duplicate
    # (row, col)); the series and shunt values on one pattern
    idx = build_index(bundled(name))
    series, shunt = idx.net_series, idx.net_shunt
    dim, nv = idx.dim, idx.voltage_dim()
    assert series.format == shunt.format == "csr"
    assert series.shape == shunt.shape == (dim, dim)
    assert np.array_equal(shunt.indices, series.indices)
    assert np.array_equal(shunt.indptr, series.indptr)
    assert series.data.shape == shunt.data.shape == series.indices.shape
    assert series.indptr[0] == 0 and series.indptr[nv] == series.nnz
    assert series.indptr[-1] == series.nnz
    assert ((series.indices >= 0) & (series.indices < nv)).all()
    rows = np.repeat(np.arange(dim), np.diff(series.indptr))
    assert (np.diff(rows * dim + series.indices) > 0).all()


# NR iterations per (case, pipeline) with distributed slack off. The counts
# are machine-independent, so a change to any of them is a change in how
# the solver walks, not in the machine. `none` starts from the DC angles
# (`dc_start`). On oscillation4 that reaches the solution the homotopies
# reach; from a flat start plain NR converges there to a high-voltage
# equilibrium that balances power but is not that solution (see
# test_homotopy).
ITERATIONS = {
    "case9": {"none": 3, "smoothing": 19, "tx": 26, "q-limit": 2,
              "composite": 35},
    "case14": {"none": 4, "smoothing": 22, "tx": 37, "q-limit": 3,
               "composite": 40},
    "case30": {"none": 4, "smoothing": 24, "tx": 23, "q-limit": 15,
               "composite": 51},
    "case118": {"none": 5, "smoothing": 25, "tx": 60, "q-limit": 15,
                "composite": 54},
    "savnw_like": {"none": 4, "smoothing": 20, "tx": 20, "q-limit": 4,
                   "composite": 35},
    "oscillation4": {"none": 11, "smoothing": 34, "tx": 21, "q-limit": 97,
                     "composite": 64},
    "discrete4": {"none": 9, "smoothing": 25, "tx": 23, "q-limit": 4,
                  "composite": 33},
}
PIPELINES = [(name, method) for name in ALL_CASES
             for method in ("none", "smoothing", "tx", "q-limit", "composite")
             if method in ITERATIONS[name]]


@pytest.mark.parametrize("name,method", PIPELINES)
def test_converged_solution_balances_power(name, method):
    case = replace(bundled(name), agc_enabled=False)
    state, report = run_homotopy(case, method, OPTS)
    assert report.converged
    assert power_mismatch(case, state).max() <= 1e-5
    assert report.iterations == ITERATIONS[name][method]


def test_generated_case_balances_power():
    # a 300-bus ring with chords of span at most 20, in case118's
    # proportions, generated at run time: `composite` reaches a solution
    # that the independent admittance matrix balances
    case = lu_probe.generated(300, 20)
    assert len(case.buses) == 300
    state, report = run_homotopy(case, "composite", OPTS)
    assert report.converged
    assert power_mismatch(case, state).max() <= 1e-5


def test_lu_probe_quartiles():
    # a record's spread next to its median; one round is its own spread
    assert lu_probe.quartiles([2.0]) == [2.0, 2.0]
    assert lu_probe.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == [1.5, 4.5]
