#!/usr/bin/env python3
"""Time and size the sparse LU of J under two SuperLU settings, time
J's CSC and dense representations end to end, and time the stamp pass.

    python3 tools/lu_probe.py --sizes 30 45 60 65 70 75 90 105 125 1000 2000 \
        5000 --rounds 7 --out BENCH_lu.json

The settings are scipy's defaults (COLAMD column order, SuperLU's
supernode and panel sizes, pivot threshold 1) and `nr_solver.SPLU`. Each
matrix is J at the flat start of case118 and of generated cases
(`make_cases.build`: a ring plus chords, a generator every sixth bus) at
each size, once with random chords and once with chords between buses at
most LOCAL_SPAN apart. The generated cases are built at run time and not
written anywhere.

Each setting factors J as `nr_solver._factor` does: the first
factorization orders the columns and keeps that order, and the timed
refills factor the kept permuted matrix in NATURAL order. The two
representations are timed as an NR iteration spends them: J emitted
from the flat start's stamp pass (`circuit_stamps.stamp`), as CSC
and as dense whatever `circuit_stamps.DENSE_MAX_DIM` says, then
`solve_linear` of J x = -F, which runs SuperLU in the kept order or
LAPACK. Dense is timed up to DENSE_PROBE_DIM unknowns. The stamp pass
is `residual` at the flat start, F alone, with the network operator in
the map's own representation. A round times a batch of calls of each
kind in turn; the record holds the median per-call ms over the rounds
and its quartiles, so that one record tells a change from drift, and
each refill's fill (entries of L plus entries of U). BLAS runs on
one thread, as in perfbench.
"""

import os

# pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

from bench_pairs import cpu_model  # noqa: E402
from make_cases import CASES, build, emit  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import splitflow.circuit_stamps as circuit_stamps  # noqa: E402
from splitflow.case_model import parse_matpower  # noqa: E402
from splitflow.circuit_stamps import (  # noqa: E402
    ControlMode,
    flat_start,
    residual,
    stamp,
)
from splitflow.nr_solver import SPLU, solve_linear  # noqa: E402

SETTINGS = {"scipy-default": {"permc_spec": "COLAMD"}, "SPLU": SPLU}
REPRESENTATIONS = ("csc", "dense")
LOCAL_SPAN = 20
BATCH_S = 0.05  # the least time a round spends on one kind of call
DENSE_PROBE_DIM = 600  # the largest J timed dense


def generated(n_bus, max_span):
    """A ring-plus-chord case of n_bus buses, in case118's proportions."""
    gen_buses = list(range(1, n_bus + 1, 6))
    parts = build(n_bus, gen_buses, round(0.58 * n_bus), 0.19 * n_bus,
                  seed=n_bus, max_span=max_span)
    return parse_matpower(emit(f"ring{n_bus}", n_bus, *parts))


@contextlib.contextmanager
def emitting(representation):
    """A pass's `jacobian()` emits every J in the representation, at any
    size."""
    limit = circuit_stamps.DENSE_MAX_DIM
    circuit_stamps.DENSE_MAX_DIM = sys.maxsize if representation == "dense" else 0
    try:
        yield
    finally:
        circuit_stamps.DENSE_MAX_DIM = limit


def solve(st, representation):
    """A function that emits J from the pass in the representation and
    solves J x = -F; J's structure is ordered before it returns."""
    def call():
        with emitting(representation):
            return solve_linear(st.jacobian(), -st.F)[0]
    call()
    return call


def refill(J, settings):
    """A function that factors J under the settings in the column order
    their first factorization of J keeps."""
    s = copy.copy(J.structure)  # J's own structure keeps no order
    s.keep_order(splu(J, **settings).perm_c)
    numpy.take(J.data, s.gather, out=s.permuted.data)
    ordered = settings | {"permc_spec": "NATURAL"}
    return lambda: splu(s.permuted, **ordered)


def quartiles(values):
    """The first and third quartiles of values, rounded as the medians
    are; a single value is both."""
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q3, 4)]


def probe(name, case, rounds):
    ctl = ControlMode()
    state = flat_start(case, ctl)
    st = stamp(state, ctl)
    with emitting("csc"):
        J = st.jacobian()
    calls = {key: refill(J, settings) for key, settings in SETTINGS.items()}
    for representation in REPRESENTATIONS:
        if representation == "csc" or J.shape[0] <= DENSE_PROBE_DIM:
            calls[representation] = solve(st, representation)
    calls["residual"] = lambda: residual(state, ctl)
    reps, ms = {}, {key: [] for key in calls}
    for key, call in calls.items():
        start = time.perf_counter()
        call()
        reps[key] = max(1, round(BATCH_S / (time.perf_counter() - start)))
    for _ in range(rounds):
        for key, call in calls.items():
            start = time.perf_counter()
            for _ in range(reps[key]):
                call()
            ms[key].append(1e3 * (time.perf_counter() - start) / reps[key])
    record = {"case": name, "dim": J.shape[0], "nnz": int(J.nnz)}
    for key in calls:
        record[key] = {"ms": round(statistics.median(ms[key]), 4),
                       "ms_quartiles": quartiles(ms[key])}
    record.setdefault("dense", None)
    for key in SETTINGS:
        lu = calls[key]()
        record[key]["fill"] = int(lu.L.nnz + lu.U.nnz)
    print(json.dumps(record), file=sys.stderr)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", nargs="+", type=int,
                    default=[30, 45, 60, 65, 70, 75, 90, 105, 125, 1000, 2000,
                             5000])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("BENCH_lu.json"))
    args = ap.parse_args(argv)
    cases = [("case118", parse_matpower((CASES / "case118.m").read_text()))]
    for n_bus in args.sizes:
        cases.append((f"ring{n_bus}-random", generated(n_bus, None)))
        cases.append((f"ring{n_bus}-local{LOCAL_SPAN}",
                      generated(n_bus, LOCAL_SPAN)))
    records = [probe(name, case, args.rounds) for name, case in cases]
    args.out.write_text(json.dumps({
        "command": ("python3 tools/lu_probe.py --sizes "
                    f"{' '.join(map(str, args.sizes))} --rounds {args.rounds}"),
        "settings": SETTINGS,
        "method": (f"J at the flat start; per-call ms is the median over "
                   f"{args.rounds} interleaved rounds, ms_quartiles its first "
                   "and third quartiles, each round timing a batch of "
                   f"at least {BATCH_S * 1e3:g} ms per kind of call: a refill "
                   "under each setting, whose fill is L.nnz + U.nnz, and J "
                   "emitted from the stamp pass as csc or as dense, then "
                   "solve_linear of J x = -F (SuperLU in the kept order, or "
                   f"LAPACK); dense is null above {DENSE_PROBE_DIM} unknowns; "
                   "residual is the stamp pass, F alone"),
        "dense_max_dim": circuit_stamps.DENSE_MAX_DIM,
        "hardware": {"cpu": cpu_model(), "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "processes": 1, "blas_threads": 1},
        "records": records,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
