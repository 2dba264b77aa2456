#!/usr/bin/env python3
"""Time and size the sparse LU of J under two SuperLU settings.

    python3 tools/lu_probe.py --sizes 1000 2000 --rounds 5 --out BENCH_lu.json

The settings are scipy's defaults (COLAMD column order, SuperLU's
supernode and panel sizes, pivot threshold 1) and `nr_solver.SPLU`. Each
matrix is J at the flat start of case118 and of generated cases
(`make_cases.build`: a ring plus chords, a generator every sixth bus) at
each size, once with random chords and once with chords between buses at
most LOCAL_SPAN apart. The generated cases are built at run time and not
written anywhere.

Each setting factors J as `nr_solver._factor` does: the first
factorization orders the columns and keeps that order, and the timed
refills factor the kept permuted matrix in NATURAL order. A round times
a batch of refills under each setting in turn; the record holds the
median per-refill ms over the rounds and the refill's fill (entries of
L plus entries of U).
"""

import argparse
import copy
import json
import pathlib
import platform
import statistics
import sys
import time

import numpy
import scipy
from scipy.sparse.linalg import splu

from bench_pairs import cpu_model
from make_cases import CASES, build, emit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from splitflow.case_model import parse_matpower  # noqa: E402
from splitflow.circuit_stamps import assemble, base_control, flat_start  # noqa: E402
from splitflow.nr_solver import SPLU  # noqa: E402

SETTINGS = {"scipy-default": {"permc_spec": "COLAMD"}, "SPLU": SPLU}
LOCAL_SPAN = 20
BATCH_S = 0.05  # the least time a round spends on one setting


def generated(n_bus, max_span):
    """A ring-plus-chord case of n_bus buses, in case118's proportions."""
    gen_buses = list(range(1, n_bus + 1, 6))
    parts = build(n_bus, gen_buses, round(0.58 * n_bus), 0.19 * n_bus,
                  seed=n_bus, max_span=max_span)
    return parse_matpower(emit(f"ring{n_bus}", n_bus, *parts))


def refill(J, settings):
    """A function that factors J under the settings in the column order
    their first factorization of J keeps."""
    s = copy.copy(J.structure)  # J's own structure keeps no order
    s.keep_order(splu(J, **settings).perm_c)
    numpy.take(J.data, s.gather, out=s.permuted.data)
    ordered = settings | {"permc_spec": "NATURAL"}
    return lambda: splu(s.permuted, **ordered)


def probe(name, case, rounds):
    ctl = base_control(case)
    J = assemble(case, flat_start(case, ctl), ctl)[1]
    calls = {key: refill(J, settings) for key, settings in SETTINGS.items()}
    reps, ms = {}, {key: [] for key in SETTINGS}
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
    for key, call in calls.items():
        lu = call()
        record[key] = {"ms": round(statistics.median(ms[key]), 4),
                       "fill": int(lu.L.nnz + lu.U.nnz)}
    print(json.dumps(record), file=sys.stderr)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", nargs="+", type=int, default=[1000, 2000])
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
        "method": (f"J at the flat start; per-refill ms is the median over "
                   f"{args.rounds} interleaved rounds, each timing a batch of "
                   f"at least {BATCH_S * 1e3:g} ms per setting; fill is "
                   "L.nnz + U.nnz of a refill"),
        "hardware": {"cpu": cpu_model(), "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "processes": 1},
        "records": records,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
