#!/usr/bin/env python3
"""Run every pipeline on every small case and print one line per run.

    python3 tools/pipeline_census.py > census.tsv
    python3 tools/pipeline_census.py --against census.tsv

The cases are the bundled ones (tests/cases) and those the test builders
in tests/conftest.py make. Each runs with distributed slack (AGC) off
and on, under every homotopy method (`p-limit` with AGC only), with and
without snapping, and through the outer loop in both switching orders.
A line holds the case, AGC, the method (`outer-<order>` for the outer
loop), snap, whether the run converged, its NR iterations and its
residual evaluations; a run that raises prints `error` for all three.
The last line holds the totals.

With --against, the lines of an earlier census are read from the file and
every run that converged there but not now, or converged in more NR
iterations or residual evaluations now, is listed; the exit status is 1
if there is one. The `against` line counts the lost runs, those with
more NR iterations and those with more evaluations apart, and totals
both counts over the runs converged in both. A census recorded without
the evaluations (six columns) is compared on NR iterations alone.
"""

import argparse
import pathlib
import sys
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from splitflow.cli_reporting import run_baseline, run_continuous  # noqa: E402
from splitflow.errors import SplitflowError  # noqa: E402
from splitflow.homotopy_driver import METHODS  # noqa: E402
from splitflow.nr_solver import SolverOptions  # noqa: E402
from tests import conftest  # noqa: E402

BUILDERS = {
    "two_bus": conftest.two_bus_case,
    "three_bus_pv": conftest.three_bus_pv_case,
    "remote_pair": conftest.remote_pair_case,
    "tapped_secondary": lambda: conftest.tapped_case("secondary"),
    "tapped_primary": lambda: conftest.tapped_case("primary"),
    "shunted": conftest.shunt_case,
    "lossless_agc": conftest.lossless_agc_case,
    "qlimit_rescue": conftest.qlimit_rescue_case,
    "stiff_feeder": conftest.stiff_feeder_case,
}
ORDERS = ("smallest-first", "largest-first")


def cases():
    yield from ((n, conftest.load_matpower(n)) for n in conftest.MATPOWER_CASES)
    yield from ((n, conftest.load_native(n)) for n in conftest.NATIVE_CASES)
    yield from ((n, build()) for n, build in BUILDERS.items())


def runs():
    """(case, agc, method, snap, pipeline) for every run of the census."""
    for name, case in cases():
        for agc in (False, True):
            on = replace(case, agc_enabled=agc)
            for method in METHODS:
                if method == "p-limit" and not agc:
                    continue
                for snap in (False, True):
                    yield name, agc, method, snap, (
                        lambda c=on, m=method, s=snap:
                        run_continuous(c, SolverOptions(), method=m, snap=s))
            for order in ORDERS:
                yield name, agc, f"outer-{order}", False, (
                    lambda c=on, o=order: run_baseline(c, SolverOptions(), o))


def census():
    """The census's lines, as printed, without the totals."""
    lines = []
    for name, agc, method, snap, pipeline in runs():
        try:
            report = pipeline().report
            outcome = (str(report.converged).lower(), str(report.iterations),
                       str(report.residual_evals))
        except SplitflowError:
            outcome = ("error",) * 3
        lines.append("\t".join((name, f"agc={'on' if agc else 'off'}", method,
                                f"snap={'on' if snap else 'off'}", *outcome)))
    return lines


def converged_counts(lines):
    """{run: (NR iterations, residual evaluations)} of the run lines that
    converged, the evaluations None on a six-column line; other lines
    (the totals, a comparison) are skipped."""
    out = {}
    for line in lines:
        fields = line.split("\t")
        if len(fields) in (6, 7) and fields[4] == "true":
            evals = int(fields[6]) if len(fields) == 7 else None
            out[tuple(fields[:4])] = (int(fields[5]), evals)
    return out


def worse(before, now):
    """(run, counts before, counts now or None) for each run that
    converged before and now did not, or took more NR iterations or
    residual evaluations than recorded."""
    return [(key, was, now.get(key)) for key, was in before.items()
            if now.get(key) is None or now[key][0] > was[0]
            or was[1] is not None and now[key][1] > was[1]]


def against_line(before, now):
    """The comparison's summary: runs converged before; of those, the
    runs lost (or raised), those with more NR iterations and those with
    more residual evaluations, each counted apart; and both counts'
    totals over the runs converged in both (evaluations over the runs
    recorded with them)."""
    both = before.keys() & now.keys()
    counted = [k for k in both if before[k][1] is not None]
    more_it = sum(now[k][0] > before[k][0] for k in both)
    more_ev = sum(now[k][1] > before[k][1] for k in counted)
    return (f"against\t{len(before)} converged before\t"
            f"{len(before) - len(both)} lost or raised\t{more_it} with more "
            f"NR iterations\t{more_ev} with more residual evaluations\t"
            f"{sum(before[k][0] for k in both)} -> "
            f"{sum(now[k][0] for k in both)} NR iterations and "
            f"{sum(before[k][1] for k in counted)} -> "
            f"{sum(now[k][1] for k in counted)} residual evaluations of runs "
            "converged in both")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=pathlib.Path, default=None,
                    help="an earlier census to compare with")
    args = ap.parse_args(argv)
    lines = census()
    now = converged_counts(lines)
    for line in lines:
        print(line)
    print(f"total\t{len(lines)} runs\t{len(now)} converged\t"
          f"{sum(it for it, _ in now.values())} NR iterations and "
          f"{sum(ev for _, ev in now.values())} residual evaluations of "
          "converged runs")
    if args.against is None:
        return 0
    before = converged_counts(args.against.read_text().splitlines())
    flagged = worse(before, now)
    for key, was, later in flagged:
        print(f"worse\t{' '.join(key)}\t{was} -> "
              f"{'not converged' if later is None else later}")
    print(against_line(before, now))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
