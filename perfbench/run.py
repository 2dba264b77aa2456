#!/usr/bin/env python3
"""The splitflow benchmark: one closed-loop workload, timed and checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The checkout is the parent of this file's directory: the package is
imported from its src/ and the bundled cases are read from tests/cases.
One process and one thread issue the workload's solves one after
another. After an untimed warm-up pass, whole passes repeat until
--seconds have elapsed. Every solve is checked against
perfbench/reference.json.

--trace 0 reports the end-to-end metrics, with no tracing:
  setup_s           import plus case loading in a fresh process (median of 7)
  wall_s            time of one pass (median over passes)
  solve_ms.geomean  geometric mean of the solve times
  nr_iterations     SolveReport.iterations summed over one pass
  ok_frac           share of timed solves that did not fail
  peak_rss_mb       peak resident memory of this process
The geometric mean stands in for the median solve time because
continuation-hard's six solves form two clusters (about 0.3 s and above
0.8 s) and its median, which averages one of each, moved twice as much
between runs. The median and a high percentile are printed as well.
The three times are at nominal machine speed (see calibration.py); the
measured times are printed and kept in the results file too.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see tracing.py): self times as
measured, the traced pass time as measured (trace.wall_s), and the
tracing overhead, traced minus untraced pass time at nominal speed.

Per-solve rows of the first timed pass are printed; all rows, the
environment and (when traced) the spans go to perfbench/results/. The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.
"""

import os

# Pinned before numpy loads, here and in the set-up probes started below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7

import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOAD_CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str) -> tuple[float, float]:
    """Median over fresh processes of import plus case loading, in seconds
    at nominal speed and as measured."""
    nominal, measured = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, check=True, timeout=120,
        )
        nom, raw = out.stdout.split()
        nominal.append(float(nom))
        measured.append(float(raw))
    return statistics.median(nominal), statistics.median(measured)


def wall(rows, field: str) -> float:
    """Seconds one pass took: the sum of its solves' times in ms."""
    return sum(getattr(r, field) for r in rows) / 1e3


def high_percentile(values) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 80, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f" p{p}={q:.3f}"
    return ""


def print_rows(rows) -> None:
    print(f"{'case':<13} {'pipeline':<20} {'level':>5} {'drop':>4} "
          f"{'conv':>5} {'iter':>5} {'ms':>10} {'nominal_ms':>10}  check")
    for r in rows:
        drop = "-" if r.drop_bus is None else r.drop_bus
        print(f"{r.case:<13} {r.pipeline:<20} {r.level:>5.2f} {drop:>4} "
              f"{str(r.converged).lower():>5} {r.iterations:>5} "
              f"{r.ms:>10.3f} {r.nominal_ms:>10.3f}  {r.error or 'ok'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "splitflow" / "__init__.py").is_file() or not (
            ROOT / "tests" / "cases").is_dir():
        print(f"error: {ROOT} is not a splitflow checkout "
              "(src/splitflow or tests/cases is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup = None if args.trace else measure_setup(args.workload)

    import numpy
    import scipy

    import harness

    names = workloads.WORKLOAD_CASES[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            cases = harness.load_cases(names)
        load_times = tracing.self_times(tracer.spans)
    else:
        cases = harness.load_cases(names)
    solves = workloads.make_solves(args.workload, args.seed, cases)
    inputs = workloads.prepare_inputs(solves, cases)
    reference = harness.load_reference()

    warm_failed = sum(r.error is not None
                      for r in harness.run_pass(solves, inputs, reference))

    passes, traced, traced_metrics = [], [], []
    t_start = time.perf_counter()
    while True:
        passes.append(harness.run_pass(solves, inputs, reference))
        if tracer is not None:
            lo = len(tracer.spans)
            with tracer:
                traced.append(harness.run_pass(solves, inputs, reference))
            traced_metrics.append(tracing.pass_metrics(
                tracer.spans, lo, len(tracer.spans), wall(traced[-1], "ms")))
        if time.perf_counter() - t_start >= args.seconds:
            break

    rows = [r for p in passes + traced for r in p]

    attempted = len(rows)
    failed = sum(r.error is not None for r in rows)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    walls = [wall(p, "nominal_ms") for p in passes]
    if tracer is None:
        metrics = {
            "setup_s": (setup[0], "s"),
            "wall_s": (statistics.median(walls), "s"),
            "solve_ms.geomean": (
                statistics.geometric_mean(r.nominal_ms for r in rows), "ms"),
            "nr_iterations": (statistics.median_low(
                sum(r.iterations for r in p) for p in passes), "count"),
            "ok_frac": (1.0 - failed / attempted, "fraction"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    else:
        layer = tracing.median_metrics(traced_metrics)
        calls, parse_s = load_times.get("case_model.parse", (0, 0.0))
        layer["case_model.parse.calls"] = calls
        layer["case_model.parse.self_s"] = parse_s
        layer["trace.wall_s"] = statistics.median(
            wall(p, "ms") for p in traced)
        layer["trace.overhead_s"] = statistics.median(
            wall(p, "nominal_ms") for p in traced) - statistics.median(walls)
        metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}

    print(f"env: {json.dumps(env)}")
    print_rows(rows[:len(solves)])
    ms = [r.nominal_ms for r in rows]
    print(f"solves at nominal speed: n={len(ms)} "
          f"p50={statistics.median(ms):.3f}{high_percentile(ms)} ms")
    print(f"passes: {len(passes)} untraced, {len(traced)} traced; "
          f"pass time as measured: median "
          f"{statistics.median(wall(p, 'ms') for p in passes):.3f} s"
          + (f"; set-up as measured: {setup[1]:.3f} s" if setup else "")
          + f"; warm-up failures: {warm_failed}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "args": vars(args),
        "env": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "setup_s": setup,
        "rows": [dataclasses.asdict(r) for r in rows],
        "spans": tracer.dump() if tracer is not None else [],
    }))

    print(json.dumps({
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
