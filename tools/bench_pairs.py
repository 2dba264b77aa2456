#!/usr/bin/env python3
"""Run the benchmark in pairs on two checkouts and summarise the runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads n1-screen continuation-hard small-mix \\
        --seeds 101-110 --seconds 20 --out BENCH_<n>.json

For each workload and seed, `perfbench/run.py --trace 0` runs once in
each checkout, one after the other: the change goes first at odd seeds
and the parent at even ones, so a drift in machine speed falls on both
sides alike. The end-to-end metrics are those of the change's
BENCHMARK.json. The output file holds, per workload and metric, the
median and inclusive quartiles of each side, the number of pairs in
which the change is strictly better (ties count for neither) and every
run in seed order; --note describes the change there.
"""

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys

import numpy
import scipy


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(checkout, workload, seed, seconds):
    """The last stdout line of one benchmark run, as JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path)
    ap.add_argument("--change", required=True, type=pathlib.Path)
    ap.add_argument("--workloads", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--note", default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    workloads = {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ["change", "parent"] if seed % 2 else ["parent", "change"]
            for side in order:
                r = run(getattr(args, side), workload, seed, args.seconds)
                runs[side].append(r)
                print(f"{workload} seed {seed} {side}: correct {r['correct']}, "
                      f"wall_s {r['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
        table = {}
        for name, better in metrics.items():
            got = {side: [r["metrics"][name]["value"] for r in rs]
                   for side, rs in runs.items()}
            wins = sum((c < p) if better == "lower" else (c > p)
                       for p, c in zip(got["parent"], got["change"]))
            table[name] = {
                "parent": summary(got["parent"]),
                "change": summary(got["change"]),
                "change_better_in": f"{wins}/{len(seeds)}",
                "parent_runs": [round(v, 4) for v in got["parent"]],
                "change_runs": [round(v, 4) for v in got["change"]],
            }
        every = runs["parent"] + runs["change"]
        workloads[workload] = {
            "seeds": seeds,
            "every_solve_correct": all(r["correct"] for r in every),
            "failed_solves": sum(r["failed"] for r in every),
            "metrics": table,
        }

    args.out.write_text(json.dumps({
        "change": args.note,
        "command": ("python3 perfbench/run.py --workload <name> --seed <n> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "method": (f"{len(seeds)} pairs per workload at seeds {args.seeds}, "
                   "each pair one run in the parent checkout and one in the "
                   "change, alternating which side runs first (the change "
                   "first at odd seeds); quartiles are the inclusive "
                   "quartiles of the runs; change_better_in counts pairs "
                   "where the change is strictly better (ties count for "
                   "neither); parent_runs and change_runs list every run in "
                   "seed order"),
        "hardware": {"cpu": cpu_model(), "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "processes": 1},
        "claimed": None,
        "workloads": workloads,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
