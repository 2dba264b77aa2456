"""Record the reference solution of every input the workloads can issue.

    python3 perfbench/record_reference.py

writes perfbench/reference.json: the bus voltages (interleaved V_real,
V_imag per bus, rounded to 1e-10 pu) of each solve, keyed by Solve.key.
Run it only at a commit whose solutions are trusted; the benchmark
checks every timed solve against this file.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from harness import REFERENCE_PATH, load_cases, run_solve, voltages  # noqa: E402
from workloads import WORKLOAD_CASES, all_inputs, prepare_inputs  # noqa: E402


def main() -> int:
    solutions = {}
    for workload, names in WORKLOAD_CASES.items():
        cases = load_cases(names)
        solves = all_inputs(workload, cases)
        inputs = prepare_inputs(solves, cases)
        for s in solves:
            result = run_solve(s, inputs[(s.case, s.agc, s.level)])
            if not result.report.converged:
                print(f"not converged: {s.key}", file=sys.stderr)
                return 1
            solutions[s.key] = [round(float(v), 10) for v in voltages(result)]
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(solutions.items())]
    REFERENCE_PATH.write_text(
        '{"solutions": {\n'
        + ",\n".join(lines) + "\n}}\n"
    )
    print(f"{len(solutions)} solutions written to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
