"""Run solves through the CLI's own pipeline and check them.

Each solve calls what `splitflow solve` calls: the contingency, then
`run_continuous` or `run_baseline`, then `summary_lines`, with the CLI
defaults (SolverOptions() and smoothing 5000). Its bus voltages are then
compared with the recorded reference solution. Each solve's time is
kept as measured and at nominal machine speed (see calibration.py).
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass

import numpy as np

# Called through the module, so that tracing.Tracer's wrappers are seen.
from splitflow import cli_reporting
from splitflow.nr_solver import SolverOptions

import calibration
from workloads import CASE_DIR, CASE_FILES, Solve

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"

SMOOTHING = 5000.0
# Pipelines agree to about 1e-12 pu on case118, so a disagreement beyond
# this means a different equilibrium, not round-off.
TOLERANCE_PU = 1e-6


def load_cases(names) -> dict:
    return {n: cli_reporting.load_case(str(CASE_DIR / CASE_FILES[n]))
            for n in names}


def run_solve(solve: Solve, case):
    """Solve as the CLI does and return the PipelineResult."""
    opts = SolverOptions()
    if solve.drop_bus is not None:
        case = case.drop_generator(solve.drop_bus)
    if solve.pipeline.startswith("outer-"):
        order = solve.pipeline[len("outer-"):]
        result = cli_reporting.run_baseline(case, opts, order=order,
                                            smoothing=SMOOTHING)
        label = "outer-loop"
    else:
        snap = solve.pipeline == "snap"
        result = cli_reporting.run_continuous(
            case, opts, method="none" if snap else solve.pipeline,
            smoothing=SMOOTHING, snap=snap)
        label = "continuous"
    cli_reporting.summary_lines(result, label=label)  # what the CLI prints
    return result


def voltages(result) -> np.ndarray:
    """Interleaved (V_real, V_imag) of every bus."""
    return result.state.x[: result.state.index.voltage_dim()]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["solutions"]


def check(solve: Solve, result, reference: dict) -> str | None:
    """None when the solve converged to the reference solution, else why not."""
    if not result.report.converged:
        return "not converged"
    ref = reference.get(solve.key)
    if ref is None:
        return "no reference solution"
    v = voltages(result)
    ref = np.asarray(ref)
    if v.shape != ref.shape:
        return f"{v.size // 2} buses, reference has {ref.size // 2}"
    dv = np.abs((v[0::2] - ref[0::2]) + 1j * (v[1::2] - ref[1::2])).max()
    if dv > TOLERANCE_PU:
        return f"voltages differ from the reference by {dv:.3e} pu"
    return None


@dataclass
class Row:
    """One timed solve, as printed and written to the results file."""

    case: str
    pipeline: str
    level: float
    drop_bus: int | None
    converged: bool = False
    iterations: int = 0
    ms: float = 0.0  # as measured
    nominal_ms: float = 0.0  # at nominal machine speed
    error: str | None = None


def run_pass(solves, inputs, reference) -> list[Row]:
    """Issue the solves one after another; time and check each."""
    rows = []
    cal_before = calibration.sample()
    for s in solves:
        row = Row(s.case, s.pipeline, s.level, s.drop_bus)
        t0 = time.perf_counter()
        try:
            result = run_solve(s, inputs[(s.case, s.agc, s.level)])
        except Exception as exc:  # a failed solve is counted, not fatal
            row.error = f"raised {type(exc).__name__}: {exc}"
        else:
            row.converged = result.report.converged
            row.iterations = result.report.iterations
        seconds = time.perf_counter() - t0
        cal_after = calibration.sample()
        row.ms = seconds * 1e3
        row.nominal_ms = calibration.nominal(seconds, cal_before,
                                             cal_after) * 1e3
        cal_before = cal_after
        if row.error is None:
            row.error = check(s, result, reference)
        rows.append(row)
    return rows
