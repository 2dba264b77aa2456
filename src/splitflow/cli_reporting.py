"""Command-line entry point and machine-readable reporting.

Exit status contract: 0 converged, 1 not converged, 2 input error.
The summary is key/value text (one record per solve); the optional CSV
trace has a fixed header suitable for plotting convergence and switching
behavior externally.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field, replace

import click
import numpy as np
from click.core import ParameterSource

from .baseline_outer_loop import classify_stability, solve_outer_loop
from .case_model import NetworkCase, parse_matpower, parse_native
from .circuit_stamps import (
    STEEPNESS_FLOOR,
    ControlMode,
    StateVector,
    classify_regions,
    slack_participation,
)
from .discrete_control import resolve_after_snap
from .errors import SplitflowError
from .homotopy_driver import METHODS, run_homotopy
from .nr_solver import SolveReport, SolverOptions

SUMMARY_VERSION = 3

# t is empty outside a continuation; accepted is 1 when the continuation
# took the sub-solve the row belongs to, 0 when it backed the step off;
# alpha is the line-search step the iteration took (1 = the full Newton
# step, halved per rejected trial; 0 when no trial was taken)
TRACE_COLUMNS = [
    "phase", "outer_iter", "inner_iter", "lambda_s", "lambda_g_max",
    "lambda_p", "lambda_tx", "max_residual", "max_step", "pv_to_pq",
    "pq_to_pv", "t", "accepted", "alpha",
]


@dataclass
class PipelineResult:
    case: NetworkCase
    state: StateVector
    report: SolveReport
    stability: dict = field(default_factory=dict)
    switch_trace: object = None
    snap_plan: object = None


def load_case(path: str, fmt: str | None = None) -> NetworkCase:
    """Parse a case file; format inferred from the extension by default."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt is None:
        fmt = "native" if path.endswith((".json", ".native")) else "matpower"
    if fmt == "matpower":
        return parse_matpower(text, name=path)
    return parse_native(text, name=path)


def run_continuous(
    case: NetworkCase,
    opts: SolverOptions,
    method: str = "none",
    smoothing: float = 5000.0,
    snap: bool = False,
) -> PipelineResult:
    base = ControlMode(smoothing=smoothing)
    state, report = run_homotopy(case, method, opts, base)
    plan = None
    if snap and report.converged:
        state, snapped, plan = resolve_after_snap(case, state, opts, base)
        report.add(snapped)
    return PipelineResult(case, state, report,
                          stability=classify_stability(case, state),
                          snap_plan=plan)


def run_baseline(
    case: NetworkCase,
    opts: SolverOptions,
    order: str = "smallest-first",
    smoothing: float = 5000.0,
) -> PipelineResult:
    base = ControlMode(smoothing=smoothing)
    state, report, strace = solve_outer_loop(case, opts, order, base)
    return PipelineResult(case, state, report,
                          stability=classify_stability(case, state),
                          switch_trace=strace)


def voltage_extrema(state: StateVector):
    """(v_max, v_min, theta_max_deg, theta_min_deg) over all buses, the
    angles relative to the slack's."""
    v = state.x[:state.index.voltage_dim()]
    re, im = v[0::2], v[1::2]
    vm = np.hypot(re, im)
    th = np.arctan2(im, re)
    # the extreme angles again by libm, which numpy's atan2 can miss by an
    # ulp, so the figures are those of math.atan2 bus by bus; less the
    # slack's, so a rounding error in its V_I = 0 row reads as 0
    tmax, tmin, slack = (math.degrees(math.atan2(im[i], re[i]))
                         for i in (th.argmax(), th.argmin(),
                                   state.index.slack_pos))
    return float(vm.max()), float(vm.min()), tmax - slack, tmin - slack


def summary_lines(result: PipelineResult, label: str = "") -> list[str]:
    case, state, report = result.case, result.state, result.report
    vmax, vmin, tmax, tmin = voltage_extrema(state)
    ctl = ControlMode()
    regions = classify_regions(state, ctl)
    if result.snap_plan is not None:
        # a snapped device holds a step, not a region
        for key in ([("shunt", j) for j in result.snap_plan.shunt_b]
                    + [("tap", bi) for bi in result.snap_plan.tap_ratio]):
            del regions[key]
    unstable = sum(1 for s in result.stability.values() if s == "unstable")
    lines = [
        f"summary_version: {SUMMARY_VERSION}",
        f"case: {case.name}",
        f"pipeline: {label}" if label else "pipeline: continuous",
        f"converged: {'true' if report.converged else 'false'}",
        f"iterations: {report.iterations}",
        f"outer_iterations: {report.outer_iterations}",
        f"stalled_subsolves: {report.stalled_subsolves}",
        f"continuation_backtracks: {report.continuation_backtracks}",
        f"residual_evals: {report.residual_evals}",
        f"line_search_backtracks: {report.line_search_backtracks}",
        f"final_residual: {report.final_residual:.3e}",
        f"v_max_pu: {vmax:.6f}",
        f"v_min_pu: {vmin:.6f}",
        f"theta_max_deg: {tmax:.4f}",
        f"theta_min_deg: {tmin:.4f}",
        f"devices_at_min: {sum(1 for r in regions.values() if r == 'at-min')}",
        f"devices_at_max: {sum(1 for r in regions.values() if r == 'at-max')}",
        f"devices_controlling: "
        f"{sum(1 for r in regions.values() if r == 'controlling')}",
        f"unstable_generators: {unstable}",
    ]
    for key in sorted(regions, key=str):
        lines.append(f"region.{key[0]}.{key[1]}: {regions[key]}")
    if result.snap_plan is not None:
        for j, b in sorted(result.snap_plan.shunt_b.items()):
            lines.append(f"snapped.shunt.{j}: {b:.6f}")
        for bi, tr in sorted(result.snap_plan.tap_ratio.items()):
            lines.append(f"snapped.tap.{bi}: {tr:.6f}")
    idx = state.index
    if idx.dps_col is not None:
        dps = float(state.x[idx.dps_col])
        lines.append(f"slack_surplus_pu: {dps:.6f}")
        dp, _ = slack_participation(ctl, idx, dps)
        for i, extra in zip(idx.agc_member_idx, dp.tolist()):
            g = case.generators[i]
            lines.append(
                f"dispatch.{g.bus}: {(g.p_g + extra) * case.s_base:.2f}"
            )
    return lines


def write_trace(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in rows:
            writer.writerow([
                r.phase, r.outer_iter, r.inner_iter,
                f"{r.lambda_s:.6g}", f"{r.lambda_g_max:.6g}",
                f"{r.lambda_p:.6g}", f"{r.lambda_tx:.6g}",
                f"{r.max_residual:.6e}", f"{r.max_step:.6e}",
                r.pv_to_pq, r.pq_to_pv,
                "" if r.t is None else f"{r.t:.6g}", int(r.accepted),
                f"{r.alpha:.6g}",
            ])


def _apply_contingency(case: NetworkCase, spec: str) -> NetworkCase:
    kind, _, bus = spec.partition(":")
    if kind != "drop-gen":
        raise ValueError(
            f"unknown contingency {spec!r}; expected drop-gen:<bus-id>")
    try:
        bus_id = int(bus)
    except ValueError:
        raise ValueError(f"contingency {spec!r}: the bus id must be an "
                         f"integer") from None
    return case.drop_generator(bus_id)


def _inputs(case_file, fmt, homotopy, smoothing, tol, max_iter, agc=False,
            contingency=None) -> tuple[NetworkCase, SolverOptions]:
    """The case and solver options; any input error exits with status 2."""
    try:
        if not STEEPNESS_FLOOR <= smoothing < math.inf:
            raise ValueError(f"--smoothing must be finite and at least the "
                             f"steepness floor {STEEPNESS_FLOOR:g}")
        case = load_case(case_file, fmt)
        if agc:
            case = replace(case, agc_enabled=True)
        if contingency:
            case = _apply_contingency(case, contingency)
        if homotopy == "p-limit" and not case.agc_enabled:
            raise ValueError("--homotopy p-limit needs distributed slack "
                             "(--agc)")
        return case, SolverOptions(tol_residual=tol, max_iter=max_iter)
    except (OSError, ValueError, SplitflowError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Power flow with continuous device-control models."""


@main.command()
@click.argument("case_file", type=click.Path())
@click.option("--models", type=click.Choice(["continuous", "outer-loop"]),
              default="continuous", show_default=True)
@click.option("--homotopy", type=click.Choice(list(METHODS)), default="none",
              show_default=True)
@click.option("--smoothing", type=float, default=5000.0, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--agc", is_flag=True, help="Enable distributed slack.")
@click.option("--contingency", default=None,
              help="Apply a contingency, e.g. drop-gen:211.")
@click.option("--snap", is_flag=True,
              help="Snap discrete devices and re-solve after convergence.")
@click.option("--order", type=click.Choice(["smallest-first", "largest-first"]),
              default="smallest-first", show_default=True,
              help="Outer-loop switching order.")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write a per-iteration CSV trace.")
@click.option("--format", "fmt", type=click.Choice(["matpower", "native"]),
              default=None, help="Case format (default: by extension).")
def solve(case_file, models, homotopy, smoothing, tol, max_iter, agc,
          contingency, snap, order, trace_path, fmt):
    """Solve one case and print a key/value summary."""
    if models == "outer-loop" and (homotopy != "none" or snap):
        flag = "--snap" if homotopy == "none" else f"--homotopy {homotopy}"
        click.echo(f"error: {flag} is no outer-loop option", err=True)
        sys.exit(2)
    source = click.get_current_context().get_parameter_source("order")
    if models == "continuous" and source is not ParameterSource.DEFAULT:
        click.echo("error: --order is an outer-loop option", err=True)
        sys.exit(2)
    case, opts = _inputs(case_file, fmt, homotopy, smoothing, tol, max_iter,
                         agc, contingency)
    try:
        if models == "continuous":
            result = run_continuous(case, opts, method=homotopy,
                                    smoothing=smoothing, snap=snap)
        else:
            result = run_baseline(case, opts, order=order, smoothing=smoothing)
    except SplitflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    label = models
    for line in summary_lines(result, label=label):
        click.echo(line)
    if trace_path:
        write_trace(trace_path, result.report.trace)
    sys.exit(0 if result.report.converged else 1)


@main.command()
@click.argument("case_file", type=click.Path())
# p-limit needs distributed slack, which compare does not enable
@click.option("--homotopy", default="none", show_default=True,
              type=click.Choice([m for m in METHODS if m != "p-limit"]))
@click.option("--smoothing", type=float, default=5000.0, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--order", type=click.Choice(["smallest-first", "largest-first"]),
              default="smallest-first", show_default=True)
@click.option("--trace", "trace_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["matpower", "native"]),
              default=None)
def compare(case_file, homotopy, smoothing, tol, max_iter, order, trace_path,
            fmt):
    """Run the continuous and outer-loop pipelines side by side."""
    case, opts = _inputs(case_file, fmt, homotopy, smoothing, tol, max_iter)
    columns = {}
    for label, runner in (
        ("continuous", lambda: run_continuous(case, opts, method=homotopy,
                                              smoothing=smoothing)),
        ("outer-loop", lambda: run_baseline(case, opts, order=order,
                                            smoothing=smoothing)),
    ):
        try:
            columns[label] = runner()
        except SplitflowError as exc:
            columns[label] = exc

    rows = []
    for label, res in columns.items():
        if isinstance(res, Exception):
            rows.append((label, "FAILED", "-", "-", "-", "-", "-", "-"))
            continue
        vmax, vmin, tmax, tmin = voltage_extrema(res.state)
        switches = (res.switch_trace.total_switches()
                    if res.switch_trace is not None else 0)
        unstable = sum(1 for s in res.stability.values() if s == "unstable")
        rows.append((
            label,
            "yes" if res.report.converged else "no",
            str(res.report.iterations),
            str(switches),
            f"{vmax:.5f}", f"{vmin:.5f}",
            f"{tmax:.2f}/{tmin:.2f}",
            str(unstable),
        ))
    header = ("pipeline", "converged", "iterations", "switches", "v_max",
              "v_min", "theta_max/min", "unstable")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    click.echo("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        click.echo("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))

    if trace_path:
        all_rows = []
        for res in columns.values():
            if not isinstance(res, Exception):
                all_rows.extend(res.report.trace)
        write_trace(trace_path, all_rows)

    ok = all(not isinstance(r, Exception) and r.report.converged
             for r in columns.values())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
