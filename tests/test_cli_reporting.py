"""The CLI exit-code contract (0 converged, 1 not converged, 2 input
error) and the summary and trace formats."""

import csv
import json
import math
from dataclasses import replace

import pytest
from click.testing import CliRunner

import splitflow.circuit_stamps as circuit_stamps
from splitflow.case_model import parse_native
from splitflow.cli_reporting import (
    SUMMARY_VERSION,
    TRACE_COLUMNS,
    main,
    run_baseline,
    run_continuous,
    summary_lines,
    voltage_extrema,
)
from splitflow.discrete_control import resolve_after_snap
from splitflow.homotopy_driver import METHODS
from splitflow.nr_solver import SolverOptions
from tests.conftest import (
    CASE_DIR,
    load_matpower,
    load_native,
    patch_function,
    patch_nr_solve,
    tapped_case,
    two_bus_case,
    zero_factor_remote_pair_text,
)


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_input_error(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "Traceback" not in result.output


def test_converged_exits_0():
    result = run("solve", CASE_DIR / "case9.m")
    assert result.exit_code == 0
    assert "converged: true" in result.stdout


def test_not_converged_exits_1():
    # the two-bus load is past the nose, so no solver can converge; plain
    # NR from the DC angles runs out its iterations at max|F| 0.598
    result = run("solve", CASE_DIR / "two_bus_no_solution.native.json")
    assert result.exit_code == 1
    assert "converged: false" in result.stdout
    assert "final_residual: 5.977e-01" in result.stdout


def test_voltage_extrema_are_the_bus_by_bus_figures():
    # the vectorized extrema equal, bit for bit, those of each bus's
    # complex voltage through math, the angles less the slack's
    case = load_matpower("case118")
    state = run_continuous(case, SolverOptions(), method="q-limit").state
    v = [state.v_complex(pos) for pos in range(len(case.buses))]
    mags = [abs(x) for x in v]
    angles = [math.degrees(math.atan2(x.imag, x.real)) for x in v]
    slack = angles[state.index.slack_pos]
    assert voltage_extrema(state) == (max(mags), min(mags),
                                      max(angles) - slack,
                                      min(angles) - slack)


def test_slack_angle_rounding_reads_as_zero():
    # the slack holds the largest angle on case14; a rounding error in
    # its V_I = 0 row leaves no negative zero in the summary
    result = run_continuous(load_matpower("case14"), SolverOptions())
    result.state.x[2 * result.state.index.slack_pos + 1] = -1e-17
    assert "theta_max_deg: 0.0000" in summary_lines(result)


def test_dead_end_names_the_rule_that_ended_it():
    # tx gets stuck past the nose; the error names the last failed
    # sub-solve and the rule that ended it: an iteration whose line
    # search lowered no max|F|
    result = run("solve", CASE_DIR / "two_bus_no_solution.native.json",
                 "--homotopy", "tx")
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [
        "error: tx: stuck at t = 0.0170593: no step of 1.5e-05 or longer "
        "converges; last sub-solve: stalled after 4 iterations, no "
        "line-search trial of the last lowered max|F|, residual 1.225e-03"]


def test_no_solution_case_is_the_two_bus_case_past_the_nose():
    text = (CASE_DIR / "two_bus_no_solution.native.json").read_text()
    assert parse_native(text) == replace(two_bus_case(p_load=5.0),
                                         name="two_bus_no_solution")


@pytest.mark.parametrize("bad", ["nan", "inf", "-Inf"])
def test_non_finite_matpower_number_is_input_error(tmp_path, bad):
    text = (CASE_DIR / "case9.m").read_text()
    path = tmp_path / "case9_bad.m"
    # bus 5's Pd
    path.write_text(text.replace("5\t1\t90\t30", f"5\t1\t{bad}\t30", 1))
    result = run("solve", path)
    assert_input_error(result)
    assert "not finite" in result.stderr


def test_fractional_matpower_bus_id_is_input_error(tmp_path):
    text = (CASE_DIR / "case9.m").read_text()
    path = tmp_path / "case9_bad.m"
    # bus 5's id
    path.write_text(text.replace("5\t1\t90\t30", "5.5\t1\t90\t30", 1))
    result = run("solve", path)
    assert_input_error(result)
    assert "bus id 5.5 is not an integer" in result.stderr


def native_with(tmp_path, keys, value):
    """discrete4 as a native file, with the entry at the path keys set to
    value."""
    doc = json.loads((CASE_DIR / "discrete4.native.json").read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.native.json"
    path.write_text(json.dumps(doc))
    return path


def test_fractional_native_bus_id_is_input_error(tmp_path):
    result = run("solve", native_with(tmp_path, ("buses", 1, "id"), 2.5))
    assert_input_error(result)
    assert "buses[1].id 2.5 is not an integer" in result.stderr


@pytest.mark.parametrize("keys,value,message", [
    (("buses",), [1], "buses[0]: expected an object, got int"),
    (("buses",), {}, "case.buses: expected a list, got dict"),
    (("branches", 0, "tap"), 5, "branches[0].tap: expected an object, got int"),
    (("buses", 0, "id"), True, "buses[0].id: expected a number, got bool"),
    (("loads", 0, "p"), False, "loads[0].p: expected a number, got bool"),
    (("buses", 0, "v_init"), [1.0], "buses[0].v_init: expected a [real, imag]"),
    (("agc_enabled",), "false", "case.agc_enabled: expected a boolean"),
    (("loads", 0, "p"), "7.5", "loads[0].p: expected a number, got str"),
    (("generators", 0, "agc_factr"), 0.2,
     "generators[0]: unknown field 'agc_factr'"),
])
def test_malformed_native_record_is_input_error(tmp_path, keys, value, message):
    result = run("solve", native_with(tmp_path, keys, value))
    assert_input_error(result)
    assert message in result.stderr


def test_non_finite_native_number_is_input_error(tmp_path):
    doc = json.loads((CASE_DIR / "discrete4.native.json").read_text())
    doc["branches"][0]["g"] = float("inf")
    path = tmp_path / "bad.native.json"
    path.write_text(json.dumps(doc))
    result = run("solve", path)
    assert_input_error(result)
    assert "branches[0].g" in result.stderr


def test_unconvertible_native_number_is_input_error(tmp_path):
    doc = json.loads((CASE_DIR / "discrete4.native.json").read_text())
    doc["loads"][0]["p"] = "abc"
    path = tmp_path / "bad.native.json"
    path.write_text(json.dumps(doc))
    result = run("solve", path)
    assert_input_error(result)
    assert "loads[0].p" in result.stderr


def test_zero_participation_factor_is_input_error(tmp_path):
    path = tmp_path / "remote_pair.native.json"
    path.write_text(zero_factor_remote_pair_text())
    result = run("solve", path)
    assert_input_error(result)
    assert "participation factor 0.0" in result.stderr


@pytest.mark.parametrize("args, flag", [
    (("--homotopy", "tx", "--snap"), "--homotopy tx"),
    (("--homotopy", "q-limit"), "--homotopy q-limit"),
    (("--snap",), "--snap")])
def test_continuous_flag_with_outer_loop_is_input_error(args, flag):
    # the outer loop runs no homotopy and snaps nothing: a flag that would
    # be ignored is refused
    result = run("solve", CASE_DIR / "case9.m", "--models", "outer-loop",
                 *args)
    assert_input_error(result)
    assert f"error: {flag} is no outer-loop option" in result.stderr


@pytest.mark.parametrize("order", ["smallest-first", "largest-first"])
def test_order_with_continuous_models_is_input_error(order):
    # --order would be ignored by the continuous pipeline, the default
    # --models: given, even at its default value, it is refused
    result = run("solve", CASE_DIR / "case9.m", "--order", order)
    assert_input_error(result)
    assert "error: --order is an outer-loop option" in result.stderr
    assert "pipeline:" not in result.stdout


def test_order_with_outer_loop_models_solves():
    result = run("solve", CASE_DIR / "case9.m", "--models", "outer-loop",
                 "--order", "largest-first")
    assert result.exit_code == 0, result.output
    assert "pipeline: outer-loop" in result.stdout.splitlines()


def test_order_left_at_its_default_solves():
    result = run("solve", CASE_DIR / "case9.m")
    assert result.exit_code == 0, result.output
    assert "pipeline: continuous" in result.stdout.splitlines()


def test_p_limit_without_agc_is_input_error():
    assert_input_error(run("solve", CASE_DIR / "case9.m",
                           "--homotopy", "p-limit"))


def test_compare_offers_no_p_limit():
    # p-limit needs distributed slack, and compare has no --agc: click
    # refuses the method with a usage error that lists the valid ones
    result = run("compare", CASE_DIR / "case9.m", "--homotopy", "p-limit")
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--homotopy'" in result.stderr
    valid = [m for m in METHODS if m != "p-limit"]
    assert valid and all(f"'{m}'" in result.stderr for m in valid)
    assert "p-limit" not in result.stderr.split("is not one of")[1]
    assert "pipeline" not in result.stdout


@pytest.mark.parametrize("spec", ["drop-gen:x", "drop-gen:2.0", "drop-gen:"])
def test_contingency_bus_id_not_an_integer_is_input_error(spec):
    result = run("solve", CASE_DIR / "case9.m", "--contingency", spec)
    assert_input_error(result)
    assert (f"error: contingency {spec!r}: the bus id must be an integer"
            in result.stderr.splitlines())


@pytest.mark.parametrize("spec", ["foo", "drop-branch:4", "drop-gen-2"])
def test_unknown_contingency_kind_is_input_error(spec):
    # one error line, as for a bad bus id, and no usage block
    result = run("solve", CASE_DIR / "case9.m", "--contingency", spec)
    assert_input_error(result)
    assert result.stderr.splitlines() == [
        f"error: unknown contingency {spec!r}; expected drop-gen:<bus-id>"]


@pytest.mark.parametrize("bus", [5, 99])
def test_contingency_at_a_bus_with_no_unit_is_input_error(bus):
    # case9's bus 5 has a load and no generator; there is no bus 99
    result = run("solve", CASE_DIR / "case9.m", "--contingency",
                 f"drop-gen:{bus}")
    assert_input_error(result)
    assert f"no in-service generator at bus {bus} to drop" in result.stderr


@pytest.mark.parametrize("option,value", [
    ("--max-iter", 0), ("--tol", -1), ("--tol", "nan"), ("--tol", "inf"),
    ("--smoothing", "nan"), ("--smoothing", "inf"), ("--smoothing", 0),
    ("--smoothing", -5)])
def test_invalid_solver_option_is_input_error(option, value):
    assert_input_error(run("solve", CASE_DIR / "case9.m", option, value))
    assert_input_error(run("compare", CASE_DIR / "case9.m", option, value))


@pytest.mark.parametrize("value", [5, 9.99])
def test_smoothing_below_the_floor_is_input_error(value):
    # below STEEPNESS_FLOOR the solve would run at the floor, not at value
    floor = f"steepness floor {circuit_stamps.STEEPNESS_FLOOR:g}"
    for command in ("solve", "compare"):
        result = run(command, CASE_DIR / "case9.m", "--smoothing", value)
        assert_input_error(result)
        assert floor in result.stderr


def test_smoothing_at_the_floor_is_accepted():
    result = run("solve", CASE_DIR / "case9.m", "--smoothing",
                 circuit_stamps.STEEPNESS_FLOOR)
    assert result.exit_code == 0, result.output
    assert "converged: true" in result.stdout.splitlines()


def test_missing_file_is_input_error(tmp_path):
    assert_input_error(run("solve", tmp_path / "absent.m"))


def read_trace(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def test_continuation_trace_marks_t_and_accepted(tmp_path):
    path = tmp_path / "trace.csv"
    result = run("solve", CASE_DIR / "oscillation4.native.json",
                 "--homotopy", "q-limit", "--trace", path)
    assert result.exit_code == 0, result.output
    header, rows = read_trace(path)
    assert header == TRACE_COLUMNS
    assert {r["accepted"] for r in rows} == {"0", "1"}
    assert all(0.0 <= float(r["t"]) <= 1.0 for r in rows)
    # the last sub-solve is the one kept at t = 0
    assert rows[-1]["accepted"] == "1" and float(rows[-1]["t"]) == 0.0
    lines = result.stdout.splitlines()
    assert f"summary_version: {SUMMARY_VERSION}" in lines
    assert SUMMARY_VERSION == 3
    stalled = int(next(line for line in lines
                       if line.startswith("stalled_subsolves:")).split()[1])
    backtracks = int(next(line for line in lines if line.startswith(
        "continuation_backtracks:")).split()[1])
    assert stalled > 0 and backtracks > 0
    # one rejected sub-solve per backtrack
    rejected = {(r["phase"], r["outer_iter"]) for r in rows
                if r["accepted"] == "0"}
    assert len(rejected) == backtracks


def test_plain_solve_trace_has_empty_t(tmp_path):
    path = tmp_path / "trace.csv"
    result = run("solve", CASE_DIR / "case9.m", "--trace", path)
    assert result.exit_code == 0, result.output
    header, rows = read_trace(path)
    assert header == TRACE_COLUMNS
    assert rows and all(r["t"] == "" and r["accepted"] == "1" for r in rows)
    assert "stalled_subsolves: 0" in result.stdout.splitlines()
    assert "continuation_backtracks: 0" in result.stdout.splitlines()


def test_snap_keeps_the_continuation_counters():
    # the primary-side tap case's `tx` backs off once; the snapped
    # re-solve of its tap that follows must not drop that from the report
    case = tapped_case("primary")
    plain = run_continuous(case, SolverOptions(), method="tx")
    snapped = run_continuous(case, SolverOptions(), method="tx", snap=True)
    assert snapped.snap_plan.tap_ratio and snapped.report.converged
    assert plain.report.continuation_backtracks == 1
    for report in (plain.report, snapped.report):
        assert report.stalled_subsolves == report.continuation_backtracks == 1


def summary_value(lines, key):
    return int(next(line for line in lines
                    if line.startswith(f"{key}:")).split()[1])


def test_trace_alpha_and_line_search_counters(tmp_path):
    # discrete4 backtracks and lowers max|F| on every iteration, so each
    # row's alpha is 2^-k after k rejected trials; each row with alpha < 1
    # also lands the generators' q on their curves, one more evaluation
    path = tmp_path / "trace.csv"
    result = run("solve", CASE_DIR / "discrete4.native.json", "--trace", path)
    assert result.exit_code == 0, result.output
    header, rows = read_trace(path)
    assert header == TRACE_COLUMNS and header[-1] == "alpha"
    lines = result.stdout.splitlines()
    evals = summary_value(lines, "residual_evals")
    backtracks = summary_value(lines, "line_search_backtracks")
    rejected = [round(-math.log2(float(r["alpha"]))) for r in rows]
    assert backtracks == sum(rejected) > 0
    landed = sum(k > 0 for k in rejected)
    assert evals == len(rows) + backtracks + landed


COUNTERS = ("iterations", "stalled_subsolves", "continuation_backtracks",
            "residual_evals", "line_search_backtracks")


def record_nr_solves(monkeypatch):
    """Copies of the reports of the NR solves a pipeline runs, as each
    solve returned them; the init solves stay out, as no counter
    includes them."""
    reports = []

    def wrap(nr_solve):
        def recording(*args, **kw):
            state, report = nr_solve(*args, **kw)
            if "-init" not in kw.get("phase", ""):
                reports.append(replace(report, trace=list(report.trace)))
            return state, report
        return recording

    patch_nr_solve(monkeypatch, wrap)
    return reports


@pytest.mark.parametrize("name, pipeline, regions", [
    pytest.param(
        "oscillation4",
        lambda case, opts: run_continuous(case, opts, method="q-limit"),
        ["devices_at_min: 0", "devices_at_max: 1", "devices_controlling: 1",
         "region.gen.0: at-max", "region.gen.1: controlling"],
        id="oscillation4-q-limit"),
    pytest.param(
        "oscillation4",
        lambda case, opts: run_baseline(case, opts, order="largest-first"),
        ["devices_at_min: 1", "devices_at_max: 1", "devices_controlling: 0",
         "region.gen.0: at-max", "region.gen.1: at-min"],
        id="oscillation4-outer-loop-largest-first"),
    pytest.param(
        "discrete4",
        lambda case, opts: run_continuous(case, opts, method="smoothing",
                                          snap=True),
        ["devices_at_min: 0", "devices_at_max: 0", "devices_controlling: 1",
         "region.gen.0: controlling"],
        id="discrete4-smoothing-snap"),
])
def test_line_search_counters_summed(name, pipeline, regions, monkeypatch):
    # over every NR solve of a continuation, of the outer loop, or of a
    # continuation and the snapped re-solve after it
    reports = record_nr_solves(monkeypatch)
    result = pipeline(load_native(name), SolverOptions())
    assert len(reports) > 1 and result.report.converged
    for key in ("iterations", "residual_evals", "line_search_backtracks"):
        assert getattr(result.report, key) == sum(getattr(r, key)
                                                  for r in reports)
    assert result.report.stalled_subsolves == sum(bool(r.stalled)
                                                  for r in reports)
    assert len(result.report.trace) == sum(len(r.trace) for r in reports)
    assert result.report.residual_evals > 0
    # the device regions of the final state, as the summary prints them
    lines = summary_lines(result)
    assert [line for line in lines
            if line.startswith(("devices_", "region."))] == regions


def test_snap_sums_line_search_counters():
    opts = SolverOptions()
    case = load_native("discrete4")
    for method in ("smoothing", "none"):
        plain = run_continuous(case, opts, method=method)
        snapped = run_continuous(case, opts, method=method, snap=True)
        _, alone, _ = resolve_after_snap(case, plain.state, opts)
        assert alone.residual_evals > 0
        assert plain.report.line_search_backtracks > 0
        for key in COUNTERS:
            assert getattr(snapped.report, key) == (getattr(plain.report, key)
                                                    + getattr(alone, key))
        assert snapped.report.trace == plain.report.trace + alone.trace


@pytest.mark.parametrize("name,pipeline", [
    ("case9", lambda c: run_continuous(c, SolverOptions(), "q-limit")),
    ("case9", lambda c: run_continuous(c, SolverOptions(), "composite")),
    ("case9", lambda c: run_baseline(c, SolverOptions())),
    # with distributed slack, where oscillation4's linear init fails and
    # p-limit runs the hard bootstrap
    ("oscillation4", lambda c: run_continuous(c, SolverOptions(), "p-limit")),
])
def test_one_index_per_pipeline_run(name, pipeline, monkeypatch):
    # every solve of the run reuses the index of the state it starts from;
    # the flat start builds the only one
    calls = []

    def wrap(build_index):
        def counted(*args):
            calls.append(args)
            return build_index(*args)
        return counted

    patch_function(monkeypatch, circuit_stamps.build_index, wrap)
    case = (load_matpower(name) if name == "case9" else
            replace(load_native(name), agc_enabled=True))
    assert pipeline(case).report.converged
    assert len(calls) == 1
