"""The CLI exit-code contract: 0 converged, 1 not converged, 2 input error."""

import json

import pytest
from click.testing import CliRunner

from splitflow.cli_reporting import main
from tests.conftest import CASE_DIR


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
    # plain NR from a flat start does not converge on oscillation4
    result = run("solve", CASE_DIR / "oscillation4.native.json")
    assert result.exit_code == 1
    assert "converged: false" in result.stdout


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


def test_p_limit_without_agc_is_input_error():
    assert_input_error(run("solve", CASE_DIR / "case9.m",
                           "--homotopy", "p-limit"))


@pytest.mark.parametrize("option,value", [("--max-iter", 0), ("--tol", -1)])
def test_invalid_solver_option_is_input_error(option, value):
    assert_input_error(run("solve", CASE_DIR / "case9.m", option, value))
    assert_input_error(run("compare", CASE_DIR / "case9.m", option, value))


def test_missing_file_is_input_error(tmp_path):
    assert_input_error(run("solve", tmp_path / "absent.m"))
