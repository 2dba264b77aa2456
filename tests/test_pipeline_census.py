"""`tools/pipeline_census.py` covers every case, AGC setting, method,
snap setting and outer-loop order, and flags a run that stopped
converging or converged in more NR iterations or residual evaluations."""

import sys

from tests.conftest import CASE_DIR, MATPOWER_CASES, NATIVE_CASES

sys.path.insert(0, str(CASE_DIR.parent.parent / "tools"))
import pipeline_census  # noqa: E402
from splitflow.homotopy_driver import METHODS  # noqa: E402


def test_every_pipeline_on_every_case():
    runs = [run[:4] for run in pipeline_census.runs()]
    n_cases = len(MATPOWER_CASES) + len(NATIVE_CASES) + len(
        pipeline_census.BUILDERS)
    # per case: every method but p-limit with AGC off, every method with
    # it on, each with snap off and on, and two outer-loop orders each
    per_case = 2 * (len(METHODS) - 1) + 2 * len(METHODS) + 2 * 2
    assert len(runs) == len(set(runs)) == n_cases * per_case == 416
    assert ("oscillation4", True, "p-limit", True) in runs
    assert ("case9", False, "p-limit", False) not in runs


def test_lost_and_raised_runs_flagged():
    before = ["a\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "b\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "c\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "d\tagc=off\ttx\tsnap=off\terror\terror\terror",
              "e\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "total\t5 runs\t4 converged\t40 NR iterations and 80 "
              "residual evaluations of converged runs"]
    now = ["a\tagc=off\ttx\tsnap=off\ttrue\t9\t20",
           "b\tagc=off\ttx\tsnap=off\ttrue\t11\t19",
           "c\tagc=off\ttx\tsnap=off\tfalse\t100\t150",
           "d\tagc=off\ttx\tsnap=off\ttrue\t5\t5",
           "e\tagc=off\ttx\tsnap=off\ttrue\t9\t21"]
    key = ("agc=off", "tx", "snap=off")
    assert pipeline_census.worse(
        pipeline_census.converged_counts(before),
        pipeline_census.converged_counts(now)) == [
            (("b", *key), (10, 20), (11, 19)), (("c", *key), (10, 20), None),
            (("e", *key), (10, 20), (9, 21))]


def test_against_line_counts_each_rise_apart():
    # a rose in both counts, b in evaluations alone, c raised, d fell
    before = ["a\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "b\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "c\tagc=off\ttx\tsnap=off\ttrue\t10\t20",
              "d\tagc=off\ttx\tsnap=off\ttrue\t10\t20"]
    now = ["a\tagc=off\ttx\tsnap=off\ttrue\t11\t21",
           "b\tagc=off\ttx\tsnap=off\ttrue\t10\t25",
           "c\tagc=off\ttx\tsnap=off\terror\terror\terror",
           "d\tagc=off\ttx\tsnap=off\ttrue\t9\t19"]
    line = pipeline_census.against_line(
        pipeline_census.converged_counts(before),
        pipeline_census.converged_counts(now))
    assert line.split("\t") == [
        "against", "4 converged before", "1 lost or raised",
        "1 with more NR iterations", "2 with more residual evaluations",
        "30 -> 30 NR iterations and 60 -> 65 residual evaluations of runs "
        "converged in both"]
    # a six-column census has no evaluations to compare or total
    six = [line.rsplit("\t", 1)[0] for line in before]
    line = pipeline_census.against_line(
        pipeline_census.converged_counts(six),
        pipeline_census.converged_counts(now))
    assert line.split("\t")[4:] == [
        "0 with more residual evaluations",
        "30 -> 30 NR iterations and 0 -> 0 residual evaluations of runs "
        "converged in both"]


def test_six_column_census_compares_iterations_alone():
    # a census recorded before the evaluations column: a run is worse
    # only by its NR iterations
    before = ["a\tagc=off\ttx\tsnap=off\ttrue\t10",
              "b\tagc=off\ttx\tsnap=off\ttrue\t10"]
    now = ["a\tagc=off\ttx\tsnap=off\ttrue\t10\t99",
           "b\tagc=off\ttx\tsnap=off\ttrue\t11\t1"]
    assert pipeline_census.worse(
        pipeline_census.converged_counts(before),
        pipeline_census.converged_counts(now)) == [
            (("b", "agc=off", "tx", "snap=off"), (10, None), (11, 1))]


def test_recorded_census_has_every_run():
    # tools/census.tsv, which CI compares against, is a whole census
    recorded = (CASE_DIR.parent.parent / "tools" / "census.tsv").read_text()
    lines = recorded.splitlines()
    assert all(len(line.split("\t")) == 7 for line in lines[:-1])
    keys = [tuple(line.split("\t")[:4]) for line in lines[:-1]]
    runs = [(name, f"agc={'on' if agc else 'off'}", method,
             f"snap={'on' if snap else 'off'}")
            for name, agc, method, snap, _ in pipeline_census.runs()]
    assert keys == runs
    assert lines[-1].startswith(f"total\t{len(runs)} runs\t")
