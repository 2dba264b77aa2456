"""`tools/pipeline_census.py` covers every case, AGC setting, method,
snap setting and outer-loop order, and flags a run that stopped
converging or converged in more NR iterations."""

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
    before = ["a\tagc=off\ttx\tsnap=off\ttrue\t10",
              "b\tagc=off\ttx\tsnap=off\ttrue\t10",
              "c\tagc=off\ttx\tsnap=off\ttrue\t10",
              "d\tagc=off\ttx\tsnap=off\terror\terror",
              "total\t4 runs\t3 converged\t30 NR iterations of converged runs"]
    now = ["a\tagc=off\ttx\tsnap=off\ttrue\t9",
           "b\tagc=off\ttx\tsnap=off\ttrue\t11",
           "c\tagc=off\ttx\tsnap=off\tfalse\t100",
           "d\tagc=off\ttx\tsnap=off\ttrue\t5"]
    key = ("agc=off", "tx", "snap=off")
    assert pipeline_census.worse(
        pipeline_census.converged_iterations(before),
        pipeline_census.converged_iterations(now)) == [
            (("b", *key), 10, 11), (("c", *key), 10, None)]


def test_recorded_census_has_every_run():
    # tools/census.tsv, which CI compares against, is a whole census
    recorded = (CASE_DIR.parent.parent / "tools" / "census.tsv").read_text()
    lines = recorded.splitlines()
    keys = [tuple(line.split("\t")[:4]) for line in lines[:-1]]
    runs = [(name, f"agc={'on' if agc else 'off'}", method,
             f"snap={'on' if snap else 'off'}")
            for name, agc, method, snap, _ in pipeline_census.runs()]
    assert keys == runs
    assert lines[-1].startswith(f"total\t{len(runs)} runs\t")
