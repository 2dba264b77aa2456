"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from workloads import WORKLOAD_CASES, Solve, all_inputs, make_solves  # noqa: E402


@pytest.fixture(scope="module")
def cases():
    return harness.load_cases({n for ns in WORKLOAD_CASES.values() for n in ns})


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CASES))
def test_generators_deterministic_per_seed(workload, cases):
    assert make_solves(workload, 7, cases) == make_solves(workload, 7, cases)
    assert make_solves(workload, 7, cases) != make_solves(workload, 8, cases)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CASES))
def test_every_input_has_a_reference(workload, cases):
    reference = harness.load_reference()
    inputs = all_inputs(workload, cases)
    assert all(s.key in reference for s in inputs)
    for seed in range(5):
        assert set(make_solves(workload, seed, cases)) <= set(inputs)


def test_reference_check_tells_outer_loop_orders_apart(cases):
    reference = harness.load_reference()
    smallest = Solve("oscillation4", "outer-smallest-first")
    largest = Solve("oscillation4", "outer-largest-first")
    result = harness.run_solve(smallest, cases["oscillation4"])
    assert harness.check(smallest, result, reference) is None
    assert "differ from the reference" in harness.check(largest, result,
                                                         reference)


def _result(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    return doc["metrics"]


def test_counts_repeat_across_runs():
    first = _result("small-mix", 3, trace=0)
    second = _result("small-mix", 3, trace=0)
    assert first["nr_iterations"] == second["nr_iterations"]
    calls = [{k: v for k, v in _result("small-mix", 3, trace=1).items()
              if k.endswith((".calls", ".iterations"))} for _ in range(2)]
    assert calls[0] == calls[1]
    assert calls[0]["circuit_stamps.residual.calls"]["value"] > 0


def test_fails_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
