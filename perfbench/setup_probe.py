"""Print the seconds that `import splitflow` plus loading a workload's cases
take in this process, at nominal machine speed and as measured. run.py
starts it fresh for each set-up sample:

    python3 perfbench/setup_probe.py <workload>
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
from workloads import CASE_DIR, CASE_FILES, WORKLOAD_CASES  # noqa: E402

CAL_SAMPLES = 3

cal = [calibration.sample() for _ in range(CAL_SAMPLES)]
t0 = time.perf_counter()
import splitflow  # noqa: E402,F401
from splitflow.cli_reporting import load_case  # noqa: E402

for name in WORKLOAD_CASES[sys.argv[1]]:
    load_case(str(CASE_DIR / CASE_FILES[name]))
seconds = time.perf_counter() - t0
cal += [calibration.sample() for _ in range(CAL_SAMPLES)]
print(calibration.nominal(seconds, *cal), seconds)
