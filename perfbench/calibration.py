"""Rescale measured times to the host's nominal speed.

On the shared host this benchmark was built on (x86-64, 2 vCPUs,
CPython 3.11), the speed of one thread drifts by up to a factor of 1.7
within a minute as other tenants load the machine. The guest sees no
steal time, so CPU time drifts with wall time. A fixed pure-Python loop
is therefore timed right before and right after each piece of timed work;
the work's time, divided by the loop's local time and multiplied by the
loop's time on the idle host, is the work's time at nominal speed. In
ten runs of each workload on that host, this cut the quartile spread of
pass times from 0.20-0.33 of their median to 0.06-0.11.

Only this module and the standard library are imported, so the set-up
probe can calibrate before it imports splitflow.
"""

import statistics
import time

# sample() on the idle host described above
NOMINAL_S = 2.0e-3


def sample() -> float:
    """Seconds that one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    z = complex(1.0, 0.5)
    seen = {}
    acc = []
    for i in range(5000):
        z = z * 0.99999 + complex(i % 7, 1.0) * 1e-6
        seen[i % 97] = z.real
        acc.append(abs(z))
    sum(acc)
    return time.perf_counter() - t0


def nominal(seconds: float, *samples: float) -> float:
    """seconds at nominal speed, given loop times taken around the work."""
    return seconds * NOMINAL_S / statistics.fmean(samples)
