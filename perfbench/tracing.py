"""Spans around calls into splitflow's modules, recorded from outside.

The package imports its functions by name (`from .x import y`), so a
function is wrapped by replacing that name in every splitflow module that
holds it. Spans (name, start, end, parent) are kept in memory; a layer's
self time is its span's duration minus the time its child spans cover.
Everything runs in one thread, so children never overlap and no layer
waits on another.

smooth_primitives is not wrapped: it is called about a million times per
heavy solve, so a wrapper would measure itself. Its cost shows in the
self time of the circuit_stamps functions that call it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import splitflow.baseline_outer_loop
import splitflow.case_model
import splitflow.circuit_stamps
import splitflow.cli_reporting
import splitflow.discrete_control
import splitflow.homotopy_driver
import splitflow.nr_solver


def _nr_info(result):
    _, report = result
    return report.iterations, report.converged


def _outer_info(result):
    return result[1].outer_iterations


# (module, attribute, span name, what to keep from the return value)
TARGETS = [
    ("case_model", "parse_matpower", "case_model.parse", None),
    ("case_model", "parse_native", "case_model.parse", None),
    ("case_model", "NetworkCase.drop_generator", "case_model.drop_generator",
     None),
    ("circuit_stamps", "assemble", "circuit_stamps.assemble", None),
    ("circuit_stamps", "residual", "circuit_stamps.residual", None),
    ("circuit_stamps", "build_index", "circuit_stamps.build_index", None),
    ("circuit_stamps", "flat_start", "circuit_stamps.flat_start", None),
    ("circuit_stamps", "classify_regions", "circuit_stamps.classify_regions",
     None),
    ("nr_solver", "solve_linear", "nr_solver.solve_linear", None),
    ("nr_solver", "nr_solve", "nr_solver.nr_solve", _nr_info),
    ("homotopy_driver", "run_homotopy", "homotopy_driver.run_homotopy", None),
    ("homotopy_driver", "_continuation", "homotopy_driver._continuation", None),
    ("homotopy_driver", "init_q_limit_relaxation",
     "homotopy_driver.init_q_limit_relaxation", None),
    ("discrete_control", "resolve_after_snap",
     "discrete_control.resolve_after_snap", None),
    ("baseline_outer_loop", "solve_outer_loop",
     "baseline_outer_loop.solve_outer_loop", _outer_info),
    ("baseline_outer_loop", "classify_stability",
     "baseline_outer_loop.classify_stability", None),
    ("cli_reporting", "run_continuous", "cli_reporting.run_continuous", None),
    ("cli_reporting", "run_baseline", "cli_reporting.run_baseline", None),
    ("cli_reporting", "summary_lines", "cli_reporting.summary_lines", None),
]
LAYERS = sorted({t[2] for t in TARGETS})


class Span:
    __slots__ = ("name", "parent", "start", "end", "raised", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent  # index of the enclosing span, or None
        self.start = self.end = 0.0
        self.raised = False
        self.info = None


class Tracer:
    """Context manager that wraps TARGETS while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = []

    def _wrap(self, fn, name, inspect):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = True
                # SingularSystemError carries the NR iteration it stopped at
                span.info = getattr(exc, "iteration", None)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if inspect is not None:
                span.info = inspect(out)
            return out

        return wrapper

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "splitflow" or n.startswith("splitflow.")]
        for mod_name, attr, name, inspect in TARGETS:
            home = getattr(splitflow, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = getattr(cls, meth)
                self._patch(cls, meth, orig, self._wrap(orig, name, inspect))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, name, inspect)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)
        return self

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        return False

    def dump(self) -> list:
        """Spans as [name, parent, start, end, raised] rows."""
        return [[s.name, s.parent, s.start, s.end, s.raised]
                for s in self.spans]


def self_times(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer (calls, self seconds) over spans[lo:hi]."""
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for s in spans[lo:hi]:
        if s.parent is not None and s.parent >= lo:
            child[s.parent - lo] += s.end - s.start
    out = {}
    for i, s in enumerate(spans[lo:hi]):
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, self_s + (s.end - s.start) - child[i])
    return out


def _under(spans, i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def pass_metrics(spans, lo: int, hi: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, spans[lo:hi]."""
    st = self_times(spans, lo, hi)
    m = {}
    for layer in LAYERS:
        calls, self_s = st.get(layer, (0, 0.0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_s
    nr = [s for s in spans[lo:hi] if s.name == "nr_solver.nr_solve"]
    iters = wasted = converged = raised = 0
    for s in nr:
        if s.raised:
            raised += 1
            wasted += s.info or 0
            iters += s.info or 0
            continue
        it, ok = s.info
        iters += it
        converged += ok
        wasted += 0 if ok else it
    res_in_nr = sum(1 for i in range(lo, hi)
                    if spans[i].name == "circuit_stamps.residual"
                    and _under(spans, i, "nr_solver.nr_solve"))
    m["nr_solver.nr_solve.iterations"] = iters
    m["nr_solver.nr_solve.raised"] = raised
    m["nr_solver.nr_solve.converged_ratio"] = converged / len(nr) if nr else 1.0
    m["nr_solver.residual_per_iter"] = res_in_nr / iters if iters else 0.0
    m["homotopy_driver.wasted_iter_frac"] = wasted / iters if iters else 0.0
    m["baseline_outer_loop.outer_iterations"] = sum(
        s.info for s in spans[lo:hi]
        if s.name == "baseline_outer_loop.solve_outer_loop" and not s.raised)
    m["trace.unattributed_s"] = wall_s - sum(v for _, v in st.values())
    return m


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac", "_per_iter")):
        return "ratio"
    return "count"


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes; counts stay whole numbers."""
    out = {}
    for k, first in per_pass[0].items():
        vals = [p[k] for p in per_pass]
        if isinstance(first, int):
            out[k] = statistics.median_low(vals)
        else:
            out[k] = statistics.median(vals)
    return out
