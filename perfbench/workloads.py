"""Workload definitions: which solves each workload issues, drawn from a seed.

This module only describes inputs; it imports nothing from splitflow, so
the set-up probe can time the package import on its own. A workload is a
closed loop run by one client: its solves are issued one after another,
each only when the previous one has finished. The seed draws only what
the program is given (solve order, and for n1-screen the load level of
each outage); the program itself never sees the seed.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
from dataclasses import dataclass

CASE_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "cases"
CASE_FILES = {
    "case9": "case9.m",
    "case14": "case14.m",
    "case30": "case30.m",
    "case118": "case118.m",
    "savnw_like": "savnw_like.native.json",
    "oscillation4": "oscillation4.native.json",
    "discrete4": "discrete4.native.json",
}

WORKLOAD_CASES = {
    "n1-screen": ("case118",),
    "continuation-hard": ("case118", "oscillation4"),
    "small-mix": ("case9", "case14", "case30", "savnw_like", "discrete4",
                  "oscillation4"),
}

# Pipelines: a homotopy method of `splitflow solve`, "snap" for
# `--homotopy none --snap`, or "outer-<order>" for `--models outer-loop`.
OUTER_ORDERS = ("smallest-first", "largest-first")
N1_LEVELS = (0.95, 1.00, 1.05)


@dataclass(frozen=True)
class Solve:
    """One solve as the CLI would run it, on a possibly modified case."""

    case: str
    pipeline: str
    agc: bool = False
    level: float = 1.0  # multiplier on every load's P and Q
    drop_bus: int | None = None  # generator outage, as --contingency drop-gen

    @property
    def key(self) -> str:
        drop = "-" if self.drop_bus is None else str(self.drop_bus)
        return (f"{self.case}/{self.pipeline}/agc={int(self.agc)}"
                f"/level={self.level:.2f}/drop={drop}")


def _continuation_hard() -> list[Solve]:
    return [Solve("case118", p) for p in ("tx", "q-limit", "composite")] + [
        Solve("oscillation4", p) for p in ("q-limit", "composite", "smoothing")
    ]


def _small_mix() -> list[Solve]:
    out = [Solve(c, p)
           for c in ("case9", "case14", "case30", "savnw_like", "discrete4")
           for p in ("none", "tx", "q-limit", "composite")]
    out += [Solve(c, "p-limit", agc=True) for c in ("case30", "savnw_like")]
    out += [Solve(c, f"outer-{o}") for c in WORKLOAD_CASES["small-mix"]
            for o in OUTER_ORDERS]
    out += [Solve("oscillation4", "tx"), Solve("discrete4", "snap")]
    return out


def _n1_buses(cases) -> list[int]:
    return [g.bus for g in cases["case118"].generators]


def all_inputs(workload: str, cases) -> list[Solve]:
    """Every solve the workload can issue, over all seeds."""
    if workload == "n1-screen":
        return [Solve("case118", "none", agc=True, level=lvl, drop_bus=b)
                for b in _n1_buses(cases) for lvl in N1_LEVELS]
    if workload == "continuation-hard":
        return _continuation_hard()
    if workload == "small-mix":
        return _small_mix()
    raise ValueError(f"unknown workload {workload!r}")


def make_solves(workload: str, seed: int, cases) -> list[Solve]:
    """The ordered list of solves one pass of the workload issues."""
    rng = random.Random(seed)
    if workload == "n1-screen":
        buses = _n1_buses(cases)
        # The level mix is fixed (the levels in turn, so 7/7/6 for 20
        # outages) and the seed assigns it to outages. Independent draws
        # would move a pass's NR iterations by about 13% between seeds,
        # which would hide regressions of that size.
        levels = [N1_LEVELS[i % len(N1_LEVELS)] for i in range(len(buses))]
        rng.shuffle(levels)
        solves = [Solve("case118", "none", agc=True, level=lvl, drop_bus=b)
                  for b, lvl in zip(buses, levels)]
    else:
        solves = all_inputs(workload, cases)
    rng.shuffle(solves)
    return solves


def scaled(case, level: float):
    """The case with every load's P and Q multiplied by level."""
    if level == 1.0:
        return case
    loads = tuple(dataclasses.replace(ld, p=ld.p * level, q=ld.q * level)
                  for ld in case.loads)
    return dataclasses.replace(case, loads=loads)


def prepare_inputs(solves, cases) -> dict:
    """Map (case, agc, level) to the case object handed to the pipeline.

    Built once before timing: the program is given these cases as a user
    would give it case files. Generator outages are applied inside the
    timed solve, as the CLI's --contingency does.
    """
    out = {}
    for s in solves:
        k = (s.case, s.agc, s.level)
        if k not in out:
            case = cases[s.case]
            if s.agc:
                case = dataclasses.replace(case, agc_enabled=True)
            out[k] = scaled(case, s.level)
    return out
