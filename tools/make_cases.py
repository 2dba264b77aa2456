#!/usr/bin/env python3
"""Generate the bundled synthetic 30- and 118-bus MATPOWER-format cases.

The 9- and 14-bus files are the classic public test systems; these two
are deterministic constructed meshed networks of the stated sizes (ring
plus chords, mixed generator Q headroom so a few limits bind, some fixed
off-nominal taps). Regenerate with:  python3 tools/make_cases.py

`build` also makes larger cases at run time, with random chords or with
chords between buses at most max_span apart (`tools/lu_probe.py`).
"""

import pathlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
CASES = HERE.parent / "tests" / "cases"


def build(n_bus, gen_buses, n_chords, load_total, seed, tight_q=(),
          max_span=None):
    """(branches, loads, gens, shunt_bus) of a ring of n_bus buses plus
    n_chords random chords, each between buses at least 2 and, with
    max_span, at most max_span apart along the ring's numbering."""
    rng = np.random.default_rng(seed)
    branches = []
    for i in range(1, n_bus):
        x = rng.uniform(0.03, 0.10)
        branches.append((i, i + 1, x / rng.uniform(5, 12), x,
                         rng.uniform(0.0, 0.04), 0.0))
    branches.append((n_bus, 1, 0.02, 0.08, 0.02, 0.0))
    seen = {(min(a, b), max(a, b)) for a, b, *_ in branches}
    while len(branches) < n_bus + n_chords:
        if max_span is None:
            a, b = sorted(rng.choice(np.arange(1, n_bus + 1), 2, replace=False))
        else:
            a = int(rng.integers(1, n_bus + 1))
            b = a + int(rng.integers(2, max_span + 1))
        if (a, b) in seen or b - a < 2 or b > n_bus:
            continue
        seen.add((a, b))
        x = rng.uniform(0.05, 0.20)
        ratio = 0.0
        if rng.random() < 0.08:
            ratio = rng.choice([0.96, 0.98, 1.02, 1.04])
        branches.append((a, b, x / rng.uniform(5, 12), x,
                         rng.uniform(0.0, 0.03), ratio))

    load_buses = [b for b in range(1, n_bus + 1) if b not in gen_buses]
    weights = rng.uniform(0.3, 1.0, len(load_buses))
    weights /= weights.sum()
    loads = {b: (load_total * w, load_total * w * rng.uniform(0.15, 0.4))
             for b, w in zip(load_buses, weights)}

    gens = []
    share = np.full(len(gen_buses), 1.0 / len(gen_buses))
    share += rng.uniform(-0.3, 0.3, len(gen_buses)) / len(gen_buses)
    share /= share.sum()
    for k, b in enumerate(gen_buses):
        pg = load_total * share[k] if k > 0 else 0.0
        vg = rng.choice([1.0, 1.01, 1.02, 1.03, 1.05])
        if b in tight_q:
            qmax = max(0.05 * load_total / len(gen_buses), 0.03)
            qmin = -qmax / 2
        else:
            # roomy limits keep healthy generators near their sigmoid
            # midpoints, where the continuous and hard models agree best
            qmax = 2.4 * load_total / len(gen_buses)
            qmin = -qmax
        gens.append((b, pg, qmax, qmin, vg, 2.0 * load_total / len(gen_buses)))

    shunt_bus = load_buses[len(load_buses) // 2]
    return branches, loads, gens, shunt_bus


def emit(name, n_bus, branches, loads, gens, shunt_bus):
    out = [f"function mpc = {name}",
           f"% {n_bus}-bus synthetic meshed test system (constructed).",
           "mpc.version = '2';",
           "mpc.baseMVA = 100;",
           "",
           "mpc.bus = ["]
    for b in range(1, n_bus + 1):
        btype = 3 if b == gens[0][0] else (2 if b in {g[0] for g in gens} else 1)
        p, q = loads.get(b, (0.0, 0.0))
        bs = 8.0 if b == shunt_bus else 0.0
        out.append(f"\t{b}\t{btype}\t{p * 100:.2f}\t{q * 100:.2f}\t0\t{bs}"
                   f"\t1\t1\t0\t138\t1\t1.1\t0.9;")
    out.append("];")
    out.append("")
    out.append("mpc.gen = [")
    for b, pg, qmax, qmin, vg, pmax in gens:
        out.append(f"\t{b}\t{pg * 100:.2f}\t0\t{qmax * 100:.2f}"
                   f"\t{qmin * 100:.2f}\t{vg}\t100\t1\t{pmax * 100:.2f}\t0;")
    out.append("];")
    out.append("")
    out.append("mpc.branch = [")
    for a, b, r, x, bsh, ratio in branches:
        out.append(f"\t{a}\t{b}\t{r:.5f}\t{x:.5f}\t{bsh:.4f}\t0\t0\t0"
                   f"\t{ratio}\t0\t1;")
    out.append("];")
    out.append("")
    return "\n".join(out)


def bundled():
    """{file name: MATPOWER text} of the bundled synthetic cases."""
    gen118 = [1, 6, 12, 19, 25, 32, 40, 46, 54, 61, 66, 72, 80, 87, 94, 100,
              105, 110, 115, 118]
    return {
        "case30.m": emit("case30", 30, *build(
            30, [1, 2, 5, 8, 11, 13], 11, 2.8, seed=30301, tight_q=[5, 11])),
        "case118.m": emit("case118", 118, *build(
            118, gen118, 68, 22.0, seed=118118, tight_q=[19, 54, 87, 110])),
    }


def main():
    for name, text in bundled().items():
        (CASES / name).write_text(text)
        print("wrote", CASES / name)


if __name__ == "__main__":
    main()
