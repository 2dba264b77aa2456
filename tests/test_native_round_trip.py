"""parse_native(serialize_native(case)) == case over generated valid
cases with taps, switched shunts, remote groups, distributed slack and
out-of-service generators, also once a member's remote factor is
replaced."""

from dataclasses import replace

from hypothesis import assume, given
from hypothesis import strategies as st

from splitflow import (
    Branch,
    Bus,
    FixedShunt,
    Generator,
    Load,
    NetworkCase,
    SwitchedShunt,
    TapControl,
    parse_native,
    serialize_native,
    validate,
)

# finite floats of everyday size; nan and inf are input errors
num = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
pos = st.floats(0.01, 10.0)


@st.composite
def generator(draw, bus, remote_bus=None, v_set=None, in_service=None):
    """A generator at bus; in or out of service unless in_service says."""
    p_min = draw(num)
    p_max = p_min + draw(st.floats(0.0, 5.0))
    q_min = draw(num)
    return Generator(
        bus=bus, p_g=draw(st.floats(p_min, p_max)),
        v_set=v_set if v_set is not None else draw(st.floats(0.9, 1.1)),
        q_min=q_min, q_max=q_min + draw(st.floats(0.0, 5.0)),
        p_min=p_min, p_max=p_max,
        agc_factor=draw(st.sampled_from([0.0, 0.5]) | pos),
        remote_bus=remote_bus,
        remote_factor=draw(pos) if remote_bus is not None else 0.0,
        in_service=draw(st.booleans()) if in_service is None else in_service)


@st.composite
def tap(draw):
    tr_min = draw(st.floats(0.5, 1.0))
    return TapControl(
        tr_min=tr_min, tr_max=tr_min + draw(st.floats(0.0, 0.5)),
        v_set=draw(st.floats(0.9, 1.1)),
        controlled_side=draw(st.sampled_from(["primary", "secondary"])),
        step_size=draw(st.none() | st.floats(0.001, 0.05)))


@st.composite
def cases(draw):
    """A connected case: bus 1 the slack, then pv buses with a generator
    each, then pq buses; a chain of branches (some tapped) plus chords;
    loads, fixed and switched shunts on any bus; at most one remote group,
    whose members sit on pq buses and regulate another pq bus."""
    n_pv, n_pq = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    n = 1 + n_pv + n_pq
    kinds = ["slack"] + ["pv"] * n_pv + ["pq"] * n_pq
    buses = tuple(Bus(i + 1, draw(pos), kind, draw(st.floats(0.9, 1.1)),
                      draw(st.floats(-0.1, 0.1)))
                  for i, kind in enumerate(kinds))
    ids = st.integers(1, n)
    ends = [(i, i + 1) for i in range(1, n)]
    ends += [e for e in draw(st.lists(st.tuples(ids, ids), max_size=3))
             if e[0] != e[1]]
    branches = tuple(
        Branch(f, t, draw(st.floats(0.0, 5.0)), -draw(pos),
               b_sh=draw(st.floats(0.0, 0.1)), ratio=draw(st.floats(0.9, 1.1)),
               tap=draw(st.none() | tap()))
        for f, t in ends)
    gens = [draw(generator(1)) for _ in range(draw(st.integers(0, 2)))]
    # a pv bus's one generator must be in service
    gens += [draw(generator(2 + k, in_service=True)) for k in range(n_pv)]
    pq = list(range(2 + n_pv, n + 1))
    if len(pq) >= 2 and draw(st.booleans()):
        controlled, *others = pq
        v_set = draw(st.floats(0.9, 1.1))
        gens += [draw(generator(b, controlled, v_set))
                 for b in draw(st.lists(st.sampled_from(others), min_size=1,
                                        max_size=3))]
    return NetworkCase(
        s_base=draw(st.sampled_from([1.0, 100.0]) | pos),
        buses=buses, branches=branches, generators=tuple(gens),
        loads=tuple(Load(draw(ids), draw(num), draw(num))
                    for _ in range(draw(st.integers(0, 3)))),
        fixed_shunts=tuple(FixedShunt(draw(ids), draw(num), draw(num))
                           for _ in range(draw(st.integers(0, 2)))),
        shunts=tuple(SwitchedShunt(draw(ids), b, b + draw(st.floats(0.0, 1.0)),
                                   draw(st.floats(0.01, 0.5)),
                                   draw(st.floats(0.9, 1.1)))
                     for b in draw(st.lists(num, max_size=2))),
        agc_enabled=draw(st.booleans()),
        name=draw(st.text(max_size=8)))


@given(cases())
def test_native_round_trip_is_identity(case):
    assert validate(case) == []
    assert parse_native(serialize_native(case)) == case


@given(cases(), pos)
def test_groups_follow_a_replaced_generator(case, factor):
    # the groups are inferred again from the generators `replace` gives,
    # so a file holds them whatever the factors
    assume(case.remote_groups)
    (grp,) = case.remote_groups
    gens = list(case.generators)
    gens[grp.members[0]] = replace(gens[grp.members[0]], remote_factor=factor)
    changed = replace(case, generators=tuple(gens))
    raw = [gens[m].remote_factor for m in grp.members]
    assert changed.remote_groups == (
        replace(grp, factors=tuple(f / sum(raw) for f in raw)),)
    assert validate(changed) == []
    assert parse_native(serialize_native(changed)) == changed
