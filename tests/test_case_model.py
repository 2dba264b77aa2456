import json
import re
from dataclasses import replace
from inspect import signature

import pytest

from splitflow import (
    Branch,
    Bus,
    CaseParseError,
    CaseValidationError,
    Generator,
    Load,
    NetworkCase,
    RemoteControlGroup,
    build_index,
    parse_matpower,
    parse_native,
    serialize_native,
    validate,
)
from tests.conftest import (
    CASE_DIR,
    load_matpower,
    load_native,
    remote_pair_case,
    three_bus_pv_case,
    without_out_of_service,
    zero_factor_remote_pair_text,
)

TWO_BUS_M = """
function mpc = two
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0  0 0 1 1.0 0 230 1 1.1 0.9;
    2 1 81 20 0 0 1 1.0 0 230 1 1.1 0.9;
];
mpc.gen = [
    1 50 0 90 -90 1.0 100 1 200 0;
];
mpc.branch = [
    1 2 0.01 0.1 0.02 0 0 0 0 0 1;
];
"""


class TestMatpower:
    def test_per_unit_conversion(self):
        case = parse_matpower(TWO_BUS_M)
        assert case.s_base == 100.0
        (load,) = case.loads
        assert load.bus == 2
        assert load.p == 81.0 / 100.0  # binary-exact division
        assert load.q == 0.2
        assert case.buses[0].kind == "slack"
        assert case.buses[1].kind == "pq"

    def test_degenerate_q_limits_kept(self):
        text = TWO_BUS_M.replace("1 50 0 90 -90", "1 50 0 50 50")
        case = parse_matpower(text)
        gen = case.generators[0]
        assert gen.q_min == gen.q_max == 0.5

    def test_zero_impedance_branch_rejected(self):
        text = TWO_BUS_M.replace("1 2 0.01 0.1", "1 2 0 0")
        with pytest.raises(CaseParseError, match="zero-impedance branch"):
            parse_matpower(text)

    def test_parse_error_carries_line_number(self):
        text = TWO_BUS_M.replace("1 2 0.01 0.1 0.02 0 0 0 0 0 1;",
                                 "1 2 frog 0.1 0.02 0 0 0 0 0 1;")
        with pytest.raises(CaseParseError, match=r"line \d+"):
            parse_matpower(text)

    def test_non_finite_value_names_line(self):
        # nan parses as a float, but is no bus id
        text = TWO_BUS_M.replace("2 1 81 20", "nan 1 81 20")
        with pytest.raises(CaseParseError,
                           match=r"line 6: value not finite in row 'nan 1 81"):
            parse_matpower(text)

    @pytest.mark.parametrize("old, new, what, line", [
        ("2 1 81 20", "2.7 1 81 20", "bus id 2.7", 6),
        ("2 1 81 20", "2 1.5 81 20", "bus type 1.5", 6),
        ("1 50 0 90", "1.2 50 0 90", "generator bus 1.2", 9),
        ("1 2 0.01 0.1", "1 2.7 0.01 0.1", "branch to bus 2.7", 12),
        ("1 2 0.01 0.1", "0.5 2 0.01 0.1", "branch from bus 0.5", 12),
    ])
    def test_fractional_id_rejected(self, old, new, what, line):
        # int() would silently truncate these to another bus
        text = TWO_BUS_M.replace(old, new)
        with pytest.raises(CaseParseError,
                           match=rf"line {line}: {what} is not an integer"):
            parse_matpower(text)

    def test_missing_slack_rejected(self):
        text = TWO_BUS_M.replace("1 3 0  0", "1 2 0  0")
        with pytest.raises(CaseValidationError, match="missing slack"):
            parse_matpower(text)

    def test_duplicate_bus_rejected(self):
        text = TWO_BUS_M.replace("2 1 81 20", "1 1 81 20")
        with pytest.raises(CaseValidationError, match="duplicate bus ids"):
            parse_matpower(text)

    def test_phase_shifter_rejected(self):
        text = TWO_BUS_M.replace("0.02 0 0 0 0 0 1;", "0.02 0 0 0 0 30 1;")
        with pytest.raises(CaseParseError, match="phase-shifting"):
            parse_matpower(text)

    def test_out_of_service_row_kept_switched_off(self):
        # a GEN_STATUS 0 row is an out-of-service unit, which needs no
        # control role on its PQ bus and no p_g within its limits (10 MW
        # against p_max 5); the rest is the text without the row
        text = TWO_BUS_M.replace("mpc.gen = [\n    1 50 0 90 -90 1.0 100 1 200 0;",
                                 "mpc.gen = [\n    1 50 0 90 -90 1.0 100 1 200 0;\n"
                                 "    2 10 0 90 -90 1.0 100 0 5 0;")
        case = parse_matpower(text)
        assert [g.in_service for g in case.generators] == [True, False]
        assert replace(case, generators=case.generators[:1]) == \
            parse_matpower(TWO_BUS_M)

    def test_determinism(self):
        assert parse_matpower(TWO_BUS_M) == parse_matpower(TWO_BUS_M)

    def test_fixed_shunt_from_bus_columns(self):
        text = TWO_BUS_M.replace("2 1 81 20 0 0", "2 1 81 20 0 19")
        case = parse_matpower(text)
        (sh,) = case.fixed_shunts
        assert sh.bus == 2 and sh.b == 0.19 and sh.g == 0.0

    def test_pv_bus_initialized_at_setpoint(self):
        case = load_matpower("case9")
        by_id = {b.id: b for b in case.buses}
        assert by_id[2].v_init_real == pytest.approx(1.025)
        assert by_id[5].v_init_real == 1.0

    def test_bundled_cases_parse_and_validate(self):
        for name in ("case9", "case14", "case30", "case118"):
            case = load_matpower(name)
            assert validate(case) == []
            assert len(case.buses) == int(name.removeprefix("case"))


class TestNative:
    def test_minimal_case(self):
        doc = {
            "format_version": 1,
            "s_base": 100.0,
            "buses": [
                {"id": 1, "base_kv": 230.0, "kind": "slack"},
                {"id": 2, "base_kv": 230.0, "kind": "pq"},
            ],
            "branches": [{"from": 1, "to": 2, "g": 1.0, "b": -8.0}],
            "generators": [],
            "loads": [{"bus": 2, "p": 0.5, "q": 0.1}],
        }
        case = parse_native(json.dumps(doc))
        assert len(case.generators) == 0
        assert validate(case) == []

    def test_negative_agc_factor_rejected(self):
        doc = json.loads(serialize_native(load_native("savnw_like")))
        doc["generators"][0]["agc_factor"] = -0.1
        with pytest.raises(CaseValidationError, match="agc_factor"):
            parse_native(json.dumps(doc))

    def test_schema_violation_names_field(self):
        doc = {"format_version": 1, "s_base": 100.0,
               "buses": [{"id": 1, "kind": "slack"}]}
        with pytest.raises(CaseParseError, match="buses\\[0\\].*base_kv"):
            parse_native(json.dumps(doc))

    def test_unconvertible_number_names_field(self):
        doc = json.loads(serialize_native(load_native("discrete4")))
        doc["branches"][1]["g"] = "abc"
        with pytest.raises(CaseParseError, match=r"branches\[1\]\.g: expected "
                           "a number, got str"):
            parse_native(json.dumps(doc))

    def test_numeric_string_is_no_number(self):
        doc = json.loads(serialize_native(load_native("savnw_like")))
        doc["generators"][0]["p_g"] = "7.5"
        with pytest.raises(CaseParseError, match=re.escape(
                "generators[0].p_g: expected a number, got str")):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("value", [0, "false", None])
    def test_in_service_is_a_boolean(self, value):
        # generator 1 is a remote-group member on a pq bus
        doc = json.loads(serialize_native(remote_pair_case()))
        doc["generators"][1]["in_service"] = False
        assert not parse_native(json.dumps(doc)).generators[1].in_service
        doc["generators"][1]["in_service"] = value
        with pytest.raises(CaseParseError, match=re.escape(
                "generators[1].in_service: expected a boolean, got "
                f"{type(value).__name__}")):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("keys,message", [
        (("generators", 0, "agc_factr"), "generators[0]: unknown field 'agc_factr'"),
        (("branches", 2, "tap", "v_sett"), "branches[2].tap: unknown field 'v_sett'"),
        (("buses", 0, "v_init[0]"), "buses[0]: unknown field 'v_init[0]'"),
        (("agc_enable",), "case: unknown field 'agc_enable'"),
    ])
    def test_unknown_key_names_it(self, keys, message):
        doc = json.loads(serialize_native(load_native("discrete4")))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = 0.0
        with pytest.raises(CaseParseError, match=re.escape(message)):
            parse_native(json.dumps(doc))

    @pytest.mark.parametrize("key,value,message", [
        ("agc_enabled", "false", "case.agc_enabled: expected a boolean, got str"),
        ("name", 5, "case.name: expected a string, got int"),
    ])
    def test_top_level_type_checked(self, key, value, message):
        doc = json.loads(serialize_native(load_native("discrete4")))
        doc[key] = value
        with pytest.raises(CaseParseError, match=re.escape(message)):
            parse_native(json.dumps(doc))

    def test_unsupported_version(self):
        with pytest.raises(CaseParseError, match="format_version"):
            parse_native(json.dumps({"format_version": 99, "s_base": 1.0}))

    def test_savnw_like_contents(self):
        case = load_native("savnw_like")
        assert len(case.generators) == 6
        factors = tuple(g.agc_factor for g in case.generators)
        assert factors == (0.23, 0.23, 0.25, 0.18, 0.08, 0.03)
        p_max_mw = tuple(g.p_max * case.s_base for g in case.generators)
        assert p_max_mw == (810.0, 810.0, 900.0, 616.0, 900.0, 117.0)
        assert case.agc_enabled

    def test_round_trip_is_identity(self):
        for name in ("savnw_like", "oscillation4", "discrete4"):
            text = (CASE_DIR / f"{name}.native.json").read_text()
            case = parse_native(text)
            assert serialize_native(case) == text
            again = parse_native(serialize_native(case))
            assert again == case
            assert serialize_native(again) == serialize_native(case)

    def test_remote_groups_inferred_and_normalized(self):
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pq"),
                   Bus(3, 230.0, "pq"), Bus(4, 230.0, "pq")),
            branches=(Branch(1, 4, 1.0, -8.0), Branch(2, 4, 1.0, -8.0),
                      Branch(3, 4, 1.0, -8.0)),
            generators=(
                Generator(2, 0.1, 1.0, -1, 1, 0, 1, remote_bus=4,
                          remote_factor=3.0),
                Generator(3, 0.1, 1.0, -1, 1, 0, 1, remote_bus=4,
                          remote_factor=1.0),
            ),
            loads=(Load(4, 0.3, 0.1),),
        )
        (grp,) = case.remote_groups
        assert grp.controlled_bus == 4
        assert grp.factors == (0.75, 0.25)
        assert sum(grp.factors) == 1.0

    def test_replaced_generators_infer_the_groups_again(self):
        # clearing one member's remote_bus takes it out of its group: the
        # groups follow the generators, and no constructor takes them
        case = remote_pair_case()
        gens = (case.generators[0],
                replace(case.generators[1], remote_bus=None))
        assert replace(case, generators=gens).remote_groups == (
            RemoteControlGroup(4, 1.03, (0,), (1.0,)),)
        assert "remote_groups" not in signature(NetworkCase).parameters


class TestValidate:
    def test_clean_case(self):
        assert validate(load_matpower("case9")) == []

    def test_two_slacks(self):
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "slack")),
            branches=(Branch(1, 2, 1.0, -8.0),),
            generators=(), loads=(),
        )
        assert any("multiple slack buses in island 0" in d
                   for d in validate(case))

    def test_unknown_generator_bus(self):
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pq")),
            branches=(Branch(1, 2, 1.0, -8.0),),
            generators=(Generator(99, 0.1, 1.0, -1, 1, 0, 1),),
            loads=(),
        )
        assert any("generator 0 references unknown bus 99" in d
                   for d in validate(case))

    def test_disconnected_island_rejected(self):
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pq"),
                   Bus(3, 230.0, "pq")),
            branches=(Branch(1, 2, 1.0, -8.0),),
            generators=(), loads=(),
        )
        assert any("islands" in d for d in validate(case))

    def test_remote_group_conflicts_rejected(self):
        # remote-controlled bus that is itself a PV bus is a conflict
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pq"),
                   Bus(3, 230.0, "pv")),
            branches=(Branch(1, 2, 1.0, -8.0), Branch(2, 3, 1.0, -8.0)),
            generators=(
                Generator(3, 0.1, 1.0, -1, 1, 0, 1),
                Generator(2, 0.1, 1.0, -1, 1, 0, 1, remote_bus=3,
                          remote_factor=1.0),
            ),
            loads=(),
        )
        assert any("must be pq" in d for d in validate(case))

    def test_zero_participation_factor_rejected(self):
        # generator 1's share of a group whose other member has a positive
        # factor normalizes to 0, which no participation curve can take
        with pytest.raises(CaseValidationError,
                           match="remote group 0 .*generator 1 .*factor 0.0"):
            parse_native(zero_factor_remote_pair_text())

    def test_pv_bus_without_generator(self):
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pv")),
            branches=(Branch(1, 2, 1.0, -8.0),),
            generators=(), loads=(),
        )
        assert any("no local generator" in d for d in validate(case))

    def test_drop_generator_contingency(self):
        # the unit is switched off in place; nothing else changes
        case = load_native("savnw_like")
        dropped = case.drop_generator(211)
        assert len(dropped.generators) == 6
        assert [g.bus for g in dropped.generators if not g.in_service] == [211]
        assert dropped.generators[3] == replace(case.generators[3],
                                                in_service=False)
        assert dropped.remote_groups == case.remote_groups

    @pytest.mark.parametrize("bus", [211, 999])
    def test_drop_at_a_bus_with_no_unit_in_service(self, bus):
        # savnw_like has one unit at bus 211, none at bus 999
        dropped = load_native("savnw_like").drop_generator(211)
        with pytest.raises(CaseValidationError,
                           match=f"no in-service generator at bus {bus} "):
            dropped.drop_generator(bus)

    def test_pv_bus_whose_only_generator_is_out_of_service(self):
        case = three_bus_pv_case()
        off = replace(case, generators=(
            replace(case.generators[0], in_service=False),))
        assert validate(case) == []
        assert validate(off) == ["pv bus 2 has no local generator"]


SLACK_GEN = Generator(1, 0.0, 1.0, -1.0, 1.0, 0.0, 2.0)


def grouped_case(factors):
    """remote_pair_case with a slack generator first, and its remote
    group's members at buses 2, 3 (and 5 with three factors) with the
    given remote factors, which sum to 1."""
    base = remote_pair_case()
    members = base.generators + (
        replace(base.generators[0], bus=5),) * (len(factors) - 2)
    buses = base.buses + (Bus(5, 230.0, "pq"),)
    branches = base.branches + (Branch(5, 4, 0.9, -7.0),)
    return replace(base, buses=buses, branches=branches, generators=(
        SLACK_GEN, *(replace(g, remote_factor=f)
                     for g, f in zip(members, factors))))


class TestDropGeneratorKeepsRemoteGroups:
    """An outage keeps its remote groups as they are; its map renormalises
    the factors over the members in service. `without_out_of_service`,
    the unit deleted, re-derives the groups instead."""

    def test_group_kept_past_the_dropped_unit(self):
        base = grouped_case((0.6, 0.4))
        dropped = base.drop_generator(1)
        assert dropped.remote_groups == base.remote_groups == (
            RemoteControlGroup(4, 1.03, (1, 2), (0.6, 0.4)),)
        assert validate(dropped) == []
        assert build_index(dropped).inj.kappa.tolist() == [0.6, 0.4]
        assert without_out_of_service(dropped).remote_groups == (
            RemoteControlGroup(4, 1.03, (0, 1), (0.6, 0.4)),)

    def test_group_member_switched_off_and_renormalised(self):
        base = grouped_case((0.5, 0.3, 0.2))
        dropped = base.drop_generator(2)
        assert dropped.remote_groups == base.remote_groups
        assert validate(dropped) == []
        kappa = build_index(dropped).inj.kappa
        assert kappa.tolist() == pytest.approx([0.0, 0.6, 0.4], abs=1e-15)
        assert kappa.sum() == pytest.approx(1.0, abs=1e-15)
        (grp,) = without_out_of_service(dropped).remote_groups
        assert grp.members == (1, 2)
        assert grp.factors == pytest.approx((0.6, 0.4), abs=1e-15)

    def test_group_left_empty_is_kept_with_factors_0(self):
        # a 3-bus case whose one-member group controls bus 3
        case = NetworkCase(
            s_base=100.0,
            buses=(Bus(1, 230.0, "slack"), Bus(2, 230.0, "pq"),
                   Bus(3, 230.0, "pq")),
            branches=(Branch(1, 3, 1.0, -8.0), Branch(2, 3, 0.8, -6.0)),
            generators=(SLACK_GEN,
                        Generator(2, 0.6, 1.02, -0.4, 0.4, 0.0, 1.0,
                                  remote_bus=3, remote_factor=1.0)),
            loads=(Load(3, 0.9, 0.3),))
        assert case.remote_groups == (
            RemoteControlGroup(3, 1.02, (1,), (1.0,)),)
        for bus, kappa in ((1, [1.0]), (2, [0.0])):
            dropped = case.drop_generator(bus)
            assert dropped.remote_groups == case.remote_groups
            assert build_index(dropped).inj.kappa.tolist() == kappa
        assert without_out_of_service(case.drop_generator(1)).remote_groups \
            == (RemoteControlGroup(3, 1.02, (0,), (1.0,)),)
        assert without_out_of_service(case.drop_generator(2)).remote_groups \
            == ()

    @pytest.mark.parametrize("bus", [1, 2, 3])
    def test_inferred_groups_kept_and_inferred_again_without_the_unit(
            self, bus):
        base = remote_pair_case()
        case = replace(base, generators=(SLACK_GEN, *base.generators))
        assert case.remote_groups[0].members == (1, 2)
        dropped = case.drop_generator(bus)
        assert dropped.remote_groups == case.remote_groups
        assert build_index(dropped).inj.kappa.tolist() == pytest.approx(
            {1: [0.6, 0.4], 2: [0.0, 1.0], 3: [1.0, 0.0]}[bus], abs=1e-15)
        deleted = without_out_of_service(dropped)
        members = {1: (0, 1), 2: (1,), 3: (1,)}[bus]
        assert deleted.remote_groups[0].members == members


class TestGroupMembership:
    """Membership in an inferred group is a generator's control role."""

    def test_membership_is_a_control_role(self):
        # both members sit on PQ buses and hold no local role
        case = grouped_case((0.6, 0.4))
        kind = {b.id: b.kind for b in case.buses}
        assert [kind[case.generators[i].bus]
                for i in case.remote_groups[0].members] == ["pq", "pq"]
        assert validate(case) == []

    def test_generator_outside_every_group_has_none(self):
        case = grouped_case((0.6, 0.4))
        gens = list(case.generators)
        gens[2] = replace(gens[2], remote_bus=None)
        case = replace(case, generators=gens)
        assert case.remote_groups == (
            RemoteControlGroup(4, 1.03, (1,), (1.0,)),)
        assert validate(case) == [
            "generator 2 on PQ bus 3 has no control role"]

    def test_member_is_no_local_controller_of_its_pv_bus(self):
        # build_index leaves group members out of the local generators,
        # so nothing would hold a PV bus whose only generator is one
        case = grouped_case((0.6, 0.4))
        case = replace(case, buses=tuple(
            replace(b, kind="pv") if b.id == 2 else b for b in case.buses))
        assert build_index(case).local_gen_idx == []
        assert validate(case) == ["pv bus 2 has no local generator"]


class TestSerializeGroups:
    @pytest.mark.parametrize("factors", [(0.6, 0.4), (0.5, 0.5),
                                         (0.5, 0.3, 0.2)])
    def test_groups_are_written(self, factors):
        # the format stores the members' remote factors, from which
        # parsing infers the same groups
        case = grouped_case(factors)
        assert validate(case) == []
        assert case.remote_groups[0].factors == factors
        assert parse_native(serialize_native(case)) == case
