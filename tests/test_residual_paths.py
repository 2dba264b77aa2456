"""`residual` runs the stamp pass without building J; `assemble` runs it
with J. Both must give the same F, bit for bit, in every control mode."""

from dataclasses import replace

import numpy as np
import pytest

from splitflow.circuit_stamps import (
    FIXED_Q,
    FIXED_V,
    ControlMode,
    assemble,
    build_index,
    residual,
)
from tests.conftest import (
    MATPOWER_CASES,
    NATIVE_CASES,
    assert_jacobian_matches,
    load_matpower,
    load_native,
    random_state,
    remote_pair_case,
    shunt_case,
    tapped_case,
)

# constructed cases with the devices no bundled case has: a remote group,
# a tap on either side, and a switched shunt alone
CONSTRUCTED = {
    "remote_pair": remote_pair_case,
    "tapped-primary": lambda: tapped_case("primary"),
    "tapped-secondary": lambda: tapped_case("secondary"),
    "shunted": shunt_case,
}
CASES = MATPOWER_CASES + NATIVE_CASES + list(CONSTRUCTED)


def load(name):
    if name in CONSTRUCTED:
        return CONSTRUCTED[name]()
    return load_matpower(name) if name in MATPOWER_CASES else load_native(name)


def with_slack_members(case):
    """Distributed slack on, with every non-slack generator taking part."""
    slack = case.slack_bus().id
    gens = tuple(g if g.bus == slack or g.agc_factor > 0.0
                 else replace(g, agc_factor=0.5 + 0.1 * (k % 3))
                 for k, g in enumerate(case.generators))
    return replace(case, generators=gens, agc_enabled=True)


def variant(case, name):
    """(case, ControlMode) of one control variant."""
    ctl = ControlMode()
    idx = build_index(case)
    keys = list(idx.q_col) + [("tap", bi) for bi in idx.tap_col]
    if name == "base":
        return case, ctl
    if name == "relaxed-limits":
        return case, replace(ctl, smoothing_relax=4000.0,
                             q_scale={k: 1.5 for k in keys},
                             q_widen={k: (0.05, 0.1) for k in keys[::2]})
    if name == "fixed-modes":
        modes = {k: (FIXED_V, FIXED_Q)[n % 2] for n, k in enumerate(keys)}
        held = {k: 0.1 for k, m in modes.items() if m == FIXED_Q}
        return case, replace(ctl, device_modes=modes, fixed_q=held,
                             group_modes={0: FIXED_V})
    if name.startswith("slack-"):
        case = with_slack_members(case)
        ctl = ControlMode()
        members = build_index(case).agc_member_idx
        return case, replace(ctl, p_relax=float(name[len("slack-"):]),
                             p_extra={i: (0.3, 0.5) for i in members[::2]})
    if name == "snapped":
        # the snapped taps held at their ratios, the shunts admittances
        taps = {("tap", bi): 1.01 for bi in idx.tap_col}
        return case, replace(
            ctl, fixed_shunt_b={j: 0.1 for j in range(len(case.shunts))},
            device_modes=dict.fromkeys(taps, FIXED_Q), fixed_q=taps)
    if name == "tx-relaxed":
        return case, replace(ctl, tx_relax=0.3)
    raise ValueError(name)


VARIANTS = ["base", "relaxed-limits", "fixed-modes", "slack-0", "slack-0.5",
            "slack-1", "snapped", "tx-relaxed"]


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_residual_equals_assembled_residual(case_name, variant_name):
    case, ctl = variant(load(case_name), variant_name)
    for seed in (0, 1):
        state = random_state(case, ctl, seed)
        f_only = residual(state, ctl)
        f_full = assemble(state, ctl)[0]
        assert np.array_equal(f_only.view(np.uint64), f_full.view(np.uint64))


@pytest.mark.parametrize("variant_name", VARIANTS)
@pytest.mark.parametrize("case_name", CASES)
def test_jacobian_matches_finite_differences(case_name, variant_name):
    # every slot of the index map, the stored zeros of held rows, snapped
    # devices and slack members included. No one step fits every case:
    # round-off spoils some entries at h = 1e-6 (savnw_like tx-relaxed),
    # truncation others at h = 1e-5 (remote_pair base), so each entry is
    # judged by the closer of the two
    case, ctl = variant(load(case_name), variant_name)
    for seed in (0, 1):
        assert_jacobian_matches(random_state(case, ctl, seed), ctl,
                                steps=(1e-6, 1e-5))


def test_jacobian_matches_in_outage_screening_configuration():
    # distributed slack on and one generator dropped, as an N-1 sweep runs
    case118 = load_matpower("case118")
    case = replace(case118, agc_enabled=True).drop_generator(
        case118.generators[3].bus)
    ctl = ControlMode()
    assert case.agc_enabled and build_index(case).dps_col is not None
    assert_jacobian_matches(random_state(case, ctl, 0), ctl)


def test_control_mode_changed_in_place_is_seen():
    # the pass reuses what it derived from the last ControlMode; a mode
    # whose dicts change in place must still be stamped as it now is
    case = load_matpower("case9")
    ctl = ControlMode()
    keys = list(build_index(case).q_col)
    ctl = replace(ctl, q_scale={k: 1.5 for k in keys})
    state = random_state(case, ctl, 0)
    before = residual(state, ctl)
    ctl.q_scale[keys[0]] = 3.0
    after = residual(state, ctl)
    fresh = replace(ctl, q_scale=dict(ctl.q_scale))
    assert not np.array_equal(before, after)
    assert np.array_equal(after, residual(state, fresh))
