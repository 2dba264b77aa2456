import math

import mpmath
import numpy as np
import pytest

from tests.smooth_reference import (
    DECREASING,
    INCREASING,
    ParticipationCurve,
    SigmoidSaturation,
    participation_build,
    participation_deriv,
    participation_eval,
    sigmoid_deriv,
    sigmoid_eval,
)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSigmoid:
    def test_midpoint(self):
        s = SigmoidSaturation(-1.0, 1.0, 1.0, 5000.0)
        assert sigmoid_eval(s, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_arbitrary_precision(self):
        # y(1.01) = -1 + 2 / (1 + e^50), evaluated at 50 decimal digits
        s = SigmoidSaturation(-1.0, 1.0, 1.0, 5000.0)
        with mpmath.workdps(50):
            expected = float(-1 + 2 / (1 + mpmath.e**50))
        got = sigmoid_eval(s, 1.01)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-1.0, abs=1e-20)

    def test_degenerate_range_is_constant(self):
        s = SigmoidSaturation(0.5, 0.5, 0.0, 10.0)
        for x in (-1e9, -1.0, 0.0, 2.0, 1e9):
            assert sigmoid_eval(s, x) == 0.5
            assert sigmoid_deriv(s, x) == 0.0

    def test_deriv_extremum_at_setpoint(self):
        s = SigmoidSaturation(-1.0, 1.0, 1.0, 5000.0)
        assert sigmoid_deriv(s, 1.0) == pytest.approx(-2500.0, rel=1e-12)

    def test_deriv_zero_in_saturated_tail(self):
        s = SigmoidSaturation(-1.0, 1.0, 0.0, 5000.0)
        assert sigmoid_deriv(s, 0.2) == 0.0
        assert sigmoid_deriv(s, -0.2) == 0.0

    def test_overflow_guard(self):
        s = SigmoidSaturation(-2.0, 3.0, 0.0, 5000.0)
        assert sigmoid_eval(s, 1e6) == -2.0
        assert sigmoid_eval(s, -1e6) == 3.0

    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        s = SigmoidSaturation(-0.6, 1.4, 1.0, 120.0)
        for x in rng.uniform(0.8, 1.2, 200):
            a = sigmoid_deriv(s, x)
            fd = central_diff(lambda z: sigmoid_eval(s, z), x)
            assert abs(a - fd) / max(1.0, abs(a)) < 1e-5

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(11)
        s = SigmoidSaturation(-1.0, 2.0, 0.5, 300.0)
        xs = np.sort(rng.uniform(0.3, 0.7, 100))
        ys = [sigmoid_eval(s, x) for x in xs]
        assert all(a >= b for a, b in zip(ys, ys[1:]))
        assert all(-1.0 <= y <= 2.0 for y in ys)

    def test_increasing_orientation_swaps_tails(self):
        inc = SigmoidSaturation(0.9, 1.1, 1.0, 400.0, INCREASING)
        dec = SigmoidSaturation(0.9, 1.1, 1.0, 400.0, DECREASING)
        assert sigmoid_eval(inc, 0.5) == pytest.approx(0.9, abs=1e-12)
        assert sigmoid_eval(inc, 1.5) == pytest.approx(1.1, abs=1e-12)
        # increasing == decreasing with the output limits swapped
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.9, 1.1, 50):
            mirrored = (1.1 + 0.9) - sigmoid_eval(dec, x)
            assert sigmoid_eval(inc, x) == pytest.approx(mirrored, abs=1e-12)
            assert sigmoid_deriv(inc, x) >= 0.0

    def test_saturation_accuracy_claim(self):
        # with smoothing 5000, the output is within 0.4% of range of its
        # limit whenever the input is at least ln(249)/5000 from the set
        # point; 1.11e-3 is just past that threshold
        s = SigmoidSaturation(-1.0, 1.0, 1.0, 5000.0)
        threshold = math.log(249.0) / 5000.0
        assert threshold == pytest.approx(1.104e-3, abs=1e-6)
        for dx in (1.11e-3, 2e-3, 0.01, 0.1):
            assert sigmoid_eval(s, 1.0 + dx) <= -1.0 + 0.004 * 2.0
            assert sigmoid_eval(s, 1.0 - dx) >= 1.0 - 0.004 * 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SigmoidSaturation(1.0, -1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            SigmoidSaturation(-1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SigmoidSaturation(-1.0, 1.0, 0.0, 10.0, "sideways")


class TestParticipation:
    def test_patch_coefficients(self):
        # high-side patch on x in [0.9, 1.1]; coefficients from the three
        # C1 matching conditions, solved independently as a 3x3 system
        p = participation_build(1.0, -1.0, 1.0, delta=0.1)
        A = np.array([
            [1.1**2, 1.1, 1.0],   # value matches the flat at the outer edge
            [0.9**2, 0.9, 1.0],   # value matches the line at the inner edge
            [2 * 0.9, 1.0, 0.0],  # slope matches the line at the inner edge
        ])
        rhs = np.array([1.0, 0.9, 1.0])
        a, b, c = np.linalg.solve(A, rhs)
        assert (p.a_max, p.b_max, p.c_max) == pytest.approx((a, b, c), rel=1e-12)
        assert (p.a_max, p.b_max, p.c_max) == pytest.approx(
            (-2.5, 5.5, -2.025), rel=1e-12
        )
        # outer-edge slope of the derived quadratic is zero
        assert 2 * p.a_max * 1.1 + p.b_max == pytest.approx(0.0, abs=1e-12)

    def test_overlap_rejected(self):
        # patches collide when 2*delta*slope reaches the output span
        with pytest.raises(ValueError, match="overlap"):
            participation_build(1.0, -1.0, 1.0, delta=1.0)
        with pytest.raises(ValueError, match="overlap"):
            participation_build(2.0, -1.0, 1.0, delta=0.6)
        # half the span is still a legal (if chunky) patch
        participation_build(1.0, -1.0, 1.0, delta=0.6)

    def test_origin(self):
        p = participation_build(1.0, -1.0, 1.0, delta=0.1)
        assert participation_eval(p, 0.0) == 0.0

    def test_linear_region_exact(self):
        p = participation_build(0.25, -10.0, 10.0, delta=0.5)
        assert participation_eval(p, 2.0) == 0.5
        assert participation_deriv(p, 2.0) == 0.25

    def test_flat_regions_exact(self):
        p = participation_build(0.25, -10.0, 10.0, delta=0.5)
        assert participation_eval(p, 1e9) == 10.0
        assert participation_eval(p, -1e9) == -10.0
        assert participation_deriv(p, 1e9) == 0.0

    def test_value_continuity_at_breakpoints(self):
        p = participation_build(0.7, -0.9, 1.3, delta=0.05)
        span = p.y_max - p.y_min
        for xb in (p.x_lo_out, p.x_lo_in, p.x_hi_in, p.x_hi_out):
            lo = participation_eval(p, xb - 1e-9)
            hi = participation_eval(p, xb + 1e-9)
            assert abs(hi - lo) < 1e-7 * span

    def test_derivative_finite_difference(self):
        rng = np.random.default_rng(23)
        p = participation_build(0.7, -0.9, 1.3, delta=0.05)
        xs = list(rng.uniform(p.x_lo_out - 1.0, p.x_hi_out + 1.0, 300))
        for xb in (p.x_lo_out, p.x_lo_in, p.x_hi_in, p.x_hi_out):
            xs.extend(rng.uniform(xb - 2 * p.delta, xb + 2 * p.delta, 50))
        for x in xs:
            a = participation_deriv(p, x)
            fd = central_diff(lambda z: participation_eval(p, z), x, h=1e-7)
            assert abs(a - fd) / max(1.0, abs(a)) < 1e-5

    def test_clipped_range_without_origin(self):
        # limits both positive: the linear region does not straddle zero
        p = participation_build(0.5, 0.2, 1.0, delta=0.05)
        assert participation_eval(p, -5.0) == 0.2
        assert participation_eval(p, 1.2) == pytest.approx(0.6)

    def test_default_patch_width(self):
        p = participation_build(2.0, -1.0, 1.0)
        assert p.delta == pytest.approx(0.02 * 2.0 / 2.0)

    def test_build_validation(self):
        with pytest.raises(ValueError):
            participation_build(-1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            participation_build(1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            ParticipationCurve(1.0, -1.0, 1.0, -0.1)
