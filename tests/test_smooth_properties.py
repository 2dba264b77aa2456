"""Property tests of the smooth primitives over generated curves."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitflow.smooth_primitives import participation_arrays, sigmoid_arrays
from tests.smooth_reference import (
    DECREASING,
    EXP_ARG_LIMIT,
    INCREASING,
    SigmoidSaturation,
    participation_build,
    participation_deriv,
    participation_eval,
    sigmoid_deriv,
    sigmoid_eval,
)

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
ORIENTATIONS = st.sampled_from([DECREASING, INCREASING])


@st.composite
def sigmoids(draw, max_smoothing=1e5):
    a, b = draw(finite), draw(finite)
    return SigmoidSaturation(min(a, b), max(a, b), draw(st.floats(-10.0, 10.0)),
                             draw(st.floats(1e-3, max_smoothing)),
                             draw(ORIENTATIONS))


@st.composite
def participation_curves(draw):
    """(slope, y_min, y_max, delta) of a valid participation curve."""
    slope = draw(st.floats(1e-2, 1e2))
    lo = draw(finite)
    hi = lo + draw(st.floats(1e-3, 100.0))
    assume(hi > lo)
    # patches may not overlap: 2 * delta * slope < y_max - y_min
    delta = draw(st.floats(0.01, 0.45)) * (hi - lo) / slope
    return slope, lo, hi, delta


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sign_of(s):
    return 1.0 if s.orientation == DECREASING else -1.0


def curve(s, x):
    """(value, slope) of the curve s at x, from sigmoid_arrays."""
    value, slope = sigmoid_arrays(*(np.array([a]) for a in (
        s.y_min, s.y_max, s.x_set)), s.smoothing, np.array([x]), sign_of(s))
    return float(value[0]), float(slope[0])


@given(sigmoids(), st.floats(-1e6, 1e6))
def test_sigmoid_stays_within_limits(s, x):
    assert s.y_min <= curve(s, x)[0] <= s.y_max


@given(sigmoids(), st.sampled_from([-1.0, 1.0]), st.floats(1.0, 1e3))
def test_sigmoid_saturates_beyond_exp_limit(s, side, margin):
    # |u| >= EXP_ARG_LIMIT + 1, where exp(-|u|) underflows to 0: the
    # curve is exactly at the limit it tends to
    x = s.x_set + side * (EXP_ARG_LIMIT + margin) / s.smoothing
    rising = side * sign_of(s) < 0.0  # u < 0, towards y_max
    assert curve(s, x) == ((s.y_max if rising else s.y_min), 0.0)


@given(sigmoids(max_smoothing=200.0), st.floats(-3.0, 3.0))
def test_sigmoid_deriv_matches_central_difference(s, z):
    x = s.x_set + z / s.smoothing
    a = curve(s, x)[1]
    fd = central_diff(lambda v: curve(s, v)[0], x, 1e-6)
    assert abs(a - fd) <= 1e-5 * max(1.0, abs(a))


@given(participation_curves(), st.floats(-1.5, 1.5))
def test_participation_deriv_matches_central_difference(c, z):
    p = participation_build(*c)
    x = p.x_lo_out + z * (p.x_hi_out - p.x_lo_out) * 1.5
    h = 1e-7 * max(1.0, abs(x))
    edges = (p.x_lo_out, p.x_lo_in, p.x_hi_in, p.x_hi_out)
    assume(min(abs(x - e) for e in edges) > 1e3 * h)
    a = participation_deriv(p, x)
    fd = central_diff(lambda v: participation_eval(p, v), x, h)
    # each piece is at most quadratic, so only rounding of the values
    # (of size eps * |y| / h) separates the difference from the slope
    rounding = 1e-14 * max(abs(p.y_min), abs(p.y_max), 1.0) / h
    assert abs(a - fd) <= rounding + 1e-9 * p.slope


@given(participation_curves(), st.sampled_from(range(4)))
def test_participation_continuous_at_breakpoints(c, which):
    p = participation_build(*c)
    xb = (p.x_lo_out, p.x_lo_in, p.x_hi_in, p.x_hi_out)[which]
    eps = 1e-9 * (p.x_hi_out - p.x_lo_out)
    # rounding: a few ulps of the values, and of x shifted through the curve
    dx = 4.0 * math.ulp(abs(xb) + eps)
    dy = 4.0 * math.ulp(max(abs(p.y_min), abs(p.y_max))) + p.slope * dx
    at = participation_eval(p, xb), participation_deriv(p, xb)
    for side in (-eps, eps):
        v, d = participation_eval(p, xb + side), participation_deriv(p, xb + side)
        # value moves at most slope * eps, slope at most slope / (2 delta) * eps
        assert abs(v - at[0]) <= p.slope * eps * 1.01 + dy
        assert abs(d - at[1]) <= (p.slope * (eps * 1.01 + dx) / (2.0 * p.delta)
                                  + 4.0 * math.ulp(p.slope))


@settings(max_examples=50)
@given(st.lists(st.tuples(sigmoids(), st.floats(-20.0, 20.0)), min_size=1,
                max_size=8), st.floats(1e-3, 1e5))
def test_sigmoid_arrays_equal_scalar_forms(draws, smoothing):
    # both orientations: sign 1 decreasing, -1 increasing. np.exp may
    # differ from math.exp in the last bit, and sigmoid_arrays clamps
    # what the reference lets round past y_max, so the two agree to a few
    # roundings of the limits' size, and of the slope's scale
    curves = [SigmoidSaturation(s.y_min, s.y_max, s.x_set, smoothing,
                                s.orientation) for s, _ in draws]
    x = np.array([x for _, x in draws])
    value, slope = sigmoid_arrays(np.array([s.y_min for s in curves]),
                                  np.array([s.y_max for s in curves]),
                                  np.array([s.x_set for s in curves]),
                                  smoothing, x,
                                  np.array([sign_of(s) for s in curves]))
    eps = np.finfo(float).eps
    for k, s in enumerate(curves):
        limits = abs(s.y_min) + abs(s.y_max)
        assert abs(value[k] - sigmoid_eval(s, x[k])) <= 4.0 * eps * limits
        assert abs(slope[k] - sigmoid_deriv(s, x[k])) <= (
            4.0 * eps * smoothing * (s.y_max - s.y_min))


@settings(max_examples=50)
@given(st.lists(st.tuples(participation_curves(), st.floats(-1.5, 1.5)),
                min_size=1, max_size=8))
def test_participation_arrays_equal_scalar_forms(draws):
    curves = [participation_build(*c) for c, _ in draws]
    # spread the draws over all five regions of each curve
    x = np.array([p.x_lo_out + z * (p.x_hi_out - p.x_lo_out) * 1.5
                  for p, (_, z) in zip(curves, draws)])
    value, deriv = participation_arrays(
        *(np.array(col) for col in zip(*(c for c, _ in draws))), x)
    for k, p in enumerate(curves):
        assert value[k].tobytes() == np.float64(
            participation_eval(p, x[k])).tobytes()
        assert deriv[k].tobytes() == np.float64(
            participation_deriv(p, x[k])).tobytes()
