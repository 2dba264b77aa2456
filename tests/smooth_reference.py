"""Scalar reference forms of the smooth primitives.

`splitflow.smooth_primitives` evaluates its curves only as arrays; these
scalar curve objects and functions are the reference its array forms are
checked against, bit for bit (tests/test_smooth_properties.py), and the
forms the closed-form tests of tests/test_smooth_primitives.py read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from splitflow.smooth_primitives import _logistic, default_patch_width

DECREASING = "decreasing"
INCREASING = "increasing"


@dataclass(frozen=True)
class SigmoidSaturation:
    """Logistic curve between y_min and y_max, centered at x_set.

    Decreasing orientation: output tends to y_max as x -> -inf and to
    y_min as x -> +inf. Increasing orientation swaps the tails.
    The smoothing factor sets the steepness; large values approximate a
    hard switch at x_set.
    """

    y_min: float
    y_max: float
    x_set: float
    smoothing: float
    orientation: str = DECREASING

    def __post_init__(self):
        if self.y_min > self.y_max:
            raise ValueError(f"y_min {self.y_min} > y_max {self.y_max}")
        if self.smoothing <= 0.0:
            raise ValueError(f"smoothing must be > 0, got {self.smoothing}")
        if self.orientation not in (DECREASING, INCREASING):
            raise ValueError(f"unknown orientation {self.orientation!r}")


def sigmoid_eval(s: SigmoidSaturation, x: float) -> float:
    """Curve value at x; within [y_min, y_max], except that the
    saturated tail (y_max - y_min) * 1 + y_min can round above y_max by
    one rounding of the limits' size."""
    u = s.smoothing * (x - s.x_set)
    if s.orientation == INCREASING:
        u = -u
    return (s.y_max - s.y_min) * _logistic(u) + s.y_min


def sigmoid_deriv(s: SigmoidSaturation, x: float) -> float:
    """Exact d(value)/dx; 0.0 exactly on the saturated tails."""
    u = s.smoothing * (x - s.x_set)
    if s.orientation == INCREASING:
        u = -u
    w = _logistic(u)
    slope = -s.smoothing * (s.y_max - s.y_min) * w * (1.0 - w)
    if s.orientation == INCREASING:
        slope = -slope
    return slope


@dataclass(frozen=True)
class ParticipationCurve:
    """Piecewise C1 curve: y_min / quadratic / slope*x / quadratic / y_max.

    The quadratic patches of half-width delta (in x units) around the
    limit crossings x = y_min/slope and x = y_max/slope make value and
    first derivative continuous everywhere. Patch polynomial coefficients
    (a, b, c for a*x^2 + b*x + c) are derived, not free.
    """

    slope: float
    y_min: float
    y_max: float
    delta: float
    # breakpoints, ascending: flat | patch | linear | patch | flat
    x_lo_out: float = field(init=False)
    x_lo_in: float = field(init=False)
    x_hi_in: float = field(init=False)
    x_hi_out: float = field(init=False)
    a_min: float = field(init=False)
    b_min: float = field(init=False)
    c_min: float = field(init=False)
    a_max: float = field(init=False)
    b_max: float = field(init=False)
    c_max: float = field(init=False)

    def __post_init__(self):
        k, lo, hi, d = self.slope, self.y_min, self.y_max, self.delta
        if k <= 0.0:
            raise ValueError(f"slope must be > 0, got {k}")
        if lo >= hi:
            raise ValueError(f"y_min {lo} must be < y_max {hi}")
        if d <= 0.0:
            raise ValueError(f"delta must be > 0, got {d}")
        if 2.0 * d * k >= hi - lo:
            raise ValueError(
                f"patches overlap: 2*delta*slope = {2.0 * d * k} "
                f">= y_max - y_min = {hi - lo}"
            )
        object.__setattr__(self, "x_lo_out", lo / k - d)
        object.__setattr__(self, "x_lo_in", lo / k + d)
        object.__setattr__(self, "x_hi_in", hi / k - d)
        object.__setattr__(self, "x_hi_out", hi / k + d)
        # Each patch is the unique quadratic matching the flat segment
        # (value, zero slope) at its outer edge and the linear segment
        # (value, slope k) at its inner edge:
        #   low side:  q(x) = y_min + k*(x - x_lo_out)^2 / (4*delta)
        #   high side: q(x) = y_max - k*(x_hi_out - x)^2 / (4*delta)
        q = k / (4.0 * d)
        object.__setattr__(self, "a_min", q)
        object.__setattr__(self, "b_min", -2.0 * q * self.x_lo_out)
        object.__setattr__(self, "c_min", lo + q * self.x_lo_out**2)
        object.__setattr__(self, "a_max", -q)
        object.__setattr__(self, "b_max", 2.0 * q * self.x_hi_out)
        object.__setattr__(self, "c_max", hi - q * self.x_hi_out**2)


def participation_build(
    slope: float, y_min: float, y_max: float, delta: float | None = None
) -> ParticipationCurve:
    """Construct a participation curve; delta defaults to 2% of the linear span."""
    if delta is None:
        delta = default_patch_width(slope, y_min, y_max)
    return ParticipationCurve(slope, y_min, y_max, delta)


def participation_eval(p: ParticipationCurve, x: float) -> float:
    if x <= p.x_lo_out:
        return p.y_min
    if x < p.x_lo_in:
        t = x - p.x_lo_out
        return p.y_min + p.slope * t * t / (4.0 * p.delta)
    if x <= p.x_hi_in:
        return p.slope * x
    if x < p.x_hi_out:
        t = p.x_hi_out - x
        return p.y_max - p.slope * t * t / (4.0 * p.delta)
    return p.y_max


def participation_deriv(p: ParticipationCurve, x: float) -> float:
    if x <= p.x_lo_out or x >= p.x_hi_out:
        return 0.0
    if x < p.x_lo_in:
        return p.slope * (x - p.x_lo_out) / (2.0 * p.delta)
    if x <= p.x_hi_in:
        return p.slope
    return p.slope * (p.x_hi_out - x) / (2.0 * p.delta)

