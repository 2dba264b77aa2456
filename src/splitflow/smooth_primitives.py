"""C1 building blocks for continuous device-control models, as arrays.

Two primitives, each evaluated over many devices at once: a logistic
saturation curve joining a controlled regime to hard output limits
(`sigmoid_arrays`), and a five-region participation curve (flat,
quadratic patch, linear, quadratic patch, flat) that coordinates several
devices through one shared variable while respecting per-device limits
(`participation_arrays`). Curves are not validated here; the callers
build them from validated limits.
"""

from __future__ import annotations

import math

import numpy as np

# exp() overflows above ~709.8; the guarded forms below only ever
# exponentiate a non-positive argument, so this clamp merely pins the
# saturated tails to exact limits.
EXP_ARG_LIMIT = 745.0


def _logistic(u: float) -> float:
    """1 / (1 + exp(u)), overflow-safe for any finite u."""
    if u > EXP_ARG_LIMIT:
        return 0.0
    if u < -EXP_ARG_LIMIT:
        return 1.0
    if u >= 0.0:
        z = math.exp(-u)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(u))


def sigmoid_arrays(y_min, y_max, x_set, smoothing: float, x, sign=1.0):
    """Values and slopes of logistic curves at x, elementwise.

    A curve runs between y_min and y_max, centred at x_set: with sign 1
    it decreases, tending to y_max as x -> -inf and to y_min as
    x -> +inf; with sign -1 it increases. The smoothing sets the
    steepness; large values approximate a hard switch at x_set. Values
    lie within [y_min, y_max], except that the saturated tail
    (y_max - y_min) * 1 + y_min can round above y_max by one rounding of
    the limits' size; slopes are 0.0 exactly on the saturated tails. The
    exponential runs through math.exp (`_logistic`), since np.exp can
    differ from it in the last bit.
    """
    u = smoothing * (x - x_set) * sign
    w = np.fromiter(map(_logistic, u.tolist()), float, len(u))
    span = y_max - y_min
    return span * w + y_min, -smoothing * span * w * (1.0 - w) * sign


def default_patch_width(slope, y_min, y_max):
    """2% of the linear-region input span (y_max - y_min) / slope."""
    return 0.02 * (y_max - y_min) / slope


def participation_arrays(slope, y_min, y_max, delta, x):
    """Values and slopes of participation curves at x, elementwise.

    A curve is y_min, a quadratic patch, slope * x, a quadratic patch and
    y_max in turn. The patches, of half-width delta (in x units) around
    the limit crossings x = y_min/slope and x = y_max/slope, are the
    quadratics that match the flat segment (value, zero slope) at their
    outer edge and the linear one (value, slope) at their inner edge, so
    value and slope are continuous everywhere. A curve needs slope > 0,
    y_min < y_max, delta > 0 and 2 * delta * slope < y_max - y_min.
    """
    x_lo_out, x_lo_in = y_min / slope - delta, y_min / slope + delta
    x_hi_in, x_hi_out = y_max / slope - delta, y_max / slope + delta
    t_lo, t_hi = x - x_lo_out, x_hi_out - x
    below, low_patch = x <= x_lo_out, x < x_lo_in
    linear, high_patch = x <= x_hi_in, x < x_hi_out
    where = np.where
    value = where(below, y_min, where(
        low_patch, y_min + slope * t_lo * t_lo / (4.0 * delta), where(
            linear, slope * x, where(
                high_patch, y_max - slope * t_hi * t_hi / (4.0 * delta),
                y_max))))
    deriv = where(below | (x >= x_hi_out), 0.0, where(
        low_patch, slope * t_lo / (2.0 * delta), where(
            linear, slope, slope * t_hi / (2.0 * delta))))
    return value, deriv
