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

import numpy as np


def sigmoid_arrays(y_min, y_max, x_set, smoothing: float, x, sign=1.0):
    """Values and slopes of logistic curves at x, elementwise.

    A curve runs between y_min and y_max, centred at x_set: with sign 1
    it decreases, tending to y_max as x -> -inf and to y_min as
    x -> +inf; with sign -1 it increases. The smoothing sets the
    steepness; large values approximate a hard switch at x_set. The
    logistic w = 1 / (1 + exp(u)) of u = smoothing * (x - x_set) * sign
    is taken from z = exp(-|u|), which never overflows. Values lie within
    [y_min, y_max]: where w rounds to 1 the value is y_max itself, since
    span * 1 + y_min can round to either side of it; below 1, span * w
    falls short of span by at least one rounding of span, enough to keep
    span * w + y_min at or below y_max. Once z underflows (|u| > 745.2) a
    curve is exactly at its limit, with slope 0.0.
    """
    u = smoothing * (x - x_set) * sign
    z = np.exp(-np.abs(u))
    w = np.where(u >= 0.0, z, 1.0) / (1.0 + z)
    span = y_max - y_min
    value = np.where(w < 1.0, span * w + y_min, y_max)
    return value, -smoothing * span * w * (1.0 - w) * sign


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
