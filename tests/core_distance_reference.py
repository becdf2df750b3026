"""The core-distance kernel as it was before the tube frame had its own
helper: the frame formed from center^{-1} * p on (n, 3) points with `mul` and
`inv`, then the closed-form quartic.  `_bulk.tube_frame` followed by
`_bulk.core_distance_elementwise` must equal it bit for bit; so must the
frame shifts that `tube_sections` and the parabolic net's cull formed by hand.
"""

import numpy as np

from heislab import _bulk


def core_distance(centers, dir_a, dir_b, pts):
    """Exact gauge distance from each point of the (n, 3) array `pts` to the
    unit core through `centers` (one center or one per point) with direction
    (dir_a, dir_b) (scalars or one component per point)."""
    pts = _bulk.finite_points(pts)
    u = _bulk.mul(_bulk.inv(np.asarray(centers, dtype=np.float64)), pts)
    u0, u1, u2 = u[:, 0], u[:, 1], u[:, 2]
    beta = dir_a * u0 + dir_b * u1
    gamma = dir_b * u0 - dir_a * u1
    w = u2 + 0.5 * gamma * beta
    return frame_distance(beta, gamma, w)


def frame_distance(beta, gamma, w):
    """The closed-form quartic's minimum on the frame rows, as it was first
    written: the division by T skipped where T = 0, and np.clip."""
    g2 = gamma * gamma
    gw = gamma * w
    t = np.cbrt(-2.0 * gw - np.copysign(np.sqrt(4.0 * gw * gw + g2 * g2 * g2), gw))
    root = t - np.divide(g2, t, out=np.zeros_like(t), where=t != 0.0)
    x = np.clip(beta + root, -0.5, 0.5) - beta
    h = x * x + g2
    v = 4.0 * w + 2.0 * gamma * x
    return (h * h + v * v) ** 0.25


def section_shift(x, y, center, dir_a, dir_b):
    """The shift w - t of the frame, as `tube_sections` formed it by hand."""
    c0, c1, c2 = center
    u0 = -c0 + x
    u1 = -c1 + y
    beta = dir_a * u0 + dir_b * u1
    gamma = dir_b * u0 - dir_a * u1
    return -c2 + 0.5 * (-c0 * y - x * -c1) + 0.5 * gamma * beta


def net_window_w(xs, ys, ts, x0, yi, tk):
    """The frame w against the e1-tube centered at (x0, yi, tk), as the
    parabolic net's cull formed it by hand."""
    twist = 0.5 * (xs * yi - x0 * ys)
    gb = 0.5 * (ys - yi) * (xs - x0)
    return (ts - tk) + twist - gb
