"""Projection to the vertical plane W = {(x, x, t)} and its consequences.

pi_W(x, y, t) = ((x+y)/2, t + (x^2-y^2)/4) maps a tube whose direction stays
away from the complementary line L = {(s, -s, 0)} into a delta^2-neighbourhood
of a parabola; the parabola's coefficients are closed forms in the tube data.
Fibers pi_W^{-1}(w) are the left translates w * L and meet a transversal tube
in gauge length O(delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .heis import HPoint
from .quadratics import Interval, Quadratic
from .tubes import HTube, tube_bounding_box

__all__ = [
    "PlanePoint",
    "ProjectedCurve",
    "PROJECTION_DOMAIN",
    "project_W",
    "project_W_batch",
    "tube_to_curve",
    "projection_containment_ratio",
    "fiber_point",
    "fiber_length",
]

PROJECTION_DOMAIN = Interval(-10.0, 10.0)

_MIN_AXIS_SUM = 0.5  # |a + b| floor: direction far from the line {(s, -s, 0)}


@dataclass(frozen=True)
class PlanePoint:
    """Point of the plane W: coordinate along (1,1,0) and vertical height."""

    theta: float
    height: float


@dataclass(frozen=True)
class ProjectedCurve:
    """Parabola theta -> kappa*(theta - theta0)^2 + slope*(theta - theta0) + offset."""

    kappa: float
    slope: float
    offset: float
    theta0: float
    domain: Interval

    def __call__(self, theta: float):
        u = theta - self.theta0
        return (self.kappa * u + self.slope) * u + self.offset

    def as_quadratic(self) -> Quadratic:
        """Expand into the (a, b, c) convention of the planar engine."""
        a = 2.0 * self.kappa
        b = self.slope - 2.0 * self.kappa * self.theta0
        c = self.offset - self.slope * self.theta0 + self.kappa * self.theta0 ** 2
        return Quadratic(a, b, c)


def project_W(p: HPoint) -> PlanePoint:
    return PlanePoint(0.5 * (p.x + p.y), p.t + 0.25 * (p.x * p.x - p.y * p.y))


def project_W_batch(pts: np.ndarray) -> np.ndarray:
    """(n,3) group points -> (n,2) plane points, a view of rows theta, height."""
    x, y, t = pts.T
    return np.stack([0.5 * (x + y), t + 0.25 * (x ** 2 - y ** 2)]).T


def tube_to_curve(tube: HTube) -> ProjectedCurve:
    """The parabola the tube projects onto.

    kappa = (a-b)/(a+b), slope = x-y, offset = t + (x^2-y^2)/4,
    theta0 = (x+y)/2; the core maps exactly onto the graph.  Directions with
    |a+b| < 1/2 are rejected: the projection degenerates near L.
    """
    a, b = tube.dir.a, tube.dir.b
    s = a + b
    if abs(s) < _MIN_AXIS_SUM:
        raise ValueError(
            f"direction ({a}, {b}) too close to the line (s,-s,0): |a+b|={abs(s)} < 0.5"
        )
    p = tube.center
    return ProjectedCurve(
        kappa=(a - b) / s,
        slope=p.x - p.y,
        offset=p.t + 0.25 * (p.x * p.x - p.y * p.y),
        theta0=0.5 * (p.x + p.y),
        domain=PROJECTION_DOMAIN,
    )


def tube_draws(delta: float, n: int, seed: int = 0):
    """`tube_points_sample`'s draws from default_rng([seed, 17]): s, then z."""
    rng = np.random.default_rng([seed, 17])
    return rng.random(n) - 0.5, _bulk.sample_gauge_ball(rng, delta, n)


def tube_points_sample(tube: HTube, n: int, seed: int = 0) -> np.ndarray:
    """n points of the tube: core(s) * z with s uniform, z uniform in the ball,
    as an (n, 3) view of three contiguous rows x, y, t."""
    s, z = tube_draws(tube.delta, n, seed)
    return _bulk.tube_points(tube.center.as_tuple(), tube.dir.a, tube.dir.b, s, z).T


def projection_containment_ratio(tube: HTube, s: np.ndarray, z: np.ndarray) -> float:
    """Max over the points core(s) * z of T inside B(0,1) of the vertical
    distance of the projection to the projected-curve graph, divided by delta^2.

    s and z are draws as `tube_draws(tube.delta, ...)` returns them.  The
    asserted content of the containment statement is that this stays below an
    absolute constant; points outside the unit ball are discarded.
    """
    curve = tube_to_curve(tube)
    rows = _bulk.tube_points(tube.center.as_tuple(), tube.dir.a, tube.dir.b, s, z)
    rows = rows.compress(_bulk.norm4(rows.T) <= 1.0, axis=1)
    if rows.shape[1] == 0:
        return 0.0
    theta, height = project_W_batch(rows.T).T
    u = theta - curve.theta0
    graph = (curve.kappa * u + curve.slope) * u + curve.offset
    return float(np.max(np.abs(height - graph))) / (tube.delta ** 2)


def fiber_point(w: PlanePoint, s: float) -> HPoint:
    """Point of the fiber pi_W^{-1}(w): w * (s, -s, 0) = (X+s, X-s, T - X*s)."""
    return HPoint(w.theta + s, w.theta - s, w.height - w.theta * s)


def fiber_length(tube: HTube, w: PlanePoint, resolution: float) -> float:
    """1-D measure of the fiber through w inside the tube, by counting
    resolution-spaced parameter samples and multiplying by the spacing.

    The fiber parametrization s -> w * (s, -s, 0) is a quasi-isometry; the
    raw count * resolution is reported (quasi-isometry constant folded into
    downstream thresholds).
    """
    if not (resolution > 0.0):
        raise ValueError(f"resolution must be positive, got {resolution}")
    a, b = tube.dir.a, tube.dir.b
    axis_sum = a + b
    X = w.theta
    c = tube.center
    if abs(axis_sum) >= 0.1:
        # planar crossing of the fiber shadow (X+s, X-s) with the core line
        u_star = (2.0 * X - c.x - c.y) / axis_sum
        s_star = c.x + u_star * a - X
        halfwidth = tube.delta / abs(axis_sum)
        lo, hi = s_star - halfwidth, s_star + halfwidth
    else:
        # near-degenerate direction: fall back to the bounding-box window
        box = tube_bounding_box(tube)
        lo = max(box[0, 0] - X, X - box[1, 1])
        hi = min(box[0, 1] - X, X - box[1, 0])
        if lo > hi:
            return 0.0
    n = int(math.floor((hi - lo) / resolution)) + 1
    s = lo + np.arange(n) * resolution
    d = _bulk.core_distance_elementwise(
        *_bulk.tube_frame(X + s, X - s, w.height - X * s, c.as_tuple(), a, b)
    )
    return float(np.count_nonzero(d <= tube.delta)) * resolution
