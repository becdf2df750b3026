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
from .tubes import HTube, checked_params, tube_bounding_box, tube_params

__all__ = [
    "PlanePoint",
    "ProjectedCurve",
    "PROJECTION_DOMAIN",
    "project_W",
    "project_W_batch",
    "tube_to_curve",
    "projection_containment_ratio",
    "exact_containment_ratio",
    "fiber_point",
    "fiber_length",
]

PROJECTION_DOMAIN = Interval(-10.0, 10.0)

_MIN_AXIS_SUM = 0.5  # |a + b| floor: direction far from the line {(s, -s, 0)}

# grid rows per kernel call of `fiber_length`: at 4,096 a probe-scan pass
# peaks at the ru_maxrss of one call per sample, while 8,192
# (`_bulk.CULL_CHUNK`) raised it by 0.6-0.8 MB
FIBER_BLOCK = 4096


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


def tube_draws(delta: float, n: int, seed: int | tuple[int, ...] = 0):
    """`tube_points_sample`'s draws from default_rng([seed, 17]), or from
    default_rng([*seed, 17]) for a tuple of seeds: s, then z."""
    rng = np.random.default_rng([*(seed if isinstance(seed, tuple) else (seed,)), 17])
    return rng.random(n) - 0.5, _bulk.sample_gauge_ball(rng, delta, n)


def tube_points_sample(tube: HTube, n: int, seed: int | tuple[int, ...] = 0) -> np.ndarray:
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
    x, y, t = rows.compress(_bulk.norm4(rows.T) <= 1.0, axis=1)
    if len(x) == 0:
        return 0.0
    # `project_W_batch`'s operations, on the rows
    theta, height = 0.5 * (x + y), t + 0.25 * (x ** 2 - y ** 2)
    return float(np.max(np.abs(height - curve(theta)))) / (tube.delta ** 2)


def exact_containment_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per direction (a, b) of a `tube_params` table, the sup over the whole
    tube of `projection_containment_ratio`'s distance over delta^2, at every
    delta: sqrt(1 + (|kappa| + sqrt(1 + kappa^2))^2) / 4, kappa = (a-b)/(a+b).

    core(s) * z lies z2 + Q(z0, z1) above the graph, Q = (z0^2 - z1^2)/4 -
    kappa (z0 + z1)^2/4 with eigenvalues (-kappa +- sqrt(1 + kappa^2))/4; the
    sup is over the gauge ball (z0^2 + z1^2)^2 + 16 z2^2 <= delta^4.
    |a + b| < 1/2 raises ValueError, as in `tube_to_curve`."""
    if not (np.abs(np.add(a, b)) >= _MIN_AXIS_SUM).all():
        raise ValueError("directions too close to the line (s,-s,0): need |a+b| >= 0.5")
    kappa = np.subtract(a, b) / np.add(a, b)
    mu = np.abs(kappa) + np.sqrt(1.0 + kappa * kappa)
    return np.sqrt(1.0 + mu * mu) / 4.0


# bound on delta^2 (sampled - exact ratio) from rounding: a kept point has
# |x|, |y| <= 1, so |c0|, |c1|, |c2| <= 2 and every value the sampled ratio is
# formed from is at most 6; its ~30 roundings, amplified by at most |kappa| <=
# sqrt(7) and 5, sum to under 40 * 2^-52 (0.7 * 2^-52 seen on extremal points
# of 6,000 tubes at delta = 2^-20)
CONTAINMENT_ROUNDING = 64 * 2.0 ** -52


def fiber_point(w: PlanePoint, s: float) -> HPoint:
    """Point of the fiber pi_W^{-1}(w): w * (s, -s, 0) = (X+s, X-s, T - X*s)."""
    return HPoint(w.theta + s, w.theta - s, w.height - w.theta * s)


def fiber_length(tube, w, resolution: float):
    """1-D measure of the fiber through w inside the tube, by counting
    resolution-spaced parameter samples and multiplying by the spacing.

    The fiber parametrization s -> w * (s, -s, 0) is a quasi-isometry; the
    raw count * resolution is reported (quasi-isometry constant folded into
    downstream thresholds).

    Array form: a (6, n) `tubes.tube_params` table and an (n, 2) array of
    plane points (theta, height), as `project_W_batch` returns them, give the
    n lengths; the one-tube call is this code on `tube_params([tube])`.  Each
    sample's grid s = lo + k * resolution, k < floor((hi - lo) / resolution)
    + 1, covers the crossing of the fiber's shadow (X + s, X - s) with the
    core line widened by delta / |a + b|, or, when |a + b| < 0.1, the tube's
    bounding box (an empty box window counts 0).  The samples' grid rows,
    laid end to end, go to `_bulk.count_members` in blocks of `FIBER_BLOCK`
    rows, so the temporaries stay small whatever n and however long a
    sample is.  A table of another shape, with a non-finite entry, a
    direction with |a^2 + b^2 - 1| > 1e-12 or a delta outside (0, 1) (as
    `HTube` checks), a non-finite plane point or resolution, a resolution
    <= 0, or a count of points other than one per tube raises ValueError
    before any arithmetic.
    """
    if isinstance(tube, HTube):
        return float(_fiber_lengths(tube_params([tube]), [[w.theta, w.height]], resolution)[0])
    return _fiber_lengths(tube, w, resolution)


def _fiber_lengths(params, w, resolution: float) -> np.ndarray:
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")
    params = checked_params(params)
    cx, cy, _, a, b, delta = params
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != 2 or len(w) != params.shape[1]:
        raise ValueError(f"need one plane point (theta, height) per tube, got "
                         f"{params.shape[1]} tubes and points of shape {w.shape}")
    bad = ~np.isfinite(w).all(axis=1)
    if bad.any():
        raise ValueError(f"plane point {tuple(w[bad][0].tolist())} is not finite")
    X = w[:, 0]
    axis_sum = a + b
    flat = np.flatnonzero(np.abs(axis_sum) < 0.1)
    # planar crossing of the fiber shadow (X+s, X-s) with the core line; the
    # rows of `flat` are near-degenerate and take their box window below
    with np.errstate(divide="ignore", invalid="ignore"):
        u_star = (2.0 * X - cx - cy) / axis_sum
        s_star = cx + u_star * a - X
        halfwidth = delta / np.abs(axis_sum)
        lo, hi = s_star - halfwidth, s_star + halfwidth
    box, x = tube_bounding_box(params[:, flat]), X[flat]
    lo[flat] = np.maximum(box[:, 0, 0] - x, x - box[:, 1, 1])
    hi[flat] = np.minimum(box[:, 0, 1] - x, x - box[:, 1, 0])
    # an empty window has no rows and counts 0
    live = np.flatnonzero(lo <= hi)
    n = np.floor((hi[live] - lo[live]) / resolution).astype(np.int64) + 1
    ends = np.cumsum(n)
    starts = ends - n
    # per live sample, contiguous: center, a, b, delta, theta, height and the
    # window's start (a gather from a strided row copies the whole row first)
    table = [r.take(live) for r in (*params, *w.T, lo)]
    counts = np.zeros(len(w), dtype=np.int64)
    for first in range(0, int(n.sum()), FIBER_BLOCK):
        stop = min(first + FIBER_BLOCK, ends[-1])
        # the block holds the rows of the samples one .. last - 1 only
        one = int(np.searchsorted(ends, first, side="right"))
        last = int(np.searchsorted(ends, stop - 1, side="right")) + 1
        rows = np.minimum(ends[one:last], stop) - np.maximum(starts[one:last], first)
        sample = np.repeat(np.arange(last - one), rows)
        # one repeat per table row: one (9, rows) gather measured a higher peak RSS
        c0, c1, c2, ra, rb, rdelta, x, h, rlo = (np.repeat(r[one:last], rows) for r in table)
        s = rlo + (np.arange(first, stop) - np.repeat(starts[one:last], rows)) * resolution
        frame = _bulk.tube_frame(x + s, x - s, h - x * s, (c0, c1, c2), ra, rb)
        counts[live[one:last]] += _bulk.count_members(last - one, sample, *frame, rdelta)
    return counts * resolution
