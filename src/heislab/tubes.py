"""Heisenberg delta-tubes: membership, intersection volume, transversality,
and the direction-broadness gauge for families of horizontal line segments.

A tube T_e^delta(x) is the gauge delta-neighbourhood of the unit core
segment {x * (s*e) : s in [-1/2, 1/2]}.  Membership reduces to the minimum
of the quartic distance-to-core profile, which `_bulk` computes exactly from
the one real root of its derivative; a dense-scan oracle guards this in the
tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .heis import E1, E2, HDirection, HPoint, group_mul

__all__ = [
    "HTube",
    "ProbeSpec",
    "BroadnessReport",
    "MCEstimate",
    "tube_contains",
    "tube_contains_batch",
    "tube_multiplicity",
    "tube_params",
    "tubes_from_params",
    "core_distance",
    "tube_bounding_box",
    "tube_intersection_volume",
    "is_transversal_pair",
    "line_broadness",
]


@dataclass(frozen=True)
class HTube:
    """Tube with core {center * (s*dir) : s in [-1/2, 1/2]} and gauge radius delta."""

    center: HPoint
    dir: HDirection
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"tube thickness must lie in (0, 1), got {self.delta}")

    def core_point(self, s: float) -> HPoint:
        return group_mul(self.center, self.dir.point(s))

    def translated(self, g: HPoint) -> "HTube":
        """Left translate g * T, again a tube of the same direction and width."""
        return HTube(group_mul(g, self.center), self.dir, self.delta)


@dataclass(frozen=True)
class ProbeSpec:
    """Finite probe family for the broadness gauges.

    Scales run over dyadic values; ball centers are drawn from core midpoints
    (capped at max_centers, evenly subsampled); arcs are centered on the
    directions present in the family at dyadic half-lengths down to the
    smallest relevant separation, delta^2.
    """

    max_centers: int = 64
    max_anchor_midpoints: int = 512

    def __post_init__(self):
        for name in ("max_centers", "max_anchor_midpoints"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class BroadnessReport:
    alpha: float
    worst_ratio: float
    witness: str

    def __post_init__(self):
        if self.worst_ratio < 0.0:
            raise ValueError("worst_ratio must be nonnegative")


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with its standard error and sample count."""

    value: float
    stderr: float
    samples: int


def core_distance(tube: HTube, p: HPoint) -> float:
    """Min over s in [-1/2, 1/2] of the gauge distance from p to the core."""
    x, y, t = np.array([p.as_tuple()]).T
    frame = _bulk.tube_frame(x, y, t, tube.center.as_tuple(), tube.dir.a, tube.dir.b)
    return float(_bulk.core_distance_elementwise(*frame)[0])


def tube_contains(tube: HTube, p: HPoint) -> bool:
    return core_distance(tube, p) <= tube.delta


def tube_params(tubes: list[HTube]) -> np.ndarray:
    """Six rows: the tubes' center coordinates x, y, t, direction a, b and radius delta."""
    rows = [(*t.center.as_tuple(), t.dir.a, t.dir.b, t.delta) for t in tubes]
    return np.array(rows, dtype=np.float64).reshape(-1, 6).T


def tubes_from_params(params: np.ndarray) -> list[HTube]:
    """The tubes of a `tube_params` table, one per column: its inverse."""
    return [HTube(HPoint(x, y, t), HDirection(a, b), d) for x, y, t, a, b, d in params.T.tolist()]


def tube_multiplicity(tubes: list[HTube], pts: np.ndarray) -> np.ndarray:
    """Number of tubes containing each point (exact membership test).

    Cull, then classify: `_bulk.core_candidates` keeps the (tube, point)
    cells whose frame meets the closed-form bounds every member meets,
    |beta| <= 1/2 + delta, |gamma| <= delta and |w| <= (sqrt(2)/4)*delta^2
    (derived in `_bulk.core_cull_bounds`), with their frame rows; then one
    `_bulk.count_members` call runs the exact kernel on those frames.  The
    kernel is elementwise, so the counts are those of the kernel run on
    every (point, tube) pair.
    """
    pts = _bulk.finite_points(pts)
    params = tube_params(tubes)
    tube, rows, beta, gamma, w = _bulk.core_candidates(np.ascontiguousarray(pts.T), params)
    return _bulk.count_members(len(pts), rows, beta, gamma, w, params[5].take(tube))


def tube_contains_batch(tube: HTube, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (n, 3) array of points."""
    return tube_multiplicity([tube], pts) > 0


def tube_bounding_box(params: np.ndarray) -> np.ndarray:
    """Euclidean boxes [xlo,xhi]x[ylo,yhi]x[tlo,thi] containing the K tubes
    of a `tube_params` table, as a (K, 3, 2) array.

    The core is linear in s, so its coordinate extremes sit at the endpoints;
    the gauge delta-ball adds delta horizontally and delta^2/4 plus the twist
    reach (delta/2 times the horizontal core radius) vertically.
    """
    x, y, t, a, b, d = params[:, :, None]
    ends = _bulk.tube_points((x, y, t), a, b, np.array([-0.5, 0.5]))  # (3, K, 2)
    reach = np.hypot(ends[0], ends[1]).max(axis=1, keepdims=True) + d
    margin = np.stack([d, d, 0.25 * d * d + 0.5 * d * reach])  # (3, K, 1)
    # each row's [min - margin, max + margin]; adding -m is subtracting m
    return (np.sort(ends, axis=2) + margin * np.array([-1.0, 1.0])).transpose(1, 0, 2)


def tube_intersection_volume(
    t1: HTube, t2: HTube, samples: int = 1_000_000, seed: int = 0
) -> MCEstimate:
    """Monte Carlo Lebesgue volume of t1 and t2's intersection: the tube
    integral of `integrals` of the two singleton families at p = 1, exact in
    t over samples // 2 random columns, so the result depends only on the seed.
    """
    from .integrals import SampleSpec, bilinear_tube_integral  # imports tubes

    return bilinear_tube_integral([t1], [t2], 1.0, SampleSpec(samples=samples, seed=seed))


def is_transversal_pair(f1: list[HTube], f2: list[HTube], c: float) -> bool:
    """Every direction of f1 within c of e1 and of f2 within c of e2 (Euclidean)."""
    if not (c > 0.0):
        raise ValueError(f"transversality constant must be positive, got {c}")

    def near(tube: HTube, ref: HDirection) -> bool:
        return math.hypot(tube.dir.a - ref.a, tube.dir.b - ref.b) <= c

    return all(near(t, E1) for t in f1) and all(near(t, E2) for t in f2)


def _dyadic_down(top: float, bottom: float) -> list[float]:
    """top, top/2, ... down to the last value >= bottom (always nonempty)."""
    if not (math.isfinite(bottom) and bottom > 0.0):
        raise ValueError(f"dyadic ladder needs a finite bottom > 0, got {bottom}")
    out = []
    v = top
    while v >= bottom * (1.0 - 1e-12):
        out.append(v)
        v *= 0.5
    return out or [top]


def _subsample(x: np.ndarray, cap: int) -> np.ndarray:
    """The rows of x evenly subsampled to at most cap."""
    if len(x) <= cap:
        return x
    step = len(x) / cap
    return x[(np.arange(cap) * step).astype(int)]


def _fold(alpha: float, profile, witness) -> BroadnessReport:
    """Fold an alpha-free broadness profile at exponent alpha.

    profile() gives the probe rows (count, scale, size, *fields); a row's
    ratio is count / (1 + scale^alpha * size), and the report keeps the first
    row of strictly greatest ratio, described by witness(*row).  alpha must
    be finite and >= 0, and is checked before the profile is computed.
    """
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"broadness exponent must be finite and >= 0, got {alpha}")
    worst, best = 0.0, None
    for row in profile():
        count, scale, size = row[:3]
        ratio = count / (1.0 + (scale ** alpha) * size)
        if ratio > worst:
            worst, best = ratio, row
    if best is None:
        return BroadnessReport(alpha, worst, "no probe exceeded zero")
    return BroadnessReport(alpha, worst, witness(*best))


def _arc_profile(cores: list[tuple[HPoint, HDirection]], delta: float, probes: ProbeSpec):
    """(hits, arc length, lines in ball, z, sigma, arc center angle) per probe,
    in (sigma descending, center, half-length descending) order.

    Per (sigma, center) one searchsorted over all half-lengths counts the
    lines of the ball in each window centered on a present direction, and the
    first fullest window stands for its half-length.  Balls shrink as sigma
    falls, so a ball holding as many lines as at the previous sigma holds the
    same lines: its rows repeat earlier ratios and are skipped.
    """
    sigmas = _dyadic_down(1.0, delta)
    mids = np.array([p.as_tuple() for p, _ in cores], dtype=np.float64)
    # asking for the first indices keeps np.unique from importing numpy.ma
    rounded = np.unique(np.round(mids, 12), axis=0, return_index=True)[0]
    centers = _subsample(rounded, probes.max_centers)

    angles = np.array([e.angle for _, e in cores])
    # distance matrix: lines x centers, min gauge distance from center to core
    dist = np.empty((len(cores), len(centers)))
    x, y, t = np.ascontiguousarray(centers.T)
    for j, (p, e) in enumerate(cores):
        frame = _bulk.tube_frame(x, y, t, p.as_tuple(), e.a, e.b)
        dist[j] = _bulk.core_distance_elementwise(*frame)

    halves = np.array(_dyadic_down(math.pi, min(delta * delta, math.pi)))[:, None]
    widths = (2.0 * halves[:, 0]).tolist()
    c_ball = 4.0  # C in B(z, C*sigma)

    seen = [0] * len(centers)
    for sigma in sigmas:
        hit_mask = dist <= (c_ball + 1.0) * sigma  # lines x centers
        for ci in range(len(centers)):
            hit = hit_mask[:, ci]
            n_ball = int(hit.sum())
            if n_ball == seen[ci]:
                continue
            seen[ci] = n_ball
            ang = np.sort(angles[hit])
            # unwrap across the circle both ways, so windows wrap past +-pi
            ext = np.concatenate([ang - 2.0 * math.pi, ang, ang + 2.0 * math.pi])
            lo = np.searchsorted(ext, ang - halves - 1e-15, side="left")
            hi = np.searchsorted(ext, ang + halves + 1e-15, side="right")
            counts = hi - lo  # half-lengths x windows
            best = np.argmax(counts, axis=1)  # the first fullest window
            hits = np.minimum(counts[np.arange(len(best)), best], n_ball).tolist()
            for n_hit, width, k in zip(hits, widths, best):
                yield n_hit, width, n_ball, centers[ci], sigma, ang[k]


def _line_witness(n_hit, width, n_ball, z, sigma, angle) -> str:
    return (
        f"z=({z[0]:.6g},{z[1]:.6g},{z[2]:.6g}) sigma={sigma:.6g} "
        f"arc_center_angle={angle:.6g} arc_length={width:.6g} "
        f"hits={n_hit}/{n_ball}"
    )


def line_broadness(
    cores: list[tuple[HPoint, HDirection]],
    delta: float,
    alpha: float,
    probes: ProbeSpec | None = None,
) -> BroadnessReport:
    """Worst concentration ratio of a family of unit horizontal segments.

    For each probe (ball center z, dyadic scale sigma in [delta, 1], arc
    Omega) the ratio is

        #{lines: sigma-tube meets B(z, C*sigma), direction in Omega}
        ------------------------------------------------------------
        1 + |Omega|^alpha * #{lines: sigma-tube meets B(z, C*sigma)}

    The tube-meets-ball test is min_s d(core(s), z) <= (C+1)*sigma, folding
    the tube thickness into the radius.  Ball centers are core midpoints,
    arcs are centered on directions present in the family.  The counts do
    not depend on alpha: `_arc_profile` gives them, and `_fold` folds them.

    Raises ValueError for an empty family, an alpha that is negative or not
    finite, or a delta that is not finite and > 0.
    """
    if not cores:
        raise ValueError("line family must be nonempty")
    probes = probes or ProbeSpec()
    return _fold(alpha, lambda: _arc_profile(cores, delta, probes), _line_witness)
