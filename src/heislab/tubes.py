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
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .heis import E1, E2, HDirection, HPoint, group_mul

__all__ = [
    "HTube",
    "Arc",
    "ProbeSpec",
    "BroadnessReport",
    "MCEstimate",
    "tube_contains",
    "tube_contains_batch",
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
class Arc:
    """Circle arc: center direction plus half of the arc length."""

    center_dir: HDirection
    half_length: float

    def __post_init__(self):
        if not (0.0 < self.half_length <= math.pi):
            raise ValueError(f"arc half-length must lie in (0, pi], got {self.half_length}")

    @property
    def length(self) -> float:
        return 2.0 * self.half_length

    def contains(self, d: HDirection) -> bool:
        diff = (d.angle - self.center_dir.angle) % (2.0 * math.pi)
        if diff > math.pi:
            diff -= 2.0 * math.pi
        return abs(diff) <= self.half_length


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
    d = _bulk.core_distance_elementwise(
        tube.center.as_tuple(), tube.dir.a, tube.dir.b, p.as_tuple()
    )
    return float(d[0])


def tube_contains(tube: HTube, p: HPoint) -> bool:
    return core_distance(tube, p) <= tube.delta


def tube_contains_batch(tube: HTube, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (n, 3) array of points."""
    d = _bulk.core_distance_elementwise(tube.center.as_tuple(), tube.dir.a, tube.dir.b, pts)
    return d <= tube.delta


def tube_bounding_box(tube: HTube) -> np.ndarray:
    """Euclidean box [xlo,xhi]x[ylo,yhi]x[tlo,thi] containing the tube.

    The core is linear in s, so its coordinate extremes sit at the endpoints;
    the gauge delta-ball adds delta horizontally and delta^2/4 plus the twist
    reach (delta/2 times the horizontal core radius) vertically.
    """
    ends = _bulk.core_points(tube.center, tube.dir.a, tube.dir.b, np.array([-0.5, 0.5]))
    d = tube.delta
    box = np.empty((3, 2))
    box[0] = ends[:, 0].min() - d, ends[:, 0].max() + d
    box[1] = ends[:, 1].min() - d, ends[:, 1].max() + d
    reach = np.hypot(ends[:, 0], ends[:, 1]).max() + d
    tmargin = 0.25 * d * d + 0.5 * d * reach
    box[2] = ends[:, 2].min() - tmargin, ends[:, 2].max() + tmargin
    return box


def _intersect_boxes(b1: np.ndarray, b2: np.ndarray) -> np.ndarray | None:
    lo = np.maximum(b1[:, 0], b2[:, 0])
    hi = np.minimum(b1[:, 1], b2[:, 1])
    if np.any(lo >= hi):
        return None
    return np.stack([lo, hi], axis=1)


def tube_intersection_volume(
    t1: HTube, t2: HTube, samples: int = 1_000_000, seed: int = 0
) -> MCEstimate:
    """Monte Carlo Lebesgue volume of t1 and t2's intersection.

    Integrates the product of the two indicators over the intersection of
    the two bounding boxes (its support) with the sharded sampling engine of
    `integrals`, so the result depends only on the seed.
    """
    from .integrals import SampleSpec, bilinear_integral_from_multiplicity  # imports tubes

    spec = SampleSpec(samples=samples, seed=seed)
    box = _intersect_boxes(tube_bounding_box(t1), tube_bounding_box(t2))
    if box is None:
        return MCEstimate(0.0, 0.0, 0)
    return bilinear_integral_from_multiplicity(
        lambda pts: tube_contains_batch(t1, pts),
        lambda pts: tube_contains_batch(t2, pts),
        box,
        1.0,
        spec,
    )


def is_transversal_pair(f1: list[HTube], f2: list[HTube], c: float) -> bool:
    """Every direction of f1 within c of e1 and of f2 within c of e2 (Euclidean)."""
    if not (c > 0.0):
        raise ValueError(f"transversality constant must be positive, got {c}")

    def near(tube: HTube, ref: HDirection) -> bool:
        return math.hypot(tube.dir.a - ref.a, tube.dir.b - ref.b) <= c

    return all(near(t, E1) for t in f1) and all(near(t, E2) for t in f2)


def _dyadic_down(top: float, bottom: float) -> list[float]:
    """top, top/2, ... down to the last value >= bottom (always nonempty)."""
    out = []
    v = top
    while v >= bottom * (1.0 - 1e-12):
        out.append(v)
        v *= 0.5
    return out or [top]


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
    arcs are centered on directions present in the family.
    """
    if not cores:
        raise ValueError("line family must be nonempty")
    probes = probes or ProbeSpec()
    if probes.max_centers < 1:
        raise ValueError("probe spec admits no ball centers")

    mids = np.array([p.as_tuple() for p, _ in cores], dtype=np.float64)
    # distinct centers, evenly subsampled to the cap
    centers = np.unique(np.round(mids, 12), axis=0)
    if len(centers) > probes.max_centers:
        step = len(centers) / probes.max_centers
        centers = centers[(np.arange(probes.max_centers) * step).astype(int)]

    angles = np.array([e.angle for _, e in cores])
    # distance matrix: lines x centers, min gauge distance from center to core
    dist = np.empty((len(cores), len(centers)))
    for j, (p, e) in enumerate(cores):
        dist[j] = _bulk.core_distance_elementwise(p.as_tuple(), e.a, e.b, centers)

    halves = _dyadic_down(math.pi, min(delta * delta, math.pi))
    c_ball = 4.0  # C in B(z, C*sigma)

    worst = 0.0
    witness = "no probe exceeded zero"

    for sigma in _dyadic_down(1.0, delta):
        hit_mask = dist <= (c_ball + 1.0) * sigma  # lines x centers
        for ci in range(len(centers)):
            hit = hit_mask[:, ci]
            n_ball = int(hit.sum())
            if n_ball == 0:
                continue
            ang = np.sort(angles[hit])
            # unwrap across the circle for window counting
            ext = np.concatenate([ang, ang + 2.0 * math.pi])
            for h in halves:
                width = 2.0 * h
                # windows centered on present directions
                lo = np.searchsorted(ext, ang - h - 1e-15, side="left")
                hi = np.searchsorted(ext, ang + h + 1e-15, side="right")
                counts = hi - lo
                k = int(np.argmax(counts))
                n_hit = min(int(counts[k]), n_ball)
                ratio = n_hit / (1.0 + (width ** alpha) * n_ball)
                if ratio > worst:
                    worst = ratio
                    z = centers[ci]
                    witness = (
                        f"z=({z[0]:.6g},{z[1]:.6g},{z[2]:.6g}) sigma={sigma:.6g} "
                        f"arc_center_angle={ang[k]:.6g} arc_length={width:.6g} "
                        f"hits={n_hit}/{n_ball}"
                    )
    return BroadnessReport(alpha, worst, witness)
