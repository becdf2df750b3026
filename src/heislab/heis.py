"""Heisenberg group arithmetic: group law, Koranyi gauge and metric, dilations.

The model is R^3 with the twisted product

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + (x*y' - x'*y)/2),

the gauge ||(x,y,t)|| = ((x^2+y^2)^2 + 16 t^2)^(1/4) and the left-invariant
metric d(p, q) = ||q^{-1} * p||.  Everything here is an exact closed form in
float64; nothing samples or iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "HPoint",
    "HDirection",
    "ORIGIN",
    "E1",
    "E2",
    "group_mul",
    "group_inv",
    "koranyi_norm",
    "koranyi_dist",
    "dilate",
]

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class HPoint:
    """A group point: horizontal coordinates (x, y) and vertical coordinate t."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)):
            raise ValueError(f"non-finite point ({self.x}, {self.y}, {self.t})")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.t)


@dataclass(frozen=True)
class HDirection:
    """A horizontal unit direction (a, b), embedded in the group as (a, b, 0)."""

    a: float
    b: float

    def __post_init__(self):
        r = self.a * self.a + self.b * self.b
        if not abs(r - 1.0) <= _UNIT_TOL:  # NaN fails this too
            raise ValueError(f"direction ({self.a}, {self.b}) not unit: a^2+b^2 = {r!r}")

    @staticmethod
    def from_angle(theta: float) -> "HDirection":
        return HDirection(math.cos(theta), math.sin(theta))

    @property
    def angle(self) -> float:
        return math.atan2(self.b, self.a)

    def point(self, s: float) -> HPoint:
        """The group element s*e = (s*a, s*b, 0)."""
        return HPoint(s * self.a, s * self.b, 0.0)


ORIGIN = HPoint(0.0, 0.0, 0.0)
E1 = HDirection(1.0, 0.0)
E2 = HDirection(0.0, 1.0)


def group_mul(p: HPoint, q: HPoint) -> HPoint:
    """Group product p * q."""
    return HPoint(
        p.x + q.x,
        p.y + q.y,
        p.t + q.t + 0.5 * (p.x * q.y - q.x * p.y),
    )


def group_inv(p: HPoint) -> HPoint:
    """Group inverse; coordinate negation inverts the twisted product."""
    return HPoint(-p.x, -p.y, -p.t)


def koranyi_norm(p: HPoint) -> float:
    """Homogeneous gauge ((x^2+y^2)^2 + 16 t^2)^(1/4)."""
    r2 = p.x * p.x + p.y * p.y
    return (r2 * r2 + 16.0 * p.t * p.t) ** 0.25


def koranyi_dist(p: HPoint, q: HPoint) -> float:
    """Left-invariant distance ||q^{-1} * p||."""
    return koranyi_norm(group_mul(group_inv(q), p))


def dilate(lam: float, p: HPoint) -> HPoint:
    """Automorphic dilation (x, y, t) -> (lam*x, lam*y, lam^2*t), lam > 0."""
    if not (lam > 0.0):
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return HPoint(lam * p.x, lam * p.y, lam * lam * p.t)
