"""Deterministic generators for every explicit family used in the experiments:
the direction-concentrated bush, the opposed-parabola pair, bipartite
gauge-ball families, the nested clamshell configuration, and the
parabolic-net tube foliation.

Same parameters always produce identical output lists in identical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .heis import E1, E2, HDirection, HPoint
from .quadratics import BipartitePair, CurviRect, Interval, Quadratic, tau
from .tubes import HTube

__all__ = [
    "build_bush",
    "build_opposed_pair",
    "build_bipartite_balls",
    "build_clamshell",
    "build_parabolic_net",
    "ParabolicNetSpec",
    "parabolic_net_spec",
    "net_multiplicity",
    "net_family_size",
    "net_tubes",
    "fan_cores",
    "tube_cores",
]

# ---------------------------------------------------------------------------
# bush


def build_bush(delta: float) -> tuple[list[HTube], list[HTube]]:
    """Bush pair: T1 concentrates directions in an arc of length delta^(3/2)
    around e1 (delta^2-separated, through the origin); T2 is a 2*delta-separated
    row of e2-tubes along the x-axis segment of half-length delta^(3/4).
    """
    if not (0.0 < delta <= 2.0 ** -4):
        raise ValueError(f"bush needs delta in (0, 2^-4], got {delta}")
    step = 2.0 * math.asin(0.5 * delta * delta)  # chord delta^2 between neighbours
    k_max = int(math.floor(0.5 * delta ** 1.5 / step))
    t1 = [
        HTube(HPoint(0.0, 0.0, 0.0), HDirection.from_angle(k * step), delta)
        for k in range(-k_max, k_max + 1)
    ]
    m_max = int(math.floor(delta ** 0.75 / (2.0 * delta)))
    t2 = [
        HTube(HPoint(2.0 * delta * i, 0.0, 0.0), E2, delta)
        for i in range(-m_max, m_max + 1)
    ]
    if len(t1) < 2 or len(t2) < 2:
        raise ValueError(f"delta={delta} too large: families of sizes {len(t1)}, {len(t2)}")
    return t1, t2


def tube_cores(tubes: list[HTube]) -> list[tuple[HPoint, HDirection]]:
    return [(t.center, t.dir) for t in tubes]


def fan_cores(delta: float) -> list[tuple[HPoint, HDirection]]:
    """Quarter-circle fan of lines through the origin, directions on a
    delta^2-separated net of the arc [pi/8, 3*pi/8].

    The arc keeps a + b >= 1.3 for every direction, so all fan lines project
    to parabolas.
    """
    step = delta * delta
    n = int(math.floor((math.pi / 4) / step)) + 1
    origin = HPoint(0.0, 0.0, 0.0)
    return [
        (origin, HDirection.from_angle(math.pi / 8 + i * step))
        for i in range(n)
        if math.pi / 8 + i * step <= 3 * math.pi / 8 + 1e-12
    ]


# ---------------------------------------------------------------------------
# opposed pair and bipartite balls


def build_opposed_pair(delta: float, rho: float) -> BipartitePair:
    """F = {(rho/2) s^2}, G = {-(rho/2) s^2}: tangent at the origin, with the
    near-intersection set |s| <= sqrt(delta/rho)."""
    if not (0.0 < delta <= rho <= 1.0):
        raise ValueError(f"need 0 < delta <= rho <= 1, got delta={delta}, rho={rho}")
    return BipartitePair((Quadratic(rho, 0.0, 0.0),), (Quadratic(-rho, 0.0, 0.0),), rho)


# lattice steps per coefficient, in units of the separation target; tuned so
# a point of the plane generically lies in the delta-strip of about
# (rho/delta)^2 lattice curves
_BALL_STEPS = (1.0 / 6.0, 1.0 / 3.0, 1.0)


def _tau_ball_lattice(center: Quadratic, radius: float, sep: float) -> list[Quadratic]:
    """Deterministic sep-separated lattice filling the tau-ball of the center.

    Rectangular steps sep*(1/6, 1/3, 1) in (a, b, c); the gauge of a
    coefficient offset dominates |da| + |db| + |dc| (its value at s = 0), and
    unit steps have gauge 18.5/6, 6/3, 1 times sep, so distinct lattice
    points stay sep-separated.  Candidates are enumerated in a box and kept
    when tau(candidate, center) <= radius.
    """
    ha, hb, hc = (s * sep for s in _BALL_STEPS)
    # conservative per-coordinate shadows of the tau-ball
    na = int(math.floor(radius / 6.0 / ha)) + 1
    nb = int(math.floor(radius / 6.0 / hb)) + 1
    nc = int(math.floor(radius / hc)) + 1
    out = []
    for i in range(-na, na + 1):
        for j in range(-nb, nb + 1):
            for k in range(-nc, nc + 1):
                q = Quadratic(center.a + i * ha, center.b + j * hb, center.c + k * hc)
                if tau(q, center) <= radius:
                    out.append(q)
    return out


def build_bipartite_balls(delta: float, rho: float) -> BipartitePair:
    """Two rho-radius tau-balls around opposed-curvature centers (+-2*rho, 0, 0),
    each filled with a delta-separated lattice; validates as 2*rho-bipartite.

    Cross-family tau sits in [72*rho, 76*rho] (the center distance is 74*rho),
    in-family tau is at most 2*rho.
    """
    if not (0.0 < delta <= rho / 8.0):
        raise ValueError(f"need delta <= rho/8, got delta={delta}, rho={rho}")
    F = _tau_ball_lattice(Quadratic(2.0 * rho, 0.0, 0.0), rho, delta)
    G = _tau_ball_lattice(Quadratic(-2.0 * rho, 0.0, 0.0), rho, delta)
    if not F or not G:
        raise ValueError(f"parameters delta={delta}, rho={rho} leave a family empty")
    return BipartitePair(tuple(F), tuple(G), 2.0 * rho)


# ---------------------------------------------------------------------------
# clamshell

_CLAM_BASE_CURVATURE = 1.0
_CLAM_ROW_SEP = 24.0          # vertical row separation in units of delta
_CLAM_G_LIFT = 3.5            # vertical offset of the short-tangent curves, units of delta
_CLAM_G_CURV = 4.0            # curvature offset of the short-tangent curves


def build_clamshell(
    delta: float, t: float, mu: int, nu: int, n_total: int
) -> tuple[list[Quadratic], list[Quadratic], list[CurviRect]]:
    """Nested rich configuration: n_total/mu disjoint (delta, t)-rectangles,
    mu long-tangent curves per rectangle, and nu short-tangent curves per
    length-sqrt(delta) subdivision, tangent only to their own subdivision.

    Long curves perturb the row center within the (delta, sqrt(delta*t), t)/8
    jet box at the row midpoint; short curves osculate the row center at the
    subdivision midpoint, lifted by 3.5*delta with curvature offset near 4,
    which puts them inside the subdivision's jet window and strictly outside
    every other subdivision's (the tests verify the resulting richness counts
    exactly).
    """
    if not (0.0 < delta <= t <= 1.0):
        raise ValueError(f"need 0 < delta <= t <= 1, got delta={delta}, t={t}")
    if not (0.5 <= mu * delta / t <= 2.0):
        raise ValueError(f"mu={mu} violates mu ~ t/delta = {t / delta} (factor 2)")
    if not (mu <= n_total <= 1.0 / delta * (1 + 1e-9)):
        raise ValueError(f"need mu <= n_total <= 1/delta, got mu={mu}, n_total={n_total}")
    if not (1 <= nu <= 1.0 / delta * (1 + 1e-9)):
        raise ValueError(f"need 1 <= nu <= 1/delta, got nu={nu}")
    if n_total % mu != 0:
        raise ValueError(f"n_total={n_total} not divisible by mu={mu}")
    n_rows = n_total // mu
    subdiv = math.sqrt(t)
    n_sub = 1.0 / subdiv
    if abs(n_sub - round(n_sub)) > 1e-9:
        raise ValueError(f"t^(-1/2) = {n_sub} is not integral")
    n_sub = int(round(n_sub))
    length = math.sqrt(delta / t)
    width = n_rows * length
    if width > 8.0:
        raise ValueError(f"row span {width} exceeds the planar domain")
    row_sep = _CLAM_ROW_SEP
    if row_sep <= 4.0 + n_rows * n_rows / 16.0:
        raise ValueError(
            f"vertical row separation {row_sep} cannot isolate {n_rows} rows"
        )

    sub_len = math.sqrt(delta)
    F: list[Quadratic] = []
    G: list[Quadratic] = []
    R: list[CurviRect] = []
    for j in range(n_rows):
        center_j = Quadratic(_CLAM_BASE_CURVATURE, 0.0, j * row_sep * delta)
        theta_j = (j - 0.5 * (n_rows - 1)) * length
        for k in range(mu):
            beta = (2 * k + 1 - mu) / mu * (t / 8.0)
            F.append(
                Quadratic.from_jet(
                    theta_j,
                    center_j(theta_j),
                    center_j.deriv(theta_j),
                    _CLAM_BASE_CURVATURE + beta,
                )
            )
        for l in range(n_sub):
            mid = theta_j - 0.5 * length + (l + 0.5) * sub_len
            R.append(
                CurviRect(center_j, Interval(mid - 0.5 * sub_len, mid + 0.5 * sub_len), delta)
            )
            for n in range(nu):
                beta = _CLAM_G_CURV - (n + 1) * delta
                G.append(
                    Quadratic.from_jet(
                        mid,
                        center_j(mid) + _CLAM_G_LIFT * delta,
                        center_j.deriv(mid),
                        _CLAM_BASE_CURVATURE + beta,
                    )
                )
    return F, G, R


# ---------------------------------------------------------------------------
# parabolic net


@dataclass(frozen=True)
class ParabolicNetSpec:
    """Structured form of the parabolic-net tube foliation.

    One sheet of e1-tubes per core offset x0 in `sheets`, centers on the
    (y, t) grid with horizontal step delta and vertical step t_step ~ delta^2
    (the parabolic scaling); the e2 family is the image under the
    automorphism (x, y, t) -> (y, x, -t), which swaps e1 and e2.
    """

    delta: float
    sheets: tuple[float, ...]
    y_step: float
    y_halfrange: float
    t_step: float
    t_halfrange: float

    @property
    def y_count(self) -> int:
        return 2 * int(math.floor(self.y_halfrange / self.y_step)) + 1

    @property
    def t_count(self) -> int:
        return 2 * int(math.floor(self.t_halfrange / self.t_step)) + 1


def parabolic_net_spec(delta: float) -> ParabolicNetSpec:
    if not (0.0 < delta <= 2.0 ** -3):
        raise ValueError(f"parabolic net needs delta in (0, 2^-3], got {delta}")
    return ParabolicNetSpec(
        delta=delta,
        sheets=(-0.5, 0.5),
        y_step=delta,
        y_halfrange=1.05,
        t_step=0.45 * delta * delta,
        t_halfrange=0.55,
    )


def net_family_size(spec: ParabolicNetSpec) -> int:
    return len(spec.sheets) * spec.y_count * spec.t_count


def _swap_xy(pts: np.ndarray) -> np.ndarray:
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 1]
    out[:, 1] = pts[:, 0]
    out[:, 2] = -pts[:, 2]
    return out


def net_multiplicity(spec: ParabolicNetSpec, pts: np.ndarray, family: int = 1) -> np.ndarray:
    """Exact tube multiplicity of the net family at each point.

    Only grid candidates that can possibly contain a point are tested: the
    gauge dominates |y - y0|, and at the in-segment parameter s = x - x0 the
    twisted vertical offset t - t0 + x*y0 - x0*y0/2 - x*y/2 must be within
    3*delta^2/4 of zero, so a 3 x 7 window of (y0, t0) grid candidates around
    the nearest grid point is exhaustive; each candidate is then checked with
    the exact core-distance test.
    """
    pts = _bulk.finite_points(pts)
    if family == 2:
        return net_multiplicity(spec, _swap_xy(pts), family=1)
    if family != 1:
        raise ValueError(f"family must be 1 or 2, got {family}")
    d = spec.delta
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    mult = np.zeros(pts.shape[0], dtype=np.int64)
    ny = int(math.floor(spec.y_halfrange / spec.y_step))
    nt = int(math.floor(spec.t_halfrange / spec.t_step))
    for x0 in spec.sheets:
        i0 = np.round(y / spec.y_step)
        for di in (-1.0, 0.0, 1.0):
            yi = (i0 + di) * spec.y_step
            in_y = (np.abs(i0 + di) <= ny) & (np.abs(y - yi) <= d * (1 + 1e-9))
            if not in_y.any():
                continue
            target = t + x * yi - 0.5 * x0 * yi - 0.5 * x * y
            k0 = np.round(target / spec.t_step)
            for dk in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
                tk = (k0 + dk) * spec.t_step
                ok = in_y & (np.abs(k0 + dk) <= nt)
                if not ok.any():
                    continue
                centers = np.stack(
                    [np.full_like(yi, x0), yi, tk], axis=1
                )
                dist = _bulk.core_distance_elementwise(centers[ok], 1.0, 0.0, pts[ok])
                hits = dist <= d
                idx = np.nonzero(ok)[0][hits]
                mult[idx] += 1
    return mult


def net_tubes(spec: ParabolicNetSpec) -> tuple[list[HTube], list[HTube]]:
    """Materialize both families as explicit tube lists (large at small delta)."""
    t1: list[HTube] = []
    t2: list[HTube] = []
    ny = int(math.floor(spec.y_halfrange / spec.y_step))
    nt = int(math.floor(spec.t_halfrange / spec.t_step))
    for x0 in spec.sheets:
        for i in range(-ny, ny + 1):
            yi = i * spec.y_step
            for k in range(-nt, nt + 1):
                tk = k * spec.t_step
                t1.append(HTube(HPoint(x0, yi, tk), E1, spec.delta))
                t2.append(HTube(HPoint(yi, x0, -tk), E2, spec.delta))
    return t1, t2


def build_parabolic_net(delta: float) -> tuple[list[HTube], list[HTube]]:
    """Two transversal tube families of about delta^-3 tubes each, covering
    the unit gauge ball with bounded overlap.  At small delta the lists are
    large; the experiment harness works from `parabolic_net_spec` instead.
    """
    return net_tubes(parabolic_net_spec(delta))
