"""Deterministic generators for every explicit family used in the experiments:
the direction-concentrated bush, the opposed-parabola pair, bipartite
gauge-ball families, the nested clamshell configuration, and the
parabolic-net tube foliation.

Same parameters always produce identical output in identical order.  A
planar family is an (n, 3) float64 array of coefficient rows (a, b, c), the
form `quadratics.coeff_array` checks; the parabolic net and the line fan
(`fan_cores`) are six-row `tubes.tube_params` tables, and the bush is a pair
of `HTube` lists, whose lines are `tube_params(tubes)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .heis import E2, HDirection, HPoint
from .quadratics import _PAIR_CHUNK, BipartitePair, CurviRect, Interval, Quadratic, jet_gauges
from .quadratics import _jet_coeffs
from .quadratics import tau  # noqa: F401  (perfbench/tests/test_spans.py wraps families.tau)
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


def fan_cores(delta: float) -> np.ndarray:
    """Quarter-circle fan of lines through the origin, directions on a
    delta^2-separated net of the arc [pi/8, 3*pi/8], as the six-row
    `tubes.tube_params` table with radius delta.

    The arc keeps a + b >= 1.3 for every direction, so all fan lines project
    to parabolas.  Each direction is math.cos and math.sin of its angle, as
    `HDirection.from_angle` forms it: numpy's vector cos and sin may round
    differently on another CPU.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"fan needs finite delta > 0, got {delta}")
    step = delta * delta
    n = int(math.floor((math.pi / 4) / step)) + 1
    theta = math.pi / 8 + np.arange(n) * step
    theta = theta[theta <= 3 * math.pi / 8 + 1e-12].tolist()
    table = np.zeros((6, len(theta)))
    table[3] = list(map(math.cos, theta))
    table[4] = list(map(math.sin, theta))
    table[5] = delta
    return table


# ---------------------------------------------------------------------------
# opposed pair and bipartite balls


def build_opposed_pair(delta: float, rho: float) -> BipartitePair:
    """F = {(rho/2) s^2}, G = {-(rho/2) s^2}: tangent at the origin, with the
    near-intersection set |s| <= sqrt(delta/rho)."""
    if not (0.0 < delta <= rho <= 1.0):
        raise ValueError(f"need 0 < delta <= rho <= 1, got delta={delta}, rho={rho}")
    return BipartitePair(np.array([[rho, 0.0, 0.0]]), np.array([[-rho, 0.0, 0.0]]), rho)


# lattice steps per coefficient, in units of the separation target; tuned so
# a point of the plane generically lies in the delta-strip of about
# (rho/delta)^2 lattice curves
_BALL_STEPS = (1.0 / 6.0, 1.0 / 3.0, 1.0)


def _tau_ball_lattice(center: Quadratic, radius: float, sep: float) -> np.ndarray:
    """Deterministic sep-separated lattice filling the tau-ball of the center,
    as (n, 3) coefficient rows in (i, j, k) order.

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
    i, j, k = np.meshgrid(
        np.arange(-na, na + 1), np.arange(-nb, nb + 1), np.arange(-nc, nc + 1), indexing="ij"
    )
    cand = np.stack(
        [center.a + i.ravel() * ha, center.b + j.ravel() * hb, center.c + k.ravel() * hc], axis=1
    )
    # blocks of _PAIR_CHUNK rows bound the memory: the box holds 157k rows at sep = 2^-7
    h0 = [center.a, center.b, center.c]
    keep = np.concatenate([
        jet_gauges(cand[k : k + _PAIR_CHUNK] - h0)[0] <= radius
        for k in range(0, len(cand), _PAIR_CHUNK)
    ])
    return cand[keep]


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
    if not len(F) or not len(G):
        raise ValueError(f"parameters delta={delta}, rho={rho} leave a family empty")
    return BipartitePair(F, G, 2.0 * rho)


# ---------------------------------------------------------------------------
# clamshell

_CLAM_BASE_CURVATURE = 1.0
_CLAM_ROW_SEP = 24.0          # vertical row separation in units of delta
_CLAM_G_LIFT = 3.5            # vertical offset of the short-tangent curves, units of delta
_CLAM_G_CURV = 4.0            # curvature offset of the short-tangent curves


def build_clamshell(
    delta: float, t: float, mu: int, nu: int, n_total: int
) -> tuple[np.ndarray, np.ndarray, list[CurviRect]]:
    """Nested rich configuration: n_total/mu disjoint (delta, t)-rectangles,
    mu long-tangent curves per rectangle, and nu short-tangent curves per
    length-sqrt(delta) subdivision, tangent only to their own subdivision.

    Long curves perturb the row center within the (delta, sqrt(delta*t), t)/8
    jet box at the row midpoint; short curves osculate the row center at the
    subdivision midpoint, lifted by 3.5*delta with curvature offset near 4,
    which puts them inside the subdivision's jet window and strictly outside
    every other subdivision's (the tests verify the resulting richness counts
    exactly).  F and G come as (n, 3) coefficient arrays, R as `CurviRect`s.
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
        raise ValueError(f"vertical row separation {row_sep} cannot isolate {n_rows} rows")

    # row j's center curve is Quadratic(1, 0, c[j]), evaluated with
    # `Quadratic.__call__`'s and `deriv`'s operations, so every bit is kept;
    # the axes are (row, curve) for F and (row, subdivision, curve) for G
    j = np.arange(n_rows)[:, None]
    c = j * row_sep * delta

    def jet(s):
        return (0.5 * _CLAM_BASE_CURVATURE * s + 0.0) * s + c, _CLAM_BASE_CURVATURE * s + 0.0

    theta = (j - 0.5 * (n_rows - 1)) * length
    beta = (2 * np.arange(mu) + 1 - mu) / mu * (t / 8.0)
    F = _jet_coeffs(theta, *jet(theta), _CLAM_BASE_CURVATURE + beta)
    sub_len = math.sqrt(delta)
    mid = theta - 0.5 * length + (np.arange(n_sub) + 0.5) * sub_len
    value, slope = (x[..., None] for x in jet(mid))
    beta = _CLAM_G_CURV - (np.arange(nu) + 1) * delta
    G = _jet_coeffs(mid[..., None], value + _CLAM_G_LIFT * delta, slope,
                    _CLAM_BASE_CURVATURE + beta)
    R = [CurviRect(Quadratic(_CLAM_BASE_CURVATURE, 0.0, cj),
                   Interval(m - 0.5 * sub_len, m + 0.5 * sub_len), delta)
         for cj, row in zip(c.ravel().tolist(), mid.tolist()) for m in row]
    return F.reshape(-1, 3), G.reshape(-1, 3), R


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
    def y_half_count(self) -> int:
        return int(math.floor(self.y_halfrange / self.y_step))

    @property
    def t_half_count(self) -> int:
        return int(math.floor(self.t_halfrange / self.t_step))


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
    return len(spec.sheets) * (2 * spec.y_half_count + 1) * (2 * spec.t_half_count + 1)


def _grid_reach(bound: float, step: float) -> int:
    """Largest |k - round(v/step)| over the grid indices k with
    |v - k*step| <= bound, with a margin for the rounding of v/step."""
    return int(bound / step + 0.5 + 1e-9)


def net_multiplicity(spec: ParabolicNetSpec, pts: np.ndarray, family: int = 1) -> np.ndarray:
    """Exact tube multiplicity of the net family at each point.

    Cull, then classify.  For the e1-tube centered at (x0, y0, t0) the
    frame (`_bulk.tube_frame`) of a point (x, y, t) is beta = x - x0,
    gamma = y0 - y and w = t - t0 + x*y0 - x0*y0/2 - x*y/2, and every member
    has |beta| <= 1/2 + delta, |gamma| <= delta and
    |w| <= (sqrt(2)/4)*delta^2 (`_bulk.core_cull_bounds`).  So per sheet x0
    only the grid rows y0 within reach of the nearest one can hold a
    member, and in each such (sheet, row) strip only the grid heights t0
    within reach of the nearest one to t0 = t + x*y0 - x0*y0/2 - x*y/2.
    One `_bulk.tube_frame` per strip frames its points against all these
    heights as a (height window, point) array, forming beta and gamma once.
    The nearest height is a guess: a candidate lies within w_max/t_step < 0.8
    steps of t0/t_step, so the windows cover it whatever the rounding of t0.
    The frames of the pairs that meet all three bounds go to the exact
    kernel in one `_bulk.count_members` call.
    """
    pts = _bulk.finite_points(pts)
    if family == 2:
        return net_multiplicity(spec, pts[:, [1, 0, 2]] * [1.0, 1.0, -1.0], family=1)
    if family != 1:
        raise ValueError(f"family must be 1 or 2, got {family}")
    d = spec.delta
    beta_max, gamma_max, w_max = _bulk.core_cull_bounds(d)
    reach_y = _grid_reach(gamma_max, spec.y_step)
    reach_t = _grid_reach(w_max, spec.t_step)
    dk = np.arange(-reach_t, reach_t + 1)[:, None]
    ny, nt = spec.y_half_count, spec.t_half_count
    x, y, t = (np.ascontiguousarray(c) for c in pts.T)
    i0 = np.round(y / spec.y_step)
    found = [_bulk.NO_CANDIDATES]
    for x0 in spec.sheets:
        in_x = np.abs(x - x0) <= beta_max
        for di in range(-reach_y, reach_y + 1):
            yi = (i0 + di) * spec.y_step
            strip = np.flatnonzero(in_x & (np.abs(i0 + di) <= ny) & (np.abs(y - yi) <= gamma_max))
            xs, ys, ts, yi = x[strip], y[strip], t[strip], yi[strip]
            k = np.round((ts + xs * yi - 0.5 * x0 * yi - 0.5 * xs * ys) / spec.t_step) + dk
            beta, gamma, w = _bulk.tube_frame(xs, ys, ts, (x0, yi, k * spec.t_step), 1.0, 0.0)
            ok = np.abs(w) <= w_max
            ok &= np.abs(k) <= nt
            cell = np.flatnonzero(ok)
            col = cell % len(strip)
            found.append((strip.take(col), beta.take(col), gamma.take(col), w.take(cell)))
    # rebinding frees the per-strip pieces before the kernel runs
    found = tuple(map(np.concatenate, zip(*found)))
    return _bulk.count_members(len(pts), *found, d)


# the most tubes `net_tubes` tabulates for both families: 48 bytes each in
# its tables, several times that in a dump's rows; delta = 2^-5 makes 670,804
# and 2^-6 5,407,020
NET_TUBES_CAP = 10 ** 6


def net_tubes(spec: ParabolicNetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Both families as six-row `tubes.tube_params` tables, in (sheet, y,
    t) order; past `NET_TUBES_CAP` tubes in all, raise ValueError before
    forming any."""
    if (size := 2 * net_family_size(spec)) > NET_TUBES_CAP:
        raise ValueError(f"parabolic net at delta = {spec.delta} has {size} tubes, "
                         f"more than the {NET_TUBES_CAP} that net_tubes builds")
    ny, nt = spec.y_half_count, spec.t_half_count
    x, y, t = (c.ravel() for c in np.broadcast_arrays(
        np.array(spec.sheets)[:, None, None],
        np.arange(-ny, ny + 1)[:, None] * spec.y_step,
        np.arange(-nt, nt + 1) * spec.t_step,
    ))
    one, zero, d = (np.full(len(x), v) for v in (1.0, 0.0, spec.delta))
    return np.array([x, y, t, one, zero, d]), np.array([y, x, -t, zero, one, d])


def build_parabolic_net(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Two transversal tube families of about delta^-3 tubes each, covering
    the unit gauge ball with bounded overlap, as `tube_params` tables up to
    delta = 2^-5 (`NET_TUBES_CAP`); the experiment harness works from
    `parabolic_net_spec`.
    """
    return net_tubes(parabolic_net_spec(delta))
