"""The column estimator of the tube integrals: t-sections in closed form,
the sweep over each column, and its agreement with the point estimator."""

import math

import numpy as np
import pytest

import tube_mc_reference
from heislab import _bulk
from heislab.families import build_bush
from heislab.heis import E1, E2, HDirection, HPoint, group_mul
from heislab.integrals import (
    _column_integrator,
    _default_tube_region,
    bilinear_curve_integral,
    bilinear_integral_from_multiplicity,
    bilinear_tube_integral,
    tube_multiplicity,
)
from heislab.quadratics import Quadratic
from heislab.tubes import HTube, tube_params

ORIGIN = HPoint(0.0, 0.0, 0.0)


def _params(tubes):
    """Centers as three rows, and rows of directions and radii."""
    p = tube_params(tubes)
    return p[:3], p[3], p[4], p[5]


def _kernel(tubes, x, y, t):
    """Exact core distance of each point (x[i], y[i], t[i]) to tubes[i]."""
    c, a, b, _ = _params(tubes)
    return _bulk.core_distance_elementwise(*_bulk.tube_frame(x, y, t, c, a, b))


def _sections(tubes, x, y):
    c, a, b, d = _params(tubes)
    return _bulk.tube_sections(np.asarray(x, float), np.asarray(y, float), c, a, b, d)


def _bisect(tubes, x, y, inside, outside, steps=200):
    """The kernel's membership boundary between t = inside (a member) and
    t = outside (not one), per point, by bisection."""
    delta = _params(tubes)[3]
    for _ in range(steps):
        mid = 0.5 * (inside + outside)
        member = _kernel(tubes, x, y, mid) <= delta
        inside = np.where(member, mid, inside)
        outside = np.where(member, outside, mid)
    return inside


def _w0(tubes, x, y):
    """The t at which w = 0 in each tube's frame (w is t plus a shift)."""
    c, a, b, _ = _params(tubes)
    u = _bulk.mul(_bulk.inv(c.T), np.stack([x, y, np.zeros_like(x)], axis=1))
    beta = a * u[:, 0] + b * u[:, 1]
    gamma = b * u[:, 0] - a * u[:, 1]
    return -(u[:, 2] + 0.5 * gamma * beta)


def _assert_sections_match_kernel(tubes, x, y):
    """Nonempty sections: each end within 1e-9 delta^2 of the bisected kernel
    boundary.  Empty ones (lo == hi): no kernel member on a fine t-grid over
    the whole w-range |w| <= 0.4 delta^2 that any member can have, where a
    one-point section may touch delta."""
    lo, hi = _sections(tubes, x, y)
    delta = _params(tubes)[3]
    d2 = delta * delta
    assert np.all(lo <= hi)
    full = hi > lo
    if full.any():
        tf = [tb for tb, f in zip(tubes, full) if f]
        xf, yf, lf, hf, d2f = x[full], y[full], lo[full], hi[full], d2[full]
        mid = 0.5 * (lf + hf)
        assert np.all(_kernel(tf, xf, yf, mid) <= delta[full])
        top = _bisect(tf, xf, yf, mid, mid + d2f)
        bottom = _bisect(tf, xf, yf, mid, mid - d2f)
        assert np.all(np.abs(top - hf) <= 1e-9 * d2f)
        assert np.all(np.abs(bottom - lf) <= 1e-9 * d2f)
    n = 4001
    for i in np.flatnonzero(~full):
        ts = _w0([tubes[i]], x[i : i + 1], y[i : i + 1]) + np.linspace(-0.4, 0.4, n) * d2[i]
        dist = _kernel([tubes[i]] * n, np.full(n, x[i]), np.full(n, y[i]), ts)
        assert np.all(dist >= delta[i])
    return lo, hi


# ---------------------------------------------------------------------------
# sections


def test_sections_match_bisection_on_random_tubes_and_columns():
    rng = np.random.default_rng(31)
    tubes, xs, ys = [], [], []
    for _ in range(600):
        d = 2.0 ** -int(rng.integers(3, 9))
        e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
        g = rng.normal(scale=0.2, size=3)
        tube = HTube(HPoint(*g), e, d)
        # a column near the core line, some past its ends, some beyond delta
        s, off = rng.uniform(-0.7, 0.7), rng.uniform(-1.3, 1.3) * d
        tubes.append(tube)
        xs.append(g[0] + s * e.a - off * e.b)
        ys.append(g[1] + s * e.b + off * e.a)
    lo, hi = _assert_sections_match_kernel(tubes, np.array(xs), np.array(ys))
    full = hi > lo
    assert 200 < full.sum() < 550  # both kinds are well represented


@pytest.mark.parametrize("k", [3, 6, 8])
def test_section_special_columns(k):
    d = 2.0 ** -k
    tube = HTube(HPoint(0.0, 0.0, 0.0), E1, d)
    # gamma = 0 in the middle; gamma = -delta; gamma = 0 past the core end
    # by delta/2 (inside the cap) and by 2*delta (empty); gamma = -1.5*delta
    # (empty); gamma = delta
    x = np.array([0.1, 0.1, 0.5 + 0.5 * d, 0.5 + 2.0 * d, 0.0, -0.2])
    y = np.array([0.0, d, 0.0, 0.0, 1.5 * d, -d])
    lo, hi = _assert_sections_match_kernel([tube] * len(x), x, y)
    # at gamma = 0 the section is |4t| <= delta^2, exactly
    assert (lo[0], hi[0]) == (-0.25 * d * d, 0.25 * d * d)
    # |gamma| = delta: one point, the kernel's only member of the column
    assert lo[1] == hi[1] and lo[5] == hi[5]
    assert _kernel([tube], x[1:2], y[1:2], lo[1:2])[0] == pytest.approx(d, rel=1e-12)
    # past the core end the section shrinks; then it is empty
    assert 0.0 < hi[2] - lo[2] < 0.5 * d * d
    assert lo[3] == hi[3] and lo[4] == hi[4]


def test_sections_broadcast_columns_against_tubes():
    rng = np.random.default_rng(5)
    t1, t2 = build_bush(2.0 ** -5)
    tubes = t1 + t2
    x, y = rng.uniform(-0.2, 0.2, 40), rng.uniform(-0.05, 0.05, 40)
    lo, hi = _sections(tubes, x[:, None], y[:, None])
    assert lo.shape == (40, len(tubes))
    for j, tube in enumerate(tubes):
        lo_j, hi_j = _sections([tube] * 40, x, y)
        assert np.array_equal(lo[:, j], lo_j) and np.array_equal(hi[:, j], hi_j)


# ---------------------------------------------------------------------------
# the sweep over a column


def _random_pair(seed, d=2.0 ** -4):
    """Three tubes about e1 and two about e2, each through a point within
    (d/4, d/4, d^2/8) of a common random point, so that they meet; and
    that point."""
    rng = np.random.default_rng(seed)
    hub = HPoint(*rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.05, 0.05))

    def tube(axis_angle):
        e = HDirection.from_angle(axis_angle + rng.uniform(-0.3, 0.3))
        jitter = HPoint(*rng.uniform(-0.25 * d, 0.25 * d, 2), rng.uniform(-0.125, 0.125) * d * d)
        through = group_mul(hub, jitter)
        return HTube(group_mul(through, e.point(rng.uniform(-0.4, 0.4))), e, d)

    return [tube(0.0) for _ in range(3)], [tube(0.5 * math.pi) for _ in range(2)], hub


@pytest.mark.parametrize("case", ["bush-4", "bush-5", "random-1", "random-2"])
def test_column_integrals_match_a_midpoint_grid_of_the_kernel(case):
    kind, n = case.split("-")
    if kind == "bush":
        (t1, t2), hub = build_bush(2.0 ** -int(n)), ORIGIN
    else:
        t1, t2, hub = _random_pair(int(n))
    p = 0.75
    region = _default_tube_region(tube_params(t1 + t2), len(t1))
    # columns about the point where the two families cross
    d = t1[0].delta
    rng = np.random.default_rng(17)
    x = hub.x + rng.uniform(-2.0 * d, 2.0 * d, 12)
    y = hub.y + rng.uniform(-2.0 * d, 2.0 * d, 12)
    exact = _column_integrator(tube_params(t1 + t2), len(t1), p)(x, y)
    # midpoint t-grid over the box's whole t-extent, which holds the support
    n_t = 40_000
    h = (region[2, 1] - region[2, 0]) / n_t
    ts = region[2, 0] + (np.arange(n_t) + 0.5) * h
    k = len(t1) + len(t2)
    nonzero = 0
    for xi, yi, value in zip(x, y, exact):
        pts = np.stack([np.full(n_t, xi), np.full(n_t, yi), ts], axis=1)
        f = tube_multiplicity(t1, pts) ** p * tube_multiplicity(t2, pts) ** p
        # a piecewise constant f with at most 2k jumps, each at most max f
        assert abs(value - f.sum() * h) <= 2 * k * h * f.max() + 1e-18
        nonzero += value > 0
    assert nonzero >= 3


# ---------------------------------------------------------------------------
# against the point estimator


@pytest.mark.parametrize(
    "case", ["bush-4", "bush-5", "bush-6", "pair-5", "pair-7", "random-1", "random-2", "random-3"]
)
def test_column_and_point_estimators_agree(case):
    kind, n = case.split("-")
    if kind == "bush":
        t1, t2 = build_bush(2.0 ** -int(n))
    elif kind == "pair":  # criterion 2's transversal pair
        d = 2.0 ** -int(n)
        t1, t2 = [HTube(ORIGIN, E1, d)], [HTube(ORIGIN, E2, d)]
    else:
        t1, t2, _ = _random_pair(int(n))
    cols = bilinear_tube_integral(t1, t2, 0.75, 400_000, seed=202)
    pts = tube_mc_reference.bilinear_tube_integral(t1, t2, 0.75, 400_000, seed=101)
    assert cols.value > 0.0 and pts.value > 0.0
    assert abs(cols.value - pts.value) <= 4.0 * math.hypot(cols.stderr, pts.stderr)
    # exact t leaves far less noise per unit of budget
    assert cols.stderr < pts.stderr


def test_samples_count_sections_and_the_estimate_reports_columns():
    t1, t2 = build_bush(2.0 ** -4)
    est = bilinear_tube_integral(t1, t2, 0.75, 6000, seed=0)
    assert est.samples == 6000 // (len(t1) + len(t2))
    tiny = bilinear_tube_integral(t1, t2, 0.75, 1, seed=0)
    assert tiny.samples == 1


# ---------------------------------------------------------------------------
# the exponent


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_integrals_reject_an_exponent_that_is_not_finite_and_positive(p):
    tubes = [HTube(ORIGIN, E1, 2.0 ** -4)], [HTube(ORIGIN, E2, 2.0 ** -4)]
    quads = [Quadratic(1.0, 0.0, 0.5)], [Quadratic(-1.0, 0.0, 0.5)]
    ones = lambda pts: np.ones(len(pts), dtype=np.int64)  # noqa: E731
    region = np.array([[0.0, 1.0], [0.0, 1.0]])
    calls = [
        lambda: bilinear_tube_integral(*tubes, p, 100),
        lambda: bilinear_curve_integral(*quads, 2.0 ** -4, p),
        lambda: bilinear_integral_from_multiplicity(ones, ones, region, p, 100),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite and positive"):
            call()
