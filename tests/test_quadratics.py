"""Jet gauges, near-intersection structure, tangency tests, comparability."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jet_reference as ref
from heislab import quadratics
from heislab.families import build_bipartite_balls
from heislab.quadratics import (
    PLANAR_DOMAIN,
    BipartitePair,
    CurviRect,
    Interval,
    Quadratic,
    coeff_array,
    comparable,
    delta_gauge,
    dt_rectangle,
    is_tangent_containment,
    is_tangent_jet,
    jet_gauges,
    near_intersection_intervals,
    rect_t_scale,
    tau,
    validate_bipartite,
)

coeff = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
quads = st.builds(Quadratic, coeff, coeff, coeff)


def grid_jet_sup(h: Quadratic, domain=PLANAR_DOMAIN, n=10_001):
    s = np.linspace(domain.lo, domain.hi, n)
    vals = np.abs((0.5 * h.a * s + h.b) * s + h.c) + np.abs(h.a * s + h.b)
    return vals.max() + abs(h.a), vals.min()


# ---------------------------------------------------------------------------
# tau


def test_tau_zero_on_equal():
    q = Quadratic(1.3, -0.2, 0.7)
    assert tau(q, q) == 0.0


def test_tau_opposed_worked_example():
    # h = rho*s^2 on [-5, 5]: |h| + |h'| + |h''| peaks at s = 5 with 37*rho
    for rho in (1.0, 0.25, 0.03125):
        assert abs(tau(Quadratic(rho, 0, 0), Quadratic(-rho, 0, 0)) - 37 * rho) < 1e-12


def test_tau_lower_bound_curvature(rng):
    for _ in range(10_000):
        a1, a2 = rng.normal(size=2)
        f = Quadratic(a1, rng.normal(), rng.normal())
        g = Quadratic(a2, rng.normal(), rng.normal())
        assert tau(f, g) >= abs(a1 - a2) - 1e-14


@given(quads, quads)
@settings(max_examples=200, deadline=None)
def test_tau_matches_grid(f, g):
    sup, _ = grid_jet_sup(f.sub(g))
    exact = tau(f, g)
    # grid can only undershoot the true sup
    assert exact >= sup - 1e-9
    assert exact <= sup + 0.02 * (1 + abs(f.a - g.a) + abs(f.b - g.b))


@given(quads, quads, quads)
@settings(max_examples=200, deadline=None)
def test_tau_is_a_metric(f, g, u):
    assert tau(f, g) == pytest.approx(tau(g, f), abs=1e-12)
    assert tau(f, g) <= tau(f, u) + tau(u, g) + 1e-10
    if (f.a, f.b, f.c) != (g.a, g.b, g.c):
        assert tau(f, g) > 0.0


# ---------------------------------------------------------------------------
# delta gauge


def test_delta_gauge_tangent_pair():
    # common point and common tangent at the origin
    assert delta_gauge(Quadratic(2, 0, 0), Quadratic(0, 0, 0)) == 0.0


def test_delta_gauge_zero_on_equal():
    q = Quadratic(0.4, 1.0, -2.0)
    assert delta_gauge(q, q) == 0.0


@given(quads, quads)
@settings(max_examples=200, deadline=None)
def test_delta_below_tau_and_matches_grid(f, g):
    d = delta_gauge(f, g)
    assert d <= tau(f, g) + 1e-12
    _, inf_grid = grid_jet_sup(f.sub(g))
    assert d <= inf_grid + 1e-9  # exact inf is below any grid value


@given(quads, quads)
@settings(max_examples=200, deadline=None)
def test_delta_symmetric(f, g):
    assert delta_gauge(f, g) == pytest.approx(delta_gauge(g, f), abs=1e-12)


@given(quads, quads, quads)
@settings(max_examples=200, deadline=None)
def test_delta_pointwise_triangle(f, g, u):
    # the valid triangle form: jets add at a common argument, so the gauge of
    # f - g is below the jet sum of f - u and u - g at any theta
    s = np.linspace(PLANAR_DOMAIN.lo, PLANAR_DOMAIN.hi, 2001)
    h1, h2 = f.sub(u), u.sub(g)
    sums = (
        np.abs((0.5 * h1.a * s + h1.b) * s + h1.c) + np.abs(h1.a * s + h1.b)
        + np.abs((0.5 * h2.a * s + h2.b) * s + h2.c) + np.abs(h2.a * s + h2.b)
    )
    assert delta_gauge(f, g) <= sums.min() + 1e-9


def test_delta_sum_of_infs_triangle_fails():
    # inf-of-sum cannot be replaced by sum-of-infs: two osculations on
    # opposite sides give zero gauges against the middle curve while the
    # outer pair stays far apart ((s+2)^2/2 and -(s-2)^2/2 against 0)
    u = Quadratic(0, 0, 0)
    f = Quadratic(1, 2, 2)
    g = Quadratic(-1, 2, -2)
    assert delta_gauge(f, u) == 0.0
    assert delta_gauge(u, g) == 0.0
    assert delta_gauge(f, g) == 4.0


# ---------------------------------------------------------------------------
# batch kernel against the scalar reference loop

# nonzero magnitudes stay in [1e-4, 10], so no product underflows
_mag = st.builds(lambda m, sign: sign * m, st.floats(1e-4, 10.0), st.sampled_from([-1.0, 1.0]))
_coef = st.one_of(st.just(0.0), _mag)
_dyadic = st.builds(lambda k: k / 8.0, st.integers(-48, 48))
_jet_rows = st.one_of(
    st.tuples(_coef, _coef, _coef),
    st.just((0.0, 0.0, 0.0)),
    # zero discriminant: (a/2)(s - r)^2
    st.builds(lambda a, r: (a, -a * r, 0.5 * a * r * r), _dyadic, _dyadic),
    # a root exactly at an endpoint, quadratic and linear
    st.builds(
        lambda k, r, e: (2.0 * k, -k * (e + r), k * e * r),
        _dyadic, _dyadic, st.sampled_from([PLANAR_DOMAIN.lo, PLANAR_DOMAIN.hi]),
    ),
    st.builds(lambda b, e: (0.0, b, -b * e), _dyadic, st.sampled_from([-5.0, 5.0])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_jet_rows, min_size=1, max_size=40))
def test_jet_gauges_equal_scalar_reference_bit_for_bit(rows):
    # each batch row also equals its one-row call, tau(q, zero)
    h = np.array(rows, dtype=np.float64)
    with np.errstate(all="raise"):
        t, d = jet_gauges(h)
    zero = Quadratic(0.0, 0.0, 0.0)
    for row, tv, dv in zip(rows, t.tolist(), d.tolist()):
        q = Quadratic(*row)
        assert tv == ref.tau(q, zero) == tau(q, zero)
        assert dv == ref.delta_gauge(q, zero) == delta_gauge(q, zero)


def test_jet_gauges_equal_scalar_reference_on_random_rows(rng):
    n = 20_000
    h = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-4, 1, size=(n, 1))
    h[::7, 0] = 0.0
    h[::11, 1] = 0.0
    h[::13, 2] = 0.0
    h[::17] = 0.0
    with np.errstate(all="raise"):
        t, d = jet_gauges(h)
    zero = Quadratic(0.0, 0.0, 0.0)
    rows = [Quadratic(*row) for row in h.tolist()]
    assert t.tolist() == [ref.tau(q, zero) for q in rows]
    assert d.tolist() == [ref.delta_gauge(q, zero) for q in rows]


def _signed_powers(rng, n, lo, hi):
    return rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(lo, hi, n))


def test_jet_gauges_keep_their_bits_on_large_rows_that_do_not_overflow(rng):
    # past 2^510 a row is tested for overflow; these rows have no overflow
    # (|db| <= 2^501, |da dc| <= 2^1001, 18.5|da| + 6|db| + |dc| < 2^1016),
    # so they keep the unscaled operations, tiny entries included
    n = 4000
    h = np.stack([_signed_powers(rng, n, -300, 1), _signed_powers(rng, n, -300, 500),
                  _signed_powers(rng, n, -300, 1000)], axis=1)
    # a huge curvature over a tiny value: scaled to [1/2, 1), dc would flush to 0
    wide = np.stack([_signed_powers(rng, n, 600, 1010), np.zeros(n),
                     _signed_powers(rng, n, -700, -500)], axis=1)
    wide[::3, 1] = _signed_powers(rng, len(wide[::3]), -300, 0)
    h = np.concatenate([h, wide])
    h[::7, 0] = 0.0
    h[::11, 1] = 0.0
    assert (np.abs(h).max(axis=1) > 2.0 ** 510).mean() > 0.6
    t, d = jet_gauges(h)
    zero = Quadratic(0.0, 0.0, 0.0)
    rows = [Quadratic(*row) for row in h.tolist()]
    assert t.tolist() == [ref.tau(q, zero) for q in rows]
    assert d.tolist() == [ref.delta_gauge(q, zero) for q in rows]


@pytest.mark.parametrize("k", [300, 600, 900, 1000, 1020])
def test_jet_gauges_of_rows_scaled_past_overflow_are_the_scaled_gauges(rng, k):
    # a power of two only shifts exponents, so the gauges of 2^k h are
    # 2^k times those of h, +inf where that passes the largest float, and
    # no step warns (the tests turn RuntimeWarnings into errors)
    h = rng.normal(size=(2000, 3))
    h[::5, 0] = 0.0
    h[::9, 1] = 0.0
    t, d = jet_gauges(np.ldexp(h, k))
    t1, d1 = jet_gauges(h)
    with np.errstate(over="ignore"):
        assert np.array_equal(t, np.ldexp(t1, k))
        assert np.array_equal(d, np.ldexp(d1, k))
    assert np.isfinite(d).all() and (np.isinf(t).any() == (k >= 1020))


def test_jet_gauges_on_finite_rows_up_to_the_largest_float():
    big = np.finfo(float).max
    h = np.array([[0.0, 1e160, 1e160], [0.0, 1e155, 0.0], [1e307, 1e307, 1e307],
                  [big, -big, big], [-big, 0.0, 0.0], [0.0, 0.0, big], [0.0, big, -big]])
    t, d = jet_gauges(h)
    # h = 1e160 (s + 1): |h| + |h'| is 6e160 + 1e160 at s = 5 and 1e160 at the root -1
    assert [t[0], d[0], t[1], d[1]] == pytest.approx([7e160, 1e160, 6e155, 1e155], rel=1e-15)
    assert np.isinf(t[[2, 3, 4, 6]]).all() and t[5] == big
    assert np.isfinite(d).all()
    assert d[5] == big and d[6] == big
    for row, tv, dv in zip(h, t, d):
        e = np.frexp(np.abs(row).max())[1]
        ts, ds = jet_gauges(np.ldexp(row, -e)[None])
        with np.errstate(over="ignore"):
            assert (tv, dv) == (np.ldexp(ts[0], e), np.ldexp(ds[0], e))


def test_jet_gauges_on_no_rows():
    t, d = jet_gauges(np.zeros((0, 3)))
    assert t.shape == d.shape == (0,)


@pytest.mark.parametrize("row", [(2.0 ** -1025, 1.0, 0.0), (0.0, 2.0 ** -1025, 1.0)])
def test_jet_gauges_subnormal_coefficient(row):
    # the root 2q/da, resp. dc/q, overflows; tau and Delta stay the scalar ones
    q, zero = Quadratic(*row), Quadratic(0.0, 0.0, 0.0)
    assert tau(q, zero) == ref.tau(q, zero)
    assert delta_gauge(q, zero) == ref.delta_gauge(q, zero)


def _same_float(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def test_tau_and_delta_gauge_equal_scalar_reference_on_alternating_and_repeated_pairs(rng):
    # each call gauges its own pair, also when consecutive pairs differ only
    # in the sign of a zero
    signed = [
        Quadratic(0.0, 0.0, 0.0),
        Quadratic(-0.0, -0.0, -0.0),
        Quadratic(0.0, -0.0, 1.0),
        Quadratic(-0.0, 0.5, -0.0),
        Quadratic(1.0, 0.0, -0.0),
        Quadratic(1.0, -0.0, 0.0),
    ]
    curves = signed + [Quadratic(*row) for row in rng.normal(size=(6, 3)).tolist()]
    pairs = [(f, g) for f in curves for g in curves]
    alternating = [pr for ab in zip(pairs, pairs[::-1]) for pr in ab]
    repeated = [pr for pr in pairs for _ in range(3)]
    for f, g in alternating + repeated:
        assert _same_float(tau(f, g), ref.tau(f, g))
        assert _same_float(delta_gauge(f, g), ref.delta_gauge(f, g))
        assert _same_float(tau(f, g), ref.tau(f, g))


def test_array_gauges_take_one_kernel_call_per_batch(monkeypatch, rng):
    calls = []

    def counting(h):
        calls.append(len(h))
        return jet_gauges(h)

    monkeypatch.setattr(quadratics, "jet_gauges", counting)
    F, G = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
    tau(F, G), delta_gauge(F, G)
    assert calls == [50, 50]
    tau(Quadratic(*F[0]), Quadratic(*G[0]))
    assert calls == [50, 50, 1]


def _row_calls(h):
    """jet_gauges of each row of h on its own, as two lists."""
    one = [jet_gauges(h[k : k + 1]) for k in range(len(h))]
    return [float(t[0]) for t, _ in one], [float(d[0]) for _, d in one]


def test_jet_gauges_take_any_layout_of_rows(rng):
    h = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(-4, 1, size=(400, 1))
    h[::5, 0] = 0.0
    h[::9, 1:] = 0.0
    frozen = h.copy()
    frozen.flags.writeable = False
    for view in (h[::2], h[1::3, :], np.asfortranarray(h), frozen, h[:, [0, 1, 2]]):
        t, d = jet_gauges(view)
        assert (t.tolist(), d.tolist()) == _row_calls(np.ascontiguousarray(view))
    assert np.array_equal(frozen, h)


def test_tau_and_delta_gauge_array_forms_equal_scalar_forms(rng):
    F = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-4, 1, size=(300, 1))
    G = F + rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-6, 0, size=(300, 1))
    G[::4] = F[::4]
    G[1::7, 0] = F[1::7, 0]
    pairs = [(Quadratic(*f), Quadratic(*g)) for f, g in zip(F.tolist(), G.tolist())]
    t, d = tau(F, G), delta_gauge(F, G)
    assert t.tolist() == [tau(f, g) for f, g in pairs]
    assert d.tolist() == [delta_gauge(f, g) for f, g in pairs]
    assert tau(F[:0], G[:0]).shape == delta_gauge(F[:0], G[:0]).shape == (0,)


@pytest.mark.parametrize(
    "shapes", [((4, 3), (5, 3)), ((4, 3), (4, 2)), ((3,), (3,)), ((2, 3, 1), (2, 3, 1))]
)
def test_array_gauges_reject_mismatched_shapes(shapes):
    F, G = np.zeros(shapes[0]), np.zeros(shapes[1])
    for gauge in (tau, delta_gauge):
        with pytest.raises(ValueError):
            gauge(F, G)
        with pytest.raises(TypeError):
            gauge(Quadratic(0.0, 0.0, 0.0), np.zeros((1, 3)))


@pytest.mark.parametrize("k", [5, 6])  # 282 curves: exhaustive; 2272: sampled
def test_validate_bipartite_equals_scalar_reference(k):
    pair = build_bipartite_balls(2.0 ** -k, 0.25)
    assert validate_bipartite(pair, 2.0 ** -k) == ref.validate_bipartite(pair, 2.0 ** -k)


# (n1, n2, max_pairs, within): a family in blocks of two rows, in column
# blocks (n > chunk) and of one curve; cross pairs in row blocks and in
# column blocks; the draws of a family and of cross pairs
@pytest.mark.parametrize("n1, n2, max_pairs, within", [
    (4, 4, 6, True), (9, 9, 36, True), (1, 1, 36, True), (7, 5, 35, False),
    (2, 23, 46, False), (9, 9, 35, True), (7, 5, 34, False),
])
def test_pair_differences_follow_the_scalar_reference_order(monkeypatch, n1, n2, max_pairs,
                                                           within):
    # the broadcast blocks hold exactly the rows P[i] - Q[j] of the scalar
    # reference's pairs, in its order, bit for bit, at most a chunk per block
    monkeypatch.setattr(quadratics, "_PAIR_CHUNK", 8)
    rng = np.random.default_rng(3)
    P = rng.normal(size=(n1, 3))
    Q = P if within else rng.normal(size=(n2, 3))
    blocks = list(quadratics._pair_differences(P, Q, max_pairs, 5, within))
    assert all(0 < len(h) <= 8 for h in blocks)
    pairs = ref._scalar_pairs(n1, n2, max_pairs, 5, within)
    expected = np.array([P[i] - Q[j] for i, j in pairs]).reshape(-1, 3)
    got = np.concatenate(blocks) if blocks else np.zeros((0, 3))
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    # jet_gauges reads a block as its contiguous coefficient rows
    assert all(h.T.flags.c_contiguous for h in blocks)


@pytest.mark.parametrize("n", [2, 3, 16, 64, 65, 200, 447])
def test_within_family_blocks_equal_the_compressed_broadcast(n):
    # only the pairs i < j are formed, block by block as the full broadcast
    # compressed to them, bit for bit
    P = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-1, 2)
    got = list(quadratics._pair_differences(P, P, 100_000, 0, within=True))
    want = list(ref.within_blocks_by_broadcast(P, quadratics._PAIR_CHUNK))
    assert [h.shape for h in got] == [h.shape for h in want]
    for h, w in zip(got, want):
        assert h.view(np.uint64).tolist() == w.view(np.uint64).tolist()
        assert h.T.flags.c_contiguous


def test_validate_bipartite_exhaustive_while_unordered_pairs_fit():
    # n = 400: 79,800 pairs i < j per family fit the 100,000 budget
    pair = build_bipartite_balls(2.0 ** -6, 0.25)
    report = validate_bipartite(BipartitePair(pair.F[:400], pair.G[:400], 0.5))
    assert report.pairs_checked == 2 * 79_800 + 160_000


@pytest.mark.parametrize("copies", [(40, 30), (1, 30), (30, 1), (1, 1)])
def test_validate_bipartite_gauges_every_row_when_all_tau_are_equal(monkeypatch, copies):
    # repeated curves: every tau within a family is 0 and every cross tau is
    # the same, so no row can be pruned; the survivors still go to
    # jet_gauges at most a chunk at a time
    monkeypatch.setattr(quadratics, "_PAIR_CHUNK", 64)
    rows, gauges = [], quadratics.jet_gauges
    monkeypatch.setattr(quadratics, "jet_gauges", lambda h: rows.append(len(h)) or gauges(h))
    f, g = Quadratic(0.75, -0.125, 0.5), Quadratic(-0.75, 0.25, -0.5)
    pair = BipartitePair((f,) * copies[0], (g,) * copies[1], 1.0)
    report = validate_bipartite(pair, 0.0)
    assert sum(rows) == report.pairs_checked and max(rows) <= 64
    assert report == ref.validate_bipartite_exhaustive(pair, 0.0)
    assert report.cross_min == report.cross_max == tau(f, g)


@pytest.mark.parametrize("nf, ng", [(1, 1), (1, 64), (64, 1)])
def test_validate_bipartite_equals_exhaustive_oracle_on_one_curve_families(nf, ng):
    pair = build_bipartite_balls(2.0 ** -5, 0.25)
    one = BipartitePair(pair.F[:nf], pair.G[:ng], pair.rho)
    report = validate_bipartite(one, 2.0 ** -5)
    assert report == ref.validate_bipartite_exhaustive(one, 2.0 ** -5)
    assert report.pairs_checked == nf * ng + nf * (nf - 1) // 2 + ng * (ng - 1) // 2


def test_validate_bipartite_equals_exhaustive_oracle_on_mixed_repeats():
    # two distinct curves repeated: many rows tie for each extreme
    f, g = Quadratic(0.5, 0.0, 0.0), Quadratic(0.25, 0.125, 0.0)
    F = (f, g) * 20
    pair = BipartitePair(F, tuple(Quadratic(-q.a, q.b, q.c) for q in F), 1.0)
    assert validate_bipartite(pair, 0.1) == ref.validate_bipartite_exhaustive(pair, 0.1)


def _tau_bound_rows(rng, n):
    """Difference rows that stress tau_bounds' margin: coefficients spread
    over 1e-12 .. 1e12, da = 0, db = 0, da near 1e-300, vertices -db/da at
    +-5 exactly, and subnormals."""
    spread = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-12, 12, size=(n, 3))
    flat, even = spread.copy(), spread.copy()
    flat[:, 0], even[:, 1] = 0.0, 0.0
    tiny = spread.copy()
    tiny[:, 0] = rng.normal(size=n) * 1e-300
    # da = k 2^e, so 5 da is exact and -db/da is +-5 exactly
    da = rng.integers(-64, 65, size=n) * 2.0 ** rng.integers(-40, 40, size=n)
    edge = np.stack([da, rng.choice([-5.0, 5.0], size=n) * da,
                     rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6, size=n)], axis=1)
    sub = rng.integers(-2**20, 2**20, size=(n, 3)) * np.finfo(np.float64).smallest_subnormal
    near = rng.normal(size=(n, 3))
    near[:, 1] = -near[:, 0] * rng.uniform(-5.0, 5.0, size=n)  # vertex inside
    return np.concatenate([spread, flat, even, tiny, edge, sub, near])


def test_tau_bounds_bracket_jet_gauges_tau(rng):
    for _ in range(4):
        h = _tau_bound_rows(rng, 20_000)
        lower, upper = quadratics.tau_bounds(h)
        tv = jet_gauges(h)[0]
        assert (lower <= tv).all() and (tv <= upper).all()
    # the bounds are tight enough to settle rows: on O(1) rows the upper
    # bound is within a factor 2 of tau
    h = rng.normal(size=(10_000, 3))
    lower, upper = quadratics.tau_bounds(h)
    assert (upper <= 2.0 * jet_gauges(h)[0]).all()
    assert quadratics.tau_bounds(np.zeros((0, 3)))[0].shape == (0,)


def test_tau_bounds_on_rows_too_large_for_floats():
    # no warning from the bounds themselves; a row that overflows gets an
    # infinite upper bound, still above jet_gauges' tau
    h = np.array([[1e307, 1e307, 1e307], [-1e308, 0.0, 1.0], [0.0, 1e308, -1e308]])
    lower, upper = quadratics.tau_bounds(h)
    with np.errstate(over="ignore", invalid="ignore"):
        tv = jet_gauges(h)[0]
    assert (lower <= tv).all() and (tv <= upper).all() and np.isinf(upper).all()


_NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NONFINITE)
@pytest.mark.parametrize("col", [0, 1, 2])
def test_tau_bounds_reject_nonfinite_rows(bad, col):
    h = np.zeros((3, 3))
    h[1, col] = bad
    with pytest.raises(ValueError, match="finite"):
        quadratics.tau_bounds(h)


@pytest.mark.parametrize("bad", _NONFINITE)
@pytest.mark.parametrize("col", [0, 1, 2])
def test_jet_gauges_reject_nonfinite_rows(bad, col):
    h = np.zeros((3, 3))
    h[1, col] = bad
    with pytest.raises(ValueError):
        jet_gauges(h)


@pytest.mark.parametrize("bad", _NONFINITE)
def test_tau_and_delta_gauge_reject_nonfinite_coefficients(bad):
    f, g = Quadratic(bad, 0.0, 0.5), Quadratic(0.0, 0.0, 0.5)
    for gauge in (tau, delta_gauge):
        with pytest.raises(ValueError):
            gauge(f, g)
        with pytest.raises(ValueError):
            gauge(g, f)


@pytest.mark.parametrize("bad", _NONFINITE)
def test_coeff_array_rejects_nonfinite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        coeff_array([Quadratic(1.0, 0.0, 0.0), Quadratic(0.0, 0.0, bad)])
    with pytest.raises(ValueError, match="finite"):
        coeff_array(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, bad]]))
    assert coeff_array([]).shape == (0, 3)


@pytest.mark.parametrize("shape", [(4, 2), (3,), (2, 4, 3)])
def test_coeff_array_refuses_other_shapes(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        coeff_array(np.zeros(shape))


def test_coeff_array_takes_a_float64_table_without_a_copy():
    table = np.arange(12.0).reshape(4, 3)
    assert coeff_array(table) is table
    assert coeff_array(table.astype(np.float32)).dtype == np.float64


@pytest.mark.parametrize("bad", _NONFINITE)
def test_validate_bipartite_rejects_nonfinite_coefficients(bad):
    with pytest.raises(ValueError):
        validate_bipartite(BipartitePair((Quadratic(bad, 0, 0),), (Quadratic(1, 0, 0),), 0.25))
    # a sampled family: the bad curve need not be among the drawn pairs
    pair = build_bipartite_balls(2.0 ** -6, 0.25)
    G = np.vstack([pair.G[:-1], [0.0, bad, 0.0]])
    with pytest.raises(ValueError):
        validate_bipartite(BipartitePair(pair.F, G, pair.rho))


def test_validate_bipartite_rejects_differences_that_overflow():
    # finite curves whose difference is not: the bounds raise as jet_gauges
    # did (the subtraction's own overflow warning aside)
    big = BipartitePair((Quadratic(1e308, 0.0, 0.0),), (Quadratic(-1e308, 0.0, 0.0),), 0.25)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        validate_bipartite(big)


# ---------------------------------------------------------------------------
# near-intersection intervals


def test_near_intersection_equal_curves():
    q = Quadratic(1, 0, 0)
    window = PLANAR_DOMAIN.shrink(4.0)
    pieces = near_intersection_intervals(q, q, 0.1, window)
    assert len(pieces) == 1
    assert pieces[0] == window


def test_near_intersection_opposed_closed_form():
    f, g = Quadratic(1, 0, 0), Quadratic(-1, 0, 0)
    delta = 2.0 ** -6
    window = PLANAR_DOMAIN.shrink(4.0)
    (piece,) = near_intersection_intervals(f, g, delta, window)
    r = math.sqrt(delta)  # |s| <= sqrt(delta/rho) at rho = 1
    assert piece.lo == pytest.approx(-r, abs=1e-12)
    assert piece.hi == pytest.approx(r, abs=1e-12)


def test_near_intersection_two_pieces():
    # steep parabola vs 0: |s^2 - 1| <= 0.1 has two separate bands
    f, g = Quadratic(2, 0, -1), Quadratic(0, 0, 0)
    pieces = near_intersection_intervals(f, g, 0.1, PLANAR_DOMAIN)
    assert len(pieces) == 2


def test_near_intersection_never_more_than_two(rng):
    # 10,000 pairs and deltas as rows, one array call; the (n, 2, 2) form
    # has room for two pieces and raises on a third
    window = PLANAR_DOMAIN.shrink(4.0)
    f, g = rng.normal(size=(2, 10_000, 3))
    pieces = near_intersection_intervals(f, g, 10.0 ** rng.uniform(-4, -1, size=10_000), window)
    assert pieces.shape == (10_000, 2, 2)
    lo, hi = pieces[..., 0], pieces[..., 1]
    present = lo == lo
    assert (present == (hi == hi)).all()
    assert (window.lo - 1e-12 <= lo[present]).all() and (lo <= hi)[present].all()
    assert (hi[present] <= window.hi + 1e-12).all()


def test_near_intersection_takes_one_delta_per_row(rng):
    f, g = rng.normal(size=(2, 200, 3))
    deltas = 10.0 ** rng.uniform(-4, -1, size=200)
    window = PLANAR_DOMAIN.shrink(4.0)
    rows = near_intersection_intervals(f, g, deltas, window)
    for i in range(200):
        one = near_intersection_intervals(f[i : i + 1], g[i : i + 1], deltas[i], window)
        assert one.view(np.uint64).tolist() == rows[i : i + 1].view(np.uint64).tolist()
    with pytest.raises(ValueError, match="delta"):
        near_intersection_intervals(f, g, np.where(np.arange(200) == 7, math.nan, deltas), window)


@pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf])
def test_near_intersection_rejects_nonfinite_delta(delta):
    q = Quadratic(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="delta"):
        near_intersection_intervals(q, Quadratic(0.0, 0.0, 0.0), delta, PLANAR_DOMAIN)


@pytest.mark.parametrize("bad", _NONFINITE)
@pytest.mark.parametrize("col", [0, 1, 2])
def test_near_intersection_rejects_nonfinite_coefficients(bad, col):
    coeffs = [1.0, 0.0, 0.0]
    coeffs[col] = bad
    window = PLANAR_DOMAIN.shrink(4.0)
    for f, g in [(Quadratic(*coeffs), Quadratic(0.0, 0.0, 0.0)),
                 (Quadratic(0.0, 0.0, 0.0), Quadratic(*coeffs))]:
        with pytest.raises(ValueError, match="finite"):
            near_intersection_intervals(f, g, 2.0 ** -6, window)


def test_near_intersection_grid_agreement(rng):
    window = PLANAR_DOMAIN.shrink(4.0)
    s = np.linspace(window.lo, window.hi, 20_001)
    for _ in range(200):
        f = Quadratic(*rng.normal(size=3))
        g = Quadratic(*rng.normal(size=3))
        delta = 10.0 ** rng.uniform(-3, -1)
        pieces = near_intersection_intervals(f, g, delta, window)
        h = f.sub(g)
        inside = np.abs((0.5 * h.a * s + h.b) * s + h.c) <= delta
        claimed = np.zeros_like(inside)
        for p in pieces:
            claimed |= (s >= p.lo - 1e-9) & (s <= p.hi + 1e-9)
        # every grid point inside the band must be covered by a piece
        assert np.all(claimed[inside])


def _row_pieces(f, g, delta, window):
    """The array form's pieces of one pair, as (lo, hi) tuples."""
    (row,) = near_intersection_intervals(np.array([f]), np.array([g]), delta, window)
    kept = [(lo, hi) for lo, hi in row.tolist() if lo <= hi]
    assert np.isnan(row[len(kept):]).all()  # missing pieces are NaN, after the present ones
    return kept


def _oracle_pieces(f, g, delta, window):
    return [(p.lo, p.hi) for p in ref.near_intersection_intervals(
        Quadratic(*f), Quadratic(*g), delta, window)]


def _assert_rows_match_oracle(F, G, delta, window):
    pieces = near_intersection_intervals(F, G, delta, window)
    assert pieces.shape == (len(F), 2, 2)
    for i, (f, g) in enumerate(zip(F.tolist(), G.tolist())):
        row = [(lo, hi) for lo, hi in pieces[i].tolist() if lo <= hi]
        assert np.isnan(pieces[i, len(row):]).all()
        assert row == _oracle_pieces(f, g, delta, window), (i, f, g)


@pytest.mark.parametrize("delta", [2.0 ** -10, 2.0 ** -6, 0.1, 3.0])
def test_near_intersection_rows_equal_scalar_oracle_random(delta):
    # coefficient scales from 1e-3 to 1e3, and rows sharing a, or a and b
    rng = np.random.default_rng(171)
    n = 4000
    F = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    G = F + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 1, size=(n, 1))
    G[::5, 0] = F[::5, 0]
    G[::7, :2] = F[::7, :2]
    for window in (PLANAR_DOMAIN.shrink(4.0), PLANAR_DOMAIN, Interval(0.3, 0.3)):
        _assert_rows_match_oracle(F, G, delta, window)


@settings(max_examples=300, deadline=None)
@given(quads, quads, st.floats(1e-6, 4.0))
def test_near_intersection_one_row_equals_scalar_oracle(f, g, delta):
    window = PLANAR_DOMAIN.shrink(4.0)
    got = [(p.lo, p.hi) for p in near_intersection_intervals(f, g, delta, window)]
    assert got == _oracle_pieces((f.a, f.b, f.c), (g.a, g.b, g.c), delta, window)


D6 = 2.0 ** -6
# (f - g as (da, db, dc), what it exercises); g = 0, so f is the difference
_EDGE_ROWS = [
    ((0.0, 0.7, 0.1), "da = 0: a ray each way, one piece"),
    ((0.0, -0.7, 0.1), "da = 0 with db < 0"),
    ((0.0, 0.0, 0.5 * D6), "da = db = 0 inside the band: the whole window"),
    ((0.0, 0.0, D6), "da = db = 0 on the band's edge: the whole window"),
    ((0.0, 0.0, 3 * D6), "da = db = 0 outside the band: nothing"),
    ((1.0, 0.0, 1.0), "disc < 0 for h <= delta: nothing"),
    ((-1.0, 0.0, -1.0), "disc < 0 for h >= -delta: nothing"),
    ((1.0, 0.0, -0.5 * D6), "disc < 0 with a < 0 for h >= -delta: the line, one interval"),
    ((1.0, 0.0, D6), "q = 0 for h <= delta: the double root 0 alone"),
    ((-1.0, 0.0, -D6), "q = 0 for h >= -delta: the double root 0 alone"),
    ((-1.0, 0.0, D6), "q = 0 with a < 0: the whole line, and one interval"),
    ((1.0, 0.0, -4 * D6), "two pieces: 3 delta <= s^2/2 <= 5 delta"),
    ((-2.0, 1.0, -0.25 + D6), "h <= delta as two rays meeting at 0.5: merged"),
    ((2.0, -1.0, 0.25 - D6), "h >= -delta as two rays meeting at 0.5: merged"),
    ((-2.0, 0.7493395061746735, -0.12475242387852589), "two rays 5.6e-17 apart: merged"),
    ((0.02, 0.0, 0.0), "a band wider than the window: clipped to it"),
    ((0.0, 1.0, -1.25), "a piece sticking out of the window: clipped"),
    ((0.0, 1.0, -3.0), "a piece outside the window: nothing"),
    ((1e-310, 1.0, 0.1), "subnormal da: a root overflows to -inf"),
    ((5.0, 0.0, -0.5 * 1.25 ** 2 * 5.0), "two pieces, each ending on an end of the window"),
]


@pytest.mark.parametrize("h, what", _EDGE_ROWS, ids=[w for _, w in _EDGE_ROWS])
def test_near_intersection_edge_rows_equal_scalar_oracle(h, what):
    window = PLANAR_DOMAIN.shrink(4.0)
    assert _row_pieces(h, (0.0, 0.0, 0.0), D6, window) == _oracle_pieces(
        h, (0.0, 0.0, 0.0), D6, window)


def test_near_intersection_edge_rows_in_one_call():
    # the edge rows together, each row as the scalar oracle gives it
    F = np.array([h for h, _ in _EDGE_ROWS])
    _assert_rows_match_oracle(F, np.zeros_like(F), D6, PLANAR_DOMAIN.shrink(4.0))


def test_near_intersection_touching_rays_merge_into_one_piece():
    window, zero = PLANAR_DOMAIN.shrink(4.0), (0.0, 0.0, 0.0)
    ((lo, hi),) = _row_pieces((-2.0, 1.0, -0.25 + D6), zero, D6, window)
    # h >= -delta is (s - 0.5)^2 <= 2 delta around the meeting point 0.5
    r = math.sqrt(2 * D6)
    assert lo == pytest.approx(0.5 - r) and hi == pytest.approx(0.5 + r)
    # the rays' ends one ulp apart: h <= delta leaves a gap of 5.6e-17, within 1e-15
    h = (-2.0, 0.7493395061746735, -0.12475242387852589)
    (_, left), (right, _) = ref.solve_le(*h, D6)
    assert 0.0 < right - left < 1e-15
    assert len(_row_pieces(h, zero, D6, window)) == 1


def test_near_intersection_rows_of_no_pairs():
    none = np.zeros((0, 3))
    assert near_intersection_intervals(none, none, D6, PLANAR_DOMAIN).shape == (0, 2, 2)


@pytest.mark.parametrize("bad", _NONFINITE)
def test_near_intersection_rows_reject_nonfinite(bad):
    F, G = np.zeros((5, 3)), np.zeros((5, 3))
    F[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        near_intersection_intervals(F, G, D6, PLANAR_DOMAIN)
    with pytest.raises(ValueError, match="finite"):
        near_intersection_intervals(G, F, D6, PLANAR_DOMAIN)
    with pytest.raises(ValueError, match="delta"):
        near_intersection_intervals(G, G, bad, PLANAR_DOMAIN)


def test_near_intersection_rows_reject_bad_shapes():
    with pytest.raises(ValueError, match="arrays"):
        near_intersection_intervals(np.zeros((4, 3)), np.zeros((3, 3)), D6, PLANAR_DOMAIN)
    with pytest.raises(ValueError, match="arrays"):
        near_intersection_intervals(np.zeros(3), np.zeros(3), D6, PLANAR_DOMAIN)


def test_near_intersection_more_than_two_pieces_raise(monkeypatch):
    # three disjoint sublevel pieces can only come from a broken solver:
    # the structure check must flag them rather than drop one
    def split(a, b, c):
        lo = np.where(np.arange(len(a))[:, None] < len(a) // 2, [[-1.0, 0.5]], [[-1.0, -0.5]])
        hi = np.where(np.arange(len(a))[:, None] < len(a) // 2, [[0.0, 1.0]], [[-0.75, 1.0]])
        return lo, hi

    monkeypatch.setattr(quadratics, "_sublevel_pieces", split)
    with pytest.raises(RuntimeError, match="3 intervals"):
        near_intersection_intervals(np.zeros((1, 3)), np.zeros((1, 3)), D6, PLANAR_DOMAIN)


# ---------------------------------------------------------------------------
# tangency


def test_jet_tangency_trivial_cases():
    r = dt_rectangle(Quadratic(1, 0, 0), 0.3, 2.0 ** -8, 2.0 ** -3)
    assert is_tangent_jet(Quadratic(1, 0, 0), r)
    off = Quadratic(1, 0, 10 * 2.0 ** -8)  # vertical offset 10*delta >> 4*delta
    assert not is_tangent_jet(off, r)


def test_jet_tangency_rejects_bad_base():
    # base longer than 1 means t < delta
    r = CurviRect(Quadratic(0, 0, 0), Interval(-1.0, 1.0), 2.0 ** -8)
    with pytest.raises(ValueError):
        is_tangent_jet(Quadratic(0, 0, 0), r)


def test_containment_tangency_basics():
    delta = 2.0 ** -6
    r = dt_rectangle(Quadratic(1, 0, 0), 0.0, delta, 1.0)
    assert is_tangent_containment(Quadratic(1, 0, 0), r, 1.0)
    # the opposed pair at the shared rectangle: sup |h| over the contact base is delta
    rho = 1.0
    base = math.sqrt(delta / rho)
    rect = CurviRect(Quadratic(rho, 0, 0), Interval(-base, base), delta)
    assert is_tangent_containment(Quadratic(-rho, 0, 0), rect, 4.0)


def test_containment_monotone_in_constant(rng):
    for _ in range(10_000):
        delta = 2.0 ** rng.uniform(-9, -3)
        t = 2.0 ** rng.uniform(math.log2(delta), 0)
        center = Quadratic(*rng.normal(size=3))
        rect = dt_rectangle(center, rng.uniform(-1, 1), delta, t)
        u = rng.uniform(0, 6)
        f = Quadratic(center.a + u * t * rng.uniform(-1, 1),
                      center.b + u * math.sqrt(delta * t) * rng.uniform(-1, 1),
                      center.c + u * delta * rng.uniform(-1, 1))
        small = is_tangent_containment(f, rect, 2.0)
        assert not small or is_tangent_containment(f, rect, 8.0)


def test_containment_vs_dense_sampling(rng):
    for _ in range(300):
        delta = 2.0 ** rng.uniform(-8, -4)
        t = 2.0 ** rng.uniform(math.log2(delta), 0)
        center = Quadratic(*rng.normal(size=3))
        rect = dt_rectangle(center, rng.uniform(-1, 1), delta, t)
        f = Quadratic(center.a + 4 * t * rng.uniform(-1, 1),
                      center.b + 4 * math.sqrt(delta * t) * rng.uniform(-1, 1),
                      center.c + 4 * delta * rng.uniform(-1, 1))
        s = np.linspace(rect.base.lo, rect.base.hi, 4001)
        h = f.sub(center)
        sup = np.abs((0.5 * h.a * s + h.b) * s + h.c).max()
        c_tan = 4.0
        verdict = is_tangent_containment(f, rect, c_tan)
        if sup <= (c_tan - 1) * delta * (1 - 1e-9):
            assert verdict
        if sup > (c_tan - 1) * delta * (1 + 1e-9):
            assert not verdict


# ---------------------------------------------------------------------------
# comparability


def test_comparable_reflexive():
    r = dt_rectangle(Quadratic(1, 0.5, -1), 0.2, 2.0 ** -7, 2.0 ** -2)
    assert comparable(r, r)


def test_comparable_rejects_mismatched_scales():
    r1 = dt_rectangle(Quadratic(1, 0, 0), 0.0, 2.0 ** -7, 2.0 ** -2)
    r2 = dt_rectangle(Quadratic(1, 0, 0), 0.0, 2.0 ** -6, 2.0 ** -2)
    with pytest.raises(ValueError):
        comparable(r1, r2)


def test_comparable_fails_far_midpoints():
    delta, t = 2.0 ** -8, 2.0 ** -2
    r1 = dt_rectangle(Quadratic(1, 0, 0), 0.0, delta, t)
    r2 = dt_rectangle(Quadratic(1, 0, 0), 100 * math.sqrt(delta / t), delta, t)
    assert not comparable(r1, r2)


def test_comparable_transitive_up_to_constant(rng):
    # at premise constant 0.5 the 4x conclusion is forced by the jet triangle
    # inequality (the quadratic error term stays below half the window)
    c = 0.5
    checked = 0
    for _ in range(10_000):
        delta = 2.0 ** rng.uniform(-9, -4)
        t = 2.0 ** rng.uniform(math.log2(delta), 0)
        root = math.sqrt(delta * t)
        len_ = math.sqrt(delta / t)

        def wobble(base, mid):
            m = mid + c * len_ * rng.uniform(-1, 1)
            jet = (
                base.a + c * t * rng.uniform(-1, 1),
                (base.b + base.a * m) + c * root * rng.uniform(-1, 1),
                base(m) + c * delta * rng.uniform(-1, 1),
            )
            q = Quadratic.from_jet(m, jet[2], jet[1], jet[0])
            return dt_rectangle(q, m, delta, t)

        base = Quadratic(*rng.normal(size=3))
        r1 = dt_rectangle(base, rng.uniform(-1, 1), delta, t)
        r2 = wobble(r1.center, r1.base.mid)
        r3 = wobble(r2.center, r2.base.mid)
        if comparable(r1, r2, c) and comparable(r2, r3, c):
            checked += 1
            assert comparable(r1, r3, 4 * c)
    assert checked > 5_000


def test_comparable_holds_on_each_window_edge():
    # delta = 2^-8, t = 2^-2: every bound is exact, and so is each
    # rectangle's own t; one ulp beyond an edge is incomparable
    delta, t = 2.0 ** -8, 2.0 ** -2
    zero = Quadratic(0.0, 0.0, 0.0)
    r0 = dt_rectangle(zero, 0.0, delta, t)
    for edge in [(10 * t, 0.0, 0.0), (0.0, 10 * math.sqrt(delta * t), 0.0), (0.0, 0.0, 10 * delta)]:
        assert comparable(dt_rectangle(Quadratic(*edge), 0.0, delta, t), r0)
        beyond = Quadratic(*(math.nextafter(x, math.inf) if x else 0.0 for x in edge))
        assert not comparable(dt_rectangle(beyond, 0.0, delta, t), r0)
    far = 10 * math.sqrt(delta / t)
    assert comparable(dt_rectangle(zero, far, delta, t), r0)
    assert not comparable(dt_rectangle(zero, math.nextafter(far, math.inf), delta, t), r0)


def test_comparable_mask_equals_comparable_bit_for_bit(rng):
    # one array call over rectangles with their own t (the base length
    # rounds) gives each scalar verdict; half the pairs sit near the edges
    for delta, t in [(2.0 ** -7, 1.0), (2.0 ** -8, 2.0 ** -1), (2.0 ** -6, 2.0 ** -3)]:
        length = math.sqrt(delta / t)
        center = Quadratic(*rng.normal(size=3))
        r2 = dt_rectangle(center, rng.uniform(-1, 1), delta, t)
        rects = []
        for k in range(400):
            m = r2.base.mid + length * (10.0 if k % 2 else rng.uniform(-12, 12))
            edge = 10.0 * rng.choice([1.0, -1.0], size=3) * (1.0 + (k % 4 - 1.5) * 1e-16)
            wob = edge if k % 2 else rng.uniform(-12, 12, size=3)
            jet = (center.a + wob[0] * t, center.deriv(m) + wob[1] * math.sqrt(delta * t),
                   center(m) + wob[2] * delta)
            rects.append(dt_rectangle(Quadratic.from_jet(m, jet[2], jet[1], jet[0]), m, delta, t))
        mids = np.array([r.base.mid for r in rects])
        own_t = np.array([rect_t_scale(r) for r in rects])
        h = np.array([(r.center.a - center.a, r.center.b - center.b, r.center.c - center.c)
                      for r in rects]).T
        mask = quadratics._comparable_mask(mids, r2.base.mid, h, delta, own_t)
        verdicts = [comparable(r, r2) for r in rects]
        assert mask.tolist() == verdicts
        assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# bipartite validation


def test_bipartite_pair_window(rng):
    F = (Quadratic(1.0, 0, 0), Quadratic(1.01, 0, 0))
    G = (Quadratic(-1.0, 0, 0), Quadratic(-1.01, 0, 0))
    rho = tau(F[0], F[1]) + tau(G[0], G[1])
    pair = BipartitePair(F, G, max(rho, 1.0))
    report = validate_bipartite(pair)
    assert report.ok, report.note


@pytest.mark.parametrize("rho", [math.inf, math.nan, 0.0, -1.0])
def test_bipartite_pair_rejects_nonpositive_or_nonfinite_rho(rho):
    with pytest.raises(ValueError, match="rho"):
        BipartitePair((Quadratic(1.0, 0, 0),), (Quadratic(-1.0, 0, 0),), rho)


def test_bipartite_rejects_bad_window():
    F = (Quadratic(1.0, 0, 0), Quadratic(2.5, 0, 0))  # in-family tau much bigger
    G = (Quadratic(-1.0, 0, 0),)
    report = validate_bipartite(BipartitePair(F, G, 0.5))
    assert not report.ok
    assert "within_max" in report.note


def test_jet_tangency_propagates_to_lengthened_rectangle(rng):
    # lengthening a (delta, t)-rectangle to a (sigma, t)-rectangle around the
    # same center and midpoint only widens all three jet windows
    for _ in range(2000):
        delta = 2.0 ** rng.uniform(-9, -4)
        t = 2.0 ** rng.uniform(math.log2(delta), 0)
        sigma = 2.0 ** rng.uniform(math.log2(delta), math.log2(t))
        center = Quadratic(*rng.normal(size=3))
        mid = rng.uniform(-1, 1)
        fine = dt_rectangle(center, mid, delta, t)
        coarse = dt_rectangle(center, mid, sigma, t)
        f = Quadratic(
            center.a + 4 * t * rng.uniform(-1, 1),
            center.b + 4 * math.sqrt(delta * t) * rng.uniform(-1, 1),
            center.c + 4 * delta * rng.uniform(-1, 1),
        )
        if is_tangent_jet(f, fine):
            assert is_tangent_jet(f, coarse)


def test_tau_floor_for_opposed_curvature_bands(rng):
    for _ in range(1000):
        f = Quadratic(rng.uniform(1, 3), rng.normal(), rng.normal())
        g = Quadratic(rng.uniform(-3, -1), rng.normal(), rng.normal())
        assert tau(f, g) >= abs(f.a - g.a) - 1e-12 >= 2 - 1e-12


def test_rect_t_scale_and_dt_rectangle():
    delta, t = 2.0 ** -8, 2.0 ** -4
    r = dt_rectangle(Quadratic(0, 0, 0), 0.25, delta, t)
    assert rect_t_scale(r) == pytest.approx(t, rel=1e-12)
    assert r.base.length == pytest.approx(math.sqrt(delta / t), rel=1e-12)
    with pytest.raises(ValueError):
        dt_rectangle(Quadratic(0, 0, 0), 0.0, t, delta)  # delta > t rejected
