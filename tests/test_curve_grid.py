"""The windowed (m1, m2) pair count of the curve-grid integral against the
dense per-curve grid of `curve_grid_reference`, the blocked pointwise strip
count against the dense and per-curve counts it replaced, and the power table
of the sampling engine against per-sample float powers."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import curve_grid_reference as ref
from heislab.cli import _exp_balls
from heislab.families import build_bipartite_balls, build_opposed_pair
from heislab.integrals import (
    _SHARD,
    _curve_pair_counts,
    _power_product,
    bilinear_curve_integral,
    bilinear_integral_from_multiplicity,
    strip_multiplicity,
)
from heislab.quadratics import Quadratic, coeff_array


def _grid_n(delta, resolution=None):
    res = resolution if resolution is not None else delta / 4.0
    return max(2, int(round(1.0 / res)))


def _random_family(seed, n):
    rng = np.random.default_rng(seed)
    return [Quadratic(*row) for row in (rng.normal(scale=0.4, size=(n, 3)) + [0, 0, 0.5]).tolist()]


def _families(pair):
    return list(pair.F), list(pair.G)


# name -> (F, G, delta, resolution): every family kind the curve grid meets,
# strips cut by y = 0 and y = 1, a grid coarser than the strips, disjoint
# families
_CASES = {
    **{f"opposed-{k}": (*_families(build_opposed_pair(2.0 ** -k, 1.0)), 2.0 ** -k, None)
       for k in (4, 6, 8)},
    "opposed-rho": (*_families(build_opposed_pair(2.0 ** -8, 2.0 ** -3)), 2.0 ** -8, None),
    **{f"balls-{k}": (*_families(build_bipartite_balls(2.0 ** -k, 0.25)), 2.0 ** -k, None)
       for k in (5, 6)},
    "random": (_random_family(1, 40), _random_family(2, 40), 2.0 ** -5, None),
    "clipped-at-0-and-1": (
        [Quadratic(0.0, 0.0, 0.0), Quadratic(0.0, 0.0, 1.0), Quadratic(4.0, -1.0, 0.01)],
        [Quadratic(0.0, 1.0, 0.0), Quadratic(-4.0, 0.5, 0.99), Quadratic(0.0, 0.0, 1.01)],
        2.0 ** -5, None,
    ),
    "custom-resolution": (_random_family(3, 12), _random_family(4, 12), 2.0 ** -5, 0.013),
    "coarser-than-strips": (_random_family(5, 12), _random_family(6, 12), 2.0 ** -7, 0.05),
    "disjoint": ([Quadratic(0.0, 0.0, 0.2)], [Quadratic(0.0, 0.0, 0.8)], 2.0 ** -5, None),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_pair_counts_equal_dense_grid(case):
    F, G, delta, resolution = _CASES[case]
    fc, gc = coeff_array(F), coeff_array(G)
    n = _grid_n(delta, resolution)
    got = _curve_pair_counts(fc, gc, n, delta)
    want = ref.pair_counts(fc, gc, n, delta)
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


def _exact_sum(F, G, delta, n, p):
    """The dense grid's sum of m1^p m2^p over all cells, added exactly and
    rounded once, times the cell area."""
    m1, m2, counts = ref.pair_counts(coeff_array(F), coeff_array(G), n, delta)
    v = m1.astype(np.float64) ** p * m2.astype(np.float64) ** p
    exact = sum(Fraction(int(c)) * Fraction(float(x)) for c, x in zip(counts, v))
    return float(exact) * (1.0 / n) * (1.0 / n)


@pytest.mark.parametrize("p", [0.75, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_grid_value_is_the_dense_sum_rounded_once(case, p):
    F, G, delta, resolution = _CASES[case]
    n = _grid_n(delta, resolution)
    est = bilinear_curve_integral(F, G, delta, p, resolution)
    dense = ref.grid_integral(coeff_array(F), coeff_array(G), n, delta, p)
    assert est.value == _exact_sum(F, G, delta, n, p)
    # the dense pairwise sum rounds as it goes: it may sit an ulp or two off,
    # unless every product is an integer (p = 1, or one curve per family)
    assert est.value == pytest.approx(dense, rel=1e-15, abs=0.0)
    if p == 1.0 or (len(F) == len(G) == 1):
        assert est.value == dense
    assert est.stderr == 0.0 and est.samples == n * n


@pytest.mark.parametrize("k", [5, 6])
def test_ball_values_equal_the_dense_sum(k):
    # the rungs of bipartite-ball-sharpness that its quick runs use
    F, G, delta, _ = _CASES[f"balls-{k}"]
    n = _grid_n(delta)
    est = bilinear_curve_integral(F, G, delta, 0.75)
    assert est.value == ref.grid_integral(coeff_array(F), coeff_array(G), n, delta, 0.75)


def test_single_curve_families_count_cells_exactly():
    # one curve per family: every product is 0 or 1, so the sum is the
    # number of cells where both strips meet
    for q, r in [(Quadratic(1.0, 0.0, 0.0), Quadratic(-1.0, 0.0, 0.0)),
                 (Quadratic(0.5, 0.1, 0.5), Quadratic(0.5, 0.1, 0.5))]:
        fc, gc = coeff_array([q]), coeff_array([r])
        for k in (4, 6, 8):
            d = 2.0 ** -k
            n = _grid_n(d)
            m1, m2, counts = _curve_pair_counts(fc, gc, n, d)
            assert m1.tolist() == m2.tolist() == [1] * len(counts)
            est = bilinear_curve_integral([q], [r], d, 0.75)
            assert est.value == int(counts.sum()) / n / n == ref.grid_integral(fc, gc, n, d, 0.75)


def test_disjoint_families_integrate_to_zero():
    F, G, delta, _ = _CASES["disjoint"]
    assert all(a.size == 0 for a in _curve_pair_counts(coeff_array(F), coeff_array(G), 128, delta))
    assert bilinear_curve_integral(F, G, delta, 0.75).value == 0.0


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_opposed_pair_memory_is_bounded_by_the_window():
    # the dense grid at delta = 2^-10 held 4096^2 int64 cells (134 MB) per family
    d = 2.0 ** -10
    F, G = _families(build_opposed_pair(d, 1.0))
    peak = _peak_bytes(lambda: bilinear_curve_integral(F, G, d, 0.75))
    assert peak < 4 * 2 ** 20


def test_coincident_curves_need_no_dense_pair_table():
    # 10^4 copies of each curve: m1 = m2 = 10^4 on every shared cell, and a
    # (10^4 + 1)^2 table would take 800 MB
    d, copies = 2.0 ** -6, 10_000
    q, r = Quadratic(1.0, 0.0, 0.0), Quadratic(-1.0, 0.0, 0.5)
    n = _grid_n(d)
    _, _, single = _curve_pair_counts(coeff_array([q]), coeff_array([r]), n, d)
    fc, gc = coeff_array([q] * copies), coeff_array([r] * copies)
    out = {}
    peak = _peak_bytes(lambda: out.update(counts=_curve_pair_counts(fc, gc, n, d)))
    m1, m2, counts = out["counts"]
    assert (m1.tolist(), m2.tolist(), counts.tolist()) == ([copies], [copies], single.tolist())
    assert peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# the pointwise strip count


def _ball_check_points(k, seed, rho=0.25):
    # the points of bipartite-ball-sharpness's pointwise check at delta = 2^-k
    rng = np.random.default_rng([seed, k])
    s = rng.uniform(0.1, 0.9, 1000)
    return s, rho * s * s + rng.uniform(-rho / 8, rho / 8, 1000)


def _uniform_points(seed, n):
    pts = np.random.default_rng(seed).random((n, 2))
    return pts[:, 0], pts[:, 1]


def _assert_equals_references(coeffs, s, y, delta):
    got = strip_multiplicity(coeffs, s, y, delta)
    assert got.dtype == np.int64 and got.shape == s.shape
    assert got.tolist() == ref.dense_strip_multiplicity(coeffs, s, y, delta).tolist()
    assert got.tolist() == ref.per_curve_strip_multiplicity(coeffs, s, y, delta).tolist()
    return got


@pytest.mark.parametrize("k", [5, 6])
def test_strip_counts_on_the_ball_families_equal_the_references(k):
    d = 2.0 ** -k
    pair = build_bipartite_balls(d, 0.25)
    for fam in (pair.F, pair.G):
        fc = coeff_array(fam)
        for s, y in (_ball_check_points(k, 0), _uniform_points(k, 5000)):
            _assert_equals_references(fc, s, y, d)
    # the check's points sit in about (rho/delta)^2 F-strips
    m = strip_multiplicity(coeff_array(pair.F), *_ball_check_points(k, 0), d)
    assert m.min() > 0


@pytest.mark.parametrize(
    "coeffs, n_pts",
    [
        (coeff_array(_random_family(7, 40)), 3000),
        (coeff_array([Quadratic(0.5, 0.1, 0.5)]), 3000),
        (coeff_array([]), 3000),
        (coeff_array(_random_family(8, 40)), 0),
        (coeff_array([]), 0),
    ],
    ids=["random", "one-curve", "no-curves", "no-points", "neither"],
)
def test_strip_counts_on_edge_families_equal_the_references(coeffs, n_pts):
    s, y = _uniform_points(9, n_pts)
    got = _assert_equals_references(coeffs, s, y, 2.0 ** -4)
    if len(coeffs) == 0:
        assert not got.any()


def test_strip_counts_take_points_on_the_strip_edge():
    # |f(s) - y| == delta exactly: f = 0.5 and y = 0.5 +- 2^-4 are exact floats
    s = np.linspace(0.0, 1.0, 7)
    for y0 in (0.5 - 2.0 ** -4, 0.5 + 2.0 ** -4):
        y = np.full_like(s, y0)
        got = _assert_equals_references(coeff_array([Quadratic(0.0, 0.0, 0.5)] * 3), s, y, 2.0 ** -4)
        assert got.tolist() == [3] * len(s)


def test_strip_count_memory_is_a_few_blocks():
    # 20,000 curves x 1000 points: a dense float64 table would take 160 MB
    rng = np.random.default_rng(12)
    coeffs, (s, y) = rng.random((20_000, 3)), _uniform_points(13, 1000)
    assert _peak_bytes(lambda: strip_multiplicity(coeffs, s, y, 0.1)) < 3 * _SHARD * 8


def test_strip_counts_with_more_points_than_a_block_equal_the_references():
    # one curve per block, each block wider than _SHARD points
    s, y = _uniform_points(10, _SHARD + 123)
    got = _assert_equals_references(coeff_array(_random_family(11, 5)), s, y, 2.0 ** -3)
    assert got.any()


def test_ball_check_memory_is_bounded():
    # the dense (curves x 1000) float64 check held 53 MB at delta = 2^-6
    assert _peak_bytes(lambda: _exp_balls(delta_exps=[6], seed=0)) < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# the power table of the sampling engine


@pytest.mark.parametrize("p", [0.75, 2.0 / 3.0])
def test_power_table_equals_float_powers_bit_for_bit(p):
    rng = np.random.default_rng(0)
    m1 = rng.integers(0, 200, size=1_000_000)
    m2 = rng.integers(0, 200, size=1_000_000)
    want = m1.astype(np.float64) ** p * m2.astype(np.float64) ** p
    assert np.array_equal(_power_product(m1, m2, p), want)
    assert np.array_equal(_power_product(m1.astype(np.uint8), m2.astype(np.int32), p), want)


def test_engine_takes_bool_multiplicities_as_counts():
    region = np.array([[0.0, 1.0], [0.0, 1.0]])

    def inside(r):
        return lambda pts: np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) <= r

    def as_int(fn):
        return lambda pts: fn(pts).astype(np.int64)

    a = bilinear_integral_from_multiplicity(inside(0.4), inside(0.3), region, 0.75, 20_000, 4)
    b = bilinear_integral_from_multiplicity(
        as_int(inside(0.4)), as_int(inside(0.3)), region, 0.75, 20_000, 4
    )
    assert a == b and a.value > 0.0


@pytest.mark.parametrize(
    "bad",
    [lambda pts: np.ones(len(pts)), lambda pts: -np.ones(len(pts), dtype=np.int64)],
    ids=["float", "negative"],
)
def test_engine_rejects_non_count_multiplicities(bad):
    region = np.array([[0.0, 1.0], [0.0, 1.0]])
    ones = lambda pts: np.ones(len(pts), dtype=np.int64)  # noqa: E731
    with pytest.raises(ValueError, match="multiplicities"):
        bilinear_integral_from_multiplicity(bad, ones, region, 0.75, 1000)
    with pytest.raises(ValueError, match="multiplicities"):
        bilinear_integral_from_multiplicity(ones, bad, region, 0.75, 1000)
