"""Exponent fitting, right sides, the two integral estimators, determinism."""

import math

import numpy as np
import pytest

import curve_grid_reference
from heislab import integrals
from heislab.families import build_opposed_pair
from heislab.heis import E1, E2, HPoint
from heislab.integrals import (
    bilinear_curve_integral,
    bilinear_integral_from_multiplicity,
    bilinear_tube_integral,
    fit_exponent,
    rhs_bilinear,
    strip_multiplicity,
    tube_multiplicity,
)
from heislab.quadratics import Quadratic, coeff_array
from heislab.tubes import HTube, tube_intersection_volume


# ---------------------------------------------------------------------------
# fit_exponent


def test_fit_exact_power_law():
    pts = [(2.0 ** -k, (2.0 ** -k) ** 2) for k in (3, 4, 5, 6)]
    fit = fit_exponent(pts)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_values():
    fit = fit_exponent([(2.0 ** -k, 3.7) for k in (3, 4, 5)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_exponent([(0.5, 1.0), (0.25, 1.0)])
    with pytest.raises(ValueError, match="0.25"):
        fit_exponent([(0.5, 1.0), (0.25, -1.0), (0.125, 1.0)])


@pytest.mark.parametrize(
    "pts",
    [
        [(0.5, 1.0), (0.25, math.inf), (0.125, 3.0)],
        [(0.5, 1.0), (0.25, math.nan), (0.125, 3.0)],
        [(0.5, 1.0), (math.nan, 2.0), (0.125, 3.0)],
        [(math.inf, 1.0), (0.25, 2.0), (0.125, 3.0)],
        [(0.5, 1.0), (0.0, 2.0), (0.125, 3.0)],
    ],
)
def test_fit_rejects_nonfinite_points(pts):
    with pytest.raises(ValueError, match="finite"):
        fit_exponent(pts)


def test_fit_keeps_log_points():
    fit = fit_exponent([(0.5, 2.0), (0.25, 4.0), (0.125, 8.0)])
    assert len(fit.points) == 3
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# rhs forms


def test_rhs_forms():
    d = 2.0 ** -5
    assert rhs_bilinear(1, 1, d, 0.75, "tube") == pytest.approx(3 * d ** 4)
    assert rhs_bilinear(4, 9, d, 0.75, "naive") == pytest.approx(
        d ** 4 * 4 ** 0.75 * 9 ** 0.75
    )
    v = rhs_bilinear(8, 8, d, 0.75, "curve", rho=0.5)
    assert v == pytest.approx(0.5 ** -0.5 * d ** 1.5 * (8 ** 0.75 * 8 ** 0.75 + 16))
    with pytest.raises(ValueError):
        rhs_bilinear(8, 8, d, 0.75, "curve")
    with pytest.raises(ValueError):
        rhs_bilinear(0, 8, d, 0.75, "tube")
    with pytest.raises(ValueError):
        rhs_bilinear(8, 8, d, 0.75, "nonsense")


def test_rhs_naive_below_tube_form(rng):
    for _ in range(200):
        n1, n2 = int(rng.integers(1, 500)), int(rng.integers(1, 500))
        d = 2.0 ** rng.uniform(-10, -2)
        assert rhs_bilinear(n1, n2, d, 0.75, "naive") <= rhs_bilinear(
            n1, n2, d, 0.75, "tube"
        )


def test_rhs_monotone_in_counts():
    d = 2.0 ** -6
    assert rhs_bilinear(4, 4, d, 0.75, "tube") < rhs_bilinear(5, 4, d, 0.75, "tube")
    assert rhs_bilinear(4, 4, d, 0.75, "tube") < rhs_bilinear(4, 5, d, 0.75, "tube")


# ---------------------------------------------------------------------------
# curve integral


def test_curve_integral_single_strip_area():
    # F = G = one curve, p = 1: the integral is the area of the strip
    delta = 2.0 ** -6
    q = Quadratic(0.5, 0.1, 0.5)
    est = bilinear_curve_integral([q], [q], delta, 1.0)
    # arclength x 2*delta quadrature oracle over the unit square window
    s = np.linspace(0, 1, 20001)
    f = (0.5 * q.a * s + q.b) * s + q.c
    lo = np.clip(f - delta, 0, 1)
    hi = np.clip(f + delta, 0, 1)
    oracle = float(np.trapezoid(np.maximum(hi - lo, 0), s))
    assert est.value == pytest.approx(oracle, rel=0.02)


def test_curve_integral_grid_mc_agree():
    delta = 2.0 ** -5
    pair = build_opposed_pair(delta, 1.0)
    F, G = list(pair.F), list(pair.G)
    grid = bilinear_curve_integral(F, G, delta, 0.75)
    mc = curve_grid_reference.monte_carlo_integral(F, G, delta, 0.75, 400_000, seed=3)
    assert abs(grid.value - mc.value) <= 4 * mc.stderr + 0.02 * grid.value


def test_curve_integral_power_ordering(rng):
    # integer multiplicities: m^p <= m^q pointwise for p < q, so the
    # integrals are ordered for any configuration
    delta = 2.0 ** -4
    F = [Quadratic(*rng.normal(scale=0.4, size=3)) for _ in range(6)]
    G = [Quadratic(*rng.normal(scale=0.4, size=3)) for _ in range(6)]
    lo = bilinear_curve_integral(F, G, delta, 0.6)
    hi = bilinear_curve_integral(F, G, delta, 1.1)
    assert lo.value <= hi.value + 1e-12


def test_curve_integral_worker_invariance():
    # the sampling engine on strip counts: the same value for any worker count
    delta = 2.0 ** -5
    pair = build_opposed_pair(delta, 1.0)
    fc, gc = coeff_array(list(pair.F)), coeff_array(list(pair.G))
    m1 = lambda pts: strip_multiplicity(fc, pts[:, 0], pts[:, 1], delta)  # noqa: E731
    m2 = lambda pts: strip_multiplicity(gc, pts[:, 0], pts[:, 1], delta)  # noqa: E731
    region = np.array([[0.0, 1.0], [0.0, 1.0]])
    a = bilinear_integral_from_multiplicity(m1, m2, region, 0.75, 200_000, seed=8, workers=1)
    b = bilinear_integral_from_multiplicity(m1, m2, region, 0.75, 200_000, seed=8, workers=4)
    assert a.value == b.value
    assert a.stderr == b.stderr


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", ["F", "G"])
def test_curve_integral_rejects_nonfinite_coefficients(bad, family):
    ok = [Quadratic(0.0, 0.0, 0.5)]
    worse = [Quadratic(0.0, 0.0, 0.5), Quadratic(bad, 0.0, 0.5)]
    F, G = (worse, ok) if family == "F" else (ok, worse)
    with pytest.raises(ValueError, match="finite"):
        bilinear_curve_integral(F, G, 2.0 ** -3, 0.75)


@pytest.mark.parametrize("resolution", [math.inf, -math.inf, math.nan, 0.0, -0.25, 0.75, 5.0])
def test_curve_integral_rejects_a_resolution_outside_zero_to_one_half(resolution):
    # math.inf gave a 2 x 2 grid and the value 0.0
    q = [Quadratic(0.0, 0.0, 0.5)]
    with pytest.raises(ValueError, match="resolution"):
        bilinear_curve_integral(q, q, 2.0 ** -3, 0.75, resolution)


@pytest.mark.parametrize("resolution", [None, 2.0 ** -5])
@pytest.mark.parametrize("delta", [0.0, -0.1, math.inf, math.nan])
def test_curve_integral_rejects_a_delta_not_finite_and_positive(monkeypatch, delta, resolution):
    # 0 divided by zero, -0.1 and inf gave the value 0.0, NaN failed in int()
    # or, with a resolution, gave 0.0
    monkeypatch.setattr(integrals, "_curve_pair_counts", lambda *a: pytest.fail("grid formed"))
    q = [Quadratic(0.0, 0.0, 0.5)]
    with pytest.raises(ValueError, match="delta"):
        bilinear_curve_integral(q, q, delta, 0.75, resolution)


def test_curve_integral_takes_a_resolution_of_one_half():
    # the coarsest grid, 2 x 2 cells: the strip around y = 3/4 holds the two
    # cells centered on it, each of area 1/4
    q = [Quadratic(0.0, 0.0, 0.75)]
    est = bilinear_curve_integral(q, q, 2.0 ** -3, 1.0, 0.5)
    assert est.value == 0.5 and est.samples == 4


# ---------------------------------------------------------------------------
# tube integral


def test_tube_integral_disjoint_supports():
    delta = 2.0 ** -5
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(30, 0, 0), E2, delta)]
    est = bilinear_tube_integral(t1, t2, 0.75, 1000, seed=0)
    assert est.value == 0.0


def test_tube_integral_matches_intersection_volume():
    # singleton families at any p: integrand is the intersection indicator
    from heislab.tubes import tube_intersection_volume

    delta = 2.0 ** -5
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(0, 0, 0), E2, delta)]
    est = bilinear_tube_integral(t1, t2, 0.75, 300_000, seed=1)
    vol = tube_intersection_volume(t1[0], t2[0], samples=300_000, seed=2)
    assert abs(est.value - vol.value) <= 3 * math.hypot(est.stderr, vol.stderr)


def test_tube_integral_worker_invariance():
    delta = 2.0 ** -5
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(0, 0, 0), E2, delta)]
    a = bilinear_tube_integral(t1, t2, 0.75, 150_000, seed=5, workers=1)
    b = bilinear_tube_integral(t1, t2, 0.75, 150_000, seed=5, workers=3)
    assert a.value == b.value


def test_tube_multiplicity_counts(rng):
    delta = 2.0 ** -4
    tube = HTube(HPoint(0, 0, 0), E1, delta)
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 2 * delta, 0.0], [5.0, 0.0, 0.0]])
    m = tube_multiplicity([tube, tube], pts)
    assert m.tolist() == [2, 0, 0]


def test_tube_integral_does_not_depend_on_where_the_pair_sits():
    # Haar measure is left-invariant: a pair centered far outside B(0, 2)
    # integrates like the same pair at the origin
    d = 2.0 ** -4
    far = HPoint(3.0, 0.0, 0.0)
    est = bilinear_tube_integral(
        [HTube(far, E1, d)], [HTube(far, E2, d)], 1.0, 200_000, seed=5
    )
    assert est == tube_intersection_volume(HTube(far, E1, d), HTube(far, E2, d), 200_000, 5)
    origin = HPoint(0.0, 0.0, 0.0)
    near = tube_intersection_volume(HTube(origin, E1, d), HTube(origin, E2, d), 200_000, 5)
    assert abs(est.value - near.value) <= 4 * math.hypot(est.stderr, near.stderr)


def _sampled_estimators():
    """The Monte Carlo estimators as functions of (samples, seed)."""
    t1 = [HTube(HPoint(0, 0, 0), E1, 2.0 ** -4)]
    t2 = [HTube(HPoint(0, 0, 0), E2, 2.0 ** -4)]
    ones = lambda pts: np.ones(len(pts), dtype=np.int64)  # noqa: E731
    region = np.array([[0.0, 1.0], [0.0, 1.0]])
    return {
        "tube": lambda n, seed: bilinear_tube_integral(t1, t2, 0.75, n, seed),
        "engine": lambda n, seed: bilinear_integral_from_multiplicity(
            ones, ones, region, 0.75, n, seed),
        "volume": lambda n, seed: tube_intersection_volume(t1[0], t2[0], n, seed),
    }


@pytest.mark.parametrize("estimator", ["tube", "engine", "volume"])
@pytest.mark.parametrize("samples", [0, -5, 2.5, 3.0, True, False, None, np.float64(100.0)])
def test_estimators_reject_a_sample_count_that_is_not_a_positive_integer(
    monkeypatch, estimator, samples
):
    # 2.5 and True ran the tube integral on one column
    def no_draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(integrals, "_sharded_mean", no_draw)
    with pytest.raises(ValueError, match="sample count"):
        _sampled_estimators()[estimator](samples, 0)


@pytest.mark.parametrize("estimator", ["tube", "engine", "volume"])
def test_estimators_take_numpy_integer_sample_counts(estimator):
    run = _sampled_estimators()[estimator]
    assert run(np.int64(1000), 3) == run(1000, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tube_multiplicity_rejects_nonfinite_points(bad):
    tubes = [HTube(HPoint(0.0, 0.0, 0.0), E1, 0.1)]
    pts = np.zeros((3, 3))
    pts[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        tube_multiplicity(tubes, pts)
