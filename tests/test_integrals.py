"""Exponent fitting, right sides, the two integral estimators, determinism."""

import math

import numpy as np
import pytest

from heislab.families import build_opposed_pair
from heislab.heis import E1, E2, HPoint
from heislab.integrals import (
    SampleSpec,
    bilinear_curve_integral,
    bilinear_tube_integral,
    fit_exponent,
    rhs_bilinear,
    tube_multiplicity,
)
from heislab.quadratics import Quadratic
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
    est = bilinear_curve_integral([q], [q], delta, 1.0, SampleSpec(mode="grid"))
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
    grid = bilinear_curve_integral(F, G, delta, 0.75, SampleSpec(mode="grid"))
    mc = bilinear_curve_integral(
        F, G, delta, 0.75, SampleSpec(mode="monte_carlo", samples=400_000, seed=3)
    )
    assert abs(grid.value - mc.value) <= 4 * mc.stderr + 0.02 * grid.value


def test_curve_integral_power_ordering(rng):
    # integer multiplicities: m^p <= m^q pointwise for p < q, so the
    # integrals are ordered for any configuration
    delta = 2.0 ** -4
    F = [Quadratic(*rng.normal(scale=0.4, size=3)) for _ in range(6)]
    G = [Quadratic(*rng.normal(scale=0.4, size=3)) for _ in range(6)]
    spec = SampleSpec(mode="grid")
    lo = bilinear_curve_integral(F, G, delta, 0.6, spec)
    hi = bilinear_curve_integral(F, G, delta, 1.1, spec)
    assert lo.value <= hi.value + 1e-12


def test_curve_integral_worker_invariance():
    delta = 2.0 ** -5
    pair = build_opposed_pair(delta, 1.0)
    F, G = list(pair.F), list(pair.G)
    spec = SampleSpec(mode="monte_carlo", samples=200_000, seed=8)
    a = bilinear_curve_integral(F, G, delta, 0.75, spec, workers=1)
    b = bilinear_curve_integral(F, G, delta, 0.75, spec, workers=4)
    assert a.value == b.value
    assert a.stderr == b.stderr


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["grid", "monte_carlo"])
@pytest.mark.parametrize("family", ["F", "G"])
def test_curve_integral_rejects_nonfinite_coefficients(bad, mode, family):
    ok = [Quadratic(0.0, 0.0, 0.5)]
    worse = [Quadratic(0.0, 0.0, 0.5), Quadratic(bad, 0.0, 0.5)]
    F, G = (worse, ok) if family == "F" else (ok, worse)
    spec = SampleSpec(mode=mode, samples=1000)
    with pytest.raises(ValueError, match="finite"):
        bilinear_curve_integral(F, G, 2.0 ** -3, 0.75, spec)


# ---------------------------------------------------------------------------
# tube integral


def test_tube_integral_disjoint_supports():
    delta = 2.0 ** -5
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(30, 0, 0), E2, delta)]
    est = bilinear_tube_integral(t1, t2, 0.75, SampleSpec(samples=1000, seed=0))
    assert est.value == 0.0


def test_tube_integral_matches_intersection_volume():
    # singleton families at any p: integrand is the intersection indicator
    from heislab.tubes import tube_intersection_volume

    delta = 2.0 ** -5
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(0, 0, 0), E2, delta)]
    est = bilinear_tube_integral(t1, t2, 0.75, SampleSpec(samples=300_000, seed=1))
    vol = tube_intersection_volume(t1[0], t2[0], samples=300_000, seed=2)
    assert abs(est.value - vol.value) <= 3 * math.hypot(est.stderr, vol.stderr)


def test_tube_integral_worker_invariance():
    delta = 2.0 ** -5
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(0, 0, 0), E2, delta)]
    spec = SampleSpec(samples=150_000, seed=5)
    a = bilinear_tube_integral(t1, t2, 0.75, spec, workers=1)
    b = bilinear_tube_integral(t1, t2, 0.75, spec, workers=3)
    assert a.value == b.value


def test_tube_integral_grid_mode():
    delta = 2.0 ** -4
    t1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    t2 = [HTube(HPoint(0, 0, 0), E2, delta)]
    grid = bilinear_tube_integral(
        t1, t2, 0.75, SampleSpec(mode="grid", resolution=delta / 6)
    )
    mc = bilinear_tube_integral(t1, t2, 0.75, SampleSpec(samples=400_000, seed=4))
    assert abs(grid.value - mc.value) <= 4 * mc.stderr + 0.05 * mc.value


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
        [HTube(far, E1, d)], [HTube(far, E2, d)], 1.0, SampleSpec(samples=200_000, seed=5)
    )
    assert est == tube_intersection_volume(HTube(far, E1, d), HTube(far, E2, d), 200_000, 5)
    origin = HPoint(0.0, 0.0, 0.0)
    near = tube_intersection_volume(HTube(origin, E1, d), HTube(origin, E2, d), 200_000, 5)
    assert abs(est.value - near.value) <= 4 * math.hypot(est.stderr, near.stderr)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(mode="nonsense")
    with pytest.raises(ValueError):
        SampleSpec(mode="grid", resolution=-1.0)
    with pytest.raises(ValueError):
        SampleSpec(mode="monte_carlo", samples=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tube_multiplicity_rejects_nonfinite_points(bad):
    tubes = [HTube(HPoint(0.0, 0.0, 0.0), E1, 0.1)]
    pts = np.zeros((3, 3))
    pts[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        tube_multiplicity(tubes, pts)
