"""Group law, gauge and metric axioms, dilations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import _bulk
from heislab.heis import (
    ORIGIN,
    HDirection,
    HPoint,
    dilate,
    group_inv,
    group_mul,
    koranyi_dist,
    koranyi_norm,
)

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
points = st.builds(HPoint, coord, coord, coord)


def test_identity_cases():
    assert group_mul(ORIGIN, HPoint(3, 4, 5)) == HPoint(3, 4, 5)
    assert group_mul(HPoint(3, 4, 5), ORIGIN) == HPoint(3, 4, 5)


def test_group_law_twist():
    # direct substitution into the product formula
    assert group_mul(HPoint(1, 0, 0), HPoint(0, 1, 0)) == HPoint(1, 1, 0.5)


def test_inverse_cancels():
    assert group_mul(HPoint(1, 2, 3), HPoint(-1, -2, -3)) == ORIGIN
    assert group_inv(ORIGIN) == ORIGIN
    assert group_inv(HPoint(1, 2, 3)) == HPoint(-1, -2, -3)
    assert group_inv(HPoint(0.5, -0.25, 7)) == HPoint(-0.5, 0.25, -7)


def test_norm_values():
    assert koranyi_norm(ORIGIN) == 0.0
    assert koranyi_norm(HPoint(1, 0, 0)) == 1.0
    assert koranyi_norm(HPoint(0, 0, 1)) == 2.0


def test_dist_reduces_to_norm():
    assert koranyi_dist(HPoint(1, 0, 0), ORIGIN) == 1.0
    p = HPoint(0.3, -0.7, 0.2)
    assert koranyi_dist(p, p) == 0.0


def test_dist_cross_check_by_explicit_composition():
    # d(p, q) recomputed by hand-assembled inverse and product
    p, q = HPoint(1, 0, 0), HPoint(1, 1, 0)
    manual = koranyi_norm(group_mul(group_inv(q), p))
    assert abs(koranyi_dist(p, q) - manual) < 1e-12
    # q^{-1} * p = (0, -1, 0.5) here
    assert abs(manual - koranyi_norm(HPoint(0, -1, 0.5))) < 1e-15


@given(points, points)
@settings(max_examples=150, deadline=None)
def test_inverse_law(p, q):
    prod = group_mul(p, group_inv(p))
    assert max(abs(prod.x), abs(prod.y), abs(prod.t)) < 1e-12
    d = koranyi_dist(p, q)
    assert abs(d - koranyi_dist(q, p)) < 1e-12  # symmetry


@given(points, points, points)
@settings(max_examples=150, deadline=None)
def test_associativity_hypothesis(p, q, r):
    left = group_mul(group_mul(p, q), r)
    right = group_mul(p, group_mul(q, r))
    assert abs(left.x - right.x) < 1e-10
    assert abs(left.y - right.y) < 1e-10
    assert abs(left.t - right.t) < 1e-10


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        dilate(0.0, HPoint(1, 0, 0))
    with pytest.raises(ValueError):
        dilate(-2.0, HPoint(1, 0, 0))


def test_dilate_closed_form():
    p = HPoint(1, 0, 1)
    assert dilate(1.0, p) == p
    assert dilate(2.0, p) == HPoint(2, 0, 4)


def test_dilation_homogeneity_bulk(rng):
    pts = rng.normal(scale=3.0, size=(1000, 3))
    lam = 1.7
    scaled = pts.copy()
    scaled[:, :2] *= lam
    scaled[:, 2] *= lam * lam
    n1 = _bulk.norm(scaled)
    n0 = lam * _bulk.norm(pts)
    rel = np.abs(n1 - n0) / np.maximum(n0, 1e-300)
    assert rel.max() < 1e-12


def test_triangle_inequality_bulk(rng):
    a = rng.normal(scale=2.0, size=(10**4, 3))
    b = rng.normal(scale=2.0, size=(10**4, 3))
    c = rng.normal(scale=2.0, size=(10**4, 3))
    dab = _bulk.norm(_bulk.mul(_bulk.inv(b), a))
    dbc = _bulk.norm(_bulk.mul(_bulk.inv(c), b))
    dac = _bulk.norm(_bulk.mul(_bulk.inv(c), a))
    assert np.all(dac <= dab + dbc + 1e-10)


def test_left_invariance_bulk(rng):
    p = rng.normal(size=(2000, 3))
    q = rng.normal(size=(2000, 3))
    g = np.array([0.4, -1.2, 0.7])
    d0 = _bulk.norm(_bulk.mul(_bulk.inv(q), p))
    d1 = _bulk.norm(_bulk.mul(_bulk.inv(_bulk.mul(g, q)), _bulk.mul(g, p)))
    rel = np.abs(d0 - d1) / np.maximum(d0, 1e-300)
    assert rel.max() < 1e-10


def test_direction_validation():
    with pytest.raises(ValueError):
        HDirection(1.0, 1.0)
    e = HDirection.from_angle(math.pi / 3)
    assert abs(e.a - 0.5) < 1e-12
    assert e.point(2.0) == HPoint(2 * e.a, 2 * e.b, 0.0)


@pytest.mark.parametrize(
    "a, b", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (1.0, -math.inf), (math.nan, math.inf)]
)
def test_direction_rejects_nonfinite(a, b):
    with pytest.raises(ValueError, match="not unit"):
        HDirection(a, b)


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        HPoint(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        HPoint(0, float("inf"), 0)


def test_bulk_matches_scalar(rng):
    for _ in range(50):
        p = HPoint(*rng.normal(size=3))
        q = HPoint(*rng.normal(size=3))
        arr = _bulk.mul(np.array(p.as_tuple()), np.array(q.as_tuple()))
        m = group_mul(p, q)
        assert np.allclose(arr, m.as_tuple(), rtol=0, atol=0)
        assert abs(_bulk.norm(np.array([p.as_tuple()]))[0] - koranyi_norm(p)) < 1e-15
