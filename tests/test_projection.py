"""Plane projection, projected curves, containment ratio, fiber lengths."""

import math

import broadness_reference
import numpy as np
import pytest
import sampling_reference

from heislab import _bulk
from heislab.heis import E1, E2, HDirection, HPoint
from heislab.projection import (
    FIBER_BLOCK,
    PlanePoint,
    fiber_length,
    fiber_point,
    project_W,
    project_W_batch,
    projection_containment_ratio,
    tube_draws,
    tube_points_sample,
    tube_to_curve,
)
from heislab.quadratics import tau
from heislab.tubes import HTube


def test_projection_closed_form():
    assert project_W(HPoint(0, 0, 0)) == PlanePoint(0.0, 0.0)
    assert project_W(HPoint(1, 1, 0)) == PlanePoint(1.0, 0.0)
    assert project_W(HPoint(1, 0, 0)) == PlanePoint(0.5, 0.25)


def test_fiber_parametrization_projects_back(rng):
    for _ in range(200):
        w = PlanePoint(rng.normal(), rng.normal())
        s = rng.normal()
        q = project_W(fiber_point(w, s))
        assert abs(q.theta - w.theta) < 1e-12
        assert abs(q.height - w.height) < 1e-10


def test_curve_coefficients_axis_directions():
    delta = 2.0 ** -6
    c1 = tube_to_curve(HTube(HPoint(0, 0, 0), E1, delta))
    assert (c1.kappa, c1.slope, c1.offset, c1.theta0) == (1.0, 0.0, 0.0, 0.0)
    c2 = tube_to_curve(HTube(HPoint(0, 0, 0), E2, delta))
    assert c2.kappa == -1.0


def test_curve_coefficients_worked_example():
    tube = HTube(HPoint(1, 2, 3), HDirection(3 / 5, 4 / 5), 2.0 ** -5)
    c = tube_to_curve(tube)
    assert c.kappa == pytest.approx(-1 / 7, rel=1e-12)
    assert c.slope == -1.0
    assert c.offset == pytest.approx(2.25)
    assert c.theta0 == 1.5
    assert c.domain.lo == -10.0 and c.domain.hi == 10.0


def test_curve_matches_projected_core_fit(rng):
    # cross-check: fit a parabola to projected core points and compare
    tube = HTube(HPoint(1, 2, 3), HDirection(3 / 5, 4 / 5), 2.0 ** -5)
    c = tube_to_curve(tube)
    s = np.linspace(-0.5, 0.5, 9)
    cores = sampling_reference.core_points(tube.center, tube.dir.a, tube.dir.b, s)
    proj = project_W_batch(cores)
    coeffs = np.polyfit(proj[:, 0], proj[:, 1], 2)
    q = c.as_quadratic()
    assert coeffs[0] == pytest.approx(q.a / 2, abs=1e-9)
    assert coeffs[1] == pytest.approx(q.b, abs=1e-9)
    assert coeffs[2] == pytest.approx(q.c, abs=1e-9)


def test_rejects_direction_near_antidiagonal():
    e = HDirection.from_angle(3 * math.pi / 4)  # parallel to (1,-1,0)
    with pytest.raises(ValueError):
        tube_to_curve(HTube(HPoint(0, 0, 0), e, 2.0 ** -5))


def test_core_lands_on_graph(rng):
    # reparametrization: the projected core point at parameter s sits on the
    # graph at theta(s) = (a+b)/2 * s + theta0, exactly
    for _ in range(1000):
        while True:
            e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
            if abs(e.a + e.b) >= 0.5:
                break
        c = HPoint(*(rng.normal(scale=0.3, size=3)))
        tube = HTube(c, e, 2.0 ** -6)
        curve = tube_to_curve(tube)
        s = rng.uniform(-0.5, 0.5)
        q = project_W(tube.core_point(s))
        theta = 0.5 * (e.a + e.b) * s + curve.theta0
        assert abs(q.theta - theta) < 1e-10
        assert abs(q.height - curve(q.theta)) < 1e-10


def test_kappa_ignores_center_and_m_v_ignore_direction(rng):
    delta = 2.0 ** -5
    for _ in range(50):
        while True:
            e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
            if abs(e.a + e.b) >= 0.5:
                break
        c1 = HPoint(*(rng.normal(size=3)))
        c2 = HPoint(*(rng.normal(size=3)))
        assert tube_to_curve(HTube(c1, e, delta)).kappa == tube_to_curve(
            HTube(c2, e, delta)
        ).kappa
        while True:
            e2 = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
            if abs(e2.a + e2.b) >= 0.5:
                break
        a_curve = tube_to_curve(HTube(c1, e, delta))
        b_curve = tube_to_curve(HTube(c1, e2, delta))
        assert a_curve.slope == b_curve.slope
        assert a_curve.offset == b_curve.offset
        assert a_curve.theta0 == b_curve.theta0


def test_containment_ratio_core_points_are_exact():
    # points on the core project onto the graph, so a zero-radius tube has
    # ratio 0 up to rounding; emulate with a tiny gauge ball
    tube = HTube(HPoint(0.1, 0.2, 0.0), HDirection.from_angle(0.2), 2.0 ** -9)
    assert projection_containment_ratio(tube, *tube_draws(tube.delta, 2000, seed=1)) < 1.0


def test_containment_ratio_bounded(rng):
    worst = 0.0
    for k in (4, 6, 8):
        d = 2.0 ** -k
        for i in range(10):
            while True:
                e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
                if abs(e.a + e.b) >= 0.5:
                    break
            c = HPoint(*(rng.normal(scale=0.15, size=3) * [1, 1, 0.25]))
            worst = max(
                worst,
                projection_containment_ratio(HTube(c, e, d), *tube_draws(d, 3000, seed=i)),
            )
    assert 0 < worst <= 8.0


def test_bipartite_transfer_of_transversal_directions(rng):
    # near-axis tubes on both sides give projected curves with tau in [1, 100]
    delta = 2.0 ** -6
    c_small = 0.05
    for _ in range(200):
        a1 = rng.uniform(-c_small, c_small)
        e_1 = HDirection(math.sqrt(1 - a1 * a1), a1)  # near e1
        a2 = rng.uniform(-c_small, c_small)
        e_2 = HDirection(a2, math.sqrt(1 - a2 * a2))  # near e2
        p1 = HPoint(*(rng.normal(scale=0.3, size=3) * [1, 1, 0.25]))
        p2 = HPoint(*(rng.normal(scale=0.3, size=3) * [1, 1, 0.25]))
        f = tube_to_curve(HTube(p1, e_1, delta)).as_quadratic()
        g = tube_to_curve(HTube(p2, e_2, delta)).as_quadratic()
        t = tau(f, g)
        assert 1.0 <= t <= 100.0


def test_fiber_length_outside_projection_is_zero():
    delta = 2.0 ** -6
    tube = HTube(HPoint(0, 0, 0), E1, delta)
    assert fiber_length(tube, PlanePoint(7.0, 9.0), delta / 100) == 0.0


def test_fiber_length_axis_tube_at_origin():
    delta = 2.0 ** -6
    tube = HTube(HPoint(0, 0, 0), E1, delta)
    length = fiber_length(tube, PlanePoint(0.0, 0.0), delta / 100)
    assert 0.0 < length <= 8.0 * delta


def test_fiber_length_random_pairs_bounded(rng):
    delta = 2.0 ** -6
    worst = 0.0
    for i in range(300):
        while True:
            e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
            if abs(e.a + e.b) >= 1 / math.sqrt(2):
                break
        c = HPoint(*(rng.normal(scale=0.2, size=3) * [1, 1, 0.25]))
        tube = HTube(c, e, delta)
        q = tube_points_sample(tube, 1, seed=i)[0]
        w = project_W_batch(q.reshape(1, 3))[0]
        length = fiber_length(tube, PlanePoint(w[0], w[1]), delta / 100)
        assert length > 0.0
        worst = max(worst, length / delta)
    assert worst <= 8.0


def test_fiber_length_agrees_with_finer_oracle(rng):
    delta = 2.0 ** -6
    for i in range(30):
        while True:
            e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
            if abs(e.a + e.b) >= 1 / math.sqrt(2):
                break
        tube = HTube(HPoint(*(rng.normal(scale=0.2, size=3))), e, delta)
        q = tube_points_sample(tube, 1, seed=100 + i)[0]
        w = project_W_batch(q.reshape(1, 3))[0]
        coarse = fiber_length(tube, PlanePoint(w[0], w[1]), delta / 20)
        fine = fiber_length(tube, PlanePoint(w[0], w[1]), delta / 400)
        assert coarse == pytest.approx(fine, abs=4 * delta / 20)


def fiber_batch(delta):
    """Mixed (tube, plane point) samples in shuffled order: fibers through
    points of tubes in any direction, fibers that miss their tube, and tubes
    with |a + b| < 0.1 (one with a + b = 0) whose bounding-box windows are
    longer than a kernel block or empty."""
    rng = np.random.default_rng(21)
    samples = []
    for i in range(40):
        e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
        samples.append(HTube(HPoint(*(rng.normal(scale=0.2, size=3))), e, delta))
    flat = [HDirection(math.sqrt(0.5), -math.sqrt(0.5)),
            HDirection.from_angle(-math.pi / 4 + 0.05), HDirection.from_angle(0.75 * math.pi - 0.03)]
    samples += [HTube(HPoint(0.1 * j, -0.05, 0.02), e, delta) for j, e in enumerate(flat)]
    points = [project_W_batch(tube_points_sample(t, 1, seed=i))[0] for i, t in enumerate(samples)]
    # far points: the transversal windows miss their tube, the box windows are empty
    for tube in (HTube(HPoint(0, 0, 0), E1, delta), HTube(HPoint(0, 0, 0), E2, delta), *samples[40:]):
        samples.append(tube)
        points.append(np.array([7.0, 9.0]))
    order = rng.permutation(len(samples))
    return [samples[i] for i in order], np.array(points)[order]


def test_fiber_length_array_form_equals_per_sample_reference(monkeypatch):
    delta = 2.0 ** -6
    res = delta / 400
    tubes, w = fiber_batch(delta)
    assert sum(abs(t.dir.a + t.dir.b) < 0.1 for t in tubes) >= 6
    calls = []
    kernel = _bulk.core_distance_elementwise
    monkeypatch.setattr(_bulk, "core_distance_elementwise",
                        lambda *f: calls.append(len(f[0])) or kernel(*f))
    got = fiber_length(tubes, w, res)
    want = np.array([sampling_reference.fiber_length(t, PlanePoint(*p), res)
                     for t, p in zip(tubes, w.tolist())])
    assert got.tobytes() == want.tobytes()
    assert (want == 0.0).sum() == 5
    # several blocks, none longer than a block, though one sample is
    assert len(calls) > 2 and max(calls) <= FIBER_BLOCK
    one_row = [fiber_length(t, PlanePoint(*p), res) for t, p in zip(tubes, w.tolist())]
    assert one_row == want.tolist()


def test_a_long_flat_fiber_keeps_every_kernel_call_within_a_block(monkeypatch):
    # a + b = 0: the bounding-box window holds about 923,000 grid rows, which
    # one kernel call would take at some 170 MB of temporaries
    delta = 2.0 ** -6
    res = delta / 20000
    tube = HTube(HPoint(0.0, 0.0, 0.0), HDirection(math.sqrt(0.5), -math.sqrt(0.5)), delta)
    w = PlanePoint(*project_W_batch(tube_points_sample(tube, 1, seed=3))[0])
    want = sampling_reference.fiber_length(tube, w, res)
    calls = []
    kernel = _bulk.core_distance_elementwise
    monkeypatch.setattr(_bulk, "core_distance_elementwise",
                        lambda *f: calls.append(len(f[0])) or kernel(*f))
    got = fiber_length(tube, w, res)
    assert sum(calls) > 900_000 and max(calls) <= FIBER_BLOCK
    assert np.float64(got).tobytes() == np.float64(want).tobytes() and got > 0.0


@pytest.mark.parametrize("theta, height", [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0),
                                           (0.0, math.inf), (0.0, math.nan)])
def test_fiber_length_rejects_nonfinite_plane_points(theta, height):
    tube = HTube(HPoint(0, 0, 0), E1, 2.0 ** -6)
    with pytest.raises(ValueError, match="plane point"):
        fiber_length(tube, PlanePoint(theta, height), 2.0 ** -6 / 100)
    with pytest.raises(ValueError, match="plane point"):
        fiber_length([tube, tube], np.array([[0.0, 0.0], [theta, height]]), 2.0 ** -6 / 100)


@pytest.mark.parametrize("res", [math.inf, math.nan, 0.0, -1e-3])
def test_fiber_length_rejects_bad_resolutions(res):
    tube = HTube(HPoint(0, 0, 0), E1, 2.0 ** -6)
    with pytest.raises(ValueError, match="resolution"):
        fiber_length(tube, PlanePoint(0.0, 0.0), res)
    with pytest.raises(ValueError, match="resolution"):
        fiber_length([tube], np.zeros((1, 2)), res)


@pytest.mark.parametrize("w", [np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(2), np.zeros((0, 2))])
def test_fiber_length_wants_one_plane_point_per_tube(w):
    tube = HTube(HPoint(0, 0, 0), E1, 2.0 ** -6)
    with pytest.raises(ValueError, match="one plane point"):
        fiber_length([tube, tube], w, 2.0 ** -6 / 100)


def test_broadness_transfer_fan():
    # a direction-broad fan stays broad after projection, within a constant
    from heislab.families import fan_cores
    from heislab.incidence import quad_broadness
    from heislab.tubes import line_broadness

    delta = 2.0 ** -4
    cores = fan_cores(delta)
    line_rep = line_broadness(cores, delta, 0.5)
    curves = [tube_to_curve(HTube(p, e, delta)).as_quadratic() for p, e in cores]
    quad_rep = quad_broadness(curves, delta * delta, 0.5)
    assert quad_rep.worst_ratio <= 4.0 * max(line_rep.worst_ratio, 1.0)
    assert quad_rep == broadness_reference.quad_broadness(curves, delta * delta, 0.5)
