"""Plane projection, projected curves, containment ratio, fiber lengths."""

import math
import types

import broadness_reference
import numpy as np
import pytest
import sampling_reference

from heislab import _bulk, projection
from heislab.heis import E1, E2, HDirection, HPoint
from heislab.projection import (
    CONTAINMENT_ROUNDING,
    FIBER_BLOCK,
    PlanePoint,
    exact_containment_ratio,
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
from heislab.tubes import HTube, tube_params, tubes_from_params


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


# |a + b| = 1/2 on the unit circle: |kappa| = sqrt(7), the largest the
# projection accepts
_EDGE = (0.25 + math.sqrt(1.75) / 2, 0.25 - math.sqrt(1.75) / 2)


def containment_tubes(rng, n, delta, scale=0.15):
    """n random tubes with |a + b| >= 1/2, then kappa = 0 and both signs of
    |kappa| near sqrt(7), with centers of the experiment's spread."""
    dirs = []
    while len(dirs) < n:
        e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
        if abs(e.a + e.b) >= 0.5:
            dirs.append(e)
    dirs += [HDirection(math.sqrt(0.5), math.sqrt(0.5)), HDirection(*_EDGE),
             HDirection(*_EDGE[::-1])]
    return [HTube(HPoint(*(rng.normal(scale=scale, size=3) * [1, 1, 0.25])), e, delta)
            for e in dirs]


def exact_of(tubes):
    params = tube_params(tubes)
    return exact_containment_ratio(params[3], params[4])


def test_exact_containment_ratio_covers_the_edge_directions():
    kappa = np.array([tube_to_curve(HTube(HPoint(0, 0, 0), HDirection(*ab), 0.1)).kappa
                      for ab in [(math.sqrt(0.5), math.sqrt(0.5)), _EDGE, _EDGE[::-1]]])
    assert kappa[0] == 0.0
    assert np.allclose(np.abs(kappa[1:]), math.sqrt(7), rtol=1e-14)
    got = exact_containment_ratio(np.array([math.sqrt(0.5), *_EDGE]),
                                  np.array([math.sqrt(0.5), *_EDGE[::-1]]))
    # kappa = 0 gives sqrt(2)/4; |kappa| = sqrt(7) gives sqrt(1 + (sqrt(7) + sqrt(8))^2)/4
    want = [math.sqrt(2) / 4] + [math.sqrt(1 + (math.sqrt(7) + math.sqrt(8)) ** 2) / 4] * 2
    assert np.allclose(got, want, rtol=1e-15, atol=0)
    assert got.max() < 1.3912


@pytest.mark.parametrize("a, b", [(math.sqrt(0.5), -math.sqrt(0.5)), (0.6, -0.8)])
def test_exact_containment_ratio_rejects_directions_near_the_fiber_line(a, b):
    with pytest.raises(ValueError, match="too close"):
        exact_containment_ratio(np.array([1.0, a]), np.array([0.0, b]))


@pytest.mark.parametrize("k", [1, 4, 8, 14, 20])
def test_exact_containment_ratio_bounds_the_sampled_reference(rng, k):
    # the sampled ratio sees points of the tube only, so it never exceeds
    # the sup over the tube beyond the stated rounding margin
    d = 2.0 ** -k
    tubes = containment_tubes(rng, 12, d)
    for i, (tube, exact) in enumerate(zip(tubes, exact_of(tubes).tolist())):
        sampled = sampling_reference.projection_containment_ratio(tube, 3000, seed=(k, i))
        assert sampled <= exact + CONTAINMENT_ROUNDING / (d * d)
        assert exact == sampling_reference.exact_containment_ratio(tube)


def test_exact_containment_ratio_is_nearly_attained_by_a_million_points(rng):
    # centers near the origin keep the whole tube inside B(0, 1); the
    # re-anchor's 12 tubes at 10^6 points gave 0.9976-0.9998 of the sup
    d = 2.0 ** -6
    tubes = containment_tubes(rng, 2, d, scale=0.02)
    for i, (tube, exact) in enumerate(zip(tubes, exact_of(tubes).tolist())):
        sampled = projection_containment_ratio(tube, *tube_draws(d, 10 ** 6, seed=(9, i)))
        assert 0.99 * exact <= sampled <= exact


def containment_table(rng, counts, far=()):
    """A table of len(counts) tubes at random radii in (2^-12, 1/2), tube i's
    draws from the stream (i, 30), laid end to end; the tubes in `far` sit at
    x = 3, so that none of their points lies in B(0, 1)."""
    tubes = containment_tubes(rng, len(counts) - 3, 0.5)
    params = tube_params(tubes)
    params[5] = rng.uniform(2.0 ** -12, 0.5, len(counts))
    params[0, list(far)] = 3.0
    draws = [tube_draws(d, n, seed=(i, 30)) for i, (d, n) in enumerate(zip(params[5], counts))]
    return params, np.concatenate([s for s, _ in draws]), np.hstack([z for _, z in draws])


class _CheckedMaximum:
    """`np.maximum`, whose `reduceat` asserts that no segment is empty and
    records the number of segments."""

    def __init__(self):
        self.segments = []

    def __call__(self, *args):
        return np.maximum(*args)

    def reduceat(self, values, heads):
        assert len(heads) and heads[0] == 0 and (np.diff(heads) > 0).all()
        assert heads[-1] < len(values)
        self.segments.append(len(heads))
        return np.maximum.reduceat(values, heads)


def checked_reduceat(monkeypatch):
    """The segment counts of every `np.maximum.reduceat` call in `projection`."""
    checked = types.ModuleType("numpy")
    checked.__dict__.update(vars(np))
    checked.maximum = _CheckedMaximum()
    monkeypatch.setattr(projection, "np", checked)
    return checked.maximum.segments


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_containment_table_equals_the_one_tube_calls(monkeypatch, seed):
    # ragged counts of 1-300 points: about 6,000 points, so a tube's run
    # spans the first block boundary; tube 7 has no point in B(0, 1)
    rng = np.random.default_rng([seed, 30])
    counts = rng.integers(1, 301, size=40)
    params, s, z = containment_table(rng, counts, far=[7])
    ends = np.cumsum(counts)
    assert ((ends - counts < FIBER_BLOCK) & (FIBER_BLOCK < ends)).any()
    segments = checked_reduceat(monkeypatch)
    got = projection_containment_ratio(params, s, z, counts)
    monkeypatch.undo()
    # one segment per tube and block: the spanning tube has one in each
    assert len(segments) == 2 and sum(segments) == 41
    want = [projection_containment_ratio(tube, s_i, z_i) for tube, s_i, z_i in zip(
        tubes_from_params(params), np.split(s, ends[:-1]), np.split(z, ends[:-1], axis=1))]
    assert got.dtype == np.float64 and got.tolist() == want
    assert got[7] == 0.0 and (got > 0).sum() >= 35


def test_containment_table_of_tubes_outside_the_unit_ball_reads_zero(monkeypatch):
    # no point is kept, yet every segment is a tube's nonempty run: tube 0
    # fills the first block, and the second holds its rest and tubes 1 and 2
    rng = np.random.default_rng(31)
    counts = np.array([5000, 1, 300])
    params, s, z = containment_table(rng, counts, far=[0, 1, 2])
    segments = checked_reduceat(monkeypatch)
    assert projection_containment_ratio(params, s, z, counts).tolist() == [0.0, 0.0, 0.0]
    assert segments == [1, 3]


def near_the_fiber_line(params, s, z, counts):
    params[3:5, 1] = math.sqrt(0.5), -math.sqrt(0.5)
    return params, s, z, counts


def not_finite(params, s, z, counts):
    params[2, 1] = math.nan
    return params, s, z, counts


@pytest.mark.parametrize("spoil, match", [
    (lambda p, s, z, c: (p, s, z, [2, 0, 4]), "count >= 1"),
    (lambda p, s, z, c: (p, s, z, [3, -1, 4]), "count >= 1"),
    (lambda p, s, z, c: (p, s, z, [2, 3, 2]), "summing to 6"),
    (lambda p, s, z, c: (p, s, z, [3, 3]), "per tube"),
    (lambda p, s, z, c: (p, s, z, [2.0, 3.0, 1.0]), "count"),
    (lambda p, s, z, c: (p, s, z, None), "count"),
    (lambda p, s, z, c: (p, s, z[:, :5], c), r"\(3, 5\)"),
    (lambda p, s, z, c: (p, s, z[:2], c), r"\(2, 6\)"),
    (lambda p, s, z, c: (p, s, z.T, c), r"\(6, 3\)"),
    (lambda p, s, z, c: (p, s, z[0], c), r"\(6,\)"),
    (lambda p, s, z, c: (p, s, np.hstack([z, z]), c), r"\(3, 12\)"),
    (lambda p, s, z, c: (p, s[:, None], z, c), r"\(6, 1\)"),
    (lambda p, s, z, c: (p, np.where(s > 0, np.inf, s), z, c), "finite"),
    (lambda p, s, z, c: (p, s, np.where(z > 0, np.nan, z), c), "finite"),
    (near_the_fiber_line, r"tube 1 \(0\.1, 0\.0, 0\.0, 0\.7071067811865476, "
                          r"-0\.7071067811865476, 0\.015625\) too close"),
    (not_finite, r"tube 1 \(0\.1, 0\.0, nan"),
], ids=["count 0", "count -1", "sum 7", "two counts", "float counts", "no counts",
        "z short", "z two rows", "z transposed", "z one row", "z long", "s 2-D",
        "s inf", "z nan", "near the fiber line", "nan center"])
def test_containment_table_refuses_bad_input_before_any_arithmetic(monkeypatch, spoil, match):
    # three tubes with counts 2, 3 and 1, spoiled in one place
    params = tube_params([HTube(HPoint(0.1 * i, 0.0, 0.0), E1, 2.0 ** -6) for i in range(3)])
    s, z = tube_draws(2.0 ** -6, 6, seed=4)
    monkeypatch.setattr(_bulk, "tube_points", lambda *a: pytest.fail("points formed"))
    with pytest.raises(ValueError, match=match):
        projection_containment_ratio(*spoil(params, s, z, [2, 3, 1]))


def test_projected_height_above_the_graph_is_z2_plus_the_quadratic_form(rng):
    # the identity the closed form rests on: s and the center drop out
    d = 2.0 ** -5
    for tube in containment_tubes(rng, 6, d, scale=0.3):
        s, z = tube_draws(d, 2000, seed=3)
        x, y, t = _bulk.tube_points(tube.center.as_tuple(), tube.dir.a, tube.dir.b, s, z)
        curve = tube_to_curve(tube)
        theta, height = project_W_batch(np.stack([x, y, t]).T).T
        kappa, (z0, z1, z2) = curve.kappa, z
        want = z2 + (z0 * z0 - z1 * z1) / 4 - kappa * (z0 + z1) ** 2 / 4
        assert np.allclose(height - curve(theta), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("delta", [1.0, 2.0 ** -7])
def test_eigenvalue_formula_equals_brute_force_max_on_the_gauge_sphere(rng, delta):
    # the sup of |z2 + Q| sits on the sphere (z0^2 + z1^2)^2 + 16 z2^2 = delta^4:
    # z0 + i z1 = delta sqrt(cos psi) e^{i phi}, z2 = delta^2 sin(psi) / 4
    phi = np.linspace(-math.pi, math.pi, 1441)[:, None]
    psi = np.linspace(-math.pi / 2, math.pi / 2, 1441)
    r = delta * np.sqrt(np.cos(psi))
    z0, z1, z2 = r * np.cos(phi), r * np.sin(phi), delta * delta * np.sin(psi) / 4
    angles = [math.pi / 4, math.atan2(*_EDGE[::-1]), math.atan2(*_EDGE)]
    angles += [a for a in rng.uniform(-math.pi, math.pi, 40)
               if abs(math.cos(a) + math.sin(a)) >= 0.5]
    for angle in angles:
        a, b = math.cos(angle), math.sin(angle)
        kappa = (a - b) / (a + b)
        brute = np.abs(z2 + (z0 * z0 - z1 * z1) / 4 - kappa * (z0 + z1) ** 2 / 4).max()
        exact = float(exact_containment_ratio(np.array([a]), np.array([b]))[0]) * delta * delta
        assert exact * (1 - 1e-5) <= brute <= exact * (1 + 1e-12)


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
    got = fiber_length(tube_params(tubes), w, res)
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
        fiber_length(tube_params([tube, tube]), np.array([[0.0, 0.0], [theta, height]]),
                     2.0 ** -6 / 100)


@pytest.mark.parametrize("res", [math.inf, math.nan, 0.0, -1e-3])
def test_fiber_length_rejects_bad_resolutions(res):
    tube = HTube(HPoint(0, 0, 0), E1, 2.0 ** -6)
    with pytest.raises(ValueError, match="resolution"):
        fiber_length(tube, PlanePoint(0.0, 0.0), res)
    with pytest.raises(ValueError, match="resolution"):
        fiber_length(tube_params([tube]), np.zeros((1, 2)), res)


@pytest.mark.parametrize("w", [np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(2), np.zeros((0, 2))])
def test_fiber_length_wants_one_plane_point_per_tube(w):
    tube = HTube(HPoint(0, 0, 0), E1, 2.0 ** -6)
    with pytest.raises(ValueError, match="one plane point"):
        fiber_length(tube_params([tube, tube]), w, 2.0 ** -6 / 100)


def same_table(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fiber_length_boxes_the_flat_tubes_in_one_call(monkeypatch):
    delta = 2.0 ** -6
    tubes, w = fiber_batch(delta)
    params = tube_params(tubes)
    flat = np.flatnonzero(np.abs(params[3] + params[4]) < 0.1)
    calls, box = [], projection.tube_bounding_box
    monkeypatch.setattr(projection, "tube_bounding_box", lambda p: calls.append(p) or box(p))
    fiber_length(params, w, delta / 20)
    assert len(calls) == 1 and same_table(calls[0], params[:, flat])


def spoiled_table(row, value):
    """Three good tubes, the second with `value` in table row `row`."""
    params = tube_params([HTube(HPoint(0.1 * i, 0.0, 0.0), E1, 2.0 ** -6) for i in range(3)])
    params[row, 1] = value
    return params


@pytest.mark.parametrize("params", [
    np.zeros((5, 3)), np.zeros((3, 6)), np.zeros(6), np.zeros((6, 3, 1)),
    *(spoiled_table(row, v) for row in range(6) for v in (math.nan, math.inf, -math.inf)),
    # |a^2 + b^2 - 1| past 1e-12, as `HDirection` refuses it
    spoiled_table(3, 1.0 + 1e-11), spoiled_table(4, 1e-5), spoiled_table(3, 0.0),
    spoiled_table(5, 0.0), spoiled_table(5, 1.0), spoiled_table(5, -0.5), spoiled_table(5, 1.5),
    # a^2 overflows: refused, without numpy's overflow warning
    spoiled_table(3, 1e200),
])
def test_fiber_length_rejects_bad_tube_tables_before_any_arithmetic(monkeypatch, params):
    calls = []
    monkeypatch.setattr(projection, "tube_bounding_box", lambda *a: calls.append(a))
    monkeypatch.setattr(_bulk, "tube_frame", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="tube"):
        fiber_length(params, np.zeros((3, 2)), 2.0 ** -6 / 100)
    assert calls == []


def test_fiber_length_takes_the_directions_hdirection_takes():
    params = spoiled_table(3, 1.0 + 4e-13)
    assert HDirection(1.0 + 4e-13, 0.0).a == params[3, 1]
    assert fiber_length(params, np.zeros((3, 2)), 2.0 ** -6 / 100).shape == (3,)


def test_broadness_transfer_fan():
    # a direction-broad fan stays broad after projection, within a constant
    from heislab.families import fan_cores
    from heislab.incidence import quad_broadness
    from heislab.tubes import line_broadness, tubes_from_params

    delta = 2.0 ** -4
    cores = fan_cores(delta)
    line_rep = line_broadness(cores, delta, 0.5)
    curves = [tube_to_curve(tube).as_quadratic() for tube in tubes_from_params(cores)]
    quad_rep = quad_broadness(curves, delta * delta, 0.5)
    assert quad_rep.worst_ratio <= 4.0 * max(line_rep.worst_ratio, 1.0)
    assert quad_rep == broadness_reference.quad_broadness(curves, delta * delta, 0.5)
