"""Tube membership, intersection volume, transversality, line broadness."""

import math

import broadness_reference
import numpy as np
import pytest
import sampling_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import _bulk
from heislab.families import build_bush, fan_cores
from heislab.heis import E1, E2, HDirection, HPoint, group_mul
from heislab.tubes import (
    HTube,
    ProbeSpec,
    core_distance,
    is_transversal_pair,
    line_broadness,
    tube_bounding_box,
    tube_contains,
    tube_intersection_volume,
    tube_params,
)
from heislab.tubes import _arc_profile, _dyadic_down, _line_angles


def dense_core_distance(tube, p, n=10_001):
    s = np.linspace(-0.5, 0.5, n)
    cores = sampling_reference.core_points(tube.center, tube.dir.a, tube.dir.b, s)
    diffs = _bulk.mul(-cores, np.broadcast_to(np.array(p.as_tuple()), (n, 3)))
    return float(_bulk.norm(diffs).min())


def random_tube(rng, delta, scale=0.3):
    e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
    g = rng.normal(scale=scale, size=3)
    return HTube(HPoint(g[0], g[1], 0.25 * g[2]), e, delta)


def test_tube_validation():
    with pytest.raises(ValueError):
        HTube(HPoint(0, 0, 0), E1, 0.0)
    with pytest.raises(ValueError):
        HTube(HPoint(0, 0, 0), E1, 1.0)


def test_contains_center_and_core_witness():
    delta = 2.0 ** -5
    tube = HTube(HPoint(0.1, -0.2, 0.05), HDirection.from_angle(0.3), delta)
    assert tube_contains(tube, tube.center)
    # witness s = 0.5 with a half-delta gauge offset
    z = HPoint(0.5 * delta, 0.0, 0.0)
    p = group_mul(tube.core_point(0.5), z)
    assert tube_contains(tube, p)


def test_contains_agrees_with_dense_scan_classifier(rng):
    delta = 2.0 ** -6
    tube = HTube(HPoint(0, 0, 0), E1, delta)
    outside = inside = 0
    for _ in range(1000):
        s = rng.uniform(-0.5, 0.5)
        ang = rng.uniform(0, 2 * math.pi)
        r = delta * rng.uniform(0.2, 2.5)
        z = HPoint(r * math.cos(ang), r * math.sin(ang), 0.0)
        p = group_mul(tube.core_point(s), z)
        oracle = dense_core_distance(tube, p)
        if oracle > delta * (1 + 1e-6):
            outside += 1
            assert not tube_contains(tube, p)
        elif oracle < delta * (1 - 1e-6):
            inside += 1
            assert tube_contains(tube, p)
    assert outside > 300 and inside > 300  # both regimes well exercised


def test_core_distance_matches_dense_scan(rng):
    for _ in range(40):
        tube = random_tube(rng, 2.0 ** -6)
        p = HPoint(*(rng.normal(scale=0.5, size=3)))
        assert core_distance(tube, p) == pytest.approx(
            dense_core_distance(tube, p), abs=1e-6
        )


@pytest.mark.parametrize("eps", [2.0 ** -15, 2.0 ** -18])
@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.5, 0.4, -0.3)])
def test_core_distance_just_past_the_endpoint(eps, center):
    # a point on the core line eps beyond s = 1/2 is eps from the endpoint
    tube = HTube(HPoint(*center), HDirection.from_angle(0.7), 0.5)
    p = tube.core_point(0.5 + eps)
    assert core_distance(tube, p) == pytest.approx(eps, rel=1e-9)


def test_core_distance_independent_of_the_batch(rng):
    tube = random_tube(rng, 2.0 ** -6)
    pts = rng.normal(scale=0.5, size=(4000, 3))
    c, a, b = tube.center.as_tuple(), tube.dir.a, tube.dir.b
    batch = _bulk.core_distance_elementwise(*_bulk.tube_frame(*pts.T, c, a, b))
    rows = [
        _bulk.core_distance_elementwise(*_bulk.tube_frame(*p[:, None], c, a, b))[0] for p in pts
    ]
    assert np.array_equal(batch, rows)


# Oracle cases for the closed form, built in the tube's frame u = center^-1 * p
# around the core point at parameter s (|s| > 1/2 lies past an endpoint):
# "generic" offsets u by scale * o, "gamma0" is direction E1 with y = 0
# (gamma = 0 exactly), "w0" sets u2 = -gamma*beta/2 (w = 0) and "core" puts
# the point on the core line.  Values are kept clear of float underflow.
_unit = st.integers(-1000, 1000).map(lambda k: k / 1000)


def _clear_of_zero(lo, hi):
    return st.floats(lo, hi).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)


@st.composite
def _kernel_cases(draw):
    case = draw(st.sampled_from(["generic", "gamma0", "w0", "core"]))
    scale = 10.0 ** draw(st.integers(-6, 3))
    s = draw(_clear_of_zero(-1.5, 1.5))
    o = [scale * draw(_unit) for _ in range(3)]
    if case == "gamma0":
        return HPoint(draw(_unit), 0.0, draw(_unit)), E1, (s + o[0], 0.0, o[2])
    e = HDirection.from_angle(draw(_clear_of_zero(-math.pi, math.pi)))
    center = HPoint(0.0, 0.0, 0.0) if case == "w0" else HPoint(*(draw(_unit) for _ in range(3)))
    if case == "core":
        return center, e, (s * e.a, s * e.b, 0.0)
    u0, u1 = s * e.a + o[0], s * e.b + o[1]
    if case == "w0":
        beta, gamma = e.a * u0 + e.b * u1, e.b * u0 - e.a * u1
        return center, e, (u0, u1, -(0.5 * gamma * beta))
    return center, e, (u0, u1, o[2])


@given(_kernel_cases())
@settings(max_examples=300, deadline=None)
def test_core_distance_matches_dense_scan_hypothesis(case):
    center, e, u = case
    n = 2001
    tube = HTube(center, e, 0.5)
    p = HPoint(*_bulk.mul(np.array(center.as_tuple()), np.array(u)))
    with np.errstate(all="raise"):
        d = core_distance(tube, p)
        dense = dense_core_distance(tube, p, n)
    # Both values carry a vertical rounding error of about 8*eps*R^2 at
    # coordinate size R, whose gauge is 2*sqrt(8*eps)*R; on the core that is
    # the whole value (the scan can read 0.0 where the kernel reads 5e-9).
    r = max(1.0, *map(abs, center.as_tuple()), *map(abs, p.as_tuple()))
    rounding = 4.0 * math.sqrt(8.0 * np.finfo(float).eps) * r
    assert d <= dense * (1 + 1e-12) + rounding
    # the distance is 1-Lipschitz in s, so a scan of step 1/(n-1) is off by
    # at most half a step
    assert dense - d <= 0.5 / (n - 1) + rounding


def test_contains_monotone_in_delta(rng):
    for _ in range(200):
        d1 = 2.0 ** rng.uniform(-8, -3)
        d2 = d1 * rng.uniform(1.5, 4.0)
        e = HDirection.from_angle(rng.uniform(0, 2 * math.pi))
        c = HPoint(*(rng.normal(scale=0.2, size=3)))
        p = HPoint(*(rng.normal(scale=0.3, size=3)))
        small = HTube(c, e, d1)
        big = HTube(c, e, min(d2, 0.99))
        if tube_contains(small, p):
            assert tube_contains(big, p)


def test_left_translation_invariance(rng):
    delta = 2.0 ** -5
    for _ in range(100):
        tube = random_tube(rng, delta)
        g = HPoint(*(rng.normal(size=3)))
        s = rng.uniform(-0.6, 0.6)
        z = rng.normal(scale=delta, size=3)
        p = group_mul(tube.core_point(s), HPoint(z[0], z[1], 0.25 * z[2] * delta))
        d0 = core_distance(tube, p)
        if abs(d0 - delta) < 1e-7:
            continue  # skip knife-edge cases: translation only preserves up to rounding
        assert tube_contains(tube.translated(g), group_mul(g, p)) == tube_contains(tube, p)


def test_bounding_box_contains_samples(rng):
    from heislab.projection import tube_points_sample

    for seed in range(10):
        tube = random_tube(rng, 2.0 ** -4)
        box = tube_bounding_box(tube_params([tube]))[0]
        pts = tube_points_sample(tube, 500, seed=seed)
        assert np.all(pts >= box[:, 0] - 1e-12)
        assert np.all(pts <= box[:, 1] + 1e-12)


def test_volume_disjoint_tubes_is_zero():
    delta = 2.0 ** -5
    t1 = HTube(HPoint(0, 0, 0), E1, delta)
    t2 = HTube(HPoint(10, 0, 0), E2, delta)
    est = tube_intersection_volume(t1, t2, samples=1000, seed=0)
    assert est.value == 0.0


def test_volume_self_consistency_two_seeds():
    delta = 2.0 ** -5
    tube = HTube(HPoint(0, 0, 0), E1, delta)
    a = tube_intersection_volume(tube, tube, samples=200_000, seed=1)
    b = tube_intersection_volume(tube, tube, samples=200_000, seed=2)
    assert a.value > 0
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_volume_translation_invariance():
    delta = 2.0 ** -5
    tube = HTube(HPoint(0, 0, 0), HDirection.from_angle(0.7), delta)
    g = HPoint(0.3, -0.4, 0.2)
    a = tube_intersection_volume(tube, tube, samples=150_000, seed=3)
    moved = tube.translated(g)
    b = tube_intersection_volume(moved, moved, samples=150_000, seed=4)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_volume_deterministic():
    delta = 2.0 ** -5
    t1 = HTube(HPoint(0, 0, 0), E1, delta)
    t2 = HTube(HPoint(0, 0, 0), E2, delta)
    a = tube_intersection_volume(t1, t2, samples=100_000, seed=9)
    b = tube_intersection_volume(t1, t2, samples=100_000, seed=9)
    assert a.value == b.value and a.stderr == b.stderr


def test_transversal_pair():
    delta = 2.0 ** -6
    f1 = [HTube(HPoint(0, 0, 0), E1, delta)]
    f2 = [HTube(HPoint(0, 0, 0), E2, delta)]
    assert is_transversal_pair(f1, f2, 0.1)
    # one tube of the first family pointing along e2 breaks it for small c
    assert not is_transversal_pair(f2, f2, 0.1)
    with pytest.raises(ValueError):
        is_transversal_pair(f1, f2, 0.0)


def test_bush_is_transversal_at_arc_scale():
    delta = 2.0 ** -6
    t1, t2 = build_bush(delta)
    assert is_transversal_pair(t1, t2, 2 * delta ** 1.5)


def test_line_broadness_single_line():
    delta = 2.0 ** -5
    rep = line_broadness([(HPoint(0, 0, 0), E1)], delta, 1.0)
    assert rep.worst_ratio <= 1.0


def test_line_broadness_empty_rejected():
    with pytest.raises(ValueError):
        line_broadness([], 0.1, 1.0)
    with pytest.raises(ValueError, match="nonempty"):
        line_broadness(np.zeros((6, 0)), 0.1, 1.0)
    with pytest.raises(ValueError):
        line_broadness([(HPoint(0, 0, 0), E1)], 0.1, 1.0, ProbeSpec(max_centers=0))


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_line_broadness_rejects_nonpositive_delta(delta):
    with pytest.raises(ValueError, match="bottom > 0"):
        line_broadness([(HPoint(0, 0, 0), E1)], delta, 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
def test_line_broadness_rejects_bad_alpha(alpha, monkeypatch):
    def no_probes(*args):
        raise AssertionError("a probe was computed before alpha was checked")

    monkeypatch.setattr(_bulk, "core_distance_elementwise", no_probes)
    with pytest.raises(ValueError, match="exponent"):
        line_broadness([(HPoint(0, 0, 0), E1)], 2.0 ** -4, alpha)


@pytest.mark.parametrize("cap", [0, -3])
def test_probe_spec_rejects_center_cap_below_one(cap):
    with pytest.raises(ValueError, match="max_centers"):
        ProbeSpec(max_centers=cap)


@pytest.mark.parametrize("cap", [0, -3])
def test_probe_spec_rejects_anchor_cap_below_one(cap):
    with pytest.raises(ValueError, match="max_anchor_midpoints"):
        ProbeSpec(max_anchor_midpoints=cap)


@pytest.mark.parametrize("cap", [2.5, 3.0, "3", True, None])
def test_probe_spec_rejects_center_cap_not_integer(cap):
    with pytest.raises(ValueError, match="max_centers must be an integer"):
        ProbeSpec(max_centers=cap)


@pytest.mark.parametrize("cap", [2.5, 3.0, "3", True, None])
def test_probe_spec_rejects_anchor_cap_not_integer(cap):
    with pytest.raises(ValueError, match="max_anchor_midpoints must be an integer"):
        ProbeSpec(max_anchor_midpoints=cap)


def test_probe_spec_accepts_numpy_integer_caps():
    assert ProbeSpec(np.int64(3), np.int32(7)) == ProbeSpec(3, 7)


@pytest.mark.parametrize(
    "c", [-math.pi + 0.012, -math.pi + 0.001, math.pi - 0.012, math.pi - 0.001, 0.3, 2.0]
)
def test_line_broadness_is_rotation_invariant(c):
    # 7 lines through the origin, in two clusters 0.04 apart around angle c:
    # near c = -pi the window must wrap past +pi to the left to see them all
    offsets = [0.0] + [-0.02 + i * 1e-4 for i in range(3)] + [0.02 - i * 1e-4 for i in range(3)]

    def ratio(center):
        cores = [(HPoint(0, 0, 0), HDirection.from_angle(center + o)) for o in offsets]
        return line_broadness(cores, 2.0 ** -4, 1.0).worst_ratio

    assert ratio(c) == ratio(0.3)


def test_bush_lines_fail_broadness():
    # all directions concentrate in one tiny arc: the probe at the common
    # point with the delta^(3/2)-arc sees every line
    delta = 2.0 ** -8
    t1, _ = build_bush(delta)
    rep = line_broadness(tube_params(t1), delta, 1.0)
    n = len(t1)
    assert rep.worst_ratio > 8.0
    assert rep.worst_ratio >= 0.5 * n / (1.0 + delta ** 1.5 * n)


def test_fan_lines_stay_broad():
    for k in (4, 5, 6):
        delta = 2.0 ** -k
        rep = line_broadness(fan_cores(delta), delta, 1.0)
        assert rep.worst_ratio <= 4.0


_ALPHAS = (0.0, 0.2, 0.5, 1.0, 2.0)


@pytest.mark.parametrize(
    "family, k",
    [("bush", k) for k in range(4, 9)] + [("fan", k) for k in range(4, 8)],
)
def test_line_broadness_equals_reference_bush_and_fan(family, k):
    delta = 2.0 ** -k
    if family == "bush":
        t1 = build_bush(delta)[0]
        table, pairs = tube_params(t1), [(t.center, t.dir) for t in t1]
    else:
        table, pairs = fan_cores(delta), broadness_reference.fan_pairs(delta)
    for alpha in _ALPHAS:
        expected = broadness_reference.line_broadness(pairs, delta, alpha)
        assert line_broadness(table, delta, alpha) == expected, alpha


def _random_cores(rng):
    """1 to 200 lines around a few ball centers, half of them jittered off
    the center, with directions spread at one of three widths."""
    n = int(rng.integers(1, 201))
    hubs = rng.normal(scale=0.2, size=(int(rng.integers(2, 12)), 3))
    base = rng.uniform(-math.pi, math.pi)
    cores = []
    for _ in range(n):
        p = hubs[rng.integers(0, len(hubs))]
        if rng.random() < 0.5:
            p = p + rng.normal(scale=0.02, size=3)
        angle = base + rng.normal(scale=rng.choice([1e-3, 0.05, 1.0]))
        cores.append((HPoint(*map(float, p)), HDirection.from_angle(float(angle))))
    return cores


def test_line_broadness_equals_reference_random_families():
    rng = np.random.default_rng(13)
    for _ in range(20):
        cores = _random_cores(rng)
        delta = 2.0 ** -int(rng.integers(2, 7))
        for cap in (1, 3, 64):
            probes = ProbeSpec(max_centers=cap)
            for alpha in _ALPHAS:
                expected = broadness_reference.line_broadness(cores, delta, alpha, probes)
                got = line_broadness(cores, delta, alpha, probes)
                assert got == expected, (len(cores), delta, cap, alpha)


def test_arc_profile_skips_balls_that_keep_their_lines():
    # every fan line passes through the one center, so every ball holds the
    # whole fan and only the first scale gives rows
    delta = 2.0 ** -5
    rows = list(_arc_profile(fan_cores(delta), delta, ProbeSpec()))
    assert {row[4] for row in rows} == {1.0}
    assert len(rows) == len(_dyadic_down(math.pi, delta * delta))


def pairs_of(table):
    return [(HPoint(x, y, t), HDirection(a, b)) for x, y, t, a, b, _ in table.T.tolist()]


@pytest.mark.parametrize("k", range(4, 9))
def test_fan_table_is_the_fan_of_hdirections_bit_for_bit(k):
    delta = 2.0 ** -k
    table, pairs = fan_cores(delta), broadness_reference.fan_pairs(delta)
    want = [(*p.as_tuple(), e.a, e.b, delta) for p, e in pairs]
    assert np.array_equal(table.T.view(np.int64), np.array(want).view(np.int64))
    # the arc windows are centered on these angles, so they must be HDirection's
    got = _line_angles(table)
    assert np.array_equal(got.view(np.int64), np.array([e.angle for _, e in pairs]).view(np.int64))


def test_line_broadness_table_and_pair_list_give_equal_reports():
    rng = np.random.default_rng(5)
    delta = 2.0 ** -5
    families = [fan_cores(delta), tube_params(build_bush(delta)[0])]
    families += [tube_params([HTube(p, e, delta) for p, e in _random_cores(rng)]) for _ in range(3)]
    for table in families:
        for alpha in (0.0, 1.0):
            got = line_broadness(table, delta, alpha)
            assert got == line_broadness(pairs_of(table), delta, alpha)


def test_line_broadness_makes_one_one_point_kernel_call_per_fan_line(monkeypatch):
    # ROADMAP item 1: the frames are batched, but the kernel keeps one call
    # per line until the benchmark changes, because perfbench's probe-scan
    # exists to expose per-call cost and its points-per-call ratio against
    # tube-mc (test_tube_batches_are_far_larger_than_probe_batches) reads it
    sizes = []
    kernel = _bulk.core_distance_elementwise

    def counted(beta, gamma, w):
        sizes.append(len(beta))
        return kernel(beta, gamma, w)

    monkeypatch.setattr(_bulk, "core_distance_elementwise", counted)
    delta = 2.0 ** -5
    line_broadness(fan_cores(delta), delta, 1.0)
    assert sizes == [1] * 805


def spoiled_lines(row, value):
    """Three good lines, the second with `value` in table row `row`."""
    params = tube_params([HTube(HPoint(0.1 * i, 0.0, 0.0), E1, 2.0 ** -6) for i in range(3)])
    params[row, 1] = value
    return params


@pytest.mark.parametrize("params", [
    np.zeros((5, 3)), np.zeros((3, 6)), np.zeros(6), np.zeros((6, 3, 1)),
    *(spoiled_lines(row, v) for row in range(6) for v in (math.nan, math.inf, -math.inf)),
    # |a^2 + b^2 - 1| past 1e-12, as `HDirection` refuses it
    spoiled_lines(3, 1.0 + 1e-11), spoiled_lines(4, 1e-5), spoiled_lines(3, 0.0),
    spoiled_lines(3, 1e200),
])
def test_line_broadness_rejects_bad_line_tables_before_any_arithmetic(monkeypatch, params):
    calls = []
    monkeypatch.setattr(_bulk, "tube_frame", lambda *a: calls.append(a))
    monkeypatch.setattr(_bulk, "core_distance_elementwise", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="line 1 |tube table"):
        line_broadness(params, 2.0 ** -4, 1.0)
    assert calls == []


def test_line_broadness_takes_the_lines_hdirection_takes_and_any_radius():
    # a core has no radius, so the sixth row need only be finite
    for row, value in ((3, 1.0 + 4e-13), (5, 0.0), (5, 1.5), (5, -2.0)):
        params = spoiled_lines(row, value)
        assert line_broadness(params, 2.0 ** -4, 1.0) == line_broadness(
            pairs_of(params), 2.0 ** -4, 1.0)


def test_volume_rejects_nonpositive_samples():
    t1 = HTube(HPoint(0.0, 0.0, 0.0), E1, 0.1)
    t2 = HTube(HPoint(0.0, 0.0, 0.0), E2, 0.1)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="sample count"):
            tube_intersection_volume(t1, t2, samples=samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_core_distance_rejects_nonfinite_points(bad):
    tube = HTube(HPoint(0.0, 0.0, 0.0), E1, 0.1)
    pts = np.zeros((4, 3))
    pts[2, 1] = bad
    # 0 * inf in the frame makes numpy warn; the kernel must still reject it
    with np.errstate(invalid="ignore"):
        frame = _bulk.tube_frame(*pts.T, (0.0, 0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        _bulk.core_distance_elementwise(*frame)
    with pytest.raises(ValueError, match="finite"):
        tube_contains(tube, HPoint(bad, 0.0, 0.0))
