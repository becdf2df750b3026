"""The tube frame: `_bulk.tube_frame` is the one place that forms (beta,
gamma, w), and the kernel on its rows equals the old (n, 3) kernel of
`core_distance_reference` bit for bit, as do the frame shifts of the
t-sections and of the parabolic net's cull."""

import math

import core_distance_reference as ref
import numpy as np
import pytest

from heislab import _bulk
from heislab.families import parabolic_net_spec


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_points(rng, n):
    """Points at several scales, with the center itself and points on the
    core line (gamma = 0) among them when n allows."""
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-4.0, 1.0, (n, 1))
    pts[: n // 7] *= [1.0, 0.0, 1.0]
    pts[: n // 11] = 0.0
    return pts


@pytest.mark.parametrize("n", [1, 50, 6_000, 32_768])
def test_kernel_on_the_frame_equals_the_old_kernel_with_one_center(n):
    rng = np.random.default_rng([n, 1])
    for _ in range(3):
        pts = random_points(rng, n)
        center = tuple(rng.normal(scale=0.5, size=3).tolist())
        angle = rng.uniform(-math.pi, math.pi)
        a, b = math.cos(angle), math.sin(angle)
        x, y, t = pts.T
        got = _bulk.core_distance_elementwise(*_bulk.tube_frame(x, y, t, center, a, b))
        assert same_bits(got, ref.core_distance(center, a, b, pts))
    # the e1 direction, with its exact zero component
    got = _bulk.core_distance_elementwise(*_bulk.tube_frame(x, y, t, (0.0, 0.0, 0.0), 1.0, 0.0))
    assert same_bits(got, ref.core_distance((0.0, 0.0, 0.0), 1.0, 0.0, pts))


@pytest.mark.parametrize("n", [1, 50, 6_000, 32_768])
def test_kernel_on_the_frame_equals_the_old_kernel_with_per_row_centers(n):
    rng = np.random.default_rng([n, 2])
    pts = random_points(rng, n)
    centers = pts + rng.normal(scale=0.3, size=(n, 3))
    angle = rng.uniform(-math.pi, math.pi, n)
    a, b = np.cos(angle), np.sin(angle)
    x, y, t = pts.T
    got = _bulk.core_distance_elementwise(*_bulk.tube_frame(x, y, t, centers.T, a, b))
    assert same_bits(got, ref.core_distance(centers, a, b, pts))


def test_kernel_keeps_its_bits_where_cardanos_term_underflows():
    # gamma != 0 with gamma*w rounding to 0 and gamma^6 underflowing gives
    # T = 0, where the kernel divides g2 by 1 instead of skipping the division
    rng = np.random.default_rng(7)
    n = 50_000
    gamma, w, beta = (np.exp2(rng.uniform(lo, hi, n)) * rng.choice(signs, n)
                      for lo, hi, signs in ((-1074, -150, [-1.0, 1.0]),
                                            (-1100, 0, [-1.0, 0.0, 1.0]),
                                            (-1100, 1, [-1.0, 0.0, 1.0])))
    g2, gw = gamma * gamma, gamma * w
    t = np.cbrt(-2.0 * gw - np.copysign(np.sqrt(4.0 * gw * gw + g2 * g2 * g2), gw))
    assert ((t == 0.0) & (g2 != 0.0)).sum() > n // 10
    got = _bulk.core_distance_elementwise(beta, gamma, w)
    assert same_bits(got, ref.frame_distance(beta, gamma, w))


def test_section_shift_is_the_frame_at_t_minus_zero():
    rng = np.random.default_rng(5)
    for k in (1, 7, 40):
        x, y = rng.normal(scale=0.7, size=(2, 300, 1))
        x[:5] = 0.0
        center = rng.normal(scale=0.5, size=(3, k))
        center[2, : k // 2] = 0.0
        angle = rng.uniform(-math.pi, math.pi, k)
        a, b = np.cos(angle), np.sin(angle)
        beta, gamma, w = _bulk.tube_frame(x, y, -0.0, center, a, b)
        assert same_bits(w, ref.section_shift(x, y, center, a, b))
        assert w.shape == beta.shape == gamma.shape == (300, k)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_net_window_w_is_the_frame_w(k):
    spec = parabolic_net_spec(2.0 ** -k)
    rng = np.random.default_rng(k)
    n = 65_536
    xs, ys, ts = (rng.random((3, n)) * 2.0 - 1.0) * [[1.1], [1.1], [0.3]]
    yi = np.round(ys / spec.y_step + rng.integers(-1, 2, n)) * spec.y_step
    for x0 in spec.sheets:
        for tk in (0.0, np.round(ts / spec.t_step) * spec.t_step):
            w = _bulk.tube_frame(xs, ys, ts, (x0, yi, tk), 1.0, 0.0)[2]
            assert same_bits(w, ref.net_window_w(xs, ys, ts, x0, yi, tk))
