"""Cull-then-classify membership against a brute-force oracle.

The oracle runs the exact core-distance kernel on every (point, tube) pair
with no cull.  The culled paths (`tube_multiplicity`, `tube_contains_batch`,
`net_multiplicity`) must give the same counts, on random tubes with far
centers and on points placed on the gauge sphere of radius delta(1 -+ 2^-40)
around core points, where every bound of the cull is attained.
"""

import math

import numpy as np
import pytest
import sampling_reference

from heislab import _bulk
from heislab.families import (
    ParabolicNetSpec,
    build_bush,
    net_multiplicity,
    net_tubes,
    parabolic_net_spec,
)
from heislab.heis import HDirection, HPoint
from heislab.integrals import _default_tube_region
from heislab.tubes import HTube, tube_contains_batch, tube_multiplicity, tube_params

EPS = 2.0 ** -40


def oracle_members(tube, pts):
    frame = _bulk.tube_frame(*pts.T, tube.center.as_tuple(), tube.dir.a, tube.dir.b)
    return _bulk.core_distance_elementwise(*frame) <= tube.delta


def oracle_multiplicity(tubes, pts):
    return sum((oracle_members(t, pts).astype(np.int64) for t in tubes), np.zeros(len(pts), np.int64))


def cull_coordinates(tube, pts):
    """(beta, gamma, w) of each point in the tube's kernel coordinates."""
    u = _bulk.mul(-np.array(tube.center.as_tuple()), pts)
    a, b = tube.dir.a, tube.dir.b
    beta = a * u[:, 0] + b * u[:, 1]
    gamma = b * u[:, 0] - a * u[:, 1]
    return beta, gamma, u[:, 2] + 0.5 * gamma * beta


def sphere_offsets(r):
    """Offsets z of gauge norm r in the frame (along e, across e, vertical),
    on a grid that contains the maximizers of |along|, |across| and of
    |z2 - along*across/2| (horizontal radius^2 = r^2/sqrt 2 at 45 degrees)."""
    rhos = r * np.concatenate([np.linspace(0.0, 1.0, 5), [2.0 ** -0.25]])
    phis = np.linspace(-math.pi, math.pi, 9)
    rho, phi, sign = np.meshgrid(rhos, phis, [-1.0, 1.0], indexing="ij")
    rho, phi, sign = rho.ravel(), phi.ravel(), sign.ravel()
    vert = sign * 0.25 * np.sqrt(np.maximum(r ** 4 - rho ** 4, 0.0))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), vert], axis=1)


def shell_points(tube, rng, n_s=0):
    """Points center * (s e) * z with |z| = delta (1 -+ 2^-40), s over the
    segment (both ends included) and a little beyond it."""
    a, b = tube.dir.a, tube.dir.b
    s = np.concatenate([[-0.5, 0.5, -0.5 + 1e-9, 0.5 - 1e-9, -0.52, 0.52], rng.uniform(-0.5, 0.5, n_s)])
    out = []
    for r in (tube.delta * (1.0 - EPS), tube.delta * (1.0 + EPS)):
        z = sphere_offsets(r)
        # rotate (along, across) to (x, y)
        z = np.stack([a * z[:, 0] - b * z[:, 1], b * z[:, 0] + a * z[:, 1], z[:, 2]], axis=1)
        core = sampling_reference.core_points(tube.center, a, b, s)
        out.append(_bulk.mul(core[:, None, :], z[None, :, :]).reshape(-1, 3))
    return np.concatenate(out)


def random_tubes(rng, n):
    tubes = []
    for _ in range(n):
        c = rng.uniform(-50.0, 50.0, 3)
        tubes.append(
            HTube(HPoint(*c), HDirection.from_angle(rng.uniform(-math.pi, math.pi)),
                  float(2.0 ** rng.uniform(-10.0, -0.2)))
        )
    return tubes


def candidates(tubes, pts):
    """`_bulk.core_candidates` on the table of `tubes` and the rows of pts."""
    return _bulk.core_candidates(np.ascontiguousarray(pts.T), tube_params(tubes))


def assert_cull_keeps_every_member(tubes, pts):
    for t in tubes:
        kept = np.zeros(len(pts), bool)
        tube, rows, *frame = candidates([t], pts)
        assert not tube.any()
        kept[rows] = True
        # the cull hands over each kept point's frame rows
        assert all(np.array_equal(f, r[rows]) for f, r in zip(frame, cull_coordinates(t, pts)))
        members = oracle_members(t, pts)
        assert not (members & ~kept).any()
        assert np.array_equal(tube_contains_batch(t, pts), members)
    assert np.array_equal(tube_multiplicity(tubes, pts), oracle_multiplicity(tubes, pts))


def sorted_cells(cells):
    """The (tube, point, beta, gamma, w) rows of a cull, in (tube, point) order."""
    order = np.lexsort(cells[1::-1])
    return [c.take(order) for c in cells]


def far_tubes_and_points(rng, n_tubes, n_box):
    """Random tubes with far centers, points on their delta-shells and points
    in a box around each center."""
    tubes = random_tubes(rng, n_tubes)
    near = np.concatenate([shell_points(t, rng, n_s=12) for t in tubes])
    box = np.concatenate([
        _bulk.mul(np.array(t.center.as_tuple()), rng.uniform(-1.0, 1.0, (n_box, 3)) * [0.6, 0.6, 0.05])
        for t in tubes
    ])
    return tubes, near, np.concatenate([near, box])


def test_family_cull_is_the_union_of_one_tube_culls():
    # many blocks of 8192 // 24 points, each framing all tubes at once
    rng = np.random.default_rng(5)
    tubes, _, pts = far_tubes_and_points(rng, 24, 200)
    whole = sorted_cells(candidates(tubes, pts))
    ones = [candidates([t], pts) for t in tubes]
    union = sorted_cells([np.concatenate(c) for c in zip(
        *((np.full_like(rows, i), rows, *frame) for i, (_, rows, *frame) in enumerate(ones))
    )])
    assert len(whole[0]) > 1000
    assert [c.dtype for c in whole] == [c.dtype for c in union]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, union))


@pytest.mark.parametrize("n_tubes", [1, 7, 24, _bulk.CULL_CHUNK])
def test_cull_blocks_hold_at_most_a_chunk_of_cells(monkeypatch, n_tubes):
    rng = np.random.default_rng(n_tubes)
    tubes = random_tubes(rng, n_tubes)
    pts = rng.uniform(-50.0, 50.0, (3 * _bulk.CULL_CHUNK // n_tubes + 5, 3))
    blocks = []
    frame = _bulk.tube_frame
    monkeypatch.setattr(_bulk, "tube_frame", lambda *a: blocks.append(frame(*a)[2].size) or frame(*a))
    candidates(tubes, pts)
    assert len(blocks) >= 4 and max(blocks) <= _bulk.CULL_CHUNK
    assert sum(blocks) == n_tubes * len(pts)


def test_random_far_tubes_match_the_oracle():
    rng = np.random.default_rng(9)
    tubes, near, pts = far_tubes_and_points(rng, 24, 400)
    assert_cull_keeps_every_member(tubes, pts)
    # the shells hold members
    assert tube_multiplicity(tubes, near).sum() > len(near) // 4


def test_shell_members_attain_every_cull_bound():
    # a cull with any bound tightened by 10^-6 would drop some of these
    # members, so the equality tests above would catch it
    rng = np.random.default_rng(3)
    reached = np.zeros(3)
    for tube in random_tubes(rng, 6) + [HTube(HPoint(0.0, 0.0, 0.0), HDirection(1.0, 0.0), 2.0 ** -6)]:
        pts = shell_points(tube, rng)
        members = oracle_members(tube, pts)
        beta, gamma, w = (np.abs(v[members]).max() for v in cull_coordinates(tube, pts))
        bounds = np.array(_bulk.core_cull_bounds(tube.delta)) / _bulk.CULL_SLACK
        ratios = np.array([beta, gamma, w]) / bounds
        assert (ratios <= 1.0 + 1e-9).all()
        reached = np.maximum(reached, ratios)
    assert (reached >= 1.0 - 1e-6).all(), reached


def test_empty_family_and_empty_points():
    tube = HTube(HPoint(0.0, 0.0, 0.0), HDirection(1.0, 0.0), 0.1)
    assert tube_multiplicity([], np.zeros((4, 3))).tolist() == [0, 0, 0, 0]
    assert tube_multiplicity([tube], np.zeros((0, 3))).tolist() == []
    assert tube_contains_batch(tube, np.zeros((0, 3))).tolist() == []


@pytest.mark.parametrize("k", [4, 5, 6, 8])
def test_bush_families_match_the_oracle(k):
    d = 2.0 ** -k
    t1, t2 = build_bush(d)
    region = _default_tube_region(tube_params(t1 + t2), len(t1))
    rng = np.random.default_rng([k, 1])
    pts = region[:, 0] + rng.random((20000, 3)) * (region[:, 1] - region[:, 0])
    for fam in (t1, t2):
        shells = np.concatenate([shell_points(t, rng, n_s=3) for t in fam])
        assert_cull_keeps_every_member(fam, np.concatenate([pts, shells]))


def net_window(d, y_halfrange, t_halfrange):
    """The parabolic net of `parabolic_net_spec(d)` cut to the rows and
    heights near the origin, small enough to brute-force."""
    full = parabolic_net_spec(d)
    return ParabolicNetSpec(d, full.sheets, full.y_step, y_halfrange, full.t_step, t_halfrange)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_net_multiplicity_matches_the_oracle(k):
    d = 2.0 ** -k
    spec = net_window(d, 5.5 * d, 12.5 * parabolic_net_spec(d).t_step)
    rng = np.random.default_rng(k)
    t1, t2 = net_tubes(spec)
    # beyond the window's rows and heights (the cores rise by |y0|/4)
    span = np.array([1.2, spec.y_halfrange + 2 * d, spec.t_halfrange + 0.3 * spec.y_halfrange])
    uniform = (rng.random((3000, 3)) * 2.0 - 1.0) * span
    for fam, tubes in ((1, t1), (2, t2)):
        picks = rng.choice(len(tubes), size=12, replace=False)
        shells = np.concatenate([shell_points(tubes[i], rng, n_s=2) for i in picks])
        pts = np.concatenate([uniform if fam == 1 else uniform[:, [1, 0, 2]] * [1, 1, -1], shells])
        expected = oracle_multiplicity(tubes, pts)
        assert np.array_equal(net_multiplicity(spec, pts, fam), expected)
        assert expected.max() >= 2
