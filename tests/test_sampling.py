"""The row-major tube-point sampling path against its (n, 3) oracle,
`sampling_reference`, bit for bit and generator state for generator state."""

import math

import numpy as np
import pytest
import sampling_reference as ref

from heislab import _bulk, cli, integrals, projection
from heislab.families import build_bush
from heislab.heis import E1, E2, HDirection, HPoint
from heislab.integrals import _default_tube_region
from heislab.projection import (
    projection_containment_ratio,
    tube_draws,
    tube_points_sample,
)
from heislab.tubes import HTube, tube_bounding_box, tube_params, tubes_from_params

# dyadic radii scale exactly; 0.3 also tests the rounding of each scaling
DELTAS = [1.0, 0.3] + [2.0 ** -k for k in range(1, 11)]
# with n = 32 the first round of 64 rows keeps fewer than 32 points at this
# seed, so the sampler draws a second round
SECOND_ROUND_SEED = 61


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 64, 5000])
@pytest.mark.parametrize("delta", DELTAS)
def test_sample_gauge_ball_equals_reference(n, delta):
    fast_rng, ref_rng = np.random.default_rng([n, 5]), np.random.default_rng([n, 5])
    z = _bulk.sample_gauge_ball(fast_rng, delta, n)
    assert z.shape == (3, n)
    assert same_bits(z.T, ref.sample_gauge_ball(ref_rng, delta, n))
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("delta", [1.0, 2.0 ** -5])
def test_sample_gauge_ball_second_round_equals_reference(delta):
    probe = np.random.default_rng(SECOND_ROUND_SEED)
    first = probe.random((64, 3)) * 2.0 - 1.0
    first[:, :2] *= delta
    first[:, 2] *= 0.25 * delta * delta
    assert np.count_nonzero(_bulk.norm4(first) <= delta ** 4) < 32
    fast_rng = np.random.default_rng(SECOND_ROUND_SEED)
    ref_rng = np.random.default_rng(SECOND_ROUND_SEED)
    z = _bulk.sample_gauge_ball(fast_rng, delta, 32)
    assert same_bits(z.T, ref.sample_gauge_ball(ref_rng, delta, 32))
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    assert fast_rng.bit_generator.state != probe.bit_generator.state


@pytest.mark.parametrize(
    "delta, n",
    [(math.nan, 3), (-0.5, 3), (0.0, 3), (math.inf, 3), (-math.inf, 3),
     (0.5, -1), (0.5, 2.5), (0.5, "3")],
)
def test_sample_gauge_ball_rejects_bad_input_before_drawing(delta, n):
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        _bulk.sample_gauge_ball(rng, delta, n)
    assert rng.bit_generator.state == before


def experiment_tubes(seed, delta_exps=range(4, 9), n_tubes=20):
    """The tubes of `projection-containment` at each rung, with each one's
    sample seeds."""
    out = []
    for k in delta_exps:
        tubes = ref.random_tubes(np.random.default_rng([seed]), 2.0 ** -k, n_tubes, 0.5)
        out += [(tube, (seed, i)) for i, tube in enumerate(tubes)]
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_tube_points_sample_equals_reference(seed):
    for tube, s in experiment_tubes(seed)[::7]:
        for n in (1, 64, 5000):
            assert same_bits(tube_points_sample(tube, n, s), ref.tube_points_sample(tube, n, s))


@pytest.mark.parametrize("seed", [0, 1])
def test_containment_ratio_equals_reference_on_experiment_tubes(seed):
    for tube, s in experiment_tubes(seed):
        got = projection_containment_ratio(tube, *tube_draws(tube.delta, 5000, s))
        assert got == ref.projection_containment_ratio(tube, 5000, s)


def test_bounding_box_equals_reference_core_ends():
    for tube, _ in experiment_tubes(2)[::3]:
        ends = ref.core_points(tube.center, tube.dir.a, tube.dir.b, np.array([-0.5, 0.5]))
        d = tube.delta
        reach = np.hypot(ends[:, 0], ends[:, 1]).max() + d
        tmargin = 0.25 * d * d + 0.5 * d * reach
        want = np.array([
            [ends[:, 0].min() - d, ends[:, 0].max() + d],
            [ends[:, 1].min() - d, ends[:, 1].max() + d],
            [ends[:, 2].min() - tmargin, ends[:, 2].max() + tmargin],
        ])
        assert same_bits(tube_bounding_box(tube_params([tube]))[0], want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_experiment_equals_per_sample_reference(seed):
    got = cli.EXPERIMENTS["fiber-length"](delta_exps=[5, 6], samples=60, seed=seed).rows
    assert got == ref.fiber_rows([5, 6], 60, seed, ref.random_tubes)


def drawn_tubes_and_offsets(monkeypatch, name, seed, **options):
    """Every tube an experiment measures and every gauge-ball offset it
    draws, as sets of rows."""
    tubes, offsets = set(), set()
    sample, ratio, fiber = (_bulk.sample_gauge_ball, cli.projection_containment_ratio,
                            cli.fiber_length)

    def draw(rng, delta, n):
        z = sample(rng, delta, n)
        offsets.update(map(tuple, z.T.tolist()))
        return z

    def seen(*measured):
        tubes.update((*t.center.as_tuple(), t.dir.a, t.dir.b, t.delta) for t in measured)

    def fibers(measured, w, res):
        seen(*tubes_from_params(measured))
        return fiber(measured, w, res)

    monkeypatch.setattr(_bulk, "sample_gauge_ball", draw)
    monkeypatch.setattr(cli, "projection_containment_ratio",
                        lambda tube, s, z: seen(tube) or ratio(tube, s, z))
    monkeypatch.setattr(cli, "fiber_length", fibers)
    cli.EXPERIMENTS[name](seed=seed, **options)
    monkeypatch.undo()
    return tubes, offsets


@pytest.mark.parametrize("name, options, n_tubes, n_offsets", [
    # past 1,000 samples the former keys seed * 1000 + i gave seed s's sample
    # 1000 + i the stream of seed s + 1's sample i
    ("fiber-length", dict(delta_exps=[5, 6], samples=1200), 2400, 2400),
    # the former keys seed + i gave seed s's tube i + 1 the stream of seed
    # s + 1's tube i, for all but one of the 20 tube indices; its 20 tubes are
    # measured at both rungs
    ("projection-containment", dict(delta_exps=[4, 5], samples=2000), 40, 2000),
])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_neighbouring_seeds_share_no_tube_and_no_point(
    monkeypatch, name, options, n_tubes, n_offsets, seed
):
    tubes, offsets = drawn_tubes_and_offsets(monkeypatch, name, seed, **options)
    next_tubes, next_offsets = drawn_tubes_and_offsets(monkeypatch, name, seed + 1, **options)
    assert len(tubes) == len(next_tubes) == n_tubes
    assert len(offsets) == len(next_offsets) == n_offsets
    assert not tubes & next_tubes
    assert not offsets & next_offsets


@pytest.mark.parametrize("k", [1, 8, 100, _bulk.EXACT_DILATION_EXP])
@pytest.mark.parametrize("n", [1, 64, 5000])
def test_dilated_unit_draws_equal_draws_at_dyadic_delta(k, n):
    # 2^-k only shifts exponents, so every draw and every rejection is the same
    d = 2.0 ** -k
    for seed in (0, 1, 2):
        s_unit, z_unit = tube_draws(1.0, n, seed)
        s, z = tube_draws(d, n, seed)
        assert same_bits(s_unit, s)
        dilated = _bulk.dilate(d, z_unit)
        assert dilated.shape == z.shape == (3, n)
        assert np.array_equal(dilated.view(np.int64), z.view(np.int64))


@pytest.mark.parametrize("samples", [39, 999, 100_000])
@pytest.mark.parametrize("delta_exps", [range(4, 9), range(1, 13)], ids=["4..8", "1..12"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_experiment_equals_per_rung_reference(seed, delta_exps, samples):
    got = cli.EXPERIMENTS["projection-containment"](
        delta_exps=delta_exps, samples=samples, seed=seed
    )
    rows, closest = ref.projection_rows(delta_exps, samples, seed, ref.random_tubes)
    assert got.rows == rows
    assert got.extras["sampled_over_exact"] == closest


@pytest.mark.parametrize("min_axis_sum", [0.5, 1 / math.sqrt(2), 1.4])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 1000])
def test_random_tubes_are_unit_and_far_from_the_fiber_line(n, min_axis_sum):
    tubes = tubes_from_params(
        cli._random_tubes(np.random.default_rng([n, 9]), 2.0 ** -6, n, min_axis_sum))
    assert len(tubes) == n
    assert all(t.delta == 2.0 ** -6 for t in tubes)
    a, b = (np.array([getattr(t.dir, c) for t in tubes]) for c in "ab")
    assert np.all(np.abs(a * a + b * b - 1.0) <= 4e-16)
    assert np.all(np.abs(a + b) >= min_axis_sum)


def test_random_tubes_draw_angles_in_rows_then_centers():
    # at |a + b| >= 1.4 about 10 % of the angles pass, so the sampler runs
    # several rounds before it draws the centers
    rng, probe = np.random.default_rng(4), np.random.default_rng(4)
    tubes = tubes_from_params(cli._random_tubes(rng, 0.25, 10, 1.4))
    dirs, rounds = [], 0
    while len(dirs) < 10:
        theta = probe.uniform(-math.pi, math.pi, max(2 * (10 - len(dirs)), 64))
        dirs += [(a, b) for a, b in zip(np.cos(theta).tolist(), np.sin(theta).tolist())
                 if abs(a + b) >= 1.4]
        rounds += 1
    g = probe.normal(scale=0.15, size=(3, 10)).tolist()
    assert rounds > 1
    assert [(t.dir.a, t.dir.b) for t in tubes] == dirs[:10]
    assert [t.center.as_tuple() for t in tubes] == [(x, y, 0.25 * t) for x, y, t in zip(*g)]
    assert rng.bit_generator.state == probe.bit_generator.state


@pytest.mark.parametrize("n, min_axis_sum", [
    (-1, 0.5), (2.5, 0.5), ("3", 0.5),
    (3, 0.0), (3, -0.5), (3, math.sqrt(2)), (3, 1.5), (3, math.nan),
])
def test_random_tubes_reject_bad_input_before_drawing(n, min_axis_sum):
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        cli._random_tubes(rng, 0.25, n, min_axis_sum)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("n, min_axis_sum", [
    (0, 0.5), (1, 0.5), (63, 1 / math.sqrt(2)), (1000, 1 / math.sqrt(2)), (10, 1.4),
])
def test_random_tubes_table_equals_reference_tube_list(n, min_axis_sum):
    rng, ref_rng = np.random.default_rng([n, 3]), np.random.default_rng([n, 3])
    got = cli._random_tubes(rng, 2.0 ** -6, n, min_axis_sum)
    want = tube_params(ref.random_tubes(ref_rng, 2.0 ** -6, n, min_axis_sum))
    assert got.shape == (6, n) and same_bits(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def axis_and_flat_tubes(delta):
    """Tubes along +-e1 and +-e2, and two with a + b = 0."""
    r = math.sqrt(0.5)
    dirs = [E1, E2, HDirection(-1.0, 0.0), HDirection(0.0, -1.0),
            HDirection(r, -r), HDirection(-r, r)]
    return [HTube(HPoint(0.3 * i - 0.5, 0.1 * i, -0.02 * i), e, delta) for i, e in enumerate(dirs)]


def test_table_bounding_boxes_equal_per_tube_reference():
    fiber_tubes = ref.random_tubes(np.random.default_rng([0, 6, 17]), 2.0 ** -6, 1000,
                                   1 / math.sqrt(2))
    family = ([t for t, _ in experiment_tubes(0)] + fiber_tubes
              + axis_and_flat_tubes(2.0 ** -5) + axis_and_flat_tubes(0.75))
    boxes = tube_bounding_box(tube_params(family))
    assert boxes.shape == (len(family), 3, 2)
    assert same_bits(boxes, np.stack([ref.bounding_box(t) for t in family]))
    assert tube_bounding_box(tube_params([])).shape == (0, 3, 2)


@pytest.mark.parametrize("k", range(4, 9))
def test_tube_region_on_the_bush_equals_per_tube_boxes(monkeypatch, k):
    t1, t2 = build_bush(2.0 ** -k)
    b1, b2 = (np.stack([ref.bounding_box(t) for t in family]) for family in (t1, t2))
    lo = np.maximum(b1[:, :, 0].min(axis=0), b2[:, :, 0].min(axis=0))
    hi = np.minimum(b1[:, :, 1].max(axis=0), b2[:, :, 1].max(axis=0))
    calls, box = [], integrals.tube_bounding_box
    monkeypatch.setattr(integrals, "tube_bounding_box", lambda p: calls.append(p.shape) or box(p))
    region = _default_tube_region(tube_params(t1 + t2), len(t1))
    assert same_bits(region, np.stack([lo, hi], axis=1))
    # the two families' tubes are boxed in one call
    assert calls == [(6, len(t1) + len(t2))]


def test_fiber_length_experiment_builds_no_tube_objects(monkeypatch):
    made, tables, boxes = [], [], []
    init, box = HTube.__post_init__, projection.tube_bounding_box
    monkeypatch.setattr(HTube, "__post_init__", lambda tube: made.append(tube) or init(tube))
    for module in ("cli", "projection", "tubes"):
        monkeypatch.setattr(f"heislab.{module}.tube_params", lambda *a: tables.append(a))
    monkeypatch.setattr(projection, "tube_bounding_box", lambda p: boxes.append(p.shape) or box(p))
    rows = cli.EXPERIMENTS["fiber-length"](delta_exps=[5, 6], samples=300, seed=0).rows
    assert [r[:2] for r in rows] == [[2.0 ** -5, 300], [2.0 ** -6, 300]]
    assert made == [] and tables == []
    # one box call per rung, on its tubes with |a + b| < 0.1: none here
    assert boxes == [(6, 0), (6, 0)]
