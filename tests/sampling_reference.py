"""Row-major oracles of the tube-point sampling path.

`_bulk.sample_gauge_ball`, `_bulk.tube_points`, `projection.tube_points_sample`
and `projection.projection_containment_ratio` work on three contiguous rows
x, y, t.  These are the (n, 3) bodies they replaced: the same generator draws
and the same elementwise operations on (n, 3) arrays, with boolean row
gathers.  `fiber_rows` and `projection_rows` are the experiments' loops
one sample or one tube at a time, drawing every tube's points afresh at its
delta, `exact_containment_ratio` the closed form in scalar floats, and
`fiber_length` the former one-sample fiber count, one kernel call per
sample, in the window of `bounding_box`, one tube's box.
`random_tubes` is the experiments' tube sampler as it returned `HTube`s.
The tests pin the row path to them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from core_distance_reference import frame_distance
from heislab import _bulk
from heislab.heis import HDirection, HPoint
from heislab.projection import PlanePoint, tube_to_curve
from heislab.tubes import HTube


def sample_gauge_ball(rng: np.random.Generator, delta: float, n: int) -> np.ndarray:
    """Uniform points of the gauge ball B(0, delta), by rejection from its box."""
    out = np.empty((0, 3))
    while out.shape[0] < n:
        m = max(2 * (n - out.shape[0]), 64)
        z = rng.random((m, 3)) * 2.0 - 1.0
        z[:, :2] *= delta
        z[:, 2] *= 0.25 * delta * delta
        keep = _bulk.norm4(z) <= delta ** 4
        out = np.vstack([out, z[keep]])
    return out[:n]


def core_points(center, dir_a: float, dir_b: float, s) -> np.ndarray:
    """Core points center * (s*e) for an array of parameters s, as (n, 3)."""
    s = np.asarray(s, dtype=np.float64)
    se = np.stack([s * dir_a, s * dir_b, np.zeros_like(s)], axis=-1)
    carr = np.array(center.as_tuple(), dtype=np.float64)
    return _bulk.mul(carr, se)


def random_tubes(rng, delta, n, min_axis_sum) -> list:
    """n random tubes of radius delta with |a + b| >= min_axis_sum: angles
    in rejection rounds of rng.uniform(-pi, pi, max(2 * wanted, 64)), then
    the centers as one rng.normal(scale=0.15, size=(3, n)) block, t scaled by
    1/4, each row wrapped in its `HTube`."""
    a, b = np.empty(0), np.empty(0)
    while len(a) < n:
        theta = rng.uniform(-math.pi, math.pi, max(2 * (n - len(a)), 64))
        ca, cb = np.cos(theta), np.sin(theta)
        keep = np.abs(ca + cb) >= min_axis_sum
        a, b = np.concatenate([a, ca[keep]]), np.concatenate([b, cb[keep]])
    g = rng.normal(scale=0.15, size=(3, n))
    g[2] *= 0.25
    return [HTube(HPoint(x, y, t), HDirection(da, db), delta)
            for x, y, t, da, db in zip(*g.tolist(), a[:n].tolist(), b[:n].tolist())]


def bounding_box(tube) -> np.ndarray:
    """One tube's (3, 2) box: its core ends widened by delta horizontally and
    by delta^2/4 plus delta/2 times the horizontal reach vertically."""
    ends = core_points(tube.center, tube.dir.a, tube.dir.b, np.array([-0.5, 0.5]))
    d = tube.delta
    reach = np.hypot(ends[:, 0], ends[:, 1]).max() + d
    tmargin = 0.25 * d * d + 0.5 * d * reach
    return np.array([
        [ends[:, 0].min() - d, ends[:, 0].max() + d],
        [ends[:, 1].min() - d, ends[:, 1].max() + d],
        [ends[:, 2].min() - tmargin, ends[:, 2].max() + tmargin],
    ])


def tube_points_sample(tube, n: int, seed=0) -> np.ndarray:
    """n points of the tube: core(s) * z with s uniform, z uniform in the ball,
    drawn from default_rng([seed, 17]), or from default_rng([*seed, 17]) for
    a tuple of seeds."""
    rng = np.random.default_rng([*(seed if isinstance(seed, tuple) else (seed,)), 17])
    s = rng.random(n) - 0.5
    z = sample_gauge_ball(rng, tube.delta, n)
    cores = core_points(tube.center, tube.dir.a, tube.dir.b, s)
    return _bulk.mul(cores, z)


def project_W_batch(pts: np.ndarray) -> np.ndarray:
    """(n,3) group points -> (n,2) plane points."""
    out = np.empty((pts.shape[0], 2))
    out[:, 0] = 0.5 * (pts[:, 0] + pts[:, 1])
    out[:, 1] = pts[:, 2] + 0.25 * (pts[:, 0] ** 2 - pts[:, 1] ** 2)
    return out


def projection_containment_ratio(tube, samples: int, seed: int = 0) -> float:
    """Max over sampled points of T inside B(0,1) of the vertical distance of
    the projection to the projected-curve graph, divided by delta^2."""
    curve = tube_to_curve(tube)
    pts = tube_points_sample(tube, samples, seed)
    inside = _bulk.norm4(pts) <= 1.0
    pts = pts[inside]
    if pts.shape[0] == 0:
        return 0.0
    proj = project_W_batch(pts)
    u = proj[:, 0] - curve.theta0
    graph = (curve.kappa * u + curve.slope) * u + curve.offset
    return float(np.max(np.abs(proj[:, 1] - graph))) / (tube.delta ** 2)


def exact_containment_ratio(tube) -> float:
    """The closed-form sup of the containment ratio over the whole tube,
    sqrt(1 + (|kappa| + sqrt(1 + kappa^2))^2) / 4, in scalar floats."""
    kappa = tube_to_curve(tube).kappa
    mu = abs(kappa) + math.sqrt(1.0 + kappa * kappa)
    return math.sqrt(1.0 + mu * mu) / 4.0


def projection_rows(delta_exps, samples: int, seed: int, random_tubes, n_tubes=20):
    """`projection-containment`'s rows rung by rung, and the largest sampled
    ratio over exact ratio: the tubes come from default_rng([seed]) at every
    rung, each row holds the largest exact ratio, and tube i draws its own
    points at each rung's delta from the stream [seed, i, 17]."""
    rows, closest = [], 0.0
    for k in delta_exps:
        d = 2.0 ** -k
        tubes = random_tubes(np.random.default_rng([seed]), d, n_tubes, 0.5)
        for i, tube in enumerate(tubes):
            n_i = samples // n_tubes + (i < samples % n_tubes)
            sampled = projection_containment_ratio(tube, n_i, seed=(seed, i))
            closest = max(closest, sampled / exact_containment_ratio(tube))
        rows.append([d, max(map(exact_containment_ratio, tubes))])
    return rows, closest


def fiber_rows(delta_exps, samples: int, seed: int, random_tubes) -> list:
    """`fiber-length`'s rows sample by sample: the rung's stream
    default_rng([seed, k, 17]) gives the tubes, then every s, then every z;
    each sample's point is formed and projected on its own, and its fiber
    measured by its own kernel call."""
    rows = []
    for k in delta_exps:
        d = 2.0 ** -k
        rng = np.random.default_rng([seed, k, 17])
        tubes = random_tubes(rng, d, samples, 1 / math.sqrt(2))
        s = rng.random(samples) - 0.5
        z = sample_gauge_ball(rng, d, samples)
        worst, total = 0.0, 0.0
        for i, tube in enumerate(tubes):
            q = _bulk.mul(core_points(tube.center, tube.dir.a, tube.dir.b, s[i : i + 1]), z[i])
            w = project_W_batch(q)[0]
            length = fiber_length(tube, PlanePoint(w[0], w[1]), d / 100)
            worst = max(worst, length / d)
            total += length / d
        rows.append([d, samples, worst, total / samples])
    return rows


def fiber_length(tube, w: PlanePoint, resolution: float) -> float:
    """The fiber through w inside the tube, by one sample's own count: its
    resolution-spaced parameters s in the window, judged in one kernel call."""
    if not (resolution > 0.0):
        raise ValueError(f"resolution must be positive, got {resolution}")
    a, b = tube.dir.a, tube.dir.b
    axis_sum = a + b
    X = w.theta
    c = tube.center
    if abs(axis_sum) >= 0.1:
        # planar crossing of the fiber shadow (X+s, X-s) with the core line
        u_star = (2.0 * X - c.x - c.y) / axis_sum
        s_star = c.x + u_star * a - X
        halfwidth = tube.delta / abs(axis_sum)
        lo, hi = s_star - halfwidth, s_star + halfwidth
    else:
        # near-degenerate direction: fall back to the bounding-box window
        box = bounding_box(tube)
        lo = max(box[0, 0] - X, X - box[1, 1])
        hi = min(box[0, 1] - X, X - box[1, 0])
        if lo > hi:
            return 0.0
    n = int(math.floor((hi - lo) / resolution)) + 1
    s = lo + np.arange(n) * resolution
    d = frame_distance(*_bulk.tube_frame(X + s, X - s, w.height - X * s, c.as_tuple(), a, b))
    return float(np.count_nonzero(d <= tube.delta)) * resolution
