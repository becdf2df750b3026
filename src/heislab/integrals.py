"""Bilinear integral estimators and scaling-exponent extraction.

The left sides of the bilinear estimates are integrals of
(multiplicity_1)^p * (multiplicity_2)^p; they are evaluated on grids (planar
case) or by Monte Carlo (spatial case) with deterministic, shard-indexed
sample substreams: a fixed seed gives bit-identical results for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .quadratics import Quadratic, coeff_array
from .tubes import HTube, MCEstimate, _intersect_boxes, tube_bounding_box, tube_contains_batch

__all__ = [
    "SampleSpec",
    "ExponentFit",
    "fit_exponent",
    "rhs_bilinear",
    "tube_multiplicity",
    "bilinear_tube_integral",
    "bilinear_curve_integral",
    "bilinear_integral_from_multiplicity",
]

_SHARD = 65536


@dataclass(frozen=True)
class SampleSpec:
    """How to sample an integral: 'grid' with a spacing, or 'monte_carlo' with
    a sample count and seed.  The integration box is not part of the spec:
    each estimator derives it from its families, or takes it as an argument
    (`bilinear_integral_from_multiplicity`)."""

    mode: str = "monte_carlo"
    resolution: float | None = None
    samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("grid", "monte_carlo"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "grid" and self.resolution is not None and self.resolution <= 0:
            raise ValueError("grid resolution must be positive")
        if self.mode == "monte_carlo" and self.samples is not None and self.samples <= 0:
            raise ValueError(f"sample count must be positive, got {self.samples}")


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(value) against log(delta) over a ladder."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def fit_exponent(points) -> ExponentFit:
    """OLS of log value on log delta; the slope is the empirical exponent."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 ladder points, got {len(pts)}")
    for d, v in pts:
        if not (v > 0.0):
            raise ValueError(f"nonpositive value {v} at delta={d}")
    x = np.log([d for d, _ in pts])
    y = np.log([v for _, v in pts])
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    sst = float(((y - ym) ** 2).sum())
    ssr = float((resid ** 2).sum())
    r2 = 1.0 if sst <= 1e-30 else max(0.0, 1.0 - ssr / sst)
    return ExponentFit(slope, intercept, r2, tuple(zip(x.tolist(), y.tolist())))


def rhs_bilinear(
    n1: int, n2: int, delta: float, p: float, form: str, rho: float | None = None
) -> float:
    """Right sides of the bilinear estimates (epsilon loss dropped).

    tube:  delta^4 * (n1^p n2^p + n1 + n2)
    curve: rho^(-1/2) delta^(3/2) * (n1^p n2^p + n1 + n2)
    naive: delta^4 * n1^(3/4) n2^(3/4)
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("family counts must be at least 1")
    if form == "tube":
        return delta ** 4 * (n1 ** p * n2 ** p + n1 + n2)
    if form == "curve":
        if rho is None:
            raise ValueError("curve form needs rho")
        return rho ** -0.5 * delta ** 1.5 * (n1 ** p * n2 ** p + n1 + n2)
    if form == "naive":
        return delta ** 4 * n1 ** 0.75 * n2 ** 0.75
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# multiplicity kernels


def tube_multiplicity(tubes: list[HTube], pts: np.ndarray) -> np.ndarray:
    """Number of tubes containing each point (exact membership test)."""
    pts = _bulk.finite_points(pts)
    m = np.zeros(pts.shape[0], dtype=np.int64)
    for tube in tubes:
        m += tube_contains_batch(tube, pts)
    return m


def _family_box(tubes: list[HTube]) -> np.ndarray:
    boxes = np.stack([tube_bounding_box(t) for t in tubes])
    out = np.empty((3, 2))
    out[:, 0] = boxes[:, :, 0].min(axis=0)
    out[:, 1] = boxes[:, :, 1].max(axis=0)
    return out


def _default_tube_region(t1: list[HTube], t2: list[HTube]) -> np.ndarray | None:
    """Intersection of the two families' bounding boxes (the support of the
    multiplicity product), clipped to the box of the gauge ball B(0, 2)."""
    box = np.array([[-2.0, 2.0], [-2.0, 2.0], [-1.0, 1.0]])
    for fam in (t1, t2):
        box = _intersect_boxes(box, _family_box(fam))
        if box is None:
            return None
    return box


def bilinear_integral_from_multiplicity(
    m1_fn,
    m2_fn,
    region: np.ndarray,
    p: float,
    spec: SampleSpec,
    workers: int = 1,
) -> MCEstimate:
    """Integral of m1(x)^p * m2(x)^p over a box from two multiplicity callables."""
    lo = np.asarray(region, dtype=np.float64)[:, 0]
    hi = np.asarray(region, dtype=np.float64)[:, 1]
    vol = float(np.prod(hi - lo))
    dim = len(lo)

    if spec.mode == "grid":
        res = spec.resolution
        if res is None:
            raise ValueError("grid mode needs a resolution")
        # parabolic scaling: spatial regions are delta^2-thin vertically, so
        # the third axis is gridded at res^2
        steps = [res] * dim
        if dim == 3:
            steps[2] = res * res
        axes = []
        for i in range(dim):
            n_i = max(1, int(np.ceil((hi[i] - lo[i]) / steps[i])))
            axes.append(lo[i] + (np.arange(n_i) + 0.5) * steps[i])
        cell = float(np.prod(steps))
        total = 0.0
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        for start in range(0, mesh.shape[0], _SHARD):
            chunk = mesh[start : start + _SHARD]
            v = m1_fn(chunk).astype(np.float64) ** p * m2_fn(chunk).astype(np.float64) ** p
            total += float(v.sum())
        return MCEstimate(total * cell, 0.0, mesh.shape[0])

    samples = spec.samples or 1_000_000
    n_shards = (samples + _SHARD - 1) // _SHARD

    def run_shard(idx: int) -> tuple[float, float, int]:
        n = min(_SHARD, samples - idx * _SHARD)
        rng = np.random.default_rng([spec.seed, idx])
        pts = lo + rng.random((n, dim)) * (hi - lo)
        v = m1_fn(pts).astype(np.float64) ** p * m2_fn(pts).astype(np.float64) ** p
        return float(v.sum()), float((v * v).sum()), n

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_shard, range(n_shards)))
    else:
        results = [run_shard(i) for i in range(n_shards)]
    total = math.fsum(r[0] for r in results)
    total_sq = math.fsum(r[1] for r in results)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(vol * mean, vol * math.sqrt(var / samples), samples)


def bilinear_tube_integral(
    t1: list[HTube],
    t2: list[HTube],
    p: float,
    spec: SampleSpec,
    workers: int = 1,
) -> MCEstimate:
    """Integral of (sum of t1 indicators)^p * (sum of t2 indicators)^p.

    The region is the intersection of the two families' bounding
    boxes clipped to the ball of gauge radius 2; the integrand vanishes
    outside it.
    """
    if not (p > 0.0):
        raise ValueError(f"exponent p must be positive, got {p}")
    if not t1 or not t2:
        raise ValueError("tube families must be nonempty")
    region = _default_tube_region(t1, t2)
    if region is None:
        return MCEstimate(0.0, 0.0, 0)
    return bilinear_integral_from_multiplicity(
        lambda pts: tube_multiplicity(t1, pts),
        lambda pts: tube_multiplicity(t2, pts),
        region,
        p,
        spec,
        workers,
    )


def _curve_grid_multiplicities(
    coeffs: np.ndarray, s_axis: np.ndarray, res: float, ny: int, delta: float
) -> np.ndarray:
    """Multiplicity table (len(s_axis), ny) of |f(s) - y| <= delta counts,
    built per curve by interval differencing along each s-column."""
    ns = len(s_axis)
    diff = np.zeros(ns * (ny + 1), dtype=np.int64)
    cols = np.arange(ns)
    for a, b, c in coeffs:
        f = (0.5 * a * s_axis + b) * s_axis + c
        lo = np.ceil((f - delta) / res - 0.5).astype(np.int64)
        hi = np.floor((f + delta) / res - 0.5).astype(np.int64)
        np.clip(lo, 0, ny, out=lo)
        np.clip(hi, -1, ny - 1, out=hi)
        valid = lo <= hi
        if not valid.any():
            continue
        base = cols[valid] * (ny + 1)
        np.add.at(diff, base + lo[valid], 1)
        np.add.at(diff, base + hi[valid] + 1, -1)
    return np.cumsum(diff.reshape(ns, ny + 1), axis=1)[:, :ny]


def bilinear_curve_integral(
    F: list[Quadratic],
    G: list[Quadratic],
    delta: float,
    p: float,
    spec: SampleSpec,
    workers: int = 1,
) -> MCEstimate:
    """Integral over the unit square of (F-strip multiplicity)^p times
    (G-strip multiplicity)^p, membership being |f(s) - y| <= delta."""
    if not (p > 0.0):
        raise ValueError(f"exponent p must be positive, got {p}")
    fc = coeff_array(F)
    gc = coeff_array(G)

    if spec.mode == "grid":
        res = spec.resolution if spec.resolution is not None else delta / 4.0
        n = max(2, int(round(1.0 / res)))
        res = 1.0 / n
        s_axis = (np.arange(n) + 0.5) * res
        m1 = _curve_grid_multiplicities(fc, s_axis, res, n, delta)
        m2 = _curve_grid_multiplicities(gc, s_axis, res, n, delta)
        v = m1.astype(np.float64) ** p * m2.astype(np.float64) ** p
        return MCEstimate(float(v.sum()) * res * res, 0.0, n * n)

    def mult(coeffs):
        def fn(pts):
            m = np.zeros(pts.shape[0], dtype=np.int64)
            s, y = pts[:, 0], pts[:, 1]
            for a, b, c in coeffs:
                f = (0.5 * a * s + b) * s + c
                m += np.abs(f - y) <= delta
            return m

        return fn

    region = np.array([[0.0, 1.0], [0.0, 1.0]])
    return bilinear_integral_from_multiplicity(
        mult(fc), mult(gc), region, p, spec, workers
    )
