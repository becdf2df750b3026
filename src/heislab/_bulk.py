"""Vectorized kernels shared by the tube, projection and integral modules.

Points are float64 arrays of shape (n, 3).  These mirror the scalar closed
forms in `heis` exactly; tests cross-check the two paths.
"""

from __future__ import annotations

import numpy as np

from .heis import HPoint


def finite_points(pts) -> np.ndarray:
    """Coerce to a float64 (n, 3) array, rejecting NaN and inf coordinates."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    return pts


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=np.float64)
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + q[..., 1]
    out[..., 2] = (
        p[..., 2] + q[..., 2] + 0.5 * (p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1])
    )
    return out


def inv(p: np.ndarray) -> np.ndarray:
    return -p


def norm4(p: np.ndarray) -> np.ndarray:
    """Fourth power of the gauge; cheaper than the gauge in inner loops."""
    r2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return r2 * r2 + 16.0 * p[..., 2] ** 2


def norm(p: np.ndarray) -> np.ndarray:
    return norm4(p) ** 0.25


def sample_gauge_ball(rng: np.random.Generator, delta: float, n: int) -> np.ndarray:
    """Uniform points of the gauge ball B(0, delta), by rejection from its box."""
    out = np.empty((0, 3))
    while out.shape[0] < n:
        m = max(2 * (n - out.shape[0]), 64)
        z = rng.random((m, 3)) * 2.0 - 1.0
        z[:, :2] *= delta
        z[:, 2] *= 0.25 * delta * delta
        keep = norm4(z) <= delta ** 4
        out = np.vstack([out, z[keep]])
    return out[:n]


def core_distance_elementwise(
    centers: np.ndarray,
    dir_a: float,
    dir_b: float,
    pts: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Gauge distance from each point to the unit core segment of a tube.

    The core is {center * (s*e) : s in [-1/2, 1/2]}; `centers` is one center
    or one per point (broadcastable against the (n, 3) point array).  For a
    fixed point the fourth power of the distance to the core point at
    parameter s is an explicit quartic in s, so the 1-D minimization
    evaluates that quartic on 64 uniform values of s and refines the best
    bracket by ternary search down to an s-width of `tol`.
    """
    pts = finite_points(pts)
    u = mul(inv(np.asarray(centers, dtype=np.float64)), pts)  # center^{-1} * p
    u0, u1, u2 = u[:, 0], u[:, 1], u[:, 2]

    # ||(-s*e) * u||^4 = (s^2 - 2*beta*s + r2)^2 + 16*(u2 + gamma*s/2)^2
    beta = dir_a * u0 + dir_b * u1
    gamma = dir_b * u0 - dir_a * u1
    r2 = u0 * u0 + u1 * u1
    c3 = -4.0 * beta
    c2 = 4.0 * beta * beta + 2.0 * r2 + 4.0 * gamma * gamma
    c1 = -4.0 * beta * r2 + 16.0 * u2 * gamma
    c0 = r2 * r2 + 16.0 * u2 * u2

    def quartic(s):
        return (((s + c3) * s + c2) * s + c1) * s + c0

    grid = np.linspace(-0.5, 0.5, 64)
    best_val = np.full(pts.shape[0], np.inf)
    best_idx = np.zeros(pts.shape[0], dtype=np.int64)
    for i, s in enumerate(grid):
        v = quartic(s)
        better = v < best_val
        best_val = np.where(better, v, best_val)
        best_idx = np.where(better, i, best_idx)

    step = grid[1] - grid[0]
    lo = np.maximum(grid[best_idx] - step, -0.5)
    hi = np.minimum(grid[best_idx] + step, 0.5)
    while np.max(hi - lo) > tol:
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        right_smaller = quartic(m2) < quartic(m1)
        lo = np.where(right_smaller, m1, lo)
        hi = np.where(right_smaller, hi, m2)

    val = np.minimum(best_val, quartic(0.5 * (lo + hi)))
    return np.maximum(val, 0.0) ** 0.25


def core_points(center: HPoint, dir_a: float, dir_b: float, s: np.ndarray) -> np.ndarray:
    """Core points center * (s*e) for an array of parameters s."""
    s = np.asarray(s, dtype=np.float64)
    se = np.stack([s * dir_a, s * dir_b, np.zeros_like(s)], axis=-1)
    carr = np.array(center.as_tuple(), dtype=np.float64)
    return mul(carr, se)
