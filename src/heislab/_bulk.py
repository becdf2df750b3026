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
    centers: np.ndarray, dir_a: float, dir_b: float, pts: np.ndarray
) -> np.ndarray:
    """Exact gauge distance from each point to the unit core segment of a tube.

    The core is {center * (s*e) : s in [-1/2, 1/2]}; `centers` is one center
    or one per point (broadcastable against the (n, 3) point array).

    With u = center^{-1} * p, beta = a*u0 + b*u1, gamma = b*u0 - a*u1,
    w = u2 + gamma*beta/2 and x = s - beta, a unit direction gives
    beta^2 + gamma^2 = u0^2 + u1^2, so the fourth power of the distance to
    the core point at s is the quartic

        q(x) = (x^2 + gamma^2)^2 + (4*w + 2*gamma*x)^2,
        q'(x) = 4*(x^3 + 3*gamma^2*x + 4*gamma*w).

    The cubic has p = 3*gamma^2 >= 0, hence exactly one real root x*: q falls
    and then rises, and its minimum over the segment is at
    s* = clip(beta + x*, -1/2, 1/2).  Cardano's formula in the form that
    avoids cancellation gives x* = T - gamma^2/T with
    T = cbrt(-2*gamma*w - copysign(sqrt(4*gamma^2*w^2 + gamma^6), gamma*w));
    T = 0 only when gamma = 0, and then x* = 0.  The quartic is evaluated in
    these centred coordinates, where no expanded coefficient cancels.  Every
    step is elementwise, so a point's distance does not depend on its batch.
    """
    pts = finite_points(pts)
    u = mul(inv(np.asarray(centers, dtype=np.float64)), pts)  # center^{-1} * p
    u0, u1, u2 = u[:, 0], u[:, 1], u[:, 2]

    beta = dir_a * u0 + dir_b * u1
    gamma = dir_b * u0 - dir_a * u1
    w = u2 + 0.5 * gamma * beta
    g2 = gamma * gamma
    gw = gamma * w
    t = np.cbrt(-2.0 * gw - np.copysign(np.sqrt(4.0 * gw * gw + g2 * g2 * g2), gw))
    root = t - np.divide(g2, t, out=np.zeros_like(t), where=t != 0.0)
    x = np.clip(beta + root, -0.5, 0.5) - beta
    h = x * x + g2
    v = 4.0 * w + 2.0 * gamma * x
    return (h * h + v * v) ** 0.25


def core_points(center: HPoint, dir_a: float, dir_b: float, s: np.ndarray) -> np.ndarray:
    """Core points center * (s*e) for an array of parameters s."""
    s = np.asarray(s, dtype=np.float64)
    se = np.stack([s * dir_a, s * dir_b, np.zeros_like(s)], axis=-1)
    carr = np.array(center.as_tuple(), dtype=np.float64)
    return mul(carr, se)
