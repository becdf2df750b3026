"""Richness counting, greedy incomparable families, the incidence bound
oracle, quantitative broadness, broad/narrow classification."""

import math

import broadness_reference
import jet_reference as ref
import numpy as np
import pytest

from heislab.families import build_bipartite_balls, build_clamshell, build_opposed_pair
from heislab.incidence import (
    Richness,
    TangencyScale,
    classify_broad_narrow,
    max_incomparable_rich,
    quad_broadness,
    richness_of,
    wolff_bound_check,
)
from heislab.quadratics import (
    Quadratic,
    comparable,
    delta_gauge,
    dt_rectangle,
    is_tangent_containment,
    is_tangent_jet,
)
from heislab.tubes import ProbeSpec


def test_type_validation():
    with pytest.raises(ValueError):
        Richness(-1, 0)
    with pytest.raises(ValueError):
        TangencyScale(0.5, 0.1, 0.2)
    with pytest.raises(ValueError):
        TangencyScale(2.0, 0.2, 0.1)
    TangencyScale(2.0, 0.01, 0.1)


def test_richness_empty_families():
    r = dt_rectangle(Quadratic(1, 0, 0), 0.0, 2.0 ** -6, 2.0 ** -2)
    assert richness_of(r, [], []) == Richness(0, 0)


def test_richness_own_curve():
    q = Quadratic(0.5, -0.3, 1.0)
    r = dt_rectangle(q, 0.2, 2.0 ** -6, 2.0 ** -2)
    assert richness_of(r, [q], []) == Richness(1, 0)


def test_richness_cross_validates_with_containment(rng):
    # the jet count never misses a containment-tangent curve at matched
    # constants: containment(2) implies jet(8) via the base Markov bounds
    for _ in range(500):
        delta = 2.0 ** rng.uniform(-8, -4)
        t = 2.0 ** rng.uniform(math.log2(delta), 0)
        center = Quadratic(*rng.normal(size=3))
        rect = dt_rectangle(center, rng.uniform(-1, 1), delta, t)
        f = Quadratic(
            center.a + 3 * t * rng.uniform(-1, 1),
            center.b + 3 * math.sqrt(delta * t) * rng.uniform(-1, 1),
            center.c + 3 * delta * rng.uniform(-1, 1),
        )
        if is_tangent_containment(f, rect, 2.0):
            assert is_tangent_jet(f, rect, 8.0)
        if is_tangent_jet(f, rect, 1.0):
            assert is_tangent_containment(f, rect, 4.0)


def test_greedy_single_tangency_site():
    pair = build_opposed_pair(2.0 ** -8, 1.0)
    rects = max_incomparable_rich(list(pair.F), list(pair.G), 2.0 ** -8, 1.0, 1, 1)
    assert 1 <= len(rects) <= 4
    for r in rects:
        rich = richness_of(r, list(pair.F), list(pair.G))
        assert rich.mu >= 1 and rich.nu >= 1


def test_greedy_trivial_pair_at_zero_gauge():
    q = Quadratic(1, 0, 0)
    rects = max_incomparable_rich([q], [q], 2.0 ** -6, 2.0 ** -2, 1, 1)
    assert len(rects) >= 1


def test_greedy_output_is_incomparable_and_rich():
    F, G, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 256)
    rects = max_incomparable_rich(F, G, 2.0 ** -8, 1.0, 16, 4)
    assert rects
    for i, r in enumerate(rects):
        rich = richness_of(r, F, G)
        assert rich.mu >= 16 and rich.nu >= 4
        for s in rects[:i]:
            assert not comparable(r, s)


def test_greedy_deterministic():
    F, G, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 256)
    a = max_incomparable_rich(F, G, 2.0 ** -8, 1.0, 16, 4)
    b = max_incomparable_rich(F, G, 2.0 ** -8, 1.0, 16, 4)
    assert a == b


def test_clamshell_rectangle_count_scaling():
    # pairwise-disjoint subdivisions per row: t^{-1/2} * N / mu of them
    delta, t, mu, nu, n = 2.0 ** -8, 2.0 ** -4, 16, 4, 256
    _, _, R = build_clamshell(delta, t, mu, nu, n)
    assert len(R) == round(t ** -0.5 * n / mu) == round(delta ** -0.5 * n / mu ** 1.5)


def test_wolff_bound_on_random_instances(rng):
    d, rho = 2.0 ** -5, 0.25
    pair = build_bipartite_balls(d, rho)
    F, G = list(pair.F), list(pair.G)
    for i in range(5):
        fi = sorted(rng.choice(len(F), size=32, replace=False).tolist())
        gi = sorted(rng.choice(len(G), size=32, replace=False).tolist())
        chk = wolff_bound_check([F[j] for j in fi], [G[j] for j in gi], d, pair.rho, 1, 1)
        assert chk.bipartite_ok
        assert chk.ok


def test_wolff_bound_reports_bipartite_failure():
    F, G, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 256)
    chk = wolff_bound_check(F, G, 2.0 ** -8, 1.0, 16, 4)
    assert not chk.bipartite_ok  # reported, not fatal
    assert chk.note
    assert chk.ok  # the incidence bound itself holds comfortably


def test_wolff_bound_singletons():
    pair = build_opposed_pair(2.0 ** -6, 1.0)
    chk = wolff_bound_check(list(pair.F), list(pair.G), 2.0 ** -6, 1.0, 1, 1)
    assert chk.count <= 4
    assert chk.bound >= 1.0
    assert chk.ok


def test_wolff_bound_validates_inputs():
    with pytest.raises(ValueError):
        wolff_bound_check([], [Quadratic(0, 0, 0)], 0.1, 0.5, 1, 1)
    with pytest.raises(ValueError):
        wolff_bound_check([Quadratic(0, 0, 0)], [Quadratic(1, 0, 0)], 0.1, 0.5, 0, 1)


def test_quad_broadness_singleton():
    rep = quad_broadness([Quadratic(1, 0, 0)], 2.0 ** -5, 1.0)
    assert rep.worst_ratio <= 1.0


def test_quad_broadness_clamshell_ratios():
    F, _, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 256)
    r02 = quad_broadness(F, 2.0 ** -8, 0.2)
    r05 = quad_broadness(F, 2.0 ** -8, 0.5)
    # larger alpha weakens the denominator, so the ratio grows
    assert r05.worst_ratio > r02.worst_ratio
    # the ratio is capped by t^-alpha <= delta^-alpha at any probe
    assert r02.worst_ratio <= (2.0 ** -8) ** -0.2 + 1e-9
    # a single row cannot reach 1 at alpha = 1/2 (mu/(1 + delta^0.5 n) ~ 0.94);
    # the whole family is tangent at (sigma, t) = (1/4, 1/4), where the 16 rows,
    # 24*delta apart, fit in the unit-wide jet window of a middle-row anchor
    n = len(F)
    assert r02.worst_ratio >= n / (1.0 + 0.25 ** 0.2 * n)
    assert r05.worst_ratio >= n / (1.0 + 0.25 ** 0.5 * n)
    assert r05 == broadness_reference.quad_broadness(F, 2.0 ** -8, 0.5)


def test_quad_broadness_net_family_bounded():
    # a tau-ball lattice is spread out: no rectangle collects more than a
    # fixed share at alpha = 1/2, and the share does not grow as delta shrinks
    worst = []
    for d, rho in ((2.0 ** -4, 1.0), (2.0 ** -5, 0.25), (2.0 ** -6, 0.25)):
        pair = build_bipartite_balls(d, rho)
        probes = ProbeSpec(max_anchor_midpoints=128)
        rep = quad_broadness(list(pair.F), d, 0.5, probes)
        worst.append(rep.worst_ratio)
        assert rep.worst_ratio <= 6.0
        if d == 2.0 ** -5:
            assert rep == broadness_reference.quad_broadness(list(pair.F), d, 0.5, probes)
    assert worst[2] <= worst[1] * 1.25  # same rho, finer delta: no growth


@pytest.mark.parametrize("exp, mu", [(6, 4), (8, 16)])
def test_quad_broadness_equals_reference_small_clamshell(exp, mu):
    d = 2.0 ** -exp
    F, _, _ = build_clamshell(d, 2.0 ** -4, mu, 4, 16)
    for alpha in (0.2, 0.5, 1.0):
        assert quad_broadness(F, d, alpha) == broadness_reference.quad_broadness(F, d, alpha)


def _fuzz_family(rng) -> list[Quadratic]:
    """A small family on a coarse coefficient lattice: quantized jets
    collide, some curves repeat exactly, and tiny values of either sign
    quantize to -0.0 and 0.0."""
    n = int(rng.integers(1, 10))
    lattice = rng.integers(-3, 4, size=(n, 3)) * np.array([0.25, 2.0 ** -3, 2.0 ** -5])
    tiny = rng.choice([0.0, -0.0, 1e-9, -1e-9], size=(n, 3))
    coeffs = np.where(rng.random((n, 3)) < 0.4, tiny, lattice)
    coeffs = np.concatenate([coeffs, coeffs[rng.integers(0, n, size=rng.integers(0, 4))]])
    rng.shuffle(coeffs)
    return [Quadratic(*map(float, row)) for row in coeffs]


def test_quad_broadness_equals_reference_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(300):
        Q = _fuzz_family(rng)
        delta = 2.0 ** -int(rng.integers(2, 5))
        alpha = float(rng.choice([0.0, 0.2, 0.5, 1.0, 3.0]))
        probes = ProbeSpec(max_anchor_midpoints=int(rng.choice([1, 3, 7, 512])))
        expected = broadness_reference.quad_broadness(Q, delta, alpha, probes)
        assert quad_broadness(Q, delta, alpha, probes) == expected, (Q, delta, alpha, probes)


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_quad_broadness_rejects_nonpositive_delta(delta):
    with pytest.raises(ValueError, match="bottom > 0"):
        quad_broadness([Quadratic(1, 0, 0)], delta, 0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
def test_quad_broadness_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="exponent"):
        quad_broadness([Quadratic(1, 0, 0)], 2.0 ** -4, alpha)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quad_broadness_rejects_nonfinite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        quad_broadness([Quadratic(bad, 0, 0), Quadratic(1, 0, 0)], 2.0 ** -4, 0.5)


def test_classify_broad_narrow_small_families():
    S = dt_rectangle(Quadratic(0, 0, 0), 0.0, 2.0 ** -6, 2.0 ** -2)
    assert classify_broad_narrow(S, [], 4.0) == (False, 0, 0)
    assert classify_broad_narrow(S, [Quadratic(0, 0, 0)], 4.0) == (False, 0, 1)
    with pytest.raises(ValueError):
        classify_broad_narrow(S, [], 0.5)


def test_classify_broad_spread_family():
    # curves pairwise in the K-transverse gauge window around the rectangle
    sigma, t, K = 2.0 ** -8, 2.0 ** -2, 4.0
    center = Quadratic(0, 0, 0)
    S = dt_rectangle(center, 0.0, sigma, t)
    window = sigma * t
    G = [Quadratic(0, 0, 0.45 * window * i) for i in range(4)]
    broad, transverse, total = classify_broad_narrow(S, G, K)
    assert total == 16
    assert broad


def test_classify_narrow_cluster():
    sigma, t, K = 2.0 ** -8, 2.0 ** -2, 4.0
    center = Quadratic(0, 0, 0)
    S = dt_rectangle(center, 0.0, sigma, t)
    window = sigma * t
    G = [Quadratic(0, 0, window / (100 * K) * i) for i in range(4)]
    broad, transverse, total = classify_broad_narrow(S, G, K)
    assert not broad
    assert transverse == 0


def test_classify_broad_narrow_equals_scalar_reference(rng):
    sigma, t, K = 2.0 ** -8, 2.0 ** -2, 4.0
    window = sigma * t
    S = dt_rectangle(Quadratic(0, 0, 0), 0.0, sigma, t)
    families = [
        [Quadratic(0, 0, 0)],
        [Quadratic(0, 0, 0.45 * window * i) for i in range(4)],
        [Quadratic(0, 0, window / (100 * K) * i) for i in range(4)],
        # jets spread over the tangency window: a mix of transverse pairs
        [Quadratic(*(w * rng.uniform(-2, 2)
                     for w in (t, math.sqrt(sigma * t), sigma))) for _ in range(40)],
    ]
    for G in families:
        assert classify_broad_narrow(S, G, K) == ref.classify_broad_narrow(S, G, K)


def test_transverse_pair_incomparable_rectangle_count():
    # two curves in the K-transverse window meet along at most a bounded
    # number of pairwise incomparable rectangles: sqrt(K/rho) scale
    sigma, t, K = 2.0 ** -8, 2.0 ** -2, 4.0
    g1 = Quadratic(0, 0, 0)
    g2 = Quadratic(0, 0, 0.8 * sigma * t)  # Delta = 0.8 * sigma * t in window
    assert sigma * t / K <= delta_gauge(g1, g2) <= sigma * t
    rects = max_incomparable_rich([g1], [g2], sigma, t, 1, 1)
    rho = 1.0  # tau-scale of the pair is order one here
    assert len(rects) <= 4 * math.sqrt(K / rho) + 1
