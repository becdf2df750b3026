"""Family generators: bush, opposed pair, bipartite balls, clamshell, net."""

import math
import tracemalloc

import jet_reference as ref
import numpy as np
import pytest

from heislab import _bulk
from heislab.heis import HPoint
from heislab.families import (
    NET_TUBES_CAP,
    _tau_ball_lattice,
    build_bipartite_balls,
    build_bush,
    build_clamshell,
    build_opposed_pair,
    build_parabolic_net,
    fan_cores,
    net_family_size,
    net_multiplicity,
    net_tubes,
    parabolic_net_spec,
)
from heislab.incidence import richness_of
from heislab.integrals import tube_multiplicity
from heislab.quadratics import (
    PLANAR_DOMAIN,
    Quadratic,
    coeff_array,
    delta_gauge,
    near_intersection_intervals,
    tau,
    validate_bipartite,
)
from heislab.tubes import tube_intersection_volume, tubes_from_params


# ---------------------------------------------------------------------------
# bush


def test_bush_cardinalities():
    for k in (4, 5, 6, 7, 8):
        d = 2.0 ** -k
        t1, t2 = build_bush(d)
        n1_scale = d ** -0.5
        n2_scale = d ** -0.25
        assert 0.5 * n1_scale <= len(t1) <= 2.0 * n1_scale
        assert 0.5 * n2_scale <= len(t2) <= 2.0 * n2_scale


def test_bush_pinned_counts_at_2_pow_8():
    t1, t2 = build_bush(2.0 ** -8)
    assert 2 <= len(t2) <= 8  # half to twice delta^(-1/4) = 4
    assert 8 <= len(t1) <= 32


def test_bush_geometry():
    d = 2.0 ** -6
    t1, t2 = build_bush(d)
    for tube in t1:
        assert tube.center.as_tuple() == (0.0, 0.0, 0.0)
        assert math.hypot(tube.dir.a - 1.0, tube.dir.b) <= d ** 1.5
    for tube in t2:
        assert tube.center.y == 0.0 and tube.center.t == 0.0
        assert abs(tube.center.x) <= d ** 0.75
        assert (tube.dir.a, tube.dir.b) == (0.0, 1.0)


def test_bush_rejects_large_delta():
    with pytest.raises(ValueError):
        build_bush(0.25)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.inf, math.nan])
def test_fan_rejects_a_delta_not_finite_and_positive(delta):
    # 0 divided by zero, -0.1 gave a fan of radius -0.1, inf an empty fan
    # (through 0 * inf), NaN failed in int()
    with pytest.raises(ValueError, match="fan needs finite delta > 0"):
        fan_cores(delta)


def test_bush_deterministic():
    assert build_bush(2.0 ** -6) == build_bush(2.0 ** -6)


def test_bush_pair_intersection_volumes():
    # every second-family tube meets every first-family tube in volume ~ delta^4
    d = 2.0 ** -5
    t1, t2 = build_bush(d)
    for tube2 in t2[:2]:
        for tube1 in t1[:2]:
            est = tube_intersection_volume(tube1, tube2, samples=60_000, seed=5)
            assert est.value / d ** 4 == pytest.approx(1.4, abs=1.0)


# ---------------------------------------------------------------------------
# opposed pair


def test_opposed_pair_contents():
    pair = build_opposed_pair(2.0 ** -8, 1.0)
    assert pair.F.tolist() == [[1.0, 0.0, 0.0]]
    assert pair.G.tolist() == [[-1.0, 0.0, 0.0]]
    assert tau(pair.F, pair.G) == pytest.approx([37.0])
    assert delta_gauge(pair.F, pair.G).tolist() == [0.0]


def test_opposed_pair_near_intersection():
    d = 2.0 ** -8
    pair = build_opposed_pair(d, 1.0)
    (f,), (g,) = ref.quads(pair.F), ref.quads(pair.G)
    (piece,) = near_intersection_intervals(f, g, d, PLANAR_DOMAIN.shrink(4.0))
    assert piece.lo == pytest.approx(-math.sqrt(d), rel=1e-9)
    assert piece.hi == pytest.approx(math.sqrt(d), rel=1e-9)


def test_opposed_pair_rejects_bad_order():
    with pytest.raises(ValueError):
        build_opposed_pair(0.5, 0.25)  # delta > rho


# ---------------------------------------------------------------------------
# bipartite balls


def test_bipartite_balls_counts_and_window():
    rho = 0.25
    d = rho / 8
    pair = build_bipartite_balls(d, rho)
    scale = (rho / d) ** 3
    assert scale / 4 <= len(pair.F) <= 4 * scale
    assert len(pair.F) == len(pair.G)
    report = validate_bipartite(pair, separation=d * (1 - 1e-9))
    assert report.ok, report.note


@pytest.mark.parametrize("k", [5, 6])
def test_bipartite_balls_equal_scalar_lattice_in_order(k):
    # the family order reaches the dump CSVs and wolff-bound-check's draws
    d, rho = 2.0 ** -k, 0.25
    pair = build_bipartite_balls(d, rho)
    for fam, a in ((pair.F, 2.0 * rho), (pair.G, -2.0 * rho)):
        lattice = coeff_array(ref.tau_ball_lattice(Quadratic(a, 0.0, 0.0), rho, d))
        assert fam.dtype == np.float64 and fam.shape == lattice.shape
        assert fam.view(np.uint64).tolist() == lattice.view(np.uint64).tolist()


def test_ball_lattice_memory_is_bounded():
    # tau of the whole 157k-row candidate box in one call peaked at 49 MB
    tracemalloc.start()
    try:
        lattice = _tau_ball_lattice(Quadratic(0.5, 0.0, 0.0), 0.25, 2.0 ** -7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lattice) == 18_301
    assert peak < 24 * 2 ** 20


def test_bipartite_balls_multiplicity_band(rng):
    rho = 0.25
    for k in (5, 6):
        d = 2.0 ** -k
        pair = build_bipartite_balls(d, rho)
        s = rng.uniform(0.1, 0.9, 500)
        y = rho * s * s + rng.uniform(-rho / 8, rho / 8, 500)
        fc = coeff_array(pair.F)
        vals = (0.5 * fc[:, 0:1] * s + fc[:, 1:2]) * s + fc[:, 2:3]
        m = (np.abs(vals - y) <= d).sum(axis=0)
        scale = (rho / d) ** 2
        assert m.min() >= scale / 8
        assert m.max() <= scale * 8


def test_bipartite_balls_rejects_coarse_delta():
    with pytest.raises(ValueError):
        build_bipartite_balls(0.1, 0.25)


# ---------------------------------------------------------------------------
# clamshell


CLAM = dict(delta=2.0 ** -8, t=2.0 ** -4, mu=16, nu=4, n_total=256)


def test_clamshell_exact_counts():
    F, G, R = build_clamshell(**CLAM)
    assert F.dtype == G.dtype == np.float64 and F.shape[1] == G.shape[1] == 3
    assert len(F) == CLAM["n_total"]
    assert len(R) == round(CLAM["t"] ** -0.5 * CLAM["n_total"] / CLAM["mu"])
    assert len(G) == CLAM["nu"] * len(R)


def test_clamshell_exact_richness_everywhere():
    F, G, R = build_clamshell(**CLAM)
    for rect in R:
        rich = richness_of(rect, F, G)
        assert (rich.mu, rich.nu) == (CLAM["mu"], CLAM["nu"])


def test_clamshell_cross_tau_separated(rng):
    F, G, _ = build_clamshell(**CLAM)
    idx = rng.integers(0, len(F), size=300)
    jdx = rng.integers(0, len(G), size=300)
    assert tau(F[idx], G[jdx]).min() >= 0.5


def test_clamshell_in_family_separation(rng):
    F, G, _ = build_clamshell(**CLAM)
    d = CLAM["delta"]
    for fam in (F, G):
        k = rng.integers(0, len(fam), size=(200, 2))
        i, j = k[k[:, 0] != k[:, 1]].T
        assert (tau(fam[i], fam[j]) >= d * (1 - 1e-9)).all()


def test_clamshell_subdivisions_inherit_long_tangencies():
    # every long curve tangent to its row is tangent to each subdivision
    F, G, R = build_clamshell(**CLAM)
    mu, n_rows = CLAM["mu"], CLAM["n_total"] // CLAM["mu"]
    n_sub = len(R) // n_rows
    from heislab.quadratics import is_tangent_jet

    for j in (0, n_rows // 2, n_rows - 1):
        row_curves = ref.quads(F[j * mu : (j + 1) * mu])
        for rect in R[j * n_sub : (j + 1) * n_sub]:
            assert all(is_tangent_jet(f, rect) for f in row_curves)


def test_clamshell_constraint_errors():
    with pytest.raises(ValueError, match="divisible"):
        build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 255)
    with pytest.raises(ValueError, match="mu"):
        build_clamshell(2.0 ** -8, 2.0 ** -4, 2, 4, 256)
    with pytest.raises(ValueError, match="integral"):
        build_clamshell(2.0 ** -8, 0.3, 64, 4, 256)


def test_clamshell_saturation_inequality():
    # mu <= delta^(1/3) * N^(4/3): both sides computed from the parameters
    mu = CLAM["mu"]
    rhs = CLAM["delta"] ** (1 / 3) * CLAM["n_total"] ** (4 / 3)
    assert mu <= rhs


def test_clamshell_deterministic():
    (fa, ga, ra), (fb, gb, rb) = build_clamshell(**CLAM), build_clamshell(**CLAM)
    assert np.array_equal(fa, fb) and np.array_equal(ga, gb) and ra == rb


# ---------------------------------------------------------------------------
# parabolic net


def test_net_counts():
    for k in (4, 5, 6):
        d = 2.0 ** -k
        n = net_family_size(parabolic_net_spec(d))
        assert d ** -3 / 16 <= n <= 16 * d ** -3


def test_net_multiplicity_band_on_unit_ball(rng):
    out = np.empty((0, 3))
    while len(out) < 600:
        z = rng.random((2000, 3)) * 2.0 - 1.0
        z[:, 2] *= 0.25
        out = np.vstack([out, z[_bulk.norm4(z) <= 1.0]])
    pts = out[:600]
    for k in (4, 5):
        spec = parabolic_net_spec(2.0 ** -k)
        for fam in (1, 2):
            m = net_multiplicity(spec, pts, fam)
            assert m.min() >= 1
            assert m.max() <= 8


def test_net_structured_matches_materialized(rng):
    d = 2.0 ** -3
    spec = parabolic_net_spec(d)
    t1, t2 = map(tubes_from_params, net_tubes(spec))
    assert len(t1) == len(t2) == net_family_size(spec)
    pts = rng.random((60, 3)) * 2.0 - 1.0
    pts[:, 2] *= 0.25
    assert np.array_equal(net_multiplicity(spec, pts, 1), tube_multiplicity(t1, pts))
    assert np.array_equal(net_multiplicity(spec, pts, 2), tube_multiplicity(t2, pts))


def test_net_translation_moves_multiplicity(rng):
    # left-translating the family and the probes together preserves counts
    d = 2.0 ** -4
    spec = parabolic_net_spec(d)
    t1, _ = net_tubes(spec)
    sub = tubes_from_params(t1[:, :: max(1, t1.shape[1] // 400)])
    g = np.array([0.2, -0.3, 0.1])
    pts = rng.random((40, 3)) - 0.5
    moved = [tube.translated(HPoint(*g)) for tube in sub]
    m0 = tube_multiplicity(sub, pts)
    m1 = tube_multiplicity(moved, _bulk.mul(g, pts))
    assert np.array_equal(m0, m1)


def test_remaining_generators_deterministic():
    for make in (lambda: build_bipartite_balls(2.0 ** -5, 0.25),
                 lambda: build_opposed_pair(2.0 ** -6, 0.5)):
        a, b = make(), make()
        assert np.array_equal(a.F, b.F) and np.array_equal(a.G, b.G) and a.rho == b.rho
    a, b = net_tubes(parabolic_net_spec(2.0 ** -3)), net_tubes(parabolic_net_spec(2.0 ** -3))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("k", [6, 8])
def test_net_tubes_refuses_a_million_tubes_before_building_any(k):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the 1000000"):
            net_tubes(parabolic_net_spec(2.0 ** -k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_net_tubes_cap_keeps_rungs_three_to_five():
    sizes = [2 * net_family_size(parabolic_net_spec(2.0 ** -k)) for k in (3, 4, 5, 6)]
    assert sizes == [10_676, 82_500, 670_804, 5_407_020]
    assert sizes[2] <= NET_TUBES_CAP < sizes[3]


def test_net_build_contract():
    t1, t2 = build_parabolic_net(2.0 ** -4)
    assert t1.shape == t2.shape == (6, net_family_size(parabolic_net_spec(2.0 ** -4)))
    assert t1.dtype == t2.dtype == np.float64
    assert t1[3:5].T.tolist() == [[1.0, 0.0]] * t1.shape[1]
    assert t2[3:5].T.tolist() == [[0.0, 1.0]] * t2.shape[1]
    # the e2 family is the image of the e1 family under (x, y, t) -> (y, x, -t)
    assert np.array_equal(t2[:3], t1[[1, 0, 2]] * [[1.0], [1.0], [-1.0]])
    with pytest.raises(ValueError):
        build_parabolic_net(0.25)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", [1, 2])
def test_net_multiplicity_rejects_nonfinite_points(bad, family):
    spec = parabolic_net_spec(2.0 ** -4)
    pts = np.zeros((3, 3))
    pts[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        net_multiplicity(spec, pts, family)
