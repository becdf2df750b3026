"""Richness counting, greedy incomparable families, the incidence bound
oracle, quantitative broadness, broad/narrow classification."""

import math
import tracemalloc

import broadness_reference
import incomparable_reference
import jet_reference as ref
import numpy as np
import pytest

from heislab import incidence, quadratics
from heislab.families import build_bipartite_balls, build_clamshell, build_opposed_pair
from heislab.incidence import (
    _C_JET,
    Richness,
    _anchor_grid,
    _jet_window_counts,
    _jets_at,
    classify_broad_narrow,
    max_incomparable_rich,
    quad_broadness,
    richness_of,
    wolff_bound_check,
)
from heislab.quadratics import (
    Quadratic,
    coeff_array,
    comparable,
    delta_gauge,
    dt_rectangle,
    in_jet_window,
    is_tangent_containment,
    is_tangent_jet,
)
from heislab.tubes import ProbeSpec


def test_type_validation():
    with pytest.raises(ValueError):
        Richness(-1, 0)


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
    rects = max_incomparable_rich(pair.F, pair.G, 2.0 ** -8, 1.0, 1, 1)
    assert 1 <= len(rects) <= 4
    for r in rects:
        rich = richness_of(r, pair.F, pair.G)
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


def _assert_greedy_equals_reference(F, G, delta, t, mu, nu):
    rects = max_incomparable_rich(F, G, delta, t, mu, nu)
    assert rects == incomparable_reference.max_incomparable_rich(F, G, delta, t, mu, nu)
    return rects


def _wolff_instances(seed):
    """The 20 random (F, G) instances of the wolff-bound-check experiment."""
    d = 2.0 ** -5
    pair = build_bipartite_balls(d, 0.25)
    F, G = pair.F, pair.G
    rng = np.random.default_rng([seed, 41])
    for _ in range(20):
        fi = np.sort(rng.choice(len(F), size=min(64, len(F)), replace=False))
        gi = np.sort(rng.choice(len(G), size=min(64, len(G)), replace=False))
        yield F[fi], G[gi], d, pair.rho


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_equals_reference_on_wolff_instances(seed):
    for F, G, d, rho in _wolff_instances(seed):
        assert _assert_greedy_equals_reference(F, G, d, rho, 1, 1)


@pytest.mark.parametrize("n", [16, 256])
def test_greedy_equals_reference_on_clamshell(n):
    F, G, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, n)
    assert _assert_greedy_equals_reference(F, G, 2.0 ** -8, 1.0, 16, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_bipartite_equals_exhaustive_oracle_on_wolff_instances(monkeypatch, seed):
    # the bounded pass keeps every report bit for bit, and each instance's
    # survivors fit one jet_gauges call
    rows, gauges = [], quadratics.jet_gauges
    monkeypatch.setattr(quadratics, "jet_gauges", lambda h: rows.append(len(h)) or gauges(h))
    for F, G, _, rho in _wolff_instances(seed):
        pair = quadratics.BipartitePair(F, G, rho)
        rows.clear()
        report = quadratics.validate_bipartite(pair)
        assert len(rows) == 1 and rows[0] < report.pairs_checked == 2 * 2016 + 4096
        assert report == ref.validate_bipartite_exhaustive(pair)


@pytest.mark.parametrize("n", [16, 256])
def test_validate_bipartite_equals_exhaustive_oracle_on_clamshell(n):
    F, G, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, n)
    pair = quadratics.BipartitePair(F, G, 1.0)
    report = quadratics.validate_bipartite(pair, 2.0 ** -8)
    assert report == ref.validate_bipartite_exhaustive(pair, 2.0 ** -8)
    assert not report.ok and report.note


def test_greedy_equals_reference_on_small_families():
    d, t = 2.0 ** -6, 2.0 ** -2
    pair = build_opposed_pair(2.0 ** -8, 1.0)
    assert _assert_greedy_equals_reference(pair.F, pair.G, 2.0 ** -8, 1.0, 1, 1)
    q = Quadratic(1, 0, 0)
    assert _assert_greedy_equals_reference([q], [q], d, t, 1, 1)
    F, G, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 16)
    # an empty G is rich nowhere at nu = 1 and everywhere at nu = 0
    assert _assert_greedy_equals_reference(F, [], 2.0 ** -8, 1.0, 1, 1) == []
    assert _assert_greedy_equals_reference(F, [], 2.0 ** -8, 1.0, 1, 0)
    # a G far above F meets no rectangle of F
    far = G + [0.0, 0.0, 3.0]
    assert _assert_greedy_equals_reference(F, far, 2.0 ** -8, 1.0, 1, 1) == []
    # thresholds above every count
    assert _assert_greedy_equals_reference(F, G, 2.0 ** -8, 1.0, len(F) + 1, 1) == []
    assert _assert_greedy_equals_reference(F, G, 2.0 ** -8, 1.0, 1, len(G) + 1) == []
    # every curve twice: the counts double, the chosen anchors stay first copies
    rects = _assert_greedy_equals_reference(np.vstack([F, F]), np.vstack([G, G]), 2.0 ** -8,
                                            1.0, 32, 8)
    assert rects == max_incomparable_rich(F, G, 2.0 ** -8, 1.0, 16, 4)


def test_greedy_equals_reference_at_rounded_base_lengths():
    # sqrt(delta / t) = 2^-3.5 is not dyadic, so m - half and m + half round
    # and a candidate's own t differs from t in its last bits; midpoints 20
    # grid steps apart sit on the comparability edge 10 * sqrt(delta / t),
    # and the curvature difference 10 * t is on the window edge too
    delta, t = 2.0 ** -7, 1.0
    for j0 in _anchor_grid(math.sqrt(delta / t))[::28].tolist():
        F = [Quadratic(0.0, 0.0, 0.0), Quadratic(10 * t, -10 * t * j0, 5 * t * j0 * j0)]
        assert _assert_greedy_equals_reference(F, F, delta, t, 1, 1)


@pytest.mark.parametrize(
    "delta, t",
    [(0.0, 0.25), (-2.0 ** -6, 0.25), (math.nan, 0.25), (math.inf, 0.25), (2.0 ** -6, math.nan),
     (0.5, 0.25), (2.0 ** -6, 2.0)],
)
def test_greedy_rejects_bad_scales(delta, t):
    q = Quadratic(1, 0, 0)
    with pytest.raises(ValueError):
        max_incomparable_rich([q], [q], delta, t, 1, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_rejects_nonfinite_coefficients(bad):
    q, b = Quadratic(1, 0, 0), Quadratic(bad, 0, 0)
    for F, G in (([b], [q]), ([q], [b]), ([q, b], [q]), ([], [b])):
        with pytest.raises(ValueError):
            max_incomparable_rich(F, G, 2.0 ** -6, 0.25, 1, 1)


def test_wolff_bound_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        wolff_bound_check([Quadratic(math.nan, 0, 0)], [Quadratic(1, 0, 0)], 2.0 ** -6, 0.25, 1, 1)


def _dense_counts(targets, sources, am, ai, delta, t):
    return [
        int(in_jet_window(*(x[m] - y[m, i] for x, y in zip(targets, sources)),
                          _C_JET, delta, t).sum())
        for m, i in zip(am, ai)
    ]


# (1 << 16: one block across midpoints; 64: several; 12: one anchor per
# block; 8: curves split into two column blocks)
@pytest.mark.parametrize("cells", [1 << 16, 64, 12, 8])
def test_jet_window_counts_equal_dense_mask_on_window_edges(monkeypatch, cells):
    # delta = 2^-6, t = 2^-2: the bounds 2^-4, 2^-2 and 1 are exact, and the
    # jets below differ from the anchors by multiples of half a bound, so
    # many differences sit exactly on an edge; others sit one ulp beyond
    monkeypatch.setattr(incidence, "_PROFILE_BLOCK_CELLS", cells)
    delta, t = 2.0 ** -6, 2.0 ** -2
    bounds = np.array([2.0 ** -4, 2.0 ** -2, 1.0])
    rng = np.random.default_rng(7)
    n_mid, n = 5, 9
    jets = rng.integers(-3, 4, size=(3, n_mid, n)) * (bounds[:, None, None] / 2)
    jets[:2, :, ::4] = np.nextafter(jets[:2, :, ::4], 1.0)
    jets = jets[0], jets[1], np.broadcast_to(jets[2, 0], jets[0].shape)  # curvature per curve
    am, ai = rng.integers(0, n_mid, size=30), rng.integers(0, n, size=30)
    counts = _jet_window_counts(jets, jets, am, ai, delta, t)
    dense = _dense_counts(jets, jets, am, ai, delta, t)
    assert counts.tolist() == dense
    # the edge cases count: strict comparisons would lose some of them
    strict = [
        int(np.all([np.abs(x[m] - x[m, i]) < b for x, b in zip(jets, bounds)], axis=0).sum())
        for m, i in zip(am, ai)
    ]
    assert sum(strict) < sum(dense)


def test_jet_window_counts_equal_dense_mask_on_lattice_jets():
    pair = build_bipartite_balls(2.0 ** -5, 0.25)
    fc, gc = coeff_array(pair.F), coeff_array(pair.G)
    for sigma, t in [(2.0 ** -5, 2.0 ** -5), (2.0 ** -5, 1.0), (2.0 ** -3, 2.0 ** -1)]:
        mids = _anchor_grid(math.sqrt(sigma / t))[::5]
        fj, gj = _jets_at(fc, mids), _jets_at(gc, mids)
        am, ai = np.divmod(np.arange(len(mids) * len(fc)), len(fc))
        for targets in (fj, gj):
            counts = _jet_window_counts(targets, fj, am, ai, sigma, t)
            assert counts.tolist() == _dense_counts(targets, fj, am, ai, sigma, t)


def test_jet_window_counts_on_no_curves_or_anchors():
    mids = np.array([-1.0, 1.0])
    none, one = _jets_at(np.zeros((0, 3)), mids), _jets_at(np.zeros((1, 3)), mids)
    am, ai = np.array([0, 1]), np.array([0, 0])
    assert _jet_window_counts(none, one, am, ai, 2.0 ** -6, 0.25).tolist() == [0, 0]
    empty = np.zeros(0, dtype=int)
    assert _jet_window_counts(one, one, empty, empty, 2.0 ** -6, 0.25).tolist() == []


def test_jet_window_counts_memory_is_bounded():
    # 4 midpoints x 2,272 anchors x 2,272 curves: the dense mask would hold
    # 20.6 M cells.  The counter's blocks take 640 KiB (10 bytes a cell) and
    # its anchors' jets and counts 284 KiB; the profile's former per-block
    # gathers peaked at 2.3 MB on these anchors
    pair = build_bipartite_balls(2.0 ** -6, 0.25)
    qc = coeff_array(pair.F)
    assert len(qc) == 2272
    jets = _jets_at(qc, _anchor_grid(0.25)[::20])
    am, ai = np.divmod(np.arange(4 * 2272), 2272)
    tracemalloc.start()
    try:
        counts = _jet_window_counts(jets, jets, am, ai, 2.0 ** -6, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 4 * 2272
    assert peak < 1.5 * 2 ** 20
    probe = [0, 1234, 2271 + 2272, len(am) - 1]
    assert counts[probe].tolist() == _dense_counts(jets, jets, am[probe], ai[probe],
                                                   2.0 ** -6, 0.25)


@pytest.mark.parametrize("cells", [1 << 16, 40, 9, 5])
def test_jet_window_counts_equal_dense_mask_in_any_anchor_order(monkeypatch, cells):
    # anchors shuffled, each source curve at several midpoints, so a block's
    # source curves repeat, come out of order and straddle block edges; the
    # targets are another family, and all three jets sit on the window's
    # edges or one ulp past them.  cells = 9 and 5 split the 11 targets into
    # column blocks (j > 0)
    monkeypatch.setattr(incidence, "_PROFILE_BLOCK_CELLS", cells)
    delta, t = 2.0 ** -6, 2.0 ** -2
    bounds = np.array([2.0 ** -4, 2.0 ** -2, 1.0])
    rng = np.random.default_rng(17)
    n_mid, n_src, n_tgt = 4, 7, 11

    def jets(n):
        x = rng.integers(-3, 4, size=(3, n_mid, n)) * (bounds[:, None, None] / 2)
        x[:, :, ::3] = np.nextafter(x[:, :, ::3], 9.0)
        return x[0], x[1], np.broadcast_to(x[2, 0], x[0].shape)  # curvature per curve

    sources, targets = jets(n_src), jets(n_tgt)
    am, ai = rng.integers(0, n_mid, size=60), rng.integers(0, n_src, size=60)
    for tg in (targets, sources):
        counts = _jet_window_counts(tg, sources, am, ai, delta, t)
        assert counts.tolist() == _dense_counts(tg, sources, am, ai, delta, t)
    # the hoisted curvature test meets differences on its bound 4t = 1 and
    # one ulp past it
    dcurv = np.abs(targets[2][0] - sources[2][0][:, None])
    assert (dcurv == 1.0).any() and ((dcurv > 1.0) & (dcurv < 1.0 + 1e-12)).any()


def test_jet_window_counts_hold_a_full_block_width():
    # 65,536 targets in the window of every anchor: one block row counts all
    # of them, which a uint16 count would wrap to 0
    n = incidence._PROFILE_BLOCK_CELLS
    qc = np.zeros((n, 3))
    jets = _jets_at(qc, np.array([0.0, 0.5]))
    am, ai = np.array([1, 0, 1]), np.array([5, n - 1, 0])
    assert _jet_window_counts(jets, jets, am, ai, 2.0 ** -6, 0.25).tolist() == [n, n, n]


# (cells, source curves, target curves): one curvature mask serves several
# anchor blocks; one source curve, its mask row split into column blocks
@pytest.mark.parametrize("cells, n_src, n_tgt", [(128, 4, 16), (4, 1, 11)])
def test_jet_window_counts_need_no_source_order_when_every_mask_row_fits(
    monkeypatch, cells, n_src, n_tgt
):
    # n_src * min(n_tgt, cells) <= cells: no argsort by source curve, and the
    # counts still equal the dense mask's, edges and one-ulp misses included
    monkeypatch.setattr(incidence, "_PROFILE_BLOCK_CELLS", cells)
    delta, t = 2.0 ** -6, 2.0 ** -2
    bounds = np.array([2.0 ** -4, 2.0 ** -2, 1.0])
    rng = np.random.default_rng(23)

    def jets(n):
        x = rng.integers(-3, 4, size=(3, 3, n)) * (bounds[:, None, None] / 2)
        x[:, :, ::3] = np.nextafter(x[:, :, ::3], 9.0)
        return x[0], x[1], np.broadcast_to(x[2, 0], x[0].shape)

    sources, targets = jets(n_src), jets(n_tgt)
    am, ai = rng.integers(0, 3, size=30), rng.integers(0, n_src, size=30)
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(a) or argsort(*a, **k))
    counts = _jet_window_counts(targets, sources, am, ai, delta, t)
    assert sorts == []
    assert counts.tolist() == _dense_counts(targets, sources, am, ai, delta, t)
    assert 0 < counts.sum() < 30 * n_tgt


def _dense_value_hits(targets, sources, bound):
    with np.errstate(invalid="ignore"):  # inf - inf
        return (np.abs(targets[:, None, :] - sources[:, :, None]) <= bound).any(axis=2)


def test_value_window_hits_equal_dense_value_mask():
    # values on multiples of half the bound tie with each other and sit on
    # the window's edge or inside it; every third source moves one ulp up,
    # which puts some edge differences just past it; rows long enough that
    # the unstable sort partitions them, and +-inf values, whose inf - inf
    # is NaN and passes nowhere
    bound = 2.0 ** -4
    rng = np.random.default_rng(5)
    targets = rng.integers(-40, 41, size=(6, 40)) * (bound / 2)
    sources = rng.integers(-40, 41, size=(6, 60)) * (bound / 2)
    sources[:, ::3] = np.nextafter(sources[:, ::3], np.inf)
    targets[0, :5], targets[1, :5] = np.inf, -np.inf
    targets[2] = np.inf  # a row with no finite target
    sources[0, :2], sources[1, :2], sources[2, :2] = np.inf, -np.inf, 0.0
    # a row of tied targets at 3: sources on both edges and one ulp past them
    targets[4] = 3.0
    edges = [3.0 + bound, 3.0 - bound, 3.0]
    sources[4, :5] = edges + [np.nextafter(e, 2 * e - 3.0) for e in edges[:2]]
    hits = incidence._value_window_hits(targets, sources, bound)
    dense = _dense_value_hits(targets, sources, bound)
    assert hits.tolist() == dense.tolist()
    assert hits[4, :5].tolist() == [True, True, True, False, False]
    assert dense.any() and not dense.all()
    # the edges and the cells one ulp past them decide other sources too
    assert not (_dense_value_hits(targets, sources, np.nextafter(bound, 0.0)) == dense).all()
    assert not (_dense_value_hits(targets, sources, bound * (1 + 1e-12)) == dense).all()
    assert (sources[:, :, None] == targets[:, None, :]).any()  # ties


def test_value_window_hits_with_no_targets_or_no_sources():
    bound, values = 2.0 ** -4, np.array([[0.0, np.inf, -1.0], [2.0, 0.5, -np.inf]])
    assert incidence._value_window_hits(np.zeros((2, 0)), values, bound).tolist() == [
        [False] * 3, [False] * 3]
    assert incidence._value_window_hits(values, np.zeros((2, 0)), bound).shape == (2, 0)


def test_greedy_drops_anchors_out_of_value_reach_only_for_nu_positive(monkeypatch):
    # nu = 0 holds everywhere, so it takes no value-window test; the drop at
    # nu >= 1 leaves the rectangles as the reference makes them
    calls = []
    hits = incidence._value_window_hits
    monkeypatch.setattr(incidence, "_value_window_hits",
                        lambda *args: calls.append(args[0].shape) or hits(*args))
    pair = build_bipartite_balls(2.0 ** -5, 0.25)
    F, G = pair.F[::20], pair.G[::20]
    for nu, n_calls in ((0, 0), (1, 1), (3, 1)):
        calls.clear()
        rects = max_incomparable_rich(F, G, 2.0 ** -5, 0.25, 1, nu)
        assert len(calls) == n_calls
        assert rects == incomparable_reference.max_incomparable_rich(F, G, 2.0 ** -5, 0.25, 1, nu)


def test_greedy_skips_the_mu_count_at_mu_one(monkeypatch):
    # every anchor counts its own curve, so mu <= 1 needs no F count: one
    # counter call (the nu test) instead of two, and the same rectangles
    calls = []
    counter = incidence._jet_window_counts
    monkeypatch.setattr(incidence, "_jet_window_counts",
                        lambda *args: calls.append(args[0]) or counter(*args))
    pair = build_bipartite_balls(2.0 ** -5, 0.25)
    F, G = pair.F[::40], pair.G[::40]
    for mu, n_calls in ((0, 1), (1, 1), (2, 2)):
        calls.clear()
        rects = max_incomparable_rich(F, G, 2.0 ** -5, 0.25, mu, 1)
        assert len(calls) == n_calls
        assert rects == incomparable_reference.max_incomparable_rich(F, G, 2.0 ** -5, 0.25, mu, 1)


def test_clamshell_rectangle_count_scaling():
    # pairwise-disjoint subdivisions per row: t^{-1/2} * N / mu of them
    delta, t, mu, nu, n = 2.0 ** -8, 2.0 ** -4, 16, 4, 256
    _, _, R = build_clamshell(delta, t, mu, nu, n)
    assert len(R) == round(t ** -0.5 * n / mu) == round(delta ** -0.5 * n / mu ** 1.5)


def test_wolff_bound_on_random_instances(rng):
    d, rho = 2.0 ** -5, 0.25
    pair = build_bipartite_balls(d, rho)
    F, G = pair.F, pair.G
    for i in range(5):
        fi = np.sort(rng.choice(len(F), size=32, replace=False))
        gi = np.sort(rng.choice(len(G), size=32, replace=False))
        chk = wolff_bound_check(F[fi], G[gi], d, pair.rho, 1, 1)
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
    chk = wolff_bound_check(pair.F, pair.G, 2.0 ** -6, 1.0, 1, 1)
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
        rep = quad_broadness(pair.F, d, 0.5, probes)
        worst.append(rep.worst_ratio)
        assert rep.worst_ratio <= 6.0
        if d == 2.0 ** -5:
            assert rep == broadness_reference.quad_broadness(pair.F, d, 0.5, probes)
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


@pytest.fixture
def profile_memo():
    """The concentration-profile memo, cleared before and after the test."""
    memo = incidence._concentration_profile
    memo.cache_clear()
    yield memo
    memo.cache_clear()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
def test_quad_broadness_rejects_bad_alpha(alpha, profile_memo):
    with pytest.raises(ValueError, match="exponent"):
        quad_broadness([Quadratic(1, 0, 0)], 2.0 ** -4, alpha)
    assert profile_memo.cache_info().misses == 0  # rejected before profiling


def test_quad_broadness_alpha_sweep_computes_one_profile(profile_memo):
    d = 2.0 ** -6
    F, _, _ = build_clamshell(d, 2.0 ** -4, 4, 4, 16)
    alphas = (0.2, 0.5, 1.0)
    reports = [quad_broadness(F, d, alpha) for alpha in alphas]
    info = profile_memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for rep, alpha in zip(reports, alphas):
        assert rep == broadness_reference.quad_broadness(F, d, alpha)
    # the same family as Quadratics is the table's key
    assert [quad_broadness(ref.quads(F), d, alpha) for alpha in alphas] == reports
    info = profile_memo.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_quad_broadness_memo_keys_on_family_delta_and_probes(profile_memo):
    # each call differs from the one before in one key part only
    d = 2.0 ** -6
    F, _, _ = build_clamshell(d, 2.0 ** -4, 4, 4, 16)
    G = F[::3]
    calls = [
        (F, d, None),
        (G, d, None),
        (G, 2.0 * d, None),
        (G, 2.0 * d, ProbeSpec(max_anchor_midpoints=3)),
    ]
    for Q, delta, probes in calls:
        expected = broadness_reference.quad_broadness(Q, delta, 0.5, probes)
        assert quad_broadness(Q, delta, 0.5, probes) == expected, (len(Q), delta, probes)
    assert profile_memo.cache_info().misses == len(calls)
    # the last family as Quadratics is the last key again
    assert quad_broadness(ref.quads(Q), delta, 0.5, probes) == expected
    assert profile_memo.cache_info().misses == len(calls)


def test_quad_broadness_signed_zero_family_gives_one_report(profile_memo):
    plus = [Quadratic(0.0, 0.0, 0.0), Quadratic(0.25, 0.0, 0.0), Quadratic(0.0, 2.0 ** -5, 0.0)]
    minus = [
        Quadratic(-0.0, -0.0, -0.0),
        Quadratic(0.25, -0.0, -0.0),
        Quadratic(-0.0, 2.0 ** -5, -0.0),
    ]
    assert minus == plus
    d = 2.0 ** -4
    fresh_minus = quad_broadness(minus, d, 0.5)
    profile_memo.cache_clear()
    fresh_plus = quad_broadness(plus, d, 0.5)
    assert fresh_minus == fresh_plus == broadness_reference.quad_broadness(minus, d, 0.5)
    # the -0.0 family is the +0.0 family's key, and its report is the same
    assert quad_broadness(minus, d, 0.5) == fresh_plus
    assert profile_memo.cache_info().hits == 1
    # so is its (n, 3) table, which keeps the -0.0 bits
    table = coeff_array(minus)
    assert np.signbit(table).sum() == 7
    assert quad_broadness(table, d, 0.5) == fresh_plus
    assert profile_memo.cache_info().hits == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quad_broadness_rejects_nonfinite_coefficients(bad):
    for Q in ([Quadratic(bad, 0, 0), Quadratic(1, 0, 0)], np.array([[bad, 0, 0], [1, 0, 0]])):
        with pytest.raises(ValueError, match="finite"):
            quad_broadness(Q, 2.0 ** -4, 0.5)


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


def _window_family(rng, n, sigma, t, spread):
    """n curves jet-tangent to Quadratic(1, 0, 0) at 0: value, slope and
    curvature offsets uniform within spread times the jet window."""
    window = np.array([4.0 * t, 4.0 * math.sqrt(sigma * t), 4.0 * sigma])
    u = rng.uniform(-spread, spread, size=(n, 3)) * window
    return [Quadratic(1.0 + a, b, c) for a, b, c in u.tolist()]


def test_classify_broad_narrow_equals_scalar_reference_across_pair_blocks():
    sigma, t, K = 2.0 ** -8, 2.0 ** -4, 4.0
    S = dt_rectangle(Quadratic(1, 0, 0), 0.0, sigma, t)
    rng = np.random.default_rng(5)
    for n, spread in ((80, 0.9), (70, 0.2)):
        assert n * (n - 1) > quadratics._PAIR_CHUNK  # two blocks at least
        G = _window_family(rng, n, sigma, t, spread)
        got = classify_broad_narrow(S, G, K)
        assert got == ref.classify_broad_narrow(S, G, K)
        assert got[2] == n * n and got[1] > 0


def test_classify_broad_narrow_memory_is_bounded():
    # 1,500 tangent curves: 2.25 million ordered pairs, gauged a block at a time
    sigma, t, K = 2.0 ** -8, 2.0 ** -4, 4.0
    S = dt_rectangle(Quadratic(1, 0, 0), 0.0, sigma, t)
    G = _window_family(np.random.default_rng(6), 1500, sigma, t, 0.9)
    tracemalloc.start()
    try:
        _, _, total = classify_broad_narrow(S, G, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 1500 * 1500
    assert peak < 16 * 2 ** 20


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
