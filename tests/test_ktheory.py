import pytest

from tdual import pipeline
from tdual.bundles import BundleDescriptor
from tdual.catalog import build_bundle, build_flux, circle, crosscap_sum, sigma
from tdual.complexes import DeltaComplex, LocalSystem
from tdual.exactalg import FGAbelianGroup as FG
from tdual.ktheory import (
    AmbiguousExtension,
    DimensionTooHigh,
    KGroups,
    MultipleMatches,
    NoMatchingCandidate,
    RationalReport,
    SpaceMismatch,
    TwistClass,
    UnsupportedTwist,
    ahss_k_groups,
    enumerate_extensions,
    rational_consistency,
    resolve_by_tduality,
    same_twist_class,
    twist_inverse,
    twist_product,
)
from tdual.tduality import FluxPair, construct_tdual, small_twisted_cohomology


def pair_for(info, j, k):
    return build_flux(build_bundle(info, info.xi(), j), k)


def zero_twist(bundle):
    m = bundle.base
    return TwistClass(bundle, (0,) * m.count(1), (0,) * m.count(0),
                      (0,) * m.count(3), (0,) * m.count(2))


# ---------------------------------------------------------------------------
# Twist group law
# ---------------------------------------------------------------------------

def test_untwisted_sector_adds():
    info = sigma(1)
    b = build_bundle(info, info.xi(), 1)
    t0 = TwistClass.from_flux(build_flux(b, 0), False)
    t1 = TwistClass.from_flux(build_flux(b, 1), False)
    prod = twist_product(t0, t1)
    assert prod.fhat == tuple(a + c for a, c in zip(t0.fhat, t1.fhat))
    assert all(v == 0 for v in prod.w_base)


def test_orientation_twist_squares_to_bockstein_class():
    info = sigma(1)
    b = build_bundle(info, info.xi(), 1)
    txi = TwistClass.from_flux(build_flux(b, 0), True)
    sq = twist_product(txi, txi)
    assert all(v % 2 == 0 for v in sq.w_base)
    # the correction term is the integral Bockstein of xi cup xi; it is a
    # genuine cocycle in the total model
    from tdual.bundles import TotalComplex

    model = TotalComplex(b)
    assert model.is_cocycle(sq.flux_cochain())


def test_twist_inverse_gives_identity_class():
    info = sigma(1)
    b = build_bundle(info, info.xi(), 1)
    txi = TwistClass.from_flux(build_flux(b, 1), True)
    prod = twist_product(txi, twist_inverse(txi))
    assert same_twist_class(prod, zero_twist(b))


def test_twist_product_associative_up_to_coboundary():
    info = sigma(1)
    b = build_bundle(info, info.xi(), 1)
    t1 = TwistClass.from_flux(build_flux(b, 1), True)
    t2 = TwistClass.from_flux(build_flux(b, 0), True)
    t3 = TwistClass.from_flux(build_flux(b, 1), False)
    lhs = twist_product(twist_product(t1, t2), t3)
    rhs = twist_product(t1, twist_product(t2, t3))
    assert same_twist_class(lhs, rhs)


def test_same_twist_class_detects_class_differences():
    info = sigma(1)
    b = build_bundle(info, info.xi(), 0)
    plain = TwistClass.from_flux(build_flux(b, 0), False)
    # the degree-1 parts differ by the pulled-back orientation class
    assert not same_twist_class(plain, TwistClass.from_flux(build_flux(b, 0), True))
    # the degree-3 parts differ by the nonzero flux class of k = 1
    assert not same_twist_class(plain, TwistClass.from_flux(build_flux(b, 1), False))
    assert same_twist_class(plain, zero_twist(b))


def test_twist_product_space_mismatch():
    b1 = build_bundle(sigma(1), sigma(1).xi(), 0)
    b2 = build_bundle(sigma(1), sigma(1).xi(), 1)
    with pytest.raises(SpaceMismatch):
        twist_product(zero_twist(b1), zero_twist(b2))


# ---------------------------------------------------------------------------
# K-groups
# ---------------------------------------------------------------------------

def test_klein_bottle_k_groups():
    info = circle()
    p = pair_for(info, 0, 0)
    kg = ahss_k_groups(TwistClass.from_flux(p, False))
    assert (kg.K0, kg.K1) == (FG(1, (2,)), FG(1))
    kgx = ahss_k_groups(TwistClass.from_flux(p, True))
    assert (kgx.K0, kgx.K1) == (FG(1), FG(1, (2,)))


def disjoint_union(p1: FluxPair, p2: FluxPair) -> FluxPair:
    """The flux pair over the disjoint union of two bases of one dimension;
    the second base's vertex ids follow the first's."""
    x1, x2 = p1.bundle.base, p2.bundle.base
    n = x1.vertex_count
    levels = tuple(l1 + tuple(tuple(v + n for v in t) for t in l2)
                   for l1, l2 in zip(x1.simplices, x2.simplices))
    x = DeltaComplex(n + x2.vertex_count, levels)
    xi = LocalSystem(x, p1.bundle.xi.edge_signs + p2.bundle.xi.edge_signs)
    bundle = BundleDescriptor(x, xi, p1.bundle.euler + p2.bundle.euler)
    return FluxPair(bundle, p1.h3 + p2.h3, p1.fhat + p2.fhat)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k_groups_of_bare_vertices(n):
    # E is n circles: K^0 = K^1 = Z^n, one Z per component
    x = DeltaComplex(n, ())
    pair = FluxPair(BundleDescriptor(x, LocalSystem(x, ()), ()), (), ())
    kg = ahss_k_groups(TwistClass.from_flux(pair, False))
    assert (kg.K0, kg.K1) == (FG(n), FG(n))


@pytest.mark.parametrize("info, cells", [
    (sigma(1), [(j, k) for j in (0, 1) for k in (0, 1)]),
    (crosscap_sum(2), [(j, k) for j in range(4) for k in range(4)]),
])
def test_k_groups_of_a_disjoint_union_add(info, cells):
    # two copies of the base with the same bundle, the flux on one copy
    for j, k in cells:
        p1, p2 = pair_for(info, j, k), pair_for(info, j, 0)
        union = disjoint_union(p1, p2)
        for xi_twist in (False, True):
            kg = ahss_k_groups(TwistClass.from_flux(union, xi_twist))
            kg1 = ahss_k_groups(TwistClass.from_flux(p1, xi_twist))
            kg2 = ahss_k_groups(TwistClass.from_flux(p2, xi_twist))
            assert kg.K0 == kg1.K0.direct_sum(kg2.K0), (j, k, xi_twist)
            if kg.resolved and kg1.resolved and kg2.resolved:
                assert kg.K1 == kg1.K1.direct_sum(kg2.K1), (j, k, xi_twist)


def test_k_groups_with_a_degree_one_twist_on_one_component():
    # w is the orientation class on the first copy and zero on the second,
    # which carries the flux: d3 still acts on the second copy's H^0
    info = crosscap_sum(2)
    p1, p2 = pair_for(info, 1, 0), pair_for(info, 1, 1)
    union = disjoint_union(p1, p2)
    t1 = TwistClass.from_flux(p1, True)
    t2 = TwistClass.from_flux(p2, False)
    m = union.bundle.base
    t = TwistClass(union.bundle, t1.w_base + t2.w_base, (0,) * m.count(0),
                   union.h3, union.fhat)
    kg, kg1, kg2 = ahss_k_groups(t), ahss_k_groups(t1), ahss_k_groups(t2)
    assert kg.K0 == kg1.K0.direct_sum(kg2.K0)
    if kg.resolved and kg1.resolved and kg2.resolved:
        assert kg.K1 == kg1.K1.direct_sum(kg2.K1)
    assert kg2.K0 != ahss_k_groups(TwistClass.from_flux(pair_for(info, 1, 0), False)).K0


def test_oriented_base_k_tables_with_resolution():
    for g in (1, 2):
        info = sigma(g)
        for j in (0, 1):
            for k in (0, 1):
                p = pair_for(info, j, k)
                kg = ahss_k_groups(TwistClass.from_flux(p, False))
                k0 = FG(2 * g, (2,)) if j == 0 else FG(2 * g)
                k1 = FG(2 * g, (2,)) if k == 0 else FG(2 * g)
                assert kg.resolved and (kg.K0, kg.K1) == (k0, k1), (g, j, k)
                kgx = ahss_k_groups(TwistClass.from_flux(p, True))
                assert kgx.K0 == k0
                assert not kgx.resolved
                assert isinstance(kgx.K1, AmbiguousExtension)
                assert set(kgx.K1.candidates) == {FG(2 * g), FG(2 * g, (2,))}
                dual, _ = construct_tdual(p)
                dual_k = ahss_k_groups(TwistClass.from_flux(dual, False))
                res = resolve_by_tduality(kgx, dual_k)
                assert res.K1 == k1, (g, j, k)


def test_crosscap_base_k_tables_with_resolution():
    def tors(x):
        return FG(0, (2, 2)) if x % 2 == 0 else FG(0, (4,))

    for n in (1, 2):
        info = crosscap_sum(n)
        for j in (0, 1, 2):
            for k in (0, 1, 2):
                p = pair_for(info, j, k)
                kg = ahss_k_groups(TwistClass.from_flux(p, False))
                if k == 0:
                    expect = (FG(n).direct_sum(tors(j)), FG(n))
                else:
                    e1 = FG(n - 1, (k,)) if k > 1 else FG(n - 1)
                    expect = (FG(n - 1).direct_sum(tors(j)), e1)
                assert kg.resolved and (kg.K0, kg.K1) == expect, (n, j, k)
                kgx = ahss_k_groups(TwistClass.from_flux(p, True))
                e0x = FG(n) if j == 0 else (FG(n - 1, (j,)) if j > 1 else FG(n - 1))
                assert kgx.K0 == e0x
                dual, _ = construct_tdual(p)
                res = resolve_by_tduality(
                    kgx, ahss_k_groups(TwistClass.from_flux(dual, False)))
                e1x = (FG(n) if j == 0 else FG(n - 1)).direct_sum(tors(k))
                assert res.K1 == e1x, (n, j, k)


def test_resolution_error_paths():
    info = sigma(1)
    p = pair_for(info, 0, 0)
    kgx = ahss_k_groups(TwistClass.from_flux(p, True))
    assert not kgx.resolved
    bogus = KGroups(FG(5), FG(5))
    with pytest.raises(NoMatchingCandidate):
        resolve_by_tduality(kgx, bogus)
    already = KGroups(FG(1), FG(1))
    assert resolve_by_tduality(already, bogus) == already


def test_fiber_twist_rejected():
    info = circle()
    b = build_bundle(info, info.xi(), 0)
    m = b.base
    t = TwistClass(b, (0,) * m.count(1), (1,) * m.count(0),
                   (0,) * m.count(3), (0,) * m.count(2))
    with pytest.raises(UnsupportedTwist):
        ahss_k_groups(t)


def test_extension_enumeration():
    assert set(enumerate_extensions(FG(0, (2,)), FG(1))) == {FG(1, (2,)), FG(1)}
    assert set(enumerate_extensions(FG(0, (2,)), FG(0, (2,)))) == \
        {FG(0, (2, 2)), FG(0, (4,))}
    assert enumerate_extensions(FG(2), FG(1, (3,))) == (FG(3, (3,)),)


# ---------------------------------------------------------------------------
# Rational consistency and the K-level exchange
# ---------------------------------------------------------------------------

def test_rational_consistency_all_catalog_pairs():
    for info, js, ks in [(sigma(1), (0, 1), (0, 1)), (crosscap_sum(2), (0, 2), (0, 3))]:
        for j in js:
            for k in ks:
                p = pair_for(info, j, k)
                dual, _ = construct_tdual(p)
                kg = ahss_k_groups(TwistClass.from_flux(p, False))
                assert rational_consistency(kg, small_twisted_cohomology(p, False)).ok
                kgx = ahss_k_groups(TwistClass.from_flux(p, True))
                kgx = resolve_by_tduality(
                    kgx, ahss_k_groups(TwistClass.from_flux(dual, False)))
                assert rational_consistency(kgx, small_twisted_cohomology(p, True)).ok


def test_k_level_exchange_both_directions():
    for info, j, k in [(sigma(1), 0, 1), (crosscap_sum(2), 1, 2)]:
        p = pair_for(info, j, k)
        dual, _ = construct_tdual(p)
        k_e = ahss_k_groups(TwistClass.from_flux(p, False))
        k_ehat_xi = ahss_k_groups(TwistClass.from_flux(dual, True))
        k_ehat_xi = resolve_by_tduality(k_ehat_xi, k_e)
        # degree-shift exchange: K^0 on one side matches resolved K^1 with
        # the orientation twist on the other, and symmetrically
        assert k_ehat_xi.K1 == k_e.K0
        k_ehat = ahss_k_groups(TwistClass.from_flux(dual, False))
        k_e_xi = resolve_by_tduality(
            ahss_k_groups(TwistClass.from_flux(p, True)), k_ehat)
        assert k_e_xi.K1 == k_ehat.K0


def test_fixtures_compute_each_pairs_k_groups_once(monkeypatch):
    """``run_fixtures()`` reads a pair's K-groups, and its dual's, through
    one cache keyed on the pair and the twist; the dual of catalog pair
    (j, k) is pair (k, j).  So ``ahss_k_groups`` runs once per distinct
    (pair, twist), 122 times over the 184 cells where a call per read
    made 182, and every cell keeps the value computed without the cache."""
    calls = []
    monkeypatch.setattr(pipeline, "ahss_k_groups", lambda t: calls.append(t) or ahss_k_groups(t))
    pipeline._resolved_k_groups.cache_clear()
    pipeline._k_groups.cache_clear()
    results = pipeline.run_fixtures()
    assert len(results) == 184 and all(r.ok for r in results)
    distinct = set()
    for r in results:
        fx = r.fixture
        if fx.kind != "k-groups":
            continue
        params = (fx.params + (0, 0, 0))[:3]  # Klein bottle cells have none
        pair, twist = pipeline._flux_for(fx.space, *params), fx.twist == "(xi,h)"
        kg = ahss_k_groups(TwistClass.from_flux(pair, twist))
        distinct.add((pair, twist))
        if not kg.resolved:
            kg = resolve_by_tduality(kg, ahss_k_groups(TwistClass.from_flux(pair.dual(), not twist)))
            distinct.add((pair.dual(), not twist))
        assert r.computed == (kg.K0, kg.K1), fx.label()
    assert len(calls) == len(distinct) == 122


def test_extension_enumeration_refuses_past_its_cap():
    """2^10 extension classes of (Z/2)^10 by Z/2: more than 512 to try."""
    with pytest.raises(ValueError, match="extension enumeration too large"):
        enumerate_extensions(FG(0, (2,) * 10), FG(0, (2,)))
    assert len(enumerate_extensions(FG(0, (2,) * 9), FG(0, (2,)))) == 2


def test_resolution_refuses_an_ambiguous_dual_and_equal_candidates():
    amb = KGroups(FG(1), AmbiguousExtension(FG(0, (2,)), FG(1, (2,)),
                                            (FG(1, (2, 2)), FG(1, (4,)))))
    with pytest.raises(ValueError, match="the dual side must be unambiguous"):
        resolve_by_tduality(amb, amb)
    twice = KGroups(FG(1), AmbiguousExtension(FG(0, (2,)), FG(1, (2,)),
                                              (FG(1, (4,)), FG(1, (4,)))))
    with pytest.raises(MultipleMatches, match="extension candidates are not distinct"):
        resolve_by_tduality(twice, KGroups(FG(1, (4,)), FG(1)))


def test_rational_report_prints_pass_and_fail():
    assert str(RationalReport((1, 2), (1, 2))) == \
        "rank K^0/K^1 = (1, 2) vs twisted even/odd dims = (1, 2) [pass]"
    assert str(RationalReport((1, 2), (2, 1))).endswith("[FAIL]")
