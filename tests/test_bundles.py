import random

import pytest

from tdual import bundles
from tdual.bundles import (
    BundleDescriptor,
    InvalidDescriptor,
    TotalComplex,
    gauge_action,
    gysin_exactness_report,
    pullback,
    pullback_cup,
    pushforward,
    same_bundle,
    total_cohomology,
    total_duality_report,
    total_homology,
)
from tdual.catalog import (
    JOutOfRange,
    build_bundle,
    build_flux,
    circle,
    crosscap_sum,
    klein_bottle,
    sigma,
    torus,
)
from tdual.complexes import TwistedCochain, coboundary, cohomology, cup
from tdual.exactalg import FGAbelianGroup as FG
from tdual.exactalg import IntMatrix, PresentedGroup, normal_form


def trivial_bundle(info):
    return BundleDescriptor(info.complex, info.trivial_xi(),
                            (0,) * info.complex.count(2))


def rand_total(rng, model, k):
    m = model.base
    return model.cochain(k, [rng.randint(-3, 3) for _ in range(m.count(k))],
                         [rng.randint(-3, 3) for _ in range(m.count(k - 1))])


# ---------------------------------------------------------------------------
# Descriptor validation and the total differential
# ---------------------------------------------------------------------------

def test_euler_must_be_closed():
    info = crosscap_sum(1)
    x = info.complex
    vals = [0] * x.count(2)
    vals[0] = 1
    e = TwistedCochain(x, 2, tuple(vals), info.xi())
    if not coboundary(e).is_zero():
        with pytest.raises(InvalidDescriptor):
            BundleDescriptor(x, info.xi(), tuple(vals))


def test_total_delta_squared_zero():
    for info, j in [(circle(), 0), (sigma(1), 1), (crosscap_sum(2), 3)]:
        b = build_bundle(info, info.xi(), j)
        for zeta in (None, info.xi()):
            model = TotalComplex(b, zeta)
            for k in range(model.dimension + 1):
                assert model.delta_matrix(k + 1).mul(model.delta_matrix(k)).is_zero()


# ---------------------------------------------------------------------------
# Cohomology of the total model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [2.5, "q", "2", True, 1])
def test_invalid_ring_is_rejected_on_total_models(ring):
    model = TotalComplex(build_bundle(klein_bottle(), None, 1))
    model.cohomology(2)  # a cached Z/2 answer must not be reused
    for groups in (model.cohomology, model.homology):
        with pytest.raises(ValueError, match="ring must be"):
            groups(ring)


def test_klein_bottle_over_circle():
    info = circle()
    kb = build_bundle(info, info.xi(), 0)
    assert total_cohomology(kb) == [FG(1), FG(1), FG(0, (2,))]
    assert total_cohomology(kb, info.xi()) == [FG(0), FG(1, (2,)), FG(1)]


def test_kunneth_for_trivial_bundles():
    for info in (torus(), klein_bottle(), crosscap_sum(2)):
        b = trivial_bundle(info)
        hz = total_cohomology(b)
        hm = [g.group for g in cohomology(info.complex)]
        for k in range(len(hm) + 1):
            a = hm[k] if k < len(hm) else FG(0)
            c = hm[k - 1] if 0 <= k - 1 < len(hm) else FG(0)
            assert hz[k] == a.direct_sum(c)


def test_oriented_base_bundle_tables():
    for g in (1, 2):
        info = sigma(g)
        for j in (0, 1):
            b = build_bundle(info, info.xi(), j)
            hz = total_cohomology(b)
            hx = total_cohomology(b, info.xi())
            if j == 0:
                assert hz == [FG(1), FG(2 * g), FG(2 * g - 1, (2,)), FG(0, (2,))]
                assert hx == [FG(0), FG(2 * g - 1, (2,)), FG(2 * g, (2,)), FG(1)]
            else:
                assert hz == [FG(1), FG(2 * g), FG(2 * g - 1), FG(0, (2,))]
                assert hx == [FG(0), FG(2 * g - 1, (2,)), FG(2 * g), FG(1)]


def test_crosscap_base_bundle_tables():
    for n in (1, 2):
        info = crosscap_sum(n)
        for j in (0, 1, 2):
            b = build_bundle(info, info.xi(), j)
            hz = total_cohomology(b)
            t = FG(0, (2, 2)) if j % 2 == 0 else FG(0, (4,))
            assert hz == [FG(1), FG(n - 1), FG(n - 1).direct_sum(t), FG(1)]
            hx = total_cohomology(b, info.xi())
            if j == 0:
                assert hx == [FG(0), FG(n, (2,)), FG(n), FG(0, (2,))]
            else:
                tor = (j,) if j > 1 else ()
                assert hx == [FG(0), FG(n - 1, (2,)), FG(n - 1, tor), FG(0, (2,))]


def test_h1_matches_abelianized_fundamental_group():
    for n in (1, 2):
        for j in (0, 1, 2, 3):
            info = crosscap_sum(n)
            b = build_bundle(info, info.xi(), j)
            rel = IntMatrix.from_rows([[2] * n + [-j], [0] * n + [2]], cols=n + 1)
            assert total_homology(b)[1] == normal_form(PresentedGroup(n + 1, rel))


# ---------------------------------------------------------------------------
# Structure maps
# ---------------------------------------------------------------------------

def test_pullback_is_chain_map_and_pushforward_kills_it():
    rng = random.Random(4)
    info = sigma(1)
    b = build_bundle(info, info.xi(), 1)
    model = TotalComplex(b)
    for k in (0, 1, 2):
        a = TwistedCochain(info.complex, k,
                           tuple(rng.randint(-3, 3) for _ in range(info.complex.count(k))),
                           None)
        lhs = model.coboundary(pullback(b, a))
        rhs = pullback(b, coboundary(a))
        assert (lhs - rhs).is_zero()
        assert all(v == 0 for v in pushforward(pullback(b, a)).values)


def test_pullback_of_zero_and_exactness():
    info = circle()
    b = build_bundle(info, info.xi(), 0)
    z = TwistedCochain(info.complex, 0, (0,) * info.complex.count(0), None)
    assert pullback(b, z).is_zero()
    # pullback of H^1 generator of the circle stays nonzero upstairs
    h1 = cohomology(info.complex)[1]
    model = TotalComplex(b)
    up = pullback(b, TwistedCochain(info.complex, 1, h1.representatives[0], None))
    assert model.class_of(up) != (0,) * len(model.class_of(up))


def test_projection_formula():
    rng = random.Random(5)
    info = crosscap_sum(2)
    b = build_bundle(info, info.xi(), 1)
    model = TotalComplex(b)
    for p in (0, 1):
        for k in (1, 2):
            a = TwistedCochain(info.complex, p,
                               tuple(rng.randint(-3, 3) for _ in range(info.complex.count(p))),
                               None)
            x = rand_total(rng, model, k)
            lhs = pushforward(pullback_cup(a, x))
            rhs = cup(a, pushforward(x))
            assert lhs.values == rhs.values or lhs.values == tuple(-v for v in rhs.values)


def test_fiber_class_pushes_to_one():
    info = torus()
    b = trivial_bundle(info)
    model = TotalComplex(b)
    fiber = model.cochain(1, (0,) * info.complex.count(1), (1,) * info.complex.count(0))
    assert pushforward(fiber).values == (1,) * info.complex.count(0)


def test_gauge_action_examples():
    rng = random.Random(6)
    info = sigma(2)
    b = build_bundle(info, info.xi(), 0)
    model = TotalComplex(b)
    h1x = cohomology(info.complex, info.xi())[1]
    alpha = TwistedCochain(info.complex, 1, h1x.representatives[0], info.xi())
    flux = build_flux(b, 1)
    x = flux.total_cochain()
    # alpha = 0 acts as the identity
    zero_alpha = TwistedCochain(info.complex, 1, (0,) * info.complex.count(1), info.xi())
    assert (gauge_action(x, zero_alpha) - x).is_zero()
    # pushforward zero means fixed
    a2 = TwistedCochain(info.complex, 2,
                        tuple(rng.randint(-2, 2) for _ in range(info.complex.count(2))),
                        None)
    y = pullback(b, a2)
    if model.is_cocycle(y):
        assert (gauge_action(y, alpha) - y).is_zero()
    # output closed, class shifted by the pulled-back product
    out = gauge_action(x, alpha)
    assert model.is_cocycle(out)
    shift = pullback(b, cup(alpha, pushforward(x)))
    assert model.class_of(out) == model.class_of(x + shift)


# ---------------------------------------------------------------------------
# Bundle classification
# ---------------------------------------------------------------------------

def test_same_bundle_under_sign_and_coboundary():
    rng = random.Random(7)
    info = crosscap_sum(2)
    b = build_bundle(info, info.xi(), 2)
    neg = BundleDescriptor(b.base, b.xi, tuple(-v for v in b.euler))
    assert same_bundle(b, neg)
    t = TwistedCochain(info.complex, 1,
                       tuple(rng.randint(-2, 2) for _ in range(info.complex.count(1))),
                       info.xi())
    shifted = BundleDescriptor(b.base, b.xi,
                               tuple(a + d for a, d in zip(b.euler, coboundary(t).values)))
    assert same_bundle(b, shifted)
    assert same_bundle(neg, shifted)
    assert same_bundle(b, build_bundle(info, info.xi(), -2))
    for j in (0, 1, 3):
        assert not same_bundle(b, build_bundle(info, info.xi(), j)), j
    # a vacuous H^2
    s1 = circle()
    assert same_bundle(build_bundle(s1, s1.xi(), 0), build_bundle(s1, s1.xi(), 0))


def test_distinct_bundles_over_oriented_base():
    info = sigma(2)
    b0 = build_bundle(info, info.xi(), 0)
    b1 = build_bundle(info, info.xi(), 1)
    assert not same_bundle(b0, b1)
    with pytest.raises(JOutOfRange):
        build_bundle(info, info.xi(), 2)


def test_builder_error_paths():
    from tdual.catalog import InvalidXi, KOutOfRange

    info = sigma(1)
    with pytest.raises(InvalidXi):
        build_bundle(info, info.trivial_xi(), 0)
    with pytest.raises(KOutOfRange):
        build_flux(build_bundle(info, info.xi(), 0), 2)
    s1 = circle()
    with pytest.raises(KOutOfRange):
        build_flux(build_bundle(s1, s1.xi(), 0), 1)
    with pytest.raises(JOutOfRange):
        build_bundle(s1, s1.xi(), 1)


# ---------------------------------------------------------------------------
# Global consistency
# ---------------------------------------------------------------------------

def test_poincare_duality_on_total_models():
    for info, js in [(sigma(1), (0, 1)), (crosscap_sum(2), (0, 1, 2))]:
        for j in js:
            b = build_bundle(info, info.xi(), j)
            rep = total_duality_report(b, info.orientation_system(),
                                       systems=[("Z", None), ("xi", info.xi())])
            assert rep.ok, (info.name, j, str(rep))


def test_gysin_sequence_exactness():
    for info, j in [(sigma(1), 1), (crosscap_sum(2), 2), (circle(), 0)]:
        b = build_bundle(info, info.xi(), j)
        for zeta in (None, info.xi()):
            rep = gysin_exactness_report(b, zeta)
            assert all(ok for _, ok in rep), (info.name, j, rep)


def test_bundle_json_round_trip():
    info = sigma(1)
    b = build_bundle(info, info.xi(), 1)
    s = b.to_json()
    assert BundleDescriptor.from_json_dict(__import__("json").loads(s)) == b


def test_same_bundle_tells_classes_apart():
    """Other orientation class, other Euler class: not the same bundle."""
    info = crosscap_sum(2)
    b = build_bundle(info, info.xi(), 1)
    assert not same_bundle(b, build_bundle(info, info.trivial_xi(), 1))
    assert not same_bundle(b, build_bundle(info, info.xi(), 2))


def test_gysin_report_fails_with_another_euler_cocycle(monkeypatch):
    """The sequence assembled from the total space of e = 2 but with the
    cup by e = 1 over the torus is not exact at H^2(M) = Z: the pullback
    kills 2Z there, and the cup hits all of Z."""
    info = torus()
    b = build_bundle(info, info.trivial_xi(), 1)
    double = build_bundle(info, info.trivial_xi(), 2)
    assert all(ok for _, ok in gysin_exactness_report(b))
    monkeypatch.setattr(bundles, "TotalComplex",
                        lambda bundle, zeta=None: TotalComplex(double, zeta))
    failed = [name for name, ok in gysin_exactness_report(b) if not ok]
    assert failed == ["H^2(M)"]
