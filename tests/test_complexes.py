import random
import sys
from dataclasses import replace

import pytest

from tdual import catalog, complexes, exactalg
from tdual.bundles import TotalComplex, align_xi_cochain
from tdual.catalog import circle, crosscap_sum, klein_bottle, sigma, space, torus
from tdual.complexes import (
    DeltaComplex,
    InvalidLocalSystem,
    LocalSystem,
    NotACocycle,
    TwistedCochain,
    bockstein,
    coboundary,
    coboundary_matrix,
    cochain_complex,
    cohomology,
    cup,
    cup_matrix_left,
    homology,
    is_coboundary,
    is_same_z2_class,
    poincare_duality_check,
    tensor,
)
from tdual.exactalg import FGAbelianGroup as FG
from tdual.exactalg import IntMatrix

SPACES = lambda: [circle(), torus(), klein_bottle(), sigma(1), sigma(2),
                  crosscap_sum(1), crosscap_sum(2), crosscap_sum(3)]

SIMPLEX3 = DeltaComplex(4, (
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    ((0, 1, 2, 3),),
))


def rand_cochain(rng, x, k, system=None):
    return TwistedCochain(x, k, tuple(rng.randint(-4, 4) for _ in range(x.count(k))),
                          system)


# ---------------------------------------------------------------------------
# Complex construction
# ---------------------------------------------------------------------------

def test_circle_complex():
    x = circle().complex
    assert x.dimension == 1
    assert (x.count(0), x.count(1)) == (1, 1)
    assert x.euler_characteristic() == 0


def test_duplicate_edge_tuples_rejected():
    with pytest.raises(ValueError):
        DeltaComplex(2, (((0, 1), (0, 1)), ((0, 1, 1),)))


def test_missing_face_rejected():
    with pytest.raises(ValueError):
        DeltaComplex(3, (((0, 1),), ((0, 1, 2),)))


def walked_subface(x, dim, index, start, end):
    """The face of positions start..end found by walking face tables one
    dimension at a time, as ``DeltaComplex.subface`` once did."""
    cur_dim, cur = dim, index
    while cur_dim > end - start:
        if cur_dim > end:
            cur = x.faces(cur_dim, cur)[cur_dim]  # drop last vertex
        else:
            cur = x.faces(cur_dim, cur)[0]  # drop first vertex
            start -= 1
            end -= 1
        cur_dim -= 1
    return cur


def test_subface_matches_the_face_walk():
    for x in [info.complex for info in SPACES()] + [SIMPLEX3]:
        for d in range(x.dimension + 1):
            for i in range(x.count(d)):
                for start in range(d + 1):
                    for end in range(start, d + 1):
                        assert x.subface(d, i, start, end) == \
                            walked_subface(x, d, i, start, end), (x, d, i, start, end)


def test_catalog_euler_characteristics():
    for info, chi in [(torus(), 0), (klein_bottle(), 0), (sigma(2), -2),
                      (sigma(3), -4), (crosscap_sum(1), 1), (crosscap_sum(3), -1)]:
        assert info.complex.euler_characteristic() == chi


def test_large_surfaces_build_under_the_default_recursion_limit():
    """The subdivision backtracks with an explicit stack: one Python frame
    per cone triangle raised RecursionError from sigma(249) and
    crosscap(497) on.  sigma(256) and crosscap(512) have 4,096 triangles."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        built = [(sigma.__wrapped__(256), -510), (crosscap_sum.__wrapped__(512), -510)]
    finally:
        sys.setrecursionlimit(limit)
    for info, chi in built:
        assert info.complex.count(2) == 4096
        assert info.complex.euler_characteristic() == chi
        assert info.xi().base == info.complex


def test_json_round_trip_bit_exact():
    for info in SPACES():
        x = info.complex
        s = x.to_json()
        y = DeltaComplex.from_json(s)
        assert y == x
        assert y.to_json() == s
        ls = info.xi()
        ls2 = LocalSystem.from_json_dict(x, ls.to_json_dict())
        assert ls2 == ls


# ---------------------------------------------------------------------------
# Local systems and coboundaries
# ---------------------------------------------------------------------------

def test_local_system_cocycle_condition_enforced():
    x = sigma(1).complex
    bad = [1] * x.count(1)
    bad[x.faces(2, 0)[0]] = -1
    with pytest.raises(InvalidLocalSystem):
        LocalSystem(x, tuple(bad))


def test_delta_squared_zero_random_systems():
    rng = random.Random(0)
    for info in SPACES():
        x = info.complex
        for system in (None, info.xi()):
            for k in range(x.dimension + 1):
                m2 = coboundary_matrix(x, k + 1, system).mul(
                    coboundary_matrix(x, k, system))
                assert m2.is_zero(), (info.name, k)
            c = rand_cochain(rng, x, 0, system)
            assert coboundary(coboundary(c)).is_zero()


# ---------------------------------------------------------------------------
# Cohomology tables for the catalog bases
# ---------------------------------------------------------------------------

def test_surface_cohomology_tables():
    for g in (1, 2, 3):
        info = sigma(g)
        assert [h.group for h in cohomology(info.complex)] == [FG(1), FG(2 * g), FG(1)]
        assert [h.group for h in cohomology(info.complex, info.xi())] == \
            [FG(0), FG(2 * g - 2, (2,)), FG(0, (2,))]
    for n in (1, 2, 3):
        info = crosscap_sum(n)
        assert [h.group for h in cohomology(info.complex)] == \
            [FG(1), FG(n - 1), FG(0, (2,))]
        assert [h.group for h in cohomology(info.complex, info.xi())] == \
            [FG(0), FG(n - 1, (2,)), FG(1)]


def test_circle_twisted_cohomology():
    info = circle()
    assert [h.group for h in cohomology(info.complex, info.xi())] == \
        [FG(0), FG(0, (2,))]


def test_rational_dims_match_free_ranks():
    for info in (klein_bottle(), sigma(2), crosscap_sum(2)):
        for system in (None, info.xi()):
            hz = cohomology(info.complex, system)
            hq = cohomology(info.complex, system, ring="Q")
            for a, b in zip(hz, hq):
                assert b.group == FG(a.group.free_rank)


def test_mod2_cohomology_of_projective_plane():
    info = crosscap_sum(1)
    h2 = [g.group for g in cohomology(info.complex, None, ring=2)]
    assert h2 == [FG(0, (2,)), FG(0, (2,)), FG(0, (2,))]


@pytest.mark.parametrize("ring", [2.5, "q", "2", True, 1])
def test_invalid_ring_is_rejected(ring):
    x = klein_bottle().complex
    cohomology(x, None, ring=2)  # a cached Z/2 answer must not be reused
    for groups in (cohomology, homology):
        with pytest.raises(ValueError, match="ring must be"):
            groups(x, None, ring=ring)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

def test_homology_coinvariants_and_duality_partners():
    rp2 = crosscap_sum(1)
    assert homology(rp2.complex, rp2.xi())[0].group == FG(0, (2,))
    for info in SPACES():
        assert homology(info.complex)[0].group == FG(1)
    k = klein_bottle()
    assert homology(k.complex, k.orientation_system())[2].group == FG(1)


def test_poincare_duality_surfaces():
    for info in (torus(), sigma(2), klein_bottle(), crosscap_sum(1), crosscap_sum(3)):
        orn = info.orientation_system()
        systems = [("Z", None)]
        if info.complex.dimension == 2:
            systems.append(("xi", info.xi() if info.default_xi else info.trivial_xi()))
        rep = poincare_duality_check(info.complex, orn, systems=systems)
        assert rep.ok, (info.name, str(rep))


def test_orientation_system_is_the_reversing_character():
    assert space("sigma", g=12).orientation_system() is None
    for n in range(1, 5):
        info = crosscap_sum(n)
        assert info.orientation_system() == info.xi()
    with pytest.raises(ValueError, match="orientation character"):
        replace(crosscap_sum(1), reversing_labels=frozenset()).orientation_system()


def test_poincare_duality_circle():
    info = circle()
    rep = poincare_duality_check(info.complex, None)
    assert rep.ok


# ---------------------------------------------------------------------------
# Cup products
# ---------------------------------------------------------------------------

def test_cup_unit():
    rng = random.Random(1)
    for info in (torus(), klein_bottle()):
        x = info.complex
        one = TwistedCochain(x, 0, (1,) * x.count(0), None)
        for system in (None, info.xi()):
            beta = rand_cochain(rng, x, 1, system)
            assert cup(one, beta).values == beta.values


def test_torus_h1_generators_cup_to_fundamental_class():
    info = torus()
    x = info.complex
    h1 = cohomology(x)
    h2 = cohomology(x)[2]
    g1, g2 = h1[1].representatives
    a = TwistedCochain(x, 1, g1, None)
    b = TwistedCochain(x, 1, g2, None)
    prod = cup(a, b)
    coords = h2.coordinates(prod.values)
    assert coords in ((1,), (-1,))


def test_cup_leibniz_exact():
    rng = random.Random(2)
    for info in (klein_bottle(), sigma(1), crosscap_sum(2)):
        x = info.complex
        xi = info.xi()
        for s1, s2 in [(None, None), (xi, xi), (xi, None)]:
            for p, q in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                a = rand_cochain(rng, x, p, s1)
                b = rand_cochain(rng, x, q, s2)
                lhs = coboundary(cup(a, b))
                rhs = cup(coboundary(a), b)
                sb = cup(a, coboundary(b)).scale(-1 if p % 2 else 1)
                assert (lhs - (rhs + sb)).is_zero(), (info.name, p, q)


def test_cup_matrix_left_agrees_with_cup():
    rng = random.Random(4)
    for info in SPACES():
        x = info.complex
        systems = (None, info.xi())
        for modulus in (None, 2, 3):
            for p in range(x.dimension + 1):
                for q in range(x.dimension + 2 - p):
                    for sa in systems:
                        for sb in systems:
                            a, b = (TwistedCochain(x, k, tuple(
                                        rng.randrange(modulus) if modulus else rng.randint(-4, 4)
                                        for _ in range(x.count(k))), s, modulus)
                                    for k, s in ((p, sa), (q, sb)))
                            expect = cup_matrix_left(a, q, sb).mul_vec(b.values)
                            if modulus:
                                expect = tuple(v % modulus for v in expect)
                            assert cup(a, b).values == expect, (info.name, modulus, p, q)


def test_cup_associative_at_cochain_level():
    rng = random.Random(3)
    info = klein_bottle()
    x = info.complex
    xi = info.xi()
    a = rand_cochain(rng, x, 0, xi)
    b = rand_cochain(rng, x, 1, xi)
    c = rand_cochain(rng, x, 1, None)
    assert cup(cup(a, b), c).values == cup(a, cup(b, c)).values


def test_cup_graded_commutative_on_cohomology():
    info = sigma(1)
    x = info.complex
    h1 = cohomology(x)[1]
    h2 = cohomology(x)[2]
    g1, g2 = (TwistedCochain(x, 1, r, None) for r in h1.representatives)
    ab = h2.coordinates(cup(g1, g2).values)
    ba = h2.coordinates(cup(g2, g1).values)
    assert ab == tuple(-v for v in ba)


# ---------------------------------------------------------------------------
# Bockstein
# ---------------------------------------------------------------------------

def _mod2(x, values):
    return TwistedCochain(x, 1, tuple(v % 2 for v in values), None, 2)


def test_bockstein_generator_of_projective_plane():
    info = crosscap_sum(1)
    x = info.complex
    h1_mod2 = cohomology(x, None, ring=2)[1]
    gen = h1_mod2.representatives[0]
    b = bockstein(_mod2(x, gen))
    h2 = cohomology(x)[2]
    assert h2.group == FG(0, (2,))
    assert h2.coordinates(b.values) == (1,)


def test_bockstein_of_integral_class_vanishes():
    info = torus()
    x = info.complex
    h1 = cohomology(x)[1]
    gen = h1.representatives[0]
    b = bockstein(_mod2(x, gen))
    assert cohomology(x)[2].coordinates(b.values) == (0,)


def test_bockstein_orientation_class_parity():
    # beta(w1) is nonzero exactly for an odd number of crosscaps: w1 squares
    # to n times the mod-2 fundamental class, and w1 lifts integrally when
    # n is even.  The Klein bottle (n = 2) therefore gives zero.
    for n, expect in [(1, (1,)), (2, (0,)), (3, (1,))]:
        info = crosscap_sum(n)
        x = info.complex
        w = info.xi()
        w_cochain = _mod2(x, tuple(0 if s == 1 else 1 for s in w.edge_signs))
        b = bockstein(w_cochain)
        h2 = cohomology(x)[2]
        assert h2.group == FG(0, (2,))
        assert h2.coordinates(b.values) == expect, n


def test_bockstein_lift_independence():
    info = crosscap_sum(2)
    x = info.complex
    gen = cohomology(x, None, ring=2)[1].representatives[0]
    c = _mod2(x, gen)
    b1 = bockstein(c)
    b2 = bockstein(c, lift_negative=True)
    h2 = cohomology(x)[2]
    assert h2.coordinates(b1.values) == h2.coordinates(b2.values)


def test_bockstein_requires_cocycle():
    info = crosscap_sum(1)
    x = info.complex
    vals = [0] * x.count(1)
    vals[0] = 1
    c = _mod2(x, tuple(vals))
    if not coboundary(c).is_zero():
        with pytest.raises(NotACocycle):
            bockstein(c)


def test_mod2_coboundaries_of_projective_plane():
    # H^1(RP^2; Z/2) = Z/2 is spanned by w1, so w1 is no coboundary, while
    # delta of a vertex function is one
    info = crosscap_sum(1)
    x = info.complex
    u = TwistedCochain(x, 0, tuple(v % 2 for v in range(x.count(0))), None, 2)
    assert not coboundary(u).is_zero() and is_coboundary(coboundary(u))
    w1 = _mod2(x, tuple(0 if s == 1 else 1 for s in info.xi().edge_signs))
    assert coboundary(w1).is_zero() and not is_coboundary(w1)


def test_groups_are_read_without_generator_factorizations(monkeypatch):
    """Cohomology groups factor the coboundaries through the cache and
    nothing else; homology groups and Q groups read after them factor
    nothing new, and Z/m cohomology groups only the small diagonal of
    their summand orders."""
    built = []

    class CountingSmith(exactalg._Smith):
        def __init__(self, a):
            built.append(a)
            super().__init__(a)

    monkeypatch.setattr(exactalg, "_Smith", CountingSmith)
    complexes._groups.cache_clear()
    exactalg._smith_cached.cache_clear()
    x = space("sigma", g=3).complex
    assert [g.group for g in cohomology(x)] == [FG(1), FG(6), FG(1)]
    misses = exactalg._smith_cached.cache_info().misses
    assert len(built) == misses
    assert [g.group for g in homology(x)] == [FG(1), FG(6), FG(1)]
    assert [g.group for g in cohomology(x, ring="Q")] == [FG(1), FG(6), FG(1)]
    assert [g.group for g in homology(x, ring="Q")] == [FG(1), FG(6), FG(1)]
    assert exactalg._smith_cached.cache_info().misses == misses == len(built)
    assert [g.group for g in cohomology(x, ring=2)] == [FG(0, (2,)), FG(0, (2,) * 6), FG(0, (2,))]
    assert [g.group for g in cohomology(x, ring=3)] == [FG(0, (3,)), FG(0, (3,) * 6), FG(0, (3,))]
    n_mid = max(map(x.count, range(x.dimension + 1)))
    for a in built[misses:]:
        assert a.rows == a.cols <= n_mid
        assert all(v == 0 for i, row in enumerate(a.data) for j, v in enumerate(row) if i != j)


def test_homology_after_cohomology_multiplies_nothing(monkeypatch):
    """H_* after H^* of one complex reuses its cached composition checks."""
    complexes._groups.cache_clear()
    exactalg._check_composes.cache_clear()
    cx = cochain_complex(space("sigma", g=2).complex)
    assert [g.group for g in cx.cohomology()] == [FG(1), FG(4), FG(1)]
    products = []
    row_times = exactalg._row_times
    monkeypatch.setattr(exactalg, "_row_times", lambda row, b: products.append(row) or row_times(row, b))
    assert [g.group for g in cx.homology()] == [FG(1), FG(4), FG(1)]
    assert products == []


def test_composition_check_forms_no_product(monkeypatch):
    """homology_at checks d_out . d_in = 0 on a cone pair row by row: it
    neither multiplies the two coboundaries nor builds a matrix of their
    product."""
    info = sigma(2)
    model = TotalComplex(catalog.build_bundle(info, info.xi(), 1))
    d_in, d_out = model.delta_matrix(0), model.delta_matrix(1)
    exactalg.homology_at(d_in, d_out)  # the Smith forms are cached from here on
    exactalg._check_composes.cache_clear()
    calls = []
    mul, from_nonzeros = IntMatrix.mul, IntMatrix.from_nonzeros
    monkeypatch.setattr(IntMatrix, "mul", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(IntMatrix, "from_nonzeros", staticmethod(
        lambda rows, cols: calls.append("from_nonzeros") or from_nonzeros(rows, cols)))
    assert exactalg.homology_at(d_in, d_out).group == FG(4)
    assert exactalg._check_composes.cache_info().misses == 1
    assert calls == []


def test_surface_words_may_start_with_an_inverse_edge():
    """A label whose first occurrence has exponent -1 is glued along the
    reversed edge: the torus and the projective plane come out the same."""
    for word, expected in (((("a", -1), ("b", -1), ("a", 1), ("b", 1)), [FG(1), FG(2), FG(1)]),
                           ((("a", -1), ("a", -1)), [FG(1), FG(0), FG(0, (2,))])):
        x = catalog._surface_from_word("word", word).complex
        assert [g.group for g in cohomology(x)] == expected


def test_zero_cochains_align_by_their_vertex():
    """Aligning a 0-cochain reads each vertex as its own first vertex."""
    info = crosscap_sum(1)
    xi = info.xi()
    u = [1] + [0] * (info.complex.vertex_count - 1)
    other = LocalSystem(info.complex, tuple(
        s * (-1) ** (u[t] + u[h]) for s, (t, h) in zip(xi.edge_signs, info.complex.simplices[0])))
    c = TwistedCochain(info.complex, 0, tuple(range(1, info.complex.vertex_count + 1)), other)
    signs = [a // b for a, b in zip(align_xi_cochain(c, xi).values, c.values)]
    assert signs[1:] == [-signs[0]] * (len(signs) - 1)


def test_mod_m_cochains_reduce_and_no_systems_agree():
    x = sigma(1).complex
    c = TwistedCochain(x, 1, (1,) * x.count(1), None, 3)
    assert (c + c + c).is_zero() and (c + c).values == (2,) * x.count(1)
    assert c.scale(5).values == (2,) * x.count(1)
    assert is_same_z2_class(None, None)


def test_duality_report_prints_each_degree():
    info = crosscap_sum(1)
    report = poincare_duality_check(info.complex, info.orientation_system())
    assert str(report).splitlines() == [
        f"H^{i}(Z) = {lhs}  vs  H_{2 - i} = {rhs}  [ok]" for i, _, lhs, rhs, _ in report.entries]
    broken = replace(report, entries=report.entries[:1] + (
        (1, "Z", FG(1), FG(0), False),))
    assert str(broken).splitlines()[1] == "H^1(Z) = Z  vs  H_1 = 0  [FAIL]"
