import random

import pytest

from tdual import tduality
from tdual.bundles import BundleDescriptor, TotalComplex, same_bundle
from tdual.catalog import build_bundle, build_flux, circle, crosscap_sum, klein_bottle, sigma
from tdual.cli import main
from tdual.complexes import LocalSystem, coboundary_matrix, cohomology
from tdual.exactalg import FGAbelianGroup as FG
from tdual.exactalg import IntMatrix, homology_at
from tdual.ktheory import TwistClass, ahss_k_groups, resolve_by_tduality
from tdual.tduality import (
    BundleMismatch,
    CorrespondenceComplex,
    FluxPair,
    SmallTwistedComplex,
    construct_tdual,
    duals_equivalent,
    hori_small,
    hori_small_reverse,
    small_twisted_cohomology,
    verify_tduality,
)


def pair_for(info, j, k):
    return build_flux(build_bundle(info, info.xi(), j), k)


# ---------------------------------------------------------------------------
# Correspondence complex
# ---------------------------------------------------------------------------

def test_correspondence_delta_squared_zero():
    for info, j, k in [(sigma(1), 0, 1), (crosscap_sum(2), 1, 2), (circle(), 0, 0)]:
        p = pair_for(info, j, k)
        dual, _ = construct_tdual(p)
        corr = CorrespondenceComplex(p.bundle, dual.bundle)
        for deg in range(5):
            assert corr.delta_matrix(deg + 1).mul(corr.delta_matrix(deg)).is_zero()


def test_correspondence_coboundary_is_the_assembled_delta():
    """coboundary applies delta block by block, from the total models and
    the cup with ehat; in every degree it is the assembled cone's product."""
    rng = random.Random(4)
    for info, j, k in [(sigma(1), 0, 1), (crosscap_sum(2), 1, 2), (circle(), 0, 0)]:
        p = pair_for(info, j, k)
        corr = CorrespondenceComplex(p.bundle, p.dual().bundle)
        for deg in range(5):
            z = corr.from_vector(deg, [rng.randint(-3, 3) for _ in range(corr.count(deg))])
            assert corr.coboundary(z).vector() == corr.delta_matrix(deg).mul_vec(z.vector())


def test_correspondence_structure_maps_are_chain_maps():
    rng = random.Random(0)
    info = crosscap_sum(2)
    p = pair_for(info, 1, 2)
    dual, _ = construct_tdual(p)
    corr = CorrespondenceComplex(p.bundle, dual.bundle)
    me = TotalComplex(p.bundle)
    mhat = TotalComplex(dual.bundle)
    for k in (1, 2):
        x = me.cochain(k, [rng.randint(-3, 3) for _ in range(info.complex.count(k))],
                       [rng.randint(-3, 3) for _ in range(info.complex.count(k - 1))])
        assert (corr.coboundary(corr.p_pull(x)) - corr.p_pull(me.coboundary(x))).is_zero()
        y = mhat.cochain(k, [rng.randint(-3, 3) for _ in range(info.complex.count(k))],
                         [rng.randint(-3, 3) for _ in range(info.complex.count(k - 1))])
        assert (corr.coboundary(corr.phat_pull(y)) - corr.phat_pull(mhat.coboundary(y))).is_zero()
        # pushforwards are chain maps onto the xi-twisted total models
        z = corr.from_vector(k, [rng.randint(-2, 2) for _ in range(corr.count(k))])
        me_x = TotalComplex(p.bundle, info.xi())
        mh_x = TotalComplex(dual.bundle, info.xi())
        assert (mh_x.coboundary(corr.p_push(z)) - corr.p_push(corr.coboundary(z))).is_zero()
        assert (me_x.coboundary(corr.phat_push(z)) - corr.phat_push(corr.coboundary(z))).is_zero()


# ---------------------------------------------------------------------------
# Construction, axioms, round trips
# ---------------------------------------------------------------------------

def test_klein_bottle_self_dual_with_zero_certificate():
    info = circle()
    p = pair_for(info, 0, 0)
    dual, cert = construct_tdual(p)
    assert same_bundle(p.bundle, dual.bundle)
    assert cert.b.is_zero()
    assert verify_tduality(p, dual).ok


def test_interchange_rule_and_round_trip():
    for info, js, ks in [(sigma(1), (0, 1), (0, 1)), (sigma(2), (0, 1), (0, 1)),
                         (crosscap_sum(1), (0, 2), (0, 3)), (crosscap_sum(2), (1,), (0, 2))]:
        for j in js:
            for k in ks:
                p = pair_for(info, j, k)
                dual, cert = construct_tdual(p)
                assert same_bundle(dual.bundle, build_bundle(info, info.xi(), k))
                rep = verify_tduality(p, dual)
                assert rep.ok, (info.name, j, k, str(rep))
                ddual, _ = construct_tdual(dual)
                assert same_bundle(ddual.bundle, p.bundle)
                eq, _ = duals_equivalent(p, ddual)
                assert eq


def test_certificate_is_exact_cochain_identity():
    info = crosscap_sum(2)
    p = pair_for(info, 2, 3)
    dual, cert = construct_tdual(p)
    corr = CorrespondenceComplex(p.bundle, dual.bundle)
    lhs = corr.p_pull(p.total_cochain()) - corr.phat_pull(dual.total_cochain())
    assert (lhs - corr.coboundary(cert.b)).is_zero()


def test_verify_rejects_wrong_flux():
    info = sigma(1)
    p0 = pair_for(info, 0, 0)
    p1 = pair_for(info, 0, 1)
    rep = verify_tduality(p1, p0)
    assert not rep.pushforward_equals_dual_chern
    assert not rep.ok


def shift_in_class(values, xi, rng):
    """values + delta(u) for a random nonzero xi-twisted 1-cochain u whose
    coboundary is nonzero."""
    d1 = coboundary_matrix(xi.base, 1, xi)
    while True:
        step = d1.mul_vec([rng.randint(-2, 2) for _ in range(d1.cols)])
        if any(step):
            return tuple(v + s for v, s in zip(values, step))


def test_gauge_shifted_dual_still_verifies(monkeypatch):
    info = sigma(2)
    xi = info.xi()
    p = pair_for(info, 1, 1)
    dual, _ = construct_tdual(p)
    rng = random.Random(2)
    # the dual with ehat and fhat moved inside their classes: verify's
    # push-forward solves give nonzero a and b, and their witness B must
    # hold without a solve on the correspondence complex
    shifted = FluxPair(BundleDescriptor(info.complex, xi, shift_in_class(dual.bundle.euler, xi, rng)),
                       (), shift_in_class(dual.fhat, xi, rng))
    assert shifted.bundle.euler != dual.bundle.euler and shifted.fhat != dual.fhat
    corr_delta = CorrespondenceComplex(p.bundle, shifted.bundle).delta_matrix(2)
    solved = []
    solve = tduality.solve_integer
    monkeypatch.setattr(tduality, "solve_integer", lambda a, b: solved.append(a) or solve(a, b))
    assert verify_tduality(p, shifted).ok
    assert solved and corr_delta not in solved
    # the round-trip flux moved by the coboundary of a nonzero total 2-cochain
    ddual, _ = construct_tdual(dual)
    model = TotalComplex(ddual.bundle)
    x = [rng.randint(-2, 2) for _ in range(model.count(2))]
    step = model.coboundary(model.from_vector(2, x)).beta
    moved = FluxPair(ddual.bundle, (), tuple(a + b for a, b in zip(ddual.fhat, step)))
    assert moved != p
    eq, witness = duals_equivalent(p, moved)
    assert eq and witness is not None and witness.is_zero()
    assert not duals_equivalent(p, pair_for(info, 1, 0))[0]


def regauged(q, seed=1):
    """q re-expressed over the sign system rescaled by (-1)^u for a random
    vertex function u: xi'(e) = xi(e) (-1)^{u(tail) + u(head)}, and each
    2-cochain value on a simplex multiplied by (-1)^{u(first vertex)}."""
    m = q.bundle.base
    rng = random.Random(seed)
    u = [rng.randint(0, 1) for _ in range(m.vertex_count)]
    signs = tuple(s * (-1) ** (u[m.simplex(1, e)[0]] + u[m.simplex(1, e)[1]])
                  for e, s in enumerate(q.bundle.xi.edge_signs))

    def rescale(values):
        return tuple(v * (-1) ** u[m.simplex(2, i)[0]] for i, v in enumerate(values))

    bundle = BundleDescriptor(m, LocalSystem(m, signs), rescale(q.bundle.euler))
    return FluxPair(bundle, q.h3, rescale(q.fhat))


@pytest.mark.parametrize("info, j, k", [(sigma(2), 1, 1), (crosscap_sum(3), 2, 1),
                                        (klein_bottle(), 1, 0)])
def test_regauged_dual_verifies(info, j, k, tmp_path, capsys):
    # aligning the re-gauged sign system back may negate every aligned
    # cochain; the fiber-inverted candidate must then pass
    p = pair_for(info, j, k)
    q = regauged(p.dual())
    assert q.bundle.xi != p.bundle.xi and same_bundle(q.bundle, p.dual().bundle)
    rep = verify_tduality(p, q)
    assert rep.ok, str(rep)
    a, b = tmp_path / "pair.json", tmp_path / "dual.json"
    a.write_text(p.to_json())
    b.write_text(q.to_json())
    assert main(["verify", str(a), str(b)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_fiber_inverted_dual_verifies():
    p = pair_for(crosscap_sum(2), 1, 2)
    d = p.dual()
    inverted = FluxPair(BundleDescriptor(d.bundle.base, d.bundle.xi,
                                         tuple(-v for v in d.bundle.euler)),
                        (), tuple(-v for v in d.fhat))
    assert verify_tduality(p, inverted).ok


def test_dual_swaps_euler_and_flux():
    p = pair_for(crosscap_sum(2), 1, 2)
    dual = p.dual()
    assert dual.bundle.xi == p.bundle.xi and dual.h3 == ()
    assert dual.bundle.euler == p.fhat and dual.fhat == p.bundle.euler
    assert construct_tdual(p)[0] == dual
    assert dual.dual() == p


def test_duals_equivalent_controls():
    info = sigma(1)
    p0 = pair_for(info, 0, 0)
    p1 = pair_for(info, 0, 1)
    eq, _ = duals_equivalent(p0, p1)
    assert not eq
    eq, wit = duals_equivalent(p0, p0)
    assert eq
    other = pair_for(sigma(2), 0, 0)
    with pytest.raises(BundleMismatch):
        duals_equivalent(p0, other)


def test_flux_pair_json_round_trip():
    import json

    info = crosscap_sum(2)
    p = pair_for(info, 1, 2)
    s = p.to_json()
    assert FluxPair.from_json_dict(json.loads(s)) == p


# ---------------------------------------------------------------------------
# Small twisted model
# ---------------------------------------------------------------------------

def test_small_model_differential_squares_to_zero():
    for info, j, k in [(sigma(2), 1, 0), (crosscap_sum(3), 2, 1)]:
        p = pair_for(info, j, k)
        for flag in (False, True):
            assert SmallTwistedComplex(p, flag).check_d_squared()


def test_small_dims_torsion_flux_gives_betti_sums():
    # every flux over an oriented-base bundle here is torsion in degree 3
    for g in (1, 2):
        for j in (0, 1):
            for k in (0, 1):
                p = pair_for(sigma(g), j, k)
                assert small_twisted_cohomology(p) == (2 * g, 2 * g)
                assert small_twisted_cohomology(p, True) == (2 * g, 2 * g)


def test_small_dims_trivial_pair_kunneth():
    info = crosscap_sum(2)
    b = BundleDescriptor(info.complex, info.trivial_xi(), (0,) * info.complex.count(2))
    p = FluxPair(b, (0,) * info.complex.count(3), (0,) * info.complex.count(2))
    ev, od = small_twisted_cohomology(p)
    betti = [g.group.free_rank for g in cohomology(info.complex, None, ring="Q")]
    assert ev == od == sum(betti)


def test_small_dims_crosscap_rank_drop():
    for n in (1, 2, 3):
        for j in (0, 2):
            for k in (0, 1, 3):
                p = pair_for(crosscap_sum(n), j, k)
                expect = n if k == 0 else n - 1
                assert small_twisted_cohomology(p) == (expect, expect)
                expect_x = n if j == 0 else n - 1
                assert small_twisted_cohomology(p, True) == (expect_x, expect_x)


def acceptance_pairs():
    yield pair_for(circle(), 0, 0)  # the Klein bottle
    for g in (1, 2, 3):
        for j in (0, 1):
            for k in (0, 1):
                yield pair_for(sigma(g), j, k)
    for n in (1, 2, 3):
        for j in range(4):
            for k in range(4):
                yield pair_for(crosscap_sum(n), j, k)


def twisted_groups(pair, twist_by_xi):
    """(even, odd) integer groups of D, read off its parity blocks."""
    model = SmallTwistedComplex(pair, twist_by_xi)
    even = [i for i in range(len(model.basis)) if model.parity(i) == 0]
    odd = [i for i in range(len(model.basis)) if model.parity(i) == 1]
    d = model.d_matrix.data

    def block(rows, cols):
        return IntMatrix.from_rows([[d[i][j] for j in cols] for i in rows], cols=len(cols))

    d_even, d_odd = block(odd, even), block(even, odd)
    assert model.d_even() == d_even  # the block dims() factors
    return homology_at(d_odd, d_even).group, homology_at(d_even, d_odd).group


def test_twisted_complex_over_acceptance_pairs():
    for pair in acceptance_pairs():
        dual = pair.dual()
        for twist in (False, True):
            assert SmallTwistedComplex(pair, twist).check_d_squared()
            groups = twisted_groups(pair, twist)
            # the component swap exchanges parities onto the dual's other twist
            assert groups == twisted_groups(dual, not twist)[::-1]
            # a checked agreement with the K-groups, not a theorem
            kg = ahss_k_groups(TwistClass.from_flux(pair, twist))
            if not kg.resolved:
                kg = resolve_by_tduality(kg, ahss_k_groups(TwistClass.from_flux(dual, not twist)))
            assert groups == (kg.K0, kg.K1), (pair.bundle.base, twist)
            assert small_twisted_cohomology(pair, twist) == \
                (groups[0].free_rank, groups[1].free_rank)


# ---------------------------------------------------------------------------
# Invariant-model transform
# ---------------------------------------------------------------------------

def test_hori_small_component_bookkeeping():
    info = sigma(1)
    p = pair_for(info, 0, 1)
    dual, _ = construct_tdual(p)
    t = hori_small(p, dual)
    # (alpha, 0) goes to (0, -alpha): untwisted generators land in the
    # untwisted summand of the target with a sign
    src_a = [i for i, (part, _, _) in enumerate(t.source.basis) if part == "a"]
    for j in src_a:
        col = [t.matrix.data[i][j] for i in range(len(t.target.basis))]
        nz = [(i, v) for i, v in enumerate(col) if v]
        assert len(nz) == 1
        i, v = nz[0]
        assert v == -1 and t.target.basis[i][0] == "b"


def test_hori_small_is_degree_shifting_chain_iso():
    for info, j, k in [(sigma(1), 0, 1), (sigma(2), 1, 0), (crosscap_sum(2), 2, 1),
                       (crosscap_sum(3), 0, 2)]:
        p = pair_for(info, j, k)
        dual, _ = construct_tdual(p)
        t = hori_small(p, dual)
        assert t.is_chain_map()
        assert t.shifts_parity()
        r = hori_small_reverse(p, dual)
        assert r.is_chain_map()
        assert hori_small(p).matrix == t.matrix
        assert hori_small_reverse(p).matrix == r.matrix
        comp = r.matrix.mul(t.matrix)
        assert comp == IntMatrix.identity(comp.rows).scale(-1)


def test_hori_small_exchanges_twisted_dims():
    for info, j, k in [(crosscap_sum(2), 1, 2), (crosscap_sum(3), 3, 1)]:
        p = pair_for(info, j, k)
        dual, _ = construct_tdual(p)
        ev, od = small_twisted_cohomology(p)
        evx, odx = small_twisted_cohomology(dual, True)
        assert (ev, od) == (odx, evx)
