"""Verification and the round trip against the solve-everything reference.

``tests/tdual_reference.py`` keeps ``verify_tduality`` with a solve on the
correspondence complex for every candidate, and ``duals_equivalent`` with
the H^1 gauge generators stacked beside the total delta^2.  On every cell
of ``tests/test_tdual_oracle.py`` both must give the same four axiom
values and the same round-trip verdicts.  Candidates: the dual, the dual
moved inside its classes, its fibre inversion, and the dual of another
flux on the same bundle (a wrong pairing).  A passing ``run_pipeline``
factors no matrix of the correspondence complex's shape and assembles no
correspondence coboundary, and its round trip compares the pair with a
double dual that is not equal to it.
"""

import random
from collections import defaultdict
from functools import lru_cache

import pytest

import tdual_reference as ref
from test_tdual_oracle import SPACES, catalog_pairs
from tdual import bundles, catalog, complexes, exactalg, ktheory, pipeline, tduality
from tdual.bundles import BundleDescriptor, TotalComplex
from tdual.complexes import coboundary_matrix
from tdual.exactalg import NoSolution, solve_integer
from tdual.pipeline import run_pipeline
from tdual.tduality import CorrespondenceComplex, FluxPair, duals_equivalent, verify_tduality


def plus(values, step):
    return tuple(v + s for v, s in zip(values, step))


def shifted(pair, rng):
    """pair with e + delta(u) and fhat + delta(v), u and v random
    xi-twisted 1-cochains."""
    xi = pair.bundle.xi
    d1 = coboundary_matrix(xi.base, 1, xi)

    def step():
        return d1.mul_vec([rng.randint(-2, 2) for _ in range(d1.cols)])

    return FluxPair(BundleDescriptor(xi.base, xi, plus(pair.bundle.euler, step())),
                    (), plus(pair.fhat, step()))


def inverted(pair):
    bundle = pair.bundle
    return FluxPair(BundleDescriptor(bundle.base, bundle.xi, tuple(-v for v in bundle.euler)),
                    (), tuple(-v for v in pair.fhat))


def moved(pair, rng):
    """pair's flux plus the coboundary of a random total 2-cochain."""
    model = TotalComplex(pair.bundle)
    x = model.from_vector(2, [rng.randint(-2, 2) for _ in range(model.count(2))])
    return FluxPair(pair.bundle, (), plus(pair.fhat, model.coboundary(x).beta))


@pytest.mark.parametrize("kind,params", SPACES, ids=[
    kind + "".join(str(v) for v in params.values()) for kind, params in SPACES])
def test_verify_and_round_trip_match_the_reference(kind, params):
    rng = random.Random(f"{kind}{params}")
    on_bundle = defaultdict(list)
    for _, pair in catalog_pairs(kind, params):
        on_bundle[pair.bundle].append(pair)
    cells = 0
    for pairs in on_bundle.values():
        for i, pair in enumerate(pairs):
            other = pairs[(i + 1) % len(pairs)]
            dual = pair.dual()
            for cand in (dual, shifted(dual, rng), inverted(dual), other.dual()):
                assert verify_tduality(pair, cand) == ref.verify_tduality(pair, cand), \
                    (pair.to_json_dict(), cand.to_json_dict())
            assert verify_tduality(pair, dual).ok
            ddual = dual.dual()
            for q in (ddual, moved(ddual, rng), other):
                assert duals_equivalent(pair, q)[0] == ref.duals_equivalent(pair, q)[0]
            assert duals_equivalent(pair, moved(ddual, rng))[0]
            cells += 1
    assert cells > 0


def clear_caches():
    for module in (catalog, complexes, exactalg, bundles, tduality, ktheory, pipeline):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("kind,param", [("sigma", 2), ("crosscap", 3)])
def test_pipeline_factors_no_correspondence_matrix(kind, param, monkeypatch):
    factored = []  # the shape of each _smith_cached miss
    smith = exactalg._smith_cached.__wrapped__

    @lru_cache(maxsize=None)
    def counting(a, layout):
        factored.append((a.rows, a.cols))
        return smith(a, layout)

    monkeypatch.setattr(exactalg, "_smith_cached", counting)
    pair = pipeline._flux_for(kind, param, 1, 1)
    corr = CorrespondenceComplex(pair.bundle, pair.dual().bundle)
    shapes = {(m.rows, m.cols) for m in map(corr.delta_matrix, (1, 2, 3))}
    shapes |= {(c, r) for r, c in shapes}

    clear_caches()
    assert run_pipeline(kind, param, 1, 1).ok
    assert factored and not shapes & set(factored)
    assert tduality._corr_delta.cache_info().misses == 0
    # the reference's correspondence solve is seen by the same count
    ref.verify_tduality(pair, pair.dual())
    assert shapes & set(factored)


def euler_shift(xi):
    """delta u for the xi-twisted 1-cochain u = 1 on every edge."""
    return coboundary_matrix(xi.base, 1, xi).mul_vec((1,) * xi.base.count(1))


@pytest.mark.parametrize("kind,param", [("sigma", 2), ("crosscap", 3)])
def test_round_trip_compares_the_pair_with_a_moved_double_dual(kind, param, monkeypatch):
    """The double dual's flux is fhat + delta u, u = 1 on every edge, so the
    two pairs compared differ, and duals_equivalent finds them equivalent."""
    compared = []
    equivalent = pipeline.duals_equivalent
    monkeypatch.setattr(pipeline, "duals_equivalent",
                        lambda q1, q2: compared.append((q1, q2)) or equivalent(q1, q2))
    assert run_pipeline(kind, param, 1, 1).round_trip_ok
    (pair, ddual), = compared
    shift = euler_shift(pair.bundle.xi)
    assert any(shift) and ddual != pair
    assert ddual.bundle == pair.bundle and ddual.fhat == plus(pair.fhat, shift)


@pytest.mark.parametrize("kind,param", [("sigma", 2), ("crosscap", 3)])
def test_round_trip_fails_for_a_flux_moved_by_a_non_coboundary(kind, param, monkeypatch):
    """Moved by the indicator of one triangle, which is no twisted
    coboundary on a closed surface, the double dual's flux is in another
    class, and the round trip reports it."""
    def one_triangle(xi):
        return (1,) + (0,) * (xi.base.count(2) - 1)

    pair = pipeline._flux_for(kind, param, 1, 1)
    xi = pair.bundle.xi
    with pytest.raises(NoSolution):
        solve_integer(coboundary_matrix(xi.base, 1, xi), one_triangle(xi))
    monkeypatch.setattr(pipeline, "_euler_shift", one_triangle)
    report = run_pipeline(kind, param, 1, 1)
    assert not report.round_trip_ok and not report.ok
