"""Uniqueness of the T-dual on a finite window of catalog pairs
(Bunke-Schick, *On the topology of T-duality*, Rev. Math. Phys. 17 (2005):
a T-dual exists and is unique up to isomorphism).

This is a finite-window check, not a proof: it compares every catalog pair
(j, k) with |j|, |k| <= 3 against every candidate of the same window over
the same base, and each twisted pair against the bundles of the other
orientation class, and checks that only the dual and its fibre inversion
verify.
"""

import random

import pytest

from tdual.bundles import BundleDescriptor, TotalComplex
from tdual.catalog import OutOfRange, build_bundle, build_flux, circle, crosscap_sum, sigma
from tdual.complexes import coboundary_matrix
from tdual.tduality import FluxPair, construct_tdual, verify_tduality

WINDOW = range(-3, 4)
BASES = [circle(), sigma(1), sigma(2), crosscap_sum(1), crosscap_sum(2), crosscap_sum(3)]


def window_pairs(info, xi):
    """(j, k) -> catalog pair, for every (j, k) of the window the catalog admits."""
    pairs = {}
    for j in WINDOW:
        try:
            bundle = build_bundle(info, xi, j)
        except OutOfRange:
            continue
        for k in WINDOW:
            try:
                pairs[j, k] = build_flux(bundle, k)
            except OutOfRange:
                pass
    return pairs


@pytest.mark.parametrize("info", BASES, ids=lambda info: info.name)
def test_only_the_dual_and_its_fibre_inversion_verify_on_the_window(info):
    """On the circle (the pipeline's ``klein`` base), sigma(1..2) and
    crosscap_sum(1..3), the 1 + 4 + 4 + 3 * 49 = 156 window pairs each pass
    ``verify_tduality`` against exactly the window's members of
    {(k, j), (-k, -j)}, and each of the 147 crosscap pairs fails against the
    4 bundles of trivial xi over its base, on the orientation axiom."""
    pairs = window_pairs(info, info.xi())
    assert len(pairs) == {"circle": 1, "sigma1": 4, "sigma2": 4}.get(info.name, 49)
    for (j, k), pair in pairs.items():
        passed = {jk for jk, cand in pairs.items() if verify_tduality(pair, cand).ok}
        assert passed == {(k, j), (-k, -j)} & pairs.keys(), (j, k)
    if info.name.startswith("crosscap"):
        others = window_pairs(info, info.trivial_xi()).values()
        assert len(others) == 4
        for pair in pairs.values():
            for cand in others:
                report = verify_tduality(pair, cand)
                assert not report.orientation_classes_agree and not report.ok


def coboundary_step(base, degree, xi, rng):
    """delta(u) for a random xi-twisted (degree - 1)-cochain u with delta(u) != 0."""
    d = coboundary_matrix(base, degree - 1, xi)
    while True:
        step = d.mul_vec([rng.randint(-2, 2) for _ in range(d.cols)])
        if any(step):
            return step


def euler_moved(q, rng):
    """q with its Euler cocycle moved by the coboundary of a xi-twisted 1-cochain."""
    b = q.bundle
    step = coboundary_step(b.base, 2, b.xi, rng)
    return FluxPair(BundleDescriptor(b.base, b.xi, tuple(e + s for e, s in zip(b.euler, step))),
                    q.h3, q.fhat)


def flux_moved(q, rng):
    """q with its flux moved by the coboundary of a total 2-cochain."""
    model = TotalComplex(q.bundle)
    while True:
        x = model.from_vector(2, [rng.randint(-2, 2) for _ in range(model.count(2))])
        step = model.coboundary(x)
        if not step.is_zero():
            moved = q.total_cochain() + step
            return FluxPair(q.bundle, moved.alpha, moved.beta)


@pytest.mark.parametrize("info, j, k", [(crosscap_sum(2), 1, 2), (crosscap_sum(3), -2, 1),
                                        (sigma(2), 1, 1)])
@pytest.mark.parametrize("move", [euler_moved, flux_moved])
def test_moved_representatives_verify_only_in_the_dual_class(info, j, k, move):
    """The dual with its Euler cocycle moved by delta(u), or its flux moved
    by a total coboundary, is no catalog representative and still verifies;
    the same move applied to a wrong class, (k + 1, j), does not."""
    rng = random.Random(5)
    pair = build_flux(build_bundle(info, info.xi(), j), k)
    dual, _ = construct_tdual(pair)
    moved = move(dual, rng)
    assert moved != dual
    assert verify_tduality(pair, moved).ok
    n = 2 if info.name.startswith("sigma") else None  # H^2(sigma(g); Z_xi) = Z/2
    wrong = build_flux(build_bundle(info, info.xi(), k + 1 if n is None else (k + 1) % n), j)
    report = verify_tduality(pair, move(wrong, rng))
    assert report.orientation_classes_agree and not report.ok
