"""Differential tests: ``ChainComplex`` and ``cone`` against the block-built
coboundaries and copied degree loops kept in ``cone_reference``.

Both must agree exactly: the same coboundary matrices, and from them the
same groups, generators and ``class_of`` coordinates, on every catalog
space below, every bundle j and flux k in 0..2 that exists there, both
coefficient systems and the rings Z, Q, Z/2 and Z/3.
"""

import pytest

import cone_reference as ref
from tdual import catalog
from tdual.bundles import BundleDescriptor, TotalComplex
from tdual.complexes import cohomology, homology, system_key
from tdual.tduality import CorrespondenceComplex

SPACES = ([("sigma", {"g": g}) for g in (1, 2, 3)]
          + [("crosscap", {"n": n}) for n in (1, 2, 3, 4)]
          + [("torus", {}), ("klein", {})])
RINGS = ("Z", "Q", 2, 3)


def space_id(case):
    kind, params = case
    return kind + "".join(str(v) for v in params.values())


def bundles(info):
    for j in range(3):
        try:
            yield catalog.build_bundle(info, info.xi(), j)
        except catalog.JOutOfRange:
            pass


def fluxes(bundle):
    for k in range(3):
        try:
            yield catalog.build_flux(bundle, k)
        except catalog.KOutOfRange:
            pass


def assert_same_groups(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.group == b.group
        assert a.representatives == b.representatives
        assert (a.class_of is None) == (b.class_of is None)
        if b.class_of is not None:
            for rep in b.representatives:
                assert a.coordinates(rep) == b.coordinates(rep)


@pytest.mark.parametrize("case", SPACES, ids=space_id)
def test_base_groups_match_reference(case):
    info = catalog.space(case[0], **case[1])
    x = info.complex
    for system in (None, info.xi()):
        for ring in RINGS:
            assert_same_groups(cohomology(x, system, ring), ref.cohomology(x, system, ring))
            assert_same_groups(homology(x, system, ring), ref.homology(x, system, ring))


@pytest.mark.parametrize("case", SPACES, ids=space_id)
def test_total_cone_matches_reference(case):
    info = catalog.space(case[0], **case[1])
    for bundle in bundles(info):
        for zeta in (None, bundle.xi):
            model = TotalComplex(bundle, zeta)
            zkey = system_key(zeta)
            for k in range(-1, model.dimension + 1):
                assert model.delta_matrix(k) == ref.total_delta(bundle, zkey, k)
            for ring in RINGS:
                assert_same_groups(model.cohomology(ring), ref.total_cohomology(bundle, zkey, ring))
                assert_same_groups(model.homology(ring), ref.total_homology(bundle, zkey, ring))


@pytest.mark.parametrize("case", SPACES, ids=space_id)
def test_correspondence_cone_matches_reference(case):
    info = catalog.space(case[0], **case[1])
    for bundle in bundles(info):
        for pair in fluxes(bundle):
            ehat = BundleDescriptor(bundle.base, bundle.xi, pair.fhat)
            corr = CorrespondenceComplex(bundle, ehat)
            for k in range(-1, bundle.base.dimension + 3):
                assert corr.delta_matrix(k) == ref.corr_delta(bundle, ehat, k)
