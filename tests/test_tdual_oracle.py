"""The direct correspondence solve against the old augmented construction.

``tests/tdual_reference.py`` keeps ``construct_tdual`` as it was before
flux pairs were restricted to bases of dimension <= 2.  On every catalog
cell below, under the space's orientation system and under the trivial
one, at every valid j, k <= 3, both must give the same dual pair, the
same certificate B and the same double dual, and the old base correction
a must be empty.
"""

import pytest

import tdual_reference as ref
from tdual.catalog import InvalidXi, JOutOfRange, KOutOfRange, build_bundle, build_flux, space
from tdual.tduality import construct_tdual

SPACES = ([("circle", {}), ("torus", {}), ("klein_bottle", {})]
          + [("sigma", {"g": g}) for g in (1, 2, 3)]
          + [("crosscap", {"n": n}) for n in (1, 2, 3, 4)])


def catalog_pairs(kind, params):
    info = space(kind, **params)
    systems = [info.xi()]
    if info.trivial_xi() != systems[0]:
        systems.append(info.trivial_xi())
    for xi in systems:
        for j in range(4):
            try:
                bundle = build_bundle(info, xi, j)
            except (InvalidXi, JOutOfRange):
                continue
            for k in range(4):
                try:
                    yield (j, k), build_flux(bundle, k)
                except KOutOfRange:
                    continue


@pytest.mark.parametrize("kind,params", SPACES, ids=[
    kind + "".join(str(v) for v in params.values()) for kind, params in SPACES])
def test_direct_solve_matches_the_augmented_reference(kind, params):
    cells = 0
    for cell, pair in catalog_pairs(kind, params):
        dual, cert = construct_tdual(pair)
        ref_dual, ref_cert = ref.construct_tdual(pair)
        assert dual.to_json_dict() == ref_dual.to_json_dict(), cell
        assert cert.to_json_dict()["B"] == ref_cert.to_json_dict()["B"], cell
        assert ref_cert.a == (), cell
        assert construct_tdual(dual)[0].to_json_dict() == \
            ref.construct_tdual(ref_dual)[0].to_json_dict(), cell
        cells += 1
    assert cells > 0
