"""Flux pairs, twists and the correspondence complex live over bases of
dimension <= 2.

The full 3-simplex, with a trivial orientation system and a zero Euler
cocycle, is the smallest base above that bound: the library, the command
line and the K-theory twists must each refuse it cleanly.
"""

import json

import pytest

from tdual.bundles import BundleDescriptor
from tdual.cli import main
from tdual.complexes import DeltaComplex, LocalSystem
from tdual.ktheory import TwistClass
from tdual.tduality import CorrespondenceComplex, FluxPair


def simplex3_bundle() -> BundleDescriptor:
    x = DeltaComplex(4, (
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        ((0, 1, 2, 3),),
    ))
    assert x.dimension == 3
    return BundleDescriptor(x, LocalSystem(x, (1,) * x.count(1)), (0,) * x.count(2))


def test_flux_pair_rejects_a_three_dimensional_base():
    bundle = simplex3_bundle()
    with pytest.raises(ValueError, match=r"dimension <= 2, not 3"):
        FluxPair(bundle, (0,) * bundle.base.count(3), (0,) * bundle.base.count(2))
    with pytest.raises(ValueError, match=r"dimension <= 2, not 3"):
        FluxPair(bundle, (), (0,) * bundle.base.count(2))


@pytest.mark.parametrize("command", [["tdual"], ["verify"], ["ktheory"]])
def test_cli_rejects_a_pair_over_a_three_dimensional_base(command, tmp_path, capsys):
    bundle = simplex3_bundle()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"bundle": bundle.to_json_dict(),
                                "H3": [0] * bundle.base.count(3),
                                "Fhat": [0] * bundle.base.count(2)}))
    args = command + [str(path)] * (2 if command == ["verify"] else 1)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), err
    assert "dimension <= 2, not 3" in lines[0]


def test_correspondence_complex_rejects_a_three_dimensional_base():
    bundle = simplex3_bundle()
    with pytest.raises(ValueError, match=r"dimension <= 2, not 3"):
        CorrespondenceComplex(bundle, bundle)


def test_k_groups_refuse_a_four_dimensional_total_model():
    bundle = simplex3_bundle()
    m = bundle.base
    with pytest.raises(ValueError, match=r"twists need a base of dimension <= 2, not 3"):
        TwistClass(bundle, (0,) * m.count(1), (0,) * m.count(0),
                   (0,) * m.count(3), (0,) * m.count(2))
