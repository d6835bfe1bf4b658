"""Every input check of the library raises on one bad input, with its
message.  Checks on what a JSON input file can carry are exercised
through the command line in ``tests/test_cli.py``; these are the ones only
a library caller can reach."""

import pytest

from tdual import catalog
from tdual.bundles import (
    BundleDescriptor,
    InvalidDescriptor,
    TotalCochain,
    TotalComplex,
    align_xi_cochain,
    gauge_action,
    pullback,
    pullback_cup,
    same_bundle,
)
from tdual.catalog import InvalidXi, build_bundle, build_flux, circle, crosscap_sum, sigma, space
from tdual.complexes import (
    BaseMismatch,
    DeltaComplex,
    InvalidLocalSystem,
    LocalSystem,
    NotACocycle,
    TwistedCochain,
    bockstein,
    coboundary,
    cochain_complex,
    cohomology,
    cup,
    tensor,
)
from tdual.courant import EquivariantContext, GeneralizedSection
from tdual.exactalg import (
    FGAbelianGroup,
    IntMatrix,
    PresentedGroup,
    determinant,
    homology_at,
    homology_at_mod,
    hstack,
    solve_integer,
    solve_mod,
    vstack,
)
from tdual.fixtures import Fixture
from tdual.fourier import Form, FourierScalar, VectorField
from tdual.ktheory import (
    SpaceMismatch,
    TwistClass,
    UnsupportedTwist,
    same_twist_class,
    twist_product,
)
from tdual.pipeline import compute_fixture
from tdual.tduality import CorrCochain, CorrespondenceComplex, FluxPair

SIMPLEX3 = DeltaComplex(4, (
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    ((0, 1, 2, 3),),
))

S1, N1 = sigma(1), crosscap_sum(1)
X, XI = S1.complex, S1.xi()
LINE = circle().complex
BUNDLE = build_bundle(S1, XI, 1)
PAIR = build_flux(BUNDLE, 1)
M = IntMatrix.from_rows([[1, 0], [0, 1]])


def cochain(k, system=None, modulus=None, base=X):
    return TwistedCochain(base, k, (0,) * base.count(k), system, modulus)


def context(d=2, **forms):
    """A valid half-shift context over T^d with the ``forms`` replaced."""
    unit = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    parts = {"a": Form.zero(d + 1), "ahat": Form.zero(d + 1), "h3": Form.zero(d + 1)} | forms
    return EquivariantContext(d, unit, (1,) + (0,) * (d - 1), parts["a"], parts["ahat"],
                              parts["h3"])


def section(vec_cover=3, form=None):
    return GeneralizedSection(VectorField.zero(vec_cover), form or Form.zero(3))


def simplex_twist():
    """A twist on the trivial bundle over a 3-simplex, e = delta(w), with
    fibre constant 1: closed, but w cup w is no mod-2 cocycle in the total
    model, since e ^ w + w ^ e is 1 on the 3-simplex."""
    w = (0, 0, 0, 1, 0, 1)  # 1 on the edges 12 and 23
    xi = LocalSystem(SIMPLEX3, (1,) * 6)
    bundle = BundleDescriptor(SIMPLEX3, xi, coboundary(TwistedCochain(SIMPLEX3, 1, w, xi)).values)
    return TwistClass(bundle, w, (1,) * 4, (0,), (0,) * 4)


CASES = [
    # bundles
    (lambda: BundleDescriptor(X, LocalSystem(LINE, (1,) * LINE.count(1)), BUNDLE.euler),
     InvalidDescriptor, "xi lives over a different complex"),
    (lambda: TotalCochain(BUNDLE, 1, (0,), ()),
     ValueError, "component lengths do not match the base complex"),
    (lambda: PAIR.total_cochain() + TotalComplex(BUNDLE).cochain(2, cochain(2).values,
                                                                 cochain(1).values),
     BaseMismatch, "incompatible total cochains"),
    (lambda: TotalComplex(BUNDLE, LocalSystem(LINE, (1,) * LINE.count(1))),
     BaseMismatch, "zeta lives over a different complex"),
    (lambda: TotalComplex(BUNDLE, XI).coboundary(PAIR.total_cochain()),
     BaseMismatch, "cochain does not live on this model"),
    (lambda: pullback(BUNDLE, cochain(1, base=LINE)),
     BaseMismatch, "cochain lives over a different base"),
    (lambda: pullback_cup(cochain(0, base=LINE), PAIR.total_cochain()),
     BaseMismatch, "cup factors live over different bases"),
    (lambda: gauge_action(PAIR.total_cochain(), cochain(2, XI)),
     BaseMismatch, "gauge parameter must be a 1-cochain on the base"),
    (lambda: gauge_action(PAIR.total_cochain(), cochain(1)),
     BaseMismatch, "gauge parameter must be xi-twisted"),
    (lambda: gauge_action(TotalComplex(BUNDLE).cochain(1, (1,) + (0,) * (X.count(1) - 1),
                                                       cochain(0).values), cochain(1, XI)),
     NotACocycle, "gauge_action expects a closed total cochain"),
    (lambda: gauge_action(PAIR.total_cochain(),
                          TwistedCochain(X, 1, (1,) + (0,) * (X.count(1) - 1), XI)),
     NotACocycle, "gauge parameter must be closed"),
    (lambda: same_bundle(BUNDLE, build_bundle(N1, N1.xi(), 0)),
     BaseMismatch, "bundles live over different bases"),
    (lambda: align_xi_cochain(cochain(2, N1.xi(), base=N1.complex), N1.trivial_xi()),
     BaseMismatch, "sign systems are not cohomologous"),
    # catalog
    (lambda: catalog._cone_of_polygon((("a", 2), ("a", 1))),
     ValueError, "exponents must be +-1"),
    (lambda: catalog._cone_of_polygon((("a", 1), ("b", 1), ("a", 1))),
     ValueError, "label b must occur exactly twice"),
    (lambda: S1.xi(frozenset({"z"})), InvalidXi, "unknown labels ['z']"),
    (lambda: catalog._solve_sign_system(X, (("a", (0,)), ("b", (0,))), frozenset({"a"})),
     InvalidXi, "no sign system with the requested holonomies"),
    (lambda: space("sphere"), KeyError, "unknown catalog space 'sphere'"),
    (lambda: build_bundle(S1, N1.xi()), InvalidXi, "xi lives over a different complex"),
    # complexes
    (lambda: tensor(XI, N1.xi()), BaseMismatch, "local systems live over different complexes"),
    (lambda: TwistedCochain(X, 1, (0,)), ValueError, "value count must match simplex count"),
    (lambda: TwistedCochain(X, 1, cochain(1).values, N1.xi()),
     BaseMismatch, "cochain system lives over a different complex"),
    (lambda: cochain(1) + cochain(2), BaseMismatch, "cochains are not compatible"),
    (lambda: cochain(1) + cochain(1, modulus=2), BaseMismatch, "coefficient rings differ"),
    (lambda: cochain(1) + cochain(1, XI), BaseMismatch, "local systems differ"),
    (lambda: cup(cochain(1), cochain(1, base=N1.complex)),
     BaseMismatch, "cup factors live over different complexes"),
    (lambda: cup(cochain(1), cochain(1, modulus=2)),
     BaseMismatch, "cup factors have different coefficients"),
    (lambda: bockstein(cochain(1)), ValueError, "bockstein expects a mod-2 cochain"),
    (lambda: cochain_complex(X, N1.xi()),
     InvalidLocalSystem, "system lives over a different complex"),
    # courant
    (lambda: context(a=Form.zero(4)), ValueError, "a lives on the wrong cover"),
    (lambda: context(h3=Form.zero(4)), ValueError, "h3 lives on the wrong cover"),
    (lambda: section(form=Form.one(3)), ValueError, "form part must be a 1-form"),
    (lambda: section(vec_cover=4), ValueError, "components live on different covers"),
    # exactalg
    (lambda: IntMatrix(2, 1, [[1]]), ValueError, "row count mismatch"),
    (lambda: IntMatrix(1, 2, [[1]]), ValueError, "column count mismatch"),
    (lambda: IntMatrix.from_rows([]), ValueError, "empty matrix needs explicit column count"),
    (lambda: M.mul(IntMatrix.zeros(3, 1)), ValueError, "shape mismatch in matrix product"),
    (lambda: M.mul_vec([1]), ValueError, "vector length mismatch"),
    (lambda: hstack([]), ValueError, "need at least one block"),
    (lambda: hstack([M, IntMatrix.zeros(3, 1)]), ValueError, "row mismatch in hstack"),
    (lambda: vstack([]), ValueError, "need at least one block"),
    (lambda: vstack([M, IntMatrix.zeros(1, 3)]), ValueError, "column mismatch in vstack"),
    (lambda: determinant(IntMatrix.zeros(1, 2)), ValueError, "determinant of non-square matrix"),
    (lambda: solve_integer(M, [1]), ValueError, "rhs length mismatch"),
    (lambda: solve_mod(M, [1], 2), ValueError, "rhs length mismatch"),
    (lambda: FGAbelianGroup(-1), ValueError, "negative free rank"),
    (lambda: FGAbelianGroup(0, (1,)), ValueError, "torsion coefficients must be >= 2"),
    (lambda: FGAbelianGroup(0, (2, 3)), ValueError,
     "invariant factors must form a divisibility chain"),
    (lambda: PresentedGroup(3, M), ValueError, "relation width must equal ambient rank"),
    (lambda: homology_at(IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 3)),
     ValueError, "middle dimensions disagree"),
    (lambda: homology_at(IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 2)).coordinates([0]),
     ValueError, "cycle has wrong length"),
    (lambda: homology_at_mod(IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 2), 1),
     ValueError, "modulus must be >= 2"),
    (lambda: cohomology(X, ring="Q")[1].coordinates(cochain(1).values),
     ValueError, "no class_of map attached"),
    # fourier
    (lambda: VectorField(3, (FourierScalar.zero(2),)),
     ValueError, "one component per coordinate required"),
    (lambda: VectorField(2, (FourierScalar.zero(2), FourierScalar.zero(2))),
     ValueError, "scalar base dimension mismatch"),
    # ktheory
    (lambda: TwistClass(BUNDLE, (0,), (0,) * X.count(0), (), PAIR.fhat),
     ValueError, "degree-1 twist component lengths are wrong"),
    (lambda: TwistClass(BUNDLE, (0,) * X.count(1), (0,) * X.count(0), (0,), PAIR.fhat),
     ValueError, "degree-3 twist component lengths are wrong"),
    (lambda: TwistClass(BUNDLE, (0,) * X.count(1), (1,) + (0,) * (X.count(0) - 1), (), PAIR.fhat),
     ValueError, "fiber component of the twist is not mod-2 closed"),
    (lambda: TwistClass(BUNDLE, (1,) + (0,) * (X.count(1) - 1), (0,) * X.count(0), (), PAIR.fhat),
     ValueError, "degree-1 twist is not mod-2 closed in the total model"),
    (lambda: TwistClass(BundleDescriptor(SIMPLEX3, LocalSystem(SIMPLEX3, (1,) * 6), (0,) * 4),
                        (0,) * 6, (0,) * 4, (0,), (1, 0, 0, 0)),
     ValueError, "degree-3 twist is not closed in the total model"),
    (lambda: twist_product(simplex_twist(), simplex_twist()),
     UnsupportedTwist, "cup product of the twists is not a mod-2 cocycle"),
    (lambda: same_twist_class(TwistClass.from_flux(PAIR), TwistClass.from_flux(
        build_flux(BundleDescriptor(X, XI, (0,) * X.count(2))))),
     SpaceMismatch, "twists live on different spaces"),
    # pipeline
    (lambda: compute_fixture(Fixture("klein", (), "bogus", "Z", (), "")), KeyError, "bogus"),
    (lambda: compute_fixture(Fixture("torus", (), "base-cohomology", "Z", (), "")),
     KeyError, "torus"),
    # tduality
    (lambda: FluxPair(BUNDLE, (), (0,)), ValueError, "flux component lengths do not match the base"),
    (lambda: CorrCochain(2, (), (), (), ()) - CorrCochain(1, (), (), (), ()),
     ValueError, "degree mismatch"),
    (lambda: CorrespondenceComplex(BUNDLE, build_bundle(N1, N1.xi(), 0)),
     BaseMismatch, "bundles live over different bases"),
    (lambda: CorrespondenceComplex(build_bundle(N1, N1.xi(), 0), build_bundle(N1, N1.trivial_xi(), 0)),
     BaseMismatch, "orientation cocycles differ; align first"),
]


@pytest.mark.parametrize("call, error, message", CASES,
                         ids=[f"{i:02d}-{c[2][:40]}" for i, c in enumerate(CASES)])
def test_input_check_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)

