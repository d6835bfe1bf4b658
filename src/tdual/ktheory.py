"""Twisted K-theory of the total-space models in dimension <= 3.

Twists are graded classes (w, h) with w a mod-2 degree-1 class and h a
degree-3 class on the total model; the group law adds classes and corrects
by the Bockstein of the cup product.  K-groups come from the
Atiyah-Hirzebruch filtration: in dimension <= 3 the only possibly nonzero
differential is multiplication by -h on degree zero, and the remaining
ambiguity is a single extension problem in K^1 which is reported
explicitly and resolved, when possible, against the T-dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from typing import Union

from .bundles import BundleDescriptor, TotalCochain, TotalComplex, pullback_cup
from .complexes import (
    LocalSystem,
    System,
    TwistedCochain,
    coboundary_matrix,
    cup,
    half_coboundary,
    is_coboundary,
)
from .exactalg import (
    FGAbelianGroup,
    IntMatrix,
    NoSolution,
    PresentedGroup,
    normal_form,
    rank_of,
    solve_integer,
    solve_mod,
    vstack,
)
from .tduality import FluxPair


class SpaceMismatch(Exception):
    """Twists expected on the same space are not."""


class DimensionTooHigh(Exception):
    """The filtration shortcut only covers total models of dimension <= 3."""


class UnsupportedTwist(Exception):
    """The degree-1 part of the twist has a fiber component; the invariant
    model only covers pullback classes."""


class NoMatchingCandidate(Exception):
    """No extension candidate matches the T-dual's group."""


class MultipleMatches(Exception):
    """More than one extension candidate matches the T-dual's group."""


@dataclass(frozen=True)
class TwistClass:
    """Graded twist datum on a total model.

    ``w_base`` is a mod-2 1-cochain on the base (the pullback part of the
    degree-1 twist), ``w_fiber`` the fiber component (a mod-2 constant,
    stored per vertex), and (h3, fhat) an integer 3-cocycle on the total
    model in invariant form.
    """

    bundle: BundleDescriptor
    w_base: tuple[int, ...]
    w_fiber: tuple[int, ...]
    h3: tuple[int, ...]
    fhat: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.bundle.base
        if len(self.w_base) != m.count(1) or len(self.w_fiber) != m.count(0):
            raise ValueError("degree-1 twist component lengths are wrong")
        if len(self.h3) != m.count(3) or len(self.fhat) != m.count(2):
            raise ValueError("degree-3 twist component lengths are wrong")
        # mod-2 closedness of (w_base, w_fiber) in the total model:
        # delta_2(w_base) + e * w_fiber = 0 and delta_2(w_fiber) = 0
        d0 = coboundary_matrix(m, 0, None)
        if any(v % 2 for v in d0.mul_vec(self.w_fiber)):
            raise ValueError("fiber component of the twist is not mod-2 closed")
        d1 = coboundary_matrix(m, 1, None)
        ev = cup(self.bundle.euler_cochain(), TwistedCochain(m, 0, self.w_fiber, None))
        dw = d1.mul_vec(self.w_base)
        if any((a + b) % 2 for a, b in zip(dw, ev.values)):
            raise ValueError("degree-1 twist is not mod-2 closed in the total model")
        if not TotalComplex(self.bundle).is_cocycle(self.flux_cochain()):
            raise ValueError("degree-3 twist is not closed in the total model")

    def flux_cochain(self) -> TotalCochain:
        return TotalCochain(self.bundle, 3, self.h3, self.fhat, None)

    @property
    def fiber_constant(self) -> int:
        return self.w_fiber[0] % 2 if self.w_fiber else 0

    @staticmethod
    def from_flux(pair: FluxPair, xi_twist: bool = False) -> "TwistClass":
        m = pair.bundle.base
        if xi_twist:
            w = tuple(0 if s == 1 else 1 for s in pair.bundle.xi.edge_signs)
        else:
            w = (0,) * m.count(1)
        return TwistClass(pair.bundle, w, (0,) * m.count(0), pair.h3, pair.fhat)


def twist_product(t1: TwistClass, t2: TwistClass) -> TwistClass:
    """Group law on twists: add both components and correct the degree-3
    part by the Bockstein of the cup product of the degree-1 parts."""
    if t1.bundle != t2.bundle:
        raise SpaceMismatch("twists live on different spaces")
    m = t1.bundle.base
    w_base = tuple((a + b) % 2 for a, b in zip(t1.w_base, t2.w_base))
    w_fiber = tuple((a + b) % 2 for a, b in zip(t1.w_fiber, t2.w_fiber))
    b3, bfhat = _total_bockstein_of_cup(t1, t2)
    return TwistClass(t1.bundle, w_base, w_fiber,
                      tuple(a + b + c for a, b, c in zip(t1.h3, t2.h3, b3)),
                      tuple(a + b + c for a, b, c in zip(t1.fhat, t2.fhat, bfhat)))


def twist_inverse(t: TwistClass) -> TwistClass:
    """Inverse for the group law: (w, -h - beta(w cup w))."""
    b3, bfhat = _total_bockstein_of_cup(t, t)
    return TwistClass(t.bundle, t.w_base, t.w_fiber,
                      tuple(-a - b for a, b in zip(t.h3, b3)),
                      tuple(-a - b for a, b in zip(t.fhat, bfhat)))


def _total_cup_mod2(t1: TwistClass, t2: TwistClass) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """w1 cup w2 as a mod-2 2-cochain pair on the total model."""
    m = t1.bundle.base
    a1 = TwistedCochain(m, 1, t1.w_base, None, 2)
    a2 = TwistedCochain(m, 1, t2.w_base, None, 2)
    b1 = TwistedCochain(m, 0, t1.w_fiber, None, 2)
    b2 = TwistedCochain(m, 0, t2.w_fiber, None, 2)
    top = cup(a1, a2).values
    bottom = tuple((x + y) % 2 for x, y in zip(cup(b1, a2).values, cup(a1, b2).values))
    return top, bottom


def _total_bockstein_of_cup(t1: TwistClass, t2: TwistClass) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bockstein of w1 cup w2 on the total model: lift the mod-2 pair to a
    {0,1} integer pair, apply the integer total differential, halve."""
    top, bottom = _total_cup_mod2(t1, t2)
    # the product formula is only a cocycle when the fiber constants behave;
    # guard rather than return a wrong class
    half = half_coboundary(TotalComplex(t1.bundle).delta_matrix(2), top + bottom)
    if half is None:
        raise UnsupportedTwist("cup product of the twists is not a mod-2 cocycle")
    n3 = t1.bundle.base.count(3)
    return half[:n3], half[n3:]


def same_twist_class(t1: TwistClass, t2: TwistClass) -> bool:
    """Equality of twists as classes: the mod-2 degree-1 parts and the
    integer degree-3 parts differ by coboundaries in the total model."""
    if t1.bundle != t2.bundle:
        raise SpaceMismatch("twists live on different spaces")
    model = TotalComplex(t1.bundle)
    dw = tuple((a - b) % 2 for a, b in zip(t1.w_base + t1.w_fiber,
                                           t2.w_base + t2.w_fiber))
    try:
        solve_mod(model.delta_matrix(0), dw, 2)
    except NoSolution:
        return False
    diff = t1.flux_cochain() - t2.flux_cochain()
    try:
        solve_integer(model.delta_matrix(2), diff.vector())
        return True
    except NoSolution:
        return False


@dataclass(frozen=True)
class AmbiguousExtension:
    """An unresolved K^1: 0 -> sub -> K^1 -> quot -> 0 with the possible
    isomorphism types listed."""

    sub: FGAbelianGroup
    quot: FGAbelianGroup
    candidates: tuple[FGAbelianGroup, ...]

    def __str__(self) -> str:
        opts = " or ".join(str(c) for c in self.candidates)
        return f"extension of {self.quot} by {self.sub}: {opts}"


KGroupValue = Union[FGAbelianGroup, AmbiguousExtension]


@dataclass(frozen=True)
class KGroups:
    K0: FGAbelianGroup
    K1: KGroupValue

    @property
    def resolved(self) -> bool:
        return isinstance(self.K1, FGAbelianGroup)

    def ranks(self) -> tuple[int, int]:
        r1 = self.K1.free_rank if self.resolved else \
            self.K1.sub.free_rank + self.K1.quot.free_rank
        return self.K0.free_rank, r1


def enumerate_extensions(quot: FGAbelianGroup, sub: FGAbelianGroup) -> tuple[FGAbelianGroup, ...]:
    """All isomorphism types of abelian extensions of quot by sub;
    ``ValueError`` when there are more than 512 extension classes to try."""
    rs, ts = sub.free_rank, list(sub.torsion)
    ranges = [[d] * rs + [gcd(d, e) for e in ts] for d in quot.torsion]
    if prod(map(prod, ranges)) > 512:
        raise ValueError("extension enumeration too large")

    n_sub = rs + len(ts)
    n = n_sub + quot.free_rank + len(quot.torsion)
    seen = set()
    out = []
    choice_spaces = [list(product(*[range(r) for r in per_gen])) for per_gen in ranges]
    for combo in product(*choice_spaces):
        rows = [{rs + i: e} for i, e in enumerate(ts)]
        for qi, coeffs in enumerate(combo):
            row = {si: -c for si, c in enumerate(coeffs)}
            row[n_sub + quot.free_rank + qi] = quot.torsion[qi]
            rows.append(row)
        g = normal_form(PresentedGroup(n, IntMatrix.from_nonzeros(rows, n)))
        key = (g.free_rank, g.torsion)
        if key not in seen:
            seen.add(key)
            out.append(g)
    out.sort(key=lambda g: (g.free_rank, g.torsion))
    return tuple(out)


def ahss_k_groups(t: TwistClass) -> KGroups:
    """K-groups of the twisted total model via the filtration in dim <= 3.

    The degree-zero row is H^0 of the total model with coefficients
    twisted by the degree-1 part w, one Z for each component of the base
    on which w is trivial.  Multiplication by -h acts on it, and its
    kernel and cokernel enter K^0 and K^1.  K^0 always splits because its
    degree-zero contribution is free; K^1 is an extension of H^1 by the
    degree-3 term and is reported ambiguous when both torsion and a
    nonzero subgroup are present.
    """
    bundle = t.bundle
    m = bundle.base
    if m.dimension + 1 > 3:
        raise DimensionTooHigh("total model dimension exceeds 3")
    if t.fiber_constant:
        raise UnsupportedTwist("degree-1 twist with a fiber component")

    w_trivial = not any(v % 2 for v in t.w_base) or \
        is_coboundary(_mod2_cochain(m, 1, t.w_base))
    if w_trivial:
        zeta: System = None
    else:
        zeta = LocalSystem(m, tuple(-1 if v % 2 else 1 for v in t.w_base))

    model = TotalComplex(bundle, zeta)
    h = model.cohomology()
    groups = [h[k].group if k <= model.dimension else FGAbelianGroup(0)
              for k in range(4)]

    # d3 = -h on degree zero: the class of z h for each generator z of H^0
    if model.dimension < 3:
        kernel, coker = groups[0], FGAbelianGroup(0)
    else:
        flux = t.flux_cochain()
        classes = [h[3].coordinates(pullback_cup(TwistedCochain(m, 0, z, zeta), flux).vector())
                   for z in h[0].representatives]
        r3 = groups[3].free_rank
        free = IntMatrix.from_rows([c[:r3] for c in classes], cols=r3)
        kernel = FGAbelianGroup(groups[0].free_rank - rank_of(free))
        rel = groups[3].presentation()
        coker = normal_form(PresentedGroup(rel.ambient_rank, vstack(
            [rel.relations, IntMatrix.from_rows(classes, cols=rel.ambient_rank)])))
    return KGroups(kernel.direct_sum(groups[2]), _k1_extension(coker, groups[1]))


def _mod2_cochain(m, k, values):
    return TwistedCochain(m, k, tuple(v % 2 for v in values), None, 2)


def _k1_extension(sub: FGAbelianGroup, quot: FGAbelianGroup) -> KGroupValue:
    if sub.is_trivial:
        return quot
    if not quot.torsion:
        return sub.direct_sum(quot)
    return AmbiguousExtension(sub, quot, enumerate_extensions(quot, sub))


def resolve_by_tduality(amb: KGroups, dual_known: KGroups) -> KGroups:
    """Pick the extension candidate isomorphic to the dual's degree-shifted
    K-group.  The dual side must be unambiguous."""
    if amb.resolved:
        return amb
    if not dual_known.resolved:
        raise ValueError("the dual side must be unambiguous")
    target = dual_known.K0
    matches = [c for c in amb.K1.candidates if c == target]
    if not matches:
        raise NoMatchingCandidate(
            f"dual K^0 = {target} is not an extension candidate")
    if len(matches) > 1:
        raise MultipleMatches("extension candidates are not distinct")
    return KGroups(amb.K0, matches[0])


@dataclass(frozen=True)
class RationalReport:
    k_ranks: tuple[int, int]
    twisted_dims: tuple[int, int]

    @property
    def ok(self) -> bool:
        return self.k_ranks == self.twisted_dims

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (f"rank K^0/K^1 = {self.k_ranks} vs twisted even/odd dims "
                f"= {self.twisted_dims} [{status}]")


def rational_consistency(k: KGroups, dims: tuple[int, int]) -> RationalReport:
    """Free ranks of the K-groups against the rational twisted dimensions."""
    return RationalReport(k.ranks(), dims)
