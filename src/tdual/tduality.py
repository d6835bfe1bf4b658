"""Constructive T-duality for circle bundles with flux over surfaces.

A flux pair carries a degree-3 class on the total space in invariant form:
a base 3-cochain together with a xi-twisted 2-cochain (the push-forward
part).  Flux pairs live over bases of dimension <= 2, which carry no
3-cochains, so the flux is its push-forward part.  The dual exchanges the
Euler cocycle with the push-forward flux, and the 2-cochain
B = theta thetahat on the correspondence complex certifies it.  That
complex is the mapping cone (``complexes.cone``) of the cup with the
pulled-back dual Euler cocycle between two total-space models of E,
pi^*(ehat) ^ : C^*(E, xi) -> C^{*+2}(E), which acts as
(gamma, rho) |-> (ehat ^ gamma, ehat ^ rho):

    C^k(F) = C^k(E) (+) C^{k-1}(E, xi)
           = C^k(M) (+) C^{k-1}(M,xi) (+) C^{k-1}(M,xi) (+) C^{k-2}(M).

theta thetahat is rho = 1 on every vertex, the rest zero.  Its delta is
(0, ehat ^ 1, -e ^ 1, delta 1) = (0, ehat, -e, 0): the cup with ehat
writes into beta, E's xi-twisted model writes e ^ rho into gamma with its
cone's sign (-1)^1, and 1 is closed.  That is p^*(h) - phat^*(h_dual) =
(0, fhat, -e, 0), as ehat = fhat (Bouwknegt-Evslin-Mathai).

The cup with ehat commutes with the differential of E's model only up to
the commutator of the two Euler cocycles: the rho -> alpha entry of
delta^2 is (ehat ^ e - e ^ ehat) ^ rho, a cochain of degree >= 4 on M, so
it vanishes on every base of dimension <= 3.  The model accepts the bases
flux pairs live on, of dimension <= 2; there the C^{k-2}(M) summand is
still used, by delta^2 and delta^3.  Every step returns exact integer
certificates; nothing is checked only up to cohomology unless the
statement itself is cohomological.

Twisted cohomology is that of the Z/2-graded complex D = delta + H on the
total model C^*(E, zeta), H(alpha, beta) = (0, (-1)^k fhat ^ alpha) on C^k
(Bouwknegt-Evslin-Mathai, D = d + H on invariant forms alpha + theta beta).
H H = 0, as H reads alpha and writes beta.  On (alpha, 0) in C^k the
cross terms delta H + H delta leave (-e ^ fhat ^ alpha, 0), and on
(0, beta) they leave (0, +-fhat ^ e ^ beta): cochains of degree >= 4 on
M, zero over a surface, so D^2 = 0 over Z.  The component swap
(alpha, beta) |-> (beta, -alpha) onto the dual's complex with the other
zeta satisfies T D = Dhat T exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .bundles import BundleDescriptor, TotalComplex, TotalCochain, align_xi_cochain
from .complexes import (
    BaseMismatch,
    TwistedCochain,
    coboundary_matrix,
    cone,
    cup_matrix_left,
    is_same_z2_class,
    json_int,
    system_key,
)
from .exactalg import IntMatrix, NoSolution, block_matrix, rank_of, solve_integer


class InternalObstruction(Exception):
    """A linear solve that must succeed for valid inputs failed."""


class BundleMismatch(Exception):
    """Flux pairs expected on the same bundle descriptor are not."""


@dataclass(frozen=True)
class FluxPair:
    """A bundle with an invariant representative of a degree-3 flux:
    (base 3-cochain, xi-twisted 2-cochain).  The base has dimension <= 2,
    so the base 3-cochain ``h3`` is always empty, and the flux is closed:
    the total model has no 4-cochains."""

    bundle: BundleDescriptor
    h3: tuple[int, ...]
    fhat: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.bundle.base
        if m.dimension > 2:
            raise ValueError(f"flux pairs need a base of dimension <= 2, not {m.dimension}")
        if len(self.h3) != m.count(3) or len(self.fhat) != m.count(2):
            raise ValueError("flux component lengths do not match the base")

    def total_cochain(self) -> TotalCochain:
        return TotalCochain(self.bundle, 3, self.h3, self.fhat, None)

    def fhat_cochain(self) -> TwistedCochain:
        return TwistedCochain(self.bundle.base, 2, self.fhat, self.bundle.xi)

    def to_json_dict(self) -> dict:
        return {"bundle": self.bundle.to_json_dict(),
                "H3": list(self.h3), "Fhat": list(self.fhat)}

    @staticmethod
    def from_json_dict(obj: dict) -> "FluxPair":
        bundle = BundleDescriptor.from_json_dict(obj["bundle"])
        return FluxPair(bundle, tuple(json_int(v, "H3") for v in obj["H3"]),
                        tuple(json_int(v, "Fhat") for v in obj["Fhat"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def dual(self) -> "FluxPair":
        """The T-dual pair (Bouwknegt-Evslin-Mathai): the push-forward flux
        becomes the dual Euler cocycle and the Euler cocycle the dual's
        push-forward flux.  Solves nothing; ``construct_tdual`` certifies it."""
        bundle = self.bundle
        return FluxPair(BundleDescriptor(bundle.base, bundle.xi, self.fhat), (), bundle.euler)


# ---------------------------------------------------------------------------
# Correspondence complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrCochain:
    """Cochain on the correspondence model: four base components."""

    degree: int
    alpha: tuple[int, ...]   # C^k(M)
    beta: tuple[int, ...]    # C^{k-1}(M, xi)   (fiber direction of E)
    gamma: tuple[int, ...]   # C^{k-1}(M, xi)   (fiber direction of the dual)
    rho: tuple[int, ...]     # C^{k-2}(M)

    def vector(self) -> tuple[int, ...]:
        return self.alpha + self.beta + self.gamma + self.rho

    def __sub__(self, other: "CorrCochain") -> "CorrCochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return CorrCochain(
            self.degree,
            tuple(a - b for a, b in zip(self.alpha, other.alpha)),
            tuple(a - b for a, b in zip(self.beta, other.beta)),
            tuple(a - b for a, b in zip(self.gamma, other.gamma)),
            tuple(a - b for a, b in zip(self.rho, other.rho)))

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in part)
                   for part in (self.alpha, self.beta, self.gamma, self.rho))


class CorrespondenceComplex:
    """Fibre-product model for two bundles over the same base with the same
    orientation cocycle."""

    def __init__(self, e_bundle: BundleDescriptor, ehat_bundle: BundleDescriptor):
        if e_bundle.base != ehat_bundle.base:
            raise BaseMismatch("bundles live over different bases")
        if system_key(e_bundle.xi) != system_key(ehat_bundle.xi):
            raise BaseMismatch("orientation cocycles differ; align first")
        if e_bundle.base.dimension > 2:
            raise ValueError("the correspondence complex needs a base of dimension <= 2, "
                             f"not {e_bundle.base.dimension}")
        self.base = e_bundle.base
        self.xi = e_bundle.xi
        self.e_bundle = e_bundle
        self.ehat_bundle = ehat_bundle

    def count(self, k: int) -> int:
        m = self.base
        return m.count(k) + 2 * m.count(k - 1) + m.count(k - 2)

    def from_vector(self, k: int, v: Sequence[int]) -> CorrCochain:
        m = self.base
        n0, n1, n2 = m.count(k), m.count(k - 1), m.count(k - 2)
        return CorrCochain(k, tuple(v[:n0]), tuple(v[n0:n0 + n1]),
                           tuple(v[n0 + n1:n0 + 2 * n1]), tuple(v[n0 + 2 * n1:]))

    def delta_matrix(self, k: int) -> IntMatrix:
        return _corr_delta(self.e_bundle, self.ehat_bundle, k)

    def coboundary(self, x: CorrCochain) -> CorrCochain:
        """delta x from the total models' cached deltas and the cup with ehat, block by block."""
        k, xi, ehat = x.degree, self.xi, self.ehat_bundle.euler_cochain()
        t = TotalComplex(self.e_bundle).delta_matrix(k).mul_vec(x.alpha + x.beta)
        cup = (cup_matrix_left(ehat, k - 1, xi).mul_vec(x.gamma)
               + cup_matrix_left(ehat, k - 2, None).mul_vec(x.rho))
        s = TotalComplex(self.e_bundle, xi).delta_matrix(k - 1).mul_vec(x.gamma + x.rho)
        return self.from_vector(k + 1, [a + (-1) ** k * c for a, c in zip(t, cup)] + list(s))

    # structure maps ---------------------------------------------------------

    def p_pull(self, x: TotalCochain) -> CorrCochain:
        m = self.base
        k = x.degree
        return CorrCochain(k, x.alpha, x.beta, (0,) * m.count(k - 1), (0,) * m.count(k - 2))

    def phat_pull(self, x: TotalCochain) -> CorrCochain:
        m = self.base
        k = x.degree
        return CorrCochain(k, x.alpha, (0,) * m.count(k - 1), x.beta, (0,) * m.count(k - 2))

    def p_push(self, x: CorrCochain) -> TotalCochain:
        """Integration over the fiber of E: lands on the dual bundle's
        xi-twisted total model (with the model's alternating sign)."""
        return TotalCochain(self.ehat_bundle, x.degree - 1, x.beta,
                            tuple(-v for v in x.rho), self.xi)

    def phat_push(self, x: CorrCochain) -> TotalCochain:
        return TotalCochain(self.e_bundle, x.degree - 1, x.gamma, x.rho, self.xi)


@lru_cache(maxsize=2048)
def _corr_delta(e_bundle: BundleDescriptor, ehat_bundle: BundleDescriptor, k: int) -> IntMatrix:
    """delta^k of the cone of pi^*(ehat) ^ : C^*(E, xi) -> C^{*+2}(E)."""
    xi = e_bundle.xi
    ehat = ehat_bundle.euler_cochain()

    def cup_ehat(j: int) -> IntMatrix:
        # (gamma, rho) |-> (ehat ^ gamma, ehat ^ rho), block diagonal
        top, bot = cup_matrix_left(ehat, j, xi), cup_matrix_left(ehat, j - 1, None)
        return block_matrix([[top, IntMatrix.zeros(top.rows, bot.cols)],
                             [IntMatrix.zeros(bot.rows, top.cols), bot]])

    return cone(TotalComplex(e_bundle).chain, TotalComplex(e_bundle, xi).chain, cup_ehat, k)


# ---------------------------------------------------------------------------
# Construction and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Exact witness for the correspondence-space axiom:
    p^*(h) - phat^*(h_dual) = delta(B)."""

    b: CorrCochain

    def to_json_dict(self) -> dict:
        return {"B": {"alpha": list(self.b.alpha), "beta": list(self.b.beta),
                      "gamma": list(self.b.gamma), "rho": list(self.b.rho)}}


def _discrepancy(pair: FluxPair, dual: FluxPair) -> tuple[CorrespondenceComplex, CorrCochain]:
    """The correspondence complex of the two bundles and p^*(h) - phat^*(h_dual)
    on it; ``dual`` must carry the same orientation cocycle as ``pair``."""
    corr = CorrespondenceComplex(pair.bundle, dual.bundle)
    return corr, corr.p_pull(pair.total_cochain()) - corr.phat_pull(dual.total_cochain())


def _witness(corr: CorrespondenceComplex, a: Sequence[int], b: Sequence[int],
             rho: int) -> CorrCochain:
    """The correspondence 2-cochain (0, a, -b, rho) = a theta - b thetahat
    + rho theta thetahat, rho constant on the vertices."""
    return CorrCochain(2, (0,) * corr.base.count(2), tuple(a), tuple(-v for v in b),
                       (rho,) * corr.base.count(0))


def _solution(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    try:
        return solve_integer(a, b)
    except NoSolution:
        return None


def _primitive(c: TwistedCochain) -> Optional[tuple[int, ...]]:
    """Some u with delta(u) = c over c's system, or None."""
    return _solution(coboundary_matrix(c.base, c.degree - 1, c.system), c.values)


def construct_tdual(pair: FluxPair) -> tuple[FluxPair, Certificate]:
    """The T-dual pair ``pair.dual()`` and its certificate B = theta thetahat,
    or B = 0 when e = fhat = 0; p^*(h) - phat^*(h_dual) = delta(B) is
    rechecked exactly, and nothing is solved."""
    dual = pair.dual()
    corr, d_flux = _discrepancy(pair, dual)
    zero = (0,) * corr.base.count(1)
    b_cochain = _witness(corr, zero, zero, 0 if d_flux.is_zero() else 1)
    if not (d_flux - corr.coboundary(b_cochain)).is_zero():
        raise InternalObstruction("certificate recheck failed")
    return dual, Certificate(b_cochain)


@dataclass(frozen=True)
class TDualityReport:
    orientation_classes_agree: bool
    pushforward_equals_dual_chern: bool
    pushforward_dual_equals_chern: bool
    correspondence_classes_agree: bool

    @property
    def ok(self) -> bool:
        return (self.orientation_classes_agree
                and self.pushforward_equals_dual_chern
                and self.pushforward_dual_equals_chern
                and self.correspondence_classes_agree)

    def __str__(self) -> str:
        rows = [
            ("orientation classes agree", self.orientation_classes_agree),
            ("push-forward of flux = dual Chern class", self.pushforward_equals_dual_chern),
            ("push-forward of dual flux = Chern class", self.pushforward_dual_equals_chern),
            ("fluxes agree on the correspondence space", self.correspondence_classes_agree),
        ]
        return "\n".join(f"  [{'pass' if ok else 'FAIL'}] {name}" for name, ok in rows)


def verify_tduality(pair: FluxPair, cand: FluxPair) -> TDualityReport:
    """Check the three duality axioms, returning per-axiom results.

    The candidate is aligned to the pair's sign system by a vertex
    rescaling u, and 1 - u aligns it as well while negating every aligned
    cochain.  So when the aligned candidate fails, its fiber inversion
    (Euler and flux cocycles both negated, an isomorphic pair) is checked
    too, and the candidate passes if either one passes all three axioms."""
    if pair.bundle.base != cand.bundle.base:
        raise BaseMismatch("pairs live over different bases")
    base, xi = pair.bundle.base, pair.bundle.xi

    if not is_same_z2_class(xi, cand.bundle.xi):
        return TDualityReport(False, False, False, False)

    ehat = align_xi_cochain(cand.bundle.euler_cochain(), xi).values
    fhat = align_xi_cochain(cand.fhat_cochain(), xi).values
    report = _axioms(pair, FluxPair(BundleDescriptor(base, xi, ehat), cand.h3, fhat))
    if not report.ok:
        flipped = _axioms(pair, FluxPair(BundleDescriptor(base, xi, tuple(-v for v in ehat)),
                                         cand.h3, tuple(-v for v in fhat)))
        if flipped.ok:
            return flipped
    return report


def _axioms(pair: FluxPair, cand: FluxPair) -> TDualityReport:
    """The push-forward and correspondence axioms for a candidate that
    carries the pair's sign system.  When the base solves delta(a) =
    fhat - ehat_c and delta(b) = fhat_c - e both succeed, B = (0, a, -b, 1)
    has delta(B) = (0, fhat, -fhat_c, 0), the discrepancy, checked exactly;
    only otherwise is the correspondence complex solved."""
    a = _primitive(pair.fhat_cochain() - cand.bundle.euler_cochain())
    b = _primitive(cand.fhat_cochain() - pair.bundle.euler_cochain())
    corr, diff = _discrepancy(pair, cand)
    witnessed = (a is not None and b is not None
                 and (diff - corr.coboundary(_witness(corr, a, b, 1))).is_zero())
    ax3 = witnessed or _solution(corr.delta_matrix(2), diff.vector()) is not None
    return TDualityReport(True, a is not None, b is not None, ax3)


def duals_equivalent(q1: FluxPair, q2: FluxPair) -> tuple[bool, Optional[TwistedCochain]]:
    """Whether two fluxes on the same bundle differ by a gauge shift
    pi^*(alpha ^ e) plus a coboundary, with a witness 1-cocycle alpha.
    Over a base of dimension <= 2, alpha ^ e has degree 3 and is zero, so
    this asks whether q2 - q1 is a total coboundary, and alpha is zero."""
    if q1.bundle != q2.bundle:
        raise BundleMismatch("flux pairs live on different bundle descriptors")
    bundle = q1.bundle
    mu = q2.total_cochain() - q1.total_cochain()
    if _solution(TotalComplex(bundle).delta_matrix(2), mu.vector()) is None:
        return False, None
    return True, TwistedCochain(bundle.base, 1, (0,) * bundle.base.count(1), bundle.xi)


# ---------------------------------------------------------------------------
# Twisted complex
# ---------------------------------------------------------------------------

class SmallTwistedComplex:
    """The Z/2-graded integral complex (C^*(E, zeta), D = delta + H) of a
    flux pair, zeta = xi when ``twist_by_xi``: H(alpha, beta) =
    (0, (-1)^k fhat ^ alpha) on C^k of the total model.

    ``basis`` lists (part, base degree, simplex index) in the order of the
    total model's vectors, degree by degree: part "a" is alpha in
    C^k(M, zeta), of total degree k, and part "b" is beta in
    C^k(M, zeta xi), of total degree k + 1.
    """

    def __init__(self, pair: FluxPair, twist_by_xi: bool = False):
        bundle = pair.bundle
        zeta = bundle.xi if twist_by_xi else None
        self.pair = pair
        self.twist_by_xi = twist_by_xi
        self.model = TotalComplex(bundle, zeta)
        self.basis = [(part, deg, i) for k in range(self.model.dimension + 1)
                      for part, deg in (("a", k), ("b", k - 1))
                      for i in range(bundle.base.count(deg))]
        # H^0: C^0(E) -> C^3(E) = C^2(M, zeta xi), as the base has no
        # 3-simplices; on C^k, k >= 1, fhat ^ alpha has degree > 2 and is zero
        self._h0 = cup_matrix_left(pair.fhat_cochain(), 0, zeta)

    def parity(self, idx: int) -> int:
        part, k, _ = self.basis[idx]
        return k % 2 if part == "a" else (k + 1) % 2

    def d_even(self) -> IntMatrix:
        """D from degrees 0 and 2 to degrees 1 and 3: [[delta^0, 0], [H^0, delta^2]]."""
        d0, d2 = self.model.delta_matrix(0), self.model.delta_matrix(2)
        return block_matrix([[d0, IntMatrix.zeros(d0.rows, d2.cols)], [self._h0, d2]])

    @cached_property
    def d_matrix(self) -> IntMatrix:
        """D on ``basis``: delta^k from degree k to k + 1, and H^0 from
        degree 0 to degree 3."""
        sizes = [self.model.count(k) for k in range(self.model.dimension + 1)]
        grid = [[IntMatrix.zeros(r, c) for c in sizes] for r in sizes]
        for k in range(len(sizes) - 1):
            grid[k + 1][k] = self.model.delta_matrix(k)
        if len(sizes) > 3:
            grid[3][0] = self._h0
        return block_matrix(grid)

    def dims(self) -> tuple[int, int]:
        """(even, odd) ranks of D's cohomology, the dimensions over Q."""
        d_even = self.d_even()
        # D from odd degrees is delta^1 alone: H^1 writes fhat ^ alpha in
        # C^3(M) = 0 and delta^3 maps to C^4(E) = 0.  So its rank is that of
        # delta^1, whose Smith form the total model's groups have cached.
        ranks = rank_of(d_even) + rank_of(self.model.delta_matrix(1))
        return d_even.cols - ranks, d_even.rows - ranks

    def check_d_squared(self) -> bool:
        return self.d_matrix.mul(self.d_matrix).is_zero()


def small_twisted_cohomology(pair: FluxPair, twist_by_xi: bool = False) -> tuple[int, int]:
    """Z/2-graded dimensions (even, odd) of the twisted cohomology over Q."""
    return SmallTwistedComplex(pair, twist_by_xi).dims()


@dataclass(frozen=True)
class HoriSmall:
    """The invariant-model transform (alpha, beta) |-> (beta, -alpha), a
    degree-shifting chain isomorphism onto the dual's xi-twisted model."""

    source: SmallTwistedComplex
    target: SmallTwistedComplex
    matrix: IntMatrix

    def is_chain_map(self) -> bool:
        return self.matrix.mul(self.source.d_matrix) == self.target.d_matrix.mul(self.matrix)

    def shifts_parity(self) -> bool:
        return not any(self.target.parity(i) == self.source.parity(j)
                       for i, row in enumerate(self.matrix.nonzeros) for j, _ in row)


def _component_swap(source: SmallTwistedComplex, target: SmallTwistedComplex) -> HoriSmall:
    """(alpha, beta) |-> (beta, -alpha) between models with complementary
    twists over the same base.  Each simplex of one summand is a simplex
    of the other, so the matrix is a signed permutation."""
    index = {entry: i for i, entry in enumerate(target.basis)}
    rows = [{} for _ in target.basis]
    for j, (part, k, rep) in enumerate(source.basis):
        i = index.get(("b" if part == "a" else "a", k, rep))
        if i is not None:
            rows[i][j] = -1 if part == "a" else 1
    return HoriSmall(source, target, IntMatrix.from_nonzeros(rows, len(source.basis)))


def hori_small(pair: FluxPair, dual: Optional[FluxPair] = None) -> HoriSmall:
    """The transform from the pair's model to the dual's xi-twisted model."""
    if dual is None:
        dual = pair.dual()
    return _component_swap(SmallTwistedComplex(pair, twist_by_xi=False),
                           SmallTwistedComplex(dual, twist_by_xi=True))


def hori_small_reverse(pair: FluxPair, dual: Optional[FluxPair] = None) -> HoriSmall:
    """The xi-twisted reverse transform, from the dual's xi-twisted model
    back to the pair's model; composing with hori_small gives -identity."""
    if dual is None:
        dual = pair.dual()
    return _component_swap(SmallTwistedComplex(dual, twist_by_xi=True),
                           SmallTwistedComplex(pair, twist_by_xi=False))
