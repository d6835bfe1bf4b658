"""Reference for the T-dual construction, verification and round trip.

``construct_tdual`` and its two-part ``Certificate`` as ``tdual`` had them
before flux pairs were restricted to bases of dimension <= 2: a primitive
h3' of ehat cup e on the base, then one augmented solve for a 2-cochain B
on the correspondence complex together with a closed base 3-cochain a.
The closed-form certificate must give the same dual pair and the same B,
with a empty.

``verify_tduality`` and ``duals_equivalent`` as they were before the
correspondence axiom took the push-forward witness and the round trip a
single total coboundary solve: every candidate solved on the
correspondence complex, and the gauge shifts pi^*(alpha ^ e) of the H^1
generators stacked beside the total delta^2.  The new paths must give the
same axiom values and the same verdicts.

The bodies are the old ones.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from tdual.bundles import BundleDescriptor, TotalCochain, TotalComplex, align_xi_cochain, pullback
from tdual.complexes import (
    BaseMismatch,
    TwistedCochain,
    coboundary_matrix,
    cohomology,
    cup,
    is_coboundary,
    is_same_z2_class,
)
from tdual.exactalg import IntMatrix, NoSolution, hstack, solve_integer, vstack
from tdual.tduality import (
    BundleMismatch,
    CorrCochain,
    CorrespondenceComplex,
    FluxPair,
    InternalObstruction,
    TDualityReport,
    _discrepancy,
)


@dataclass(frozen=True)
class Certificate:
    """Exact witness for the correspondence-space axiom:
    p^*(h) - phat^*(h_dual) = delta(B) + q^*(a) with a closed."""

    b: CorrCochain
    a: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"B": {"alpha": list(self.b.alpha), "beta": list(self.b.beta),
                      "gamma": list(self.b.gamma), "rho": list(self.b.rho)},
                "a": list(self.a)}


def construct_tdual(pair: FluxPair) -> tuple[FluxPair, Certificate]:
    """The T-dual pair and an exact certificate.

    Steps: take the flux's push-forward cocycle as the dual Euler cocycle;
    solve for a base correction making the exchanged flux closed on the
    dual side; then solve on the correspondence complex for a 2-cochain B
    and a closed base 3-cochain a absorbing the discrepancy.  The final
    identity p^*(h) - phat^*(h_dual) = delta(B) holds exactly.
    """
    bundle = pair.bundle
    base = bundle.base
    xi = bundle.xi
    ehat_values = pair.fhat
    ehat_bundle = BundleDescriptor(base, xi, ehat_values)

    # dual-side closedness: delta(h3') = ehat cup e in C^4(M)
    rhs = cup(ehat_bundle.euler_cochain(), bundle.euler_cochain())
    try:
        h3p = solve_integer(coboundary_matrix(base, 3, None), rhs.values)
    except NoSolution as exc:
        raise InternalObstruction("no primitive for ehat cup e") from exc

    corr = CorrespondenceComplex(bundle, ehat_bundle)
    d_flux = corr.p_pull(pair.total_cochain()) - corr.phat_pull(
        TotalCochain(ehat_bundle, 3, h3p, bundle.euler, None))
    if not corr.coboundary(d_flux).is_zero():
        raise InternalObstruction("discrepancy cochain is not closed")

    # solve  delta_F(B) + q^*(a) = D  with  delta(a) = 0
    m = base
    d_f = corr.delta_matrix(2)
    n_b = d_f.cols
    n_a = m.count(3)
    inc = vstack([
        IntMatrix.identity(n_a) if n_a else IntMatrix.zeros(0, 0),
        IntMatrix.zeros(corr.count(3) - n_a, n_a),
    ])
    top = hstack([d_f, inc])
    bottom = hstack([IntMatrix.zeros(coboundary_matrix(m, 3, None).rows, n_b),
                     coboundary_matrix(m, 3, None)])
    big = vstack([top, bottom])
    rhs_vec = d_flux.vector() + (0,) * coboundary_matrix(m, 3, None).rows
    try:
        sol = solve_integer(big, rhs_vec)
    except NoSolution as exc:
        raise InternalObstruction("correspondence solve failed") from exc
    b_cochain = corr.from_vector(2, sol[:n_b])
    a = tuple(sol[n_b:])

    dual_h3 = tuple(x + y for x, y in zip(h3p, a))
    dual = FluxPair(ehat_bundle, dual_h3, bundle.euler)

    # final exact recheck
    lhs = corr.p_pull(pair.total_cochain()) - corr.phat_pull(dual.total_cochain())
    if not (lhs - corr.coboundary(b_cochain)).is_zero():
        raise InternalObstruction("certificate recheck failed")
    return dual, Certificate(b_cochain, a)


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
    carries the pair's sign system."""
    ax2a = is_coboundary(pair.fhat_cochain() - cand.bundle.euler_cochain())
    ax2b = is_coboundary(cand.fhat_cochain() - pair.bundle.euler_cochain())
    corr, diff = _discrepancy(pair, cand)
    try:
        solve_integer(corr.delta_matrix(2), diff.vector())
        ax3 = True
    except NoSolution:
        ax3 = False
    return TDualityReport(True, ax2a, ax2b, ax3)


def duals_equivalent(q1: FluxPair, q2: FluxPair) -> tuple[bool, Optional[TwistedCochain]]:
    """Whether two fluxes on the same bundle differ by a gauge shift
    pi^*(alpha cup e); returns a witness 1-cocycle when they do."""
    if q1.bundle != q2.bundle:
        raise BundleMismatch("flux pairs live on different bundle descriptors")
    bundle = q1.bundle
    base = bundle.base
    xi = bundle.xi
    model = TotalComplex(bundle)
    mu = q2.total_cochain() - q1.total_cochain()

    h1 = cohomology(base, xi)[1]
    gens = list(h1.representatives)
    e = bundle.euler_cochain()
    cols = []
    for g in gens:
        gc = TwistedCochain(base, 1, g, xi)
        cols.append(pullback(bundle, cup(gc, e)).vector())
    d_e = model.delta_matrix(2)
    n = model.count(3)
    gen_mat = IntMatrix.from_rows([[c[i] for c in cols] for i in range(n)], cols=len(cols))
    big = hstack([gen_mat, d_e])
    try:
        sol = solve_integer(big, mu.vector())
    except NoSolution:
        return False, None
    coeffs = sol[:len(gens)]
    alpha_vals = [0] * base.count(1)
    for c, g in zip(coeffs, gens):
        for i, v in enumerate(g):
            alpha_vals[i] += c * v
    return True, TwistedCochain(base, 1, tuple(alpha_vals), xi)
