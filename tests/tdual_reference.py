"""Reference for the T-dual construction.

``construct_tdual`` and its two-part ``Certificate`` as ``tdual`` had them
before flux pairs were restricted to bases of dimension <= 2: a primitive
h3' of ehat cup e on the base, then one augmented solve for a 2-cochain B
on the correspondence complex together with a closed base 3-cochain a.
Kept as a test oracle: the direct solve must give the same dual pair and
the same B, with a empty.  The bodies are the old ones.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from tdual.bundles import BundleDescriptor, TotalCochain
from tdual.complexes import coboundary_matrix, cup
from tdual.exactalg import IntMatrix, NoSolution, hstack, solve_integer, vstack
from tdual.tduality import CorrCochain, CorrespondenceComplex, FluxPair, InternalObstruction


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
