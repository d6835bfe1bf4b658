"""Exact symbolic checks of the bracket and transform identities.

All computations run on real trigonometric polynomials over a torus
double cover, stored as integer cos/sin coefficients over a common
denominator, so every identity is verified coefficient by coefficient with
no floating point anywhere.  Contexts still read and write the Gaussian
full-spectrum JSON schema.
"""

import random

from tdual import (
    Form,
    FourierScalar,
    VectorField,
    clifford,
    dorfman,
    hori_forms,
    phi_swap,
    run_context_checks,
    standard_contexts,
    twisted_d,
)
from tdual.courant import GeneralizedSection, random_section

name, ctx = standard_contexts()[0]
print("context:", name)
print("flux 2-form nonzero:", not ctx.flux_fhat().is_zero())

# the flux term of the bracket: base coordinate fields bracket to the
# double contraction of the total flux 3-form
s1 = GeneralizedSection(VectorField.coordinate(3, 0), Form.zero(3))
s2 = GeneralizedSection(VectorField.coordinate(3, 1), Form.zero(3))
br = dorfman(s1, s2, ctx)
print("bracket of coordinate fields lands in forms only:",
      all(c.is_zero() for c in br.vec.components))

# the transform swaps the two invariant components with a sign:
print("transform of 1 is minus the dual connection:",
      (hori_forms(Form.one(3), ctx) + ctx.dual().connection()).is_zero())
print("transform of the connection is 1:",
      (hori_forms(ctx.connection(), ctx) - Form.one(3)).is_zero())

# anti-commutation with the Clifford action on a random section
rng = random.Random(0)
s = random_section(rng, ctx)
w = ctx.invariant_part(Form.dx(3, 0, FourierScalar.cos_wave((1, 1))))
lhs = hori_forms(clifford(s, w), ctx)
rhs = clifford(phi_swap(s, ctx), hori_forms(w, ctx)).scale_rat(-1)
print("transform anti-commutes with the Clifford action:", (lhs - rhs).is_zero())

# and with the twisted differential
lhs = hori_forms(twisted_d(w, ctx, "E"), ctx)
rhs = twisted_d(hori_forms(w, ctx), ctx, "Ehat").scale_rat(-1)
print("transform anti-commutes with the twisted differential:", (lhs - rhs).is_zero())

print()
print("full identity battery on every packaged context:")
for name, ctx in standard_contexts():
    rep = run_context_checks(ctx, sections=3, seed=5, label=name)
    print(f"  {name}: {'all pass' if rep.ok else 'FAILURES'}")
