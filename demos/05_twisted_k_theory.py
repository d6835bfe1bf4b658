"""Twisted K-groups and extension resolution through the dual.

In total dimension up to three the filtration leaves a single possibly
ambiguous extension in K^1.  The engine reports the candidates explicitly
and picks the one matching the dual's degree-shifted K-group; ranks are
cross-checked against the twisted complex D = delta + H on the total model.
"""

from tdual import (
    TwistClass,
    ahss_k_groups,
    build_bundle,
    build_flux,
    construct_tdual,
    crosscap_sum,
    rational_consistency,
    resolve_by_tduality,
    sigma,
    small_twisted_cohomology,
)

info = sigma(2)
pair = build_flux(build_bundle(info, info.xi(), 0), 1)
dual, _ = construct_tdual(pair)

plain = ahss_k_groups(TwistClass.from_flux(pair, False))
print("plain twist:   K^0 =", plain.K0, "  K^1 =", plain.K1)

twisted = ahss_k_groups(TwistClass.from_flux(pair, True))
print("with the orientation twist the extension is ambiguous:")
print("   ", twisted.K1)
resolved = resolve_by_tduality(twisted, ahss_k_groups(TwistClass.from_flux(dual, False)))
print("resolved against the dual: K^1 =", resolved.K1)

dims = small_twisted_cohomology(pair, True)
print("rational cross-check:", rational_consistency(resolved, dims))

print()
info = crosscap_sum(2)
for j, k in [(1, 0), (1, 2), (3, 3)]:
    pair = build_flux(build_bundle(info, info.xi(), j), k)
    dual, _ = construct_tdual(pair)
    kg = ahss_k_groups(TwistClass.from_flux(pair, False))
    kgx = resolve_by_tduality(ahss_k_groups(TwistClass.from_flux(pair, True)),
                              ahss_k_groups(TwistClass.from_flux(dual, False)))
    print(f"(j={j}, k={k}): K^0 = {kg.K0}, K^1 = {kg.K1};  "
          f"twisted K^0 = {kgx.K0}, K^1 = {kgx.K1}")
