"""Exact T-duality for circle bundles over simplicial bases.

The package computes, over the integers and rationals only:

- Smith normal forms, integer solves and finitely generated abelian groups
  (:mod:`tdual.exactalg`);
- cohomology of ordered Delta-complexes with sign local systems, cup
  products with transport and the Bockstein (:mod:`tdual.complexes`);
- circle bundles as classification data with a mapping-cone model of the
  total space (:mod:`tdual.bundles`);
- the constructive T-dual with exact certificates, the correspondence
  complex, and the integral twisted complex D = delta + H with the
  component swap onto the dual's (:mod:`tdual.tduality`);
- twisted K-groups in dimension up to three with explicit extension
  bookkeeping resolved through the dual (:mod:`tdual.ktheory`);
- ready-made surfaces, bundles, fluxes, reference tables and end-to-end
  reports (:mod:`tdual.catalog`, :mod:`tdual.fixtures`,
  :mod:`tdual.pipeline`);
- exact trigonometric-polynomial verification of the bracket and transform
  identities on torus double covers (:mod:`tdual.fourier`,
  :mod:`tdual.courant`).

All values are immutable and all functions pure, so everything can be
shared freely across threads.
"""

from .bundles import (
    BundleDescriptor,
    TotalCochain,
    TotalComplex,
    gauge_action,
    gysin_exactness_report,
    pullback,
    pullback_cup,
    pushforward,
    same_bundle,
    total_cohomology,
    total_duality_report,
    total_homology,
)
from .catalog import (
    SpaceInfo,
    build_bundle,
    build_flux,
    circle,
    crosscap_sum,
    klein_bottle,
    sigma,
    space,
    torus,
)
from .complexes import (
    DeltaComplex,
    LocalSystem,
    TwistedCochain,
    bockstein,
    coboundary,
    coboundary_matrix,
    cohomology,
    cup,
    homology,
    is_coboundary,
    poincare_duality_check,
    tensor,
)
from .courant import (
    EquivariantContext,
    GeneralizedSection,
    bracket_swap,
    check_phi_intertwines,
    clifford,
    derived_bracket_check,
    dorfman,
    hori_forms,
    pairing,
    phi_swap,
    run_context_checks,
    standard_contexts,
    twisted_d,
)
from .exactalg import (
    FGAbelianGroup,
    IntMatrix,
    NoSolution,
    PresentedGroup,
    homology_at,
    kernel_basis,
    normal_form,
    smith_normal_form,
    solve_integer,
)
from .fourier import Form, FourierScalar, FrequencyOverflow, VectorField
from .ktheory import (
    AmbiguousExtension,
    KGroups,
    TwistClass,
    ahss_k_groups,
    rational_consistency,
    resolve_by_tduality,
    twist_product,
)
from .pipeline import run_fixtures, run_pipeline
from .tduality import (
    Certificate,
    CorrespondenceComplex,
    FluxPair,
    SmallTwistedComplex,
    construct_tdual,
    duals_equivalent,
    hori_small,
    hori_small_reverse,
    small_twisted_cohomology,
    verify_tduality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
