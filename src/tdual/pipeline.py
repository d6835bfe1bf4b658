"""End-to-end runs over the example spaces: build, dualize, verify, compute
K-groups, and diff everything against the reference tables."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .bundles import total_cohomology, total_duality_report, total_homology, same_bundle
from .catalog import SpaceInfo, build_bundle, build_flux, space
from .complexes import LocalSystem, coboundary_matrix, cohomology
from .fixtures import (
    Fixture,
    all_fixtures,
    crosscap_h1_fixture,
    crosscap_k_fixtures,
    crosscap_total_fixtures,
    klein_fixtures,
    sigma_k_fixtures,
    sigma_total_fixtures,
)
from .ktheory import KGroups, TwistClass, ahss_k_groups, rational_consistency, resolve_by_tduality
from .tduality import (
    FluxPair,
    construct_tdual,
    duals_equivalent,
    small_twisted_cohomology,
    verify_tduality,
)


@lru_cache(maxsize=256)
def _space_for(kind: str, param: int) -> SpaceInfo:
    if kind == "klein":
        return space("circle")
    if kind == "sigma":
        return space("sigma", g=param)
    if kind == "crosscap":
        return space("crosscap", n=param)
    raise KeyError(kind)


@lru_cache(maxsize=256)
def _bundle_for(kind: str, param: int, j: int):
    info = _space_for(kind, param)
    return build_bundle(info, info.xi(), j)


@lru_cache(maxsize=512)
def _flux_for(kind: str, param: int, j: int, k: int) -> FluxPair:
    return build_flux(_bundle_for(kind, param, j), k)


@lru_cache(maxsize=512)
def _resolved_k_groups(kind: str, param: int, j: int, k: int,
                       xi_twist: bool) -> tuple[KGroups, bool]:
    """The pair's K-groups, and whether K^1 was resolved against the dual.

    Only the orientation-twisted K^1 can be ambiguous: the plain one is an
    extension of H^1(E; Z), which is torsion-free.  The ambiguous one is
    settled by the dual's K-groups under the other twist."""
    pair = _flux_for(kind, param, j, k)
    kg = ahss_k_groups(TwistClass.from_flux(pair, xi_twist))
    if kg.resolved:
        return kg, False
    dual_k = ahss_k_groups(TwistClass.from_flux(pair.dual(), not xi_twist))
    return resolve_by_tduality(kg, dual_k), True


def compute_fixture(fx: Fixture) -> tuple:
    """The engine's value for one fixture cell."""
    kind = fx.space
    param, j, k = (fx.params + (0, 0, 0))[:3]  # Klein bottle cells have no parameters
    if fx.kind == "base-cohomology":
        info = _space_for(kind, param)
        system = None if fx.twist == "Z" else info.xi()
        return tuple(g.group for g in cohomology(info.complex, system))
    if fx.kind == "total-cohomology":
        bundle = _bundle_for(kind, param, j)
        return tuple(total_cohomology(bundle, None if fx.twist == "Z" else bundle.xi))
    if fx.kind == "k-groups":
        kg, _ = _resolved_k_groups(kind, param, j, k, fx.twist == "(xi,h)")
        return (kg.K0, kg.K1)
    if fx.kind == "h1":
        return (total_homology(_bundle_for(kind, param, j))[1],)
    raise KeyError(fx.kind)


@dataclass(frozen=True)
class FixtureResult:
    fixture: Fixture
    computed: tuple
    ok: bool


def run_fixtures(fixtures=None) -> list[FixtureResult]:
    out = []
    for fx in (fixtures if fixtures is not None else all_fixtures()):
        got = compute_fixture(fx)
        out.append(FixtureResult(fx, got, got == fx.expected))
    return out


# ---------------------------------------------------------------------------
# Full per-pair pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineReport:
    space: str
    params: dict
    base_cohomology: dict
    total_cohomology_tables: dict
    duality_axioms: str
    round_trip_ok: bool
    k_tables: dict
    rational_checks: dict
    fixture_diffs: list
    duality_groups_ok: bool
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.round_trip_ok and self.duality_groups_ok
                and all(d.ok for d in self.fixture_diffs)
                and "FAIL" not in self.duality_axioms
                and all(v == "pass" for v in self.rational_checks.values()))

    def to_json_dict(self) -> dict:
        def grp(g):
            return str(g)
        return {
            "space": self.space,
            "params": self.params,
            "base_cohomology": {k: [grp(g) for g in v]
                                for k, v in self.base_cohomology.items()},
            "total_cohomology": {k: [grp(g) for g in v]
                                 for k, v in self.total_cohomology_tables.items()},
            "duality_axioms": self.duality_axioms,
            "round_trip_ok": self.round_trip_ok,
            "k_groups": {k: [grp(g) for g in v] for k, v in self.k_tables.items()},
            "rational_checks": self.rational_checks,
            "fixture_failures": [d.fixture.label() for d in self.fixture_diffs if not d.ok],
            "duality_groups_ok": self.duality_groups_ok,
            "notes": self.notes,
            "ok": self.ok,
        }

    def to_markdown(self) -> str:
        lines = [f"# {self.space} {self.params}", ""]
        lines.append("## Base cohomology")
        for name, groups in self.base_cohomology.items():
            lines.append(f"- {name}: " + ", ".join(str(g) for g in groups))
        lines.append("")
        lines.append("## Total-space cohomology")
        for name, groups in self.total_cohomology_tables.items():
            lines.append(f"- {name}: " + ", ".join(str(g) for g in groups))
        lines.append("")
        lines.append("## Duality axioms")
        lines.append(self.duality_axioms)
        lines.append(f"- double dual equivalent to original: "
                     f"{'pass' if self.round_trip_ok else 'FAIL'}")
        lines.append("")
        lines.append("## K-groups")
        for name, groups in self.k_tables.items():
            lines.append(f"- {name}: K0 = {groups[0]}, K1 = {groups[1]}")
        lines.append("")
        lines.append("## Rational rank checks")
        for name, status in self.rational_checks.items():
            lines.append(f"- {name}: {status}")
        bad = [d for d in self.fixture_diffs if not d.ok]
        lines.append("")
        lines.append(f"## Fixture diffs: {len(bad)} failure(s) out of {len(self.fixture_diffs)}")
        for d in bad:
            lines.append(f"- {d.fixture.label()}: expected "
                         f"{[str(g) for g in d.fixture.expected]}, got "
                         f"{[str(g) for g in d.computed]}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _euler_shift(xi: LocalSystem) -> tuple[int, ...]:
    """delta u for u = 1 on every edge: three terms +-1 on each triangle, so never 0 there."""
    return coboundary_matrix(xi.base, 1, xi).mul_vec((1,) * xi.base.count(1))


def run_pipeline(kind: str, param: int = 0, j: int = 0, k: int = 0) -> PipelineReport:
    """Full run for one (space, bundle, flux) cell."""
    info = _space_for(kind, param)
    bundle = _bundle_for(kind, param, j)
    pair = _flux_for(kind, param, j, k)
    xi = bundle.xi

    base_coh = {
        "H^*(M, Z)": [g.group for g in cohomology(info.complex)],
        "H^*(M, Z_xi)": [g.group for g in cohomology(info.complex, xi)],
    }
    total_coh = {
        "H^*(E, Z)": total_cohomology(bundle),
        "H^*(E, Z_xi)": total_cohomology(bundle, xi),
    }

    dual, _ = construct_tdual(pair)
    axioms = verify_tduality(pair, dual)
    # re-dualized with its Euler cocycle moved by delta u: a flux fhat + delta u
    moved = tuple(a + b for a, b in zip(dual.bundle.euler, _euler_shift(xi)))
    ddual, _ = construct_tdual(replace(dual, bundle=replace(dual.bundle, euler=moved)))
    round_trip = same_bundle(ddual.bundle, bundle) and duals_equivalent(pair, ddual)[0]

    kg_plain, _ = _resolved_k_groups(kind, param, j, k, False)
    kg_xi, xi_via_dual = _resolved_k_groups(kind, param, j, k, True)
    notes = []
    if xi_via_dual:
        notes.append("K^1 with the orientation twist resolved against the dual")

    k_tables = {
        "K(E, h)": (kg_plain.K0, kg_plain.K1),
        "K(E, (xi,h))": (kg_xi.K0, kg_xi.K1),
    }
    dims_plain = small_twisted_cohomology(pair, False)
    dims_xi = small_twisted_cohomology(pair, True)
    rat = {
        "plain twist": "pass" if rational_consistency(kg_plain, dims_plain).ok else "FAIL",
        "orientation twist": "pass" if rational_consistency(kg_xi, dims_xi).ok else "FAIL",
    }

    groups_ok = True
    if info.complex.dimension == 2:
        orn = info.orientation_system()
        groups_ok = total_duality_report(bundle, orn, systems=[("Z", None), ("xi", xi)]).ok

    # build_bundle and build_flux admit only j, k in {0, 1} over sigma(g)
    if kind == "klein":
        fixtures = klein_fixtures()
    elif kind == "sigma":
        fixtures = sigma_total_fixtures(param, j) + sigma_k_fixtures(param, j, k)
    else:
        fixtures = (crosscap_total_fixtures(param, j)
                    + crosscap_k_fixtures(param, j, k)
                    + [crosscap_h1_fixture(param, j)])

    return PipelineReport(
        space=kind,
        params={"param": param, "j": j, "k": k},
        base_cohomology=base_coh,
        total_cohomology_tables=total_coh,
        duality_axioms=str(axioms),
        round_trip_ok=round_trip,
        k_tables=k_tables,
        rational_checks=rat,
        fixture_diffs=run_fixtures(fixtures),
        duality_groups_ok=groups_ok,
        notes=notes,
    )
