"""Command-line interface.

Subcommands operate on the JSON schemas declared by the library types:
complexes as {"vertices": n, "simplices": {...}}, sign systems as
{"edge_signs": [...]}, bundles as {"base":..., "xi":..., "euler":...},
flux pairs over a base of dimension <= 2 as {"bundle":..., "H3": [],
"Fhat":...}, and symbolic contexts as {"dim":..., "deck":..., "a":...,
"Fhat":..., "H3":...}.  Exit status is zero exactly when every check run
by the command passes, 1 when a check fails, and 2 when an input file is
missing, unreadable, not JSON, shaped wrongly for its type or rejected by
the library's loader, or when an argument is out of range (reported as one
``error:`` line).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable

from .bundles import BundleDescriptor, total_cohomology
from .catalog import OutOfRange
from .complexes import BaseMismatch, DeltaComplex, LocalSystem, cohomology
from .courant import MAX_SECTIONS, EquivariantContext, run_context_checks
from .fixtures import all_fixtures
from .fourier import FrequencyOverflow
from .ktheory import TwistClass, ahss_k_groups
from .pipeline import run_fixtures, run_pipeline
from .tduality import FluxPair, construct_tdual, verify_tduality


class InputError(Exception):
    """An input file that cannot be read or loaded; ``main`` exits 2."""


def _load(path: str, build: Callable[[Any], Any]):
    """Read a JSON file and build a library object from it."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    except ValueError as e:  # undecodable bytes or malformed JSON
        raise InputError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None
    try:
        return build(obj)
    except KeyError as e:
        raise InputError(f"{path}: missing field {e}") from None
    except (TypeError, AttributeError, IndexError):  # e.g. a list for an object
        kind = getattr(build, "func", build).__qualname__.split(".")[0]
        raise InputError(f"{path}: wrong JSON shape for {kind}") from None
    except Exception as e:  # anything the loader rejects
        raise InputError(f"{path}: {str(e) or type(e).__name__}") from None


def _print_groups(label: str, groups) -> None:
    print(f"{label}: " + ", ".join(str(g) for g in groups))


def cmd_cohomology(args) -> int:
    x = _load(args.space, DeltaComplex.from_json_dict)
    system = None
    if args.local_system:
        system = _load(args.local_system, partial(LocalSystem.from_json_dict, x))
    groups = [g.group for g in cohomology(x, system)]
    _print_groups("H^*", groups)
    return 0


def cmd_bundle_cohomology(args) -> int:
    bundle = _load(args.bundle, BundleDescriptor.from_json_dict)
    system = bundle.xi if args.coeff == "xi" else None
    _print_groups("H^*(E)", total_cohomology(bundle, system))
    return 0


def cmd_tdual(args) -> int:
    pair = _load(args.pair, FluxPair.from_json_dict)
    dual, cert = construct_tdual(pair)
    out = {"dual": dual.to_json_dict(), "certificate": cert.to_json_dict()}
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_verify(args) -> int:
    p = _load(args.pair, FluxPair.from_json_dict)
    q = _load(args.other, FluxPair.from_json_dict)
    try:
        report = verify_tduality(p, q)
    except BaseMismatch as e:
        raise InputError(f"{args.other}: {e}") from None
    print(report)
    return 0 if report.ok else 1


def cmd_ktheory(args) -> int:
    pair = _load(args.pair, FluxPair.from_json_dict)
    kg = ahss_k_groups(TwistClass.from_flux(pair, args.xi_twist))
    print(f"K^0 = {kg.K0}")
    print(f"K^1 = {kg.K1}")
    return 0


def cmd_tables(args) -> int:
    kind = args.catalog
    param = {"klein": 0, "sigma": args.g, "crosscap": args.n}[kind]
    if kind == "sigma" and args.g is None:
        print("error: --g is required for sigma", file=sys.stderr)
        return 2
    if kind == "crosscap" and args.n is None:
        print("error: --n is required for crosscap", file=sys.stderr)
        return 2
    try:
        report = run_pipeline(kind, param or 0, args.j, args.k)
    except OutOfRange as e:  # genus, crosscap count, j or k
        raise InputError(e) from None
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    elif args.format == "csv":
        rows = [("table", "degree_or_index", "group")]
        for name, groups in report.base_cohomology.items():
            for i, g in enumerate(groups):
                rows.append((name, str(i), str(g)))
        for name, groups in report.total_cohomology_tables.items():
            for i, g in enumerate(groups):
                rows.append((name, str(i), str(g)))
        for name, (k0, k1) in report.k_tables.items():
            rows.append((name, "K0", str(k0)))
            rows.append((name, "K1", str(k1)))
        print("\n".join(",".join(f'"{c}"' for c in r) for r in rows))
    else:
        print(report.to_markdown())
    return 0 if report.ok else 1


def cmd_courant_check(args) -> int:
    if args.sections < 1:
        raise InputError(f"--sections must be at least 1, not {args.sections}")
    if args.sections > MAX_SECTIONS:
        raise InputError(f"--sections must be at most {MAX_SECTIONS}, not {args.sections}")
    ctx = _load(args.context, EquivariantContext.from_json_dict)
    try:
        report = run_context_checks(ctx, sections=args.sections, seed=args.seed)
    except FrequencyOverflow as e:  # the context's waves times a section's
        raise InputError(f"{args.context}: {e}") from None
    print(report)
    return 0 if report.ok else 1


def cmd_fixtures(args) -> int:
    if not args.all and not args.only:
        print("error: pass --all (or --only sigma|crosscap|klein)", file=sys.stderr)
        return 2
    fixtures = list(all_fixtures())
    if args.only:
        fixtures = [f for f in fixtures if f.space == args.only]
    results = run_fixtures(fixtures)
    bad = [r for r in results if not r.ok]
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"[{status}] {r.fixture.label()}")
        if not r.ok:
            print(f"        expected {[str(g) for g in r.fixture.expected]}")
            print(f"        got      {[str(g) for g in r.computed]}")
    print(f"{len(results) - len(bad)}/{len(results)} fixtures passed")
    return 0 if not bad else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdual",
        description="Exact circle-bundle T-duality: cohomology, K-theory, "
                    "and symbolic Courant checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="cohomology of a complex from JSON")
    p.add_argument("space")
    p.add_argument("--local-system", default=None)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("bundle-cohomology", help="total-space cohomology of a bundle")
    p.add_argument("bundle")
    p.add_argument("--coeff", choices=["trivial", "xi"], default="trivial")
    p.set_defaults(fn=cmd_bundle_cohomology)

    p = sub.add_parser("tdual", help="construct the T-dual of a flux pair")
    p.add_argument("pair")
    p.set_defaults(fn=cmd_tdual)

    p = sub.add_parser("verify", help="verify the duality axioms for two pairs")
    p.add_argument("pair")
    p.add_argument("other")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ktheory", help="twisted K-groups of a flux pair")
    p.add_argument("pair")
    p.add_argument("--xi-twist", action="store_true")
    p.set_defaults(fn=cmd_ktheory)

    p = sub.add_parser("tables", help="full report for a catalog space")
    p.add_argument("catalog", choices=["klein", "sigma", "crosscap"])
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--format", choices=["md", "json", "csv"], default="md")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("courant-check", help="symbolic bracket/transform checks")
    p.add_argument("context")
    p.add_argument("--sections", type=int, default=12)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_courant_check)

    p = sub.add_parser("fixtures", help="reproduce the reference tables")
    p.add_argument("--all", action="store_true")
    p.add_argument("--only", choices=["klein", "sigma", "crosscap"], default=None)
    p.set_defaults(fn=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
