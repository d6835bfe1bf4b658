"""Reference tables for the example spaces, transcribed as data.

Every entry records the expected group for one cell of the published
tables for these spaces: cohomology of the Klein bottle, of non-oriented
circle bundles over genus-g surfaces and over connected sums of projective
planes, and their twisted K-groups.  Expected values are written down
directly from the table formulas and never computed by this package; the
fixture runner compares them against the engine's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exactalg import FGAbelianGroup as FG


@dataclass(frozen=True)
class Fixture:
    """One expected-value cell.

    kind: base-cohomology | total-cohomology | k-groups | h1
    twist: coefficient system or twist label, e.g. "Z", "xi", "(0,h)", "(xi,h)"
    """

    space: str
    params: tuple
    kind: str
    twist: str
    expected: tuple
    source: str

    def label(self) -> str:
        p = ",".join(str(v) for v in self.params)
        return f"{self.space}({p}) {self.kind} [{self.twist}]"


def _t(j: int) -> FG:
    """Torsion of H^2 of the oriented crosscap-base total space: two-torsion
    squares for even twisting, a four-torsion factor for odd."""
    return FG(0, (2, 2)) if j % 2 == 0 else FG(0, (4,))


def _zj(rank: int, j: int) -> FG:
    """Z^rank + Z/|j|: j and -j times a free generator leave the same quotient."""
    return FG(rank, (abs(j),)) if abs(j) > 1 else FG(rank)


# ---------------------------------------------------------------------------
# Klein bottle over the circle
# ---------------------------------------------------------------------------

def klein_fixtures() -> list[Fixture]:
    src = "klein-bottle tables"
    return [
        Fixture("klein", (), "total-cohomology", "Z",
                (FG(1), FG(1), FG(0, (2,))), src),
        Fixture("klein", (), "total-cohomology", "xi",
                (FG(0), FG(1, (2,)), FG(1)), src),
        Fixture("klein", (), "k-groups", "(0,h)", (FG(1, (2,)), FG(1)), src),
        Fixture("klein", (), "k-groups", "(xi,h)", (FG(1), FG(1, (2,))), src),
    ]


# ---------------------------------------------------------------------------
# Bundles over genus-g surfaces (orientation class nonzero)
# ---------------------------------------------------------------------------

def sigma_base_fixtures(g: int) -> list[Fixture]:
    src = "oriented-surface base table"
    return [
        Fixture("sigma", (g,), "base-cohomology", "Z",
                (FG(1), FG(2 * g), FG(1)), src),
        Fixture("sigma", (g,), "base-cohomology", "xi",
                (FG(0), FG(2 * g - 2, (2,)), FG(0, (2,))), src),
    ]


def sigma_total_fixtures(g: int, j: int) -> list[Fixture]:
    src = "surface-bundle cohomology table"
    if j == 0:
        hz = (FG(1), FG(2 * g), FG(2 * g - 1, (2,)), FG(0, (2,)))
        hx = (FG(0), FG(2 * g - 1, (2,)), FG(2 * g, (2,)), FG(1))
    else:
        hz = (FG(1), FG(2 * g), FG(2 * g - 1), FG(0, (2,)))
        hx = (FG(0), FG(2 * g - 1, (2,)), FG(2 * g), FG(1))
    return [
        Fixture("sigma", (g, j), "total-cohomology", "Z", hz, src),
        Fixture("sigma", (g, j), "total-cohomology", "xi", hx, src),
    ]


def sigma_k_fixtures(g: int, j: int, k: int) -> list[Fixture]:
    src = "surface-bundle K table (completed)"
    k0 = FG(2 * g, (2,)) if j == 0 else FG(2 * g)
    k1 = FG(2 * g, (2,)) if k == 0 else FG(2 * g)
    k0x = FG(2 * g, (2,)) if j == 0 else FG(2 * g)
    k1x = FG(2 * g, (2,)) if k == 0 else FG(2 * g)
    return [
        Fixture("sigma", (g, j, k), "k-groups", "(0,h)", (k0, k1), src),
        Fixture("sigma", (g, j, k), "k-groups", "(xi,h)", (k0x, k1x), src),
    ]


# ---------------------------------------------------------------------------
# Bundles over connected sums of projective planes
# ---------------------------------------------------------------------------

def crosscap_base_fixtures(n: int) -> list[Fixture]:
    src = "crosscap-base table"
    return [
        Fixture("crosscap", (n,), "base-cohomology", "Z",
                (FG(1), FG(n - 1), FG(0, (2,))), src),
        Fixture("crosscap", (n,), "base-cohomology", "xi",
                (FG(0), FG(n - 1, (2,)), FG(1)), src),
    ]


def crosscap_total_fixtures(n: int, j: int) -> list[Fixture]:
    src = "crosscap-bundle cohomology table"
    hz = (FG(1), FG(n - 1), FG(n - 1).direct_sum(_t(j)), FG(1))
    if j == 0:
        hx = (FG(0), FG(n, (2,)), FG(n), FG(0, (2,)))
    else:
        hx = (FG(0), FG(n - 1, (2,)), _zj(n - 1, j), FG(0, (2,)))
    return [
        Fixture("crosscap", (n, j), "total-cohomology", "Z", hz, src),
        Fixture("crosscap", (n, j), "total-cohomology", "xi", hx, src),
    ]


def crosscap_k_fixtures(n: int, j: int, k: int) -> list[Fixture]:
    src = "crosscap-bundle K table (completed)"
    if k == 0:
        k0 = FG(n).direct_sum(_t(j))
        k1 = FG(n)
    else:
        k0 = FG(n - 1).direct_sum(_t(j))
        k1 = _zj(n - 1, k)
    k0x = FG(n) if j == 0 else _zj(n - 1, j)
    k1x = (FG(n) if j == 0 else FG(n - 1)).direct_sum(_t(k))
    return [
        Fixture("crosscap", (n, j, k), "k-groups", "(0,h)", (k0, k1), src),
        Fixture("crosscap", (n, j, k), "k-groups", "(xi,h)", (k0x, k1x), src),
    ]


def crosscap_h1_fixture(n: int, j: int) -> Fixture:
    src = "crosscap-bundle fundamental group"
    expected = FG(n - 1, (2, 2)) if j % 2 == 0 else FG(n - 1, (4,))
    return Fixture("crosscap", (n, j), "h1", "Z", (expected,), src)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def all_fixtures() -> Iterator[Fixture]:
    """The Klein bottle, sigma(g) for g = 1..3 at all four (j, k), and the
    sums of n = 1..3 projective planes at j, k = 0..3."""
    yield from klein_fixtures()
    for g in (1, 2, 3):
        yield from sigma_base_fixtures(g)
        for j in (0, 1):
            yield from sigma_total_fixtures(g, j)
        for j in (0, 1):
            for k in (0, 1):
                yield from sigma_k_fixtures(g, j, k)
    for n in (1, 2, 3):
        yield from crosscap_base_fixtures(n)
        for j in range(4):
            yield from crosscap_total_fixtures(n, j)
            yield crosscap_h1_fixture(n, j)
        for j in range(4):
            for k in range(4):
                yield from crosscap_k_fixtures(n, j, k)
