"""Builders for the base spaces: circle, torus, Klein bottle, genus-g
surfaces and connected sums of projective planes.

Surfaces are produced from a polygon identification word: cone the polygon
from an interior apex, then apply one midpoint subdivision.  The
subdivision guarantees that distinct edges have distinct vertex tuples, so
the result is a valid ``DeltaComplex`` whose face maps are derived from
tuple deletion.  Each identified polygon side survives as a labeled pair
of half-edges, which is what the canonical Z/2 classes are built from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .bundles import BundleDescriptor
from .complexes import MAX_CELLS, DeltaComplex, LocalSystem, System, cohomology
from .exactalg import FGAbelianGroup, IntMatrix, NoSolution, solve_mod
from .tduality import FluxPair


class InvalidXi(Exception):
    """The requested orientation class is not allowed for this space."""


class OutOfRange(ValueError):
    """A catalog parameter outside its range: a genus or crosscap count
    below 1 or past the cell cap, or an index j or k outside its group."""


class JOutOfRange(OutOfRange):
    """Euler-class index outside the classifying group."""


class KOutOfRange(OutOfRange):
    """Flux index outside the flux group."""


Word = tuple[tuple[str, int], ...]


# ---------------------------------------------------------------------------
# Raw complexes with explicit face maps (internal to the builders)
# ---------------------------------------------------------------------------

@dataclass
class _Raw:
    nverts: int
    edges: list[tuple[int, int]]          # (tail, head)
    tris: list[tuple[int, int, int]]      # (face0, face1, face2) edge indices


def _check_raw(raw: _Raw) -> None:
    for f0, f1, f2 in raw.tris:
        v0, v1 = raw.edges[f2]
        if raw.edges[f1][0] != v0 or raw.edges[f0][0] != v1:
            raise ValueError("inconsistent triangle faces")
        if raw.edges[f0][1] != raw.edges[f1][1]:
            raise ValueError("inconsistent triangle faces")


def _cone_of_polygon(word: Word) -> tuple[_Raw, dict[str, int]]:
    """Cone over the identified polygon boundary.  Returns the raw complex
    and the label -> boundary-edge-index map."""
    s = len(word)
    occurrences: dict[str, list[tuple[int, int]]] = {}
    for k, (label, exp) in enumerate(word):
        if exp not in (1, -1):
            raise ValueError("exponents must be +-1")
        occurrences.setdefault(label, []).append((k, exp))
    for label, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"label {label} must occur exactly twice")

    parent = list(range(s))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for label, occ in occurrences.items():
        (k1, e1), (k2, e2) = occ
        if e1 == e2:
            union(k1, k2)
            union((k1 + 1) % s, (k2 + 1) % s)
        else:
            union(k1, (k2 + 1) % s)
            union((k1 + 1) % s, k2)

    classes: dict[int, int] = {}
    for k in range(s):
        r = find(k)
        if r not in classes:
            classes[r] = len(classes)
    corner = [classes[find(k)] for k in range(s)]
    nverts = len(classes) + 1
    apex = nverts - 1

    edges: list[tuple[int, int]] = []
    label_edge: dict[str, int] = {}
    for label in sorted(occurrences):
        k, e = occurrences[label][0]
        if e == 1:
            edges.append((corner[k], corner[(k + 1) % s]))
        else:
            edges.append((corner[(k + 1) % s], corner[k]))
        label_edge[label] = len(edges) - 1
    spoke = []
    for k in range(s):
        edges.append((apex, corner[k]))
        spoke.append(len(edges) - 1)

    tris = []
    for k, (label, exp) in enumerate(word):
        a_corner, b_corner = (k, (k + 1) % s) if exp == 1 else ((k + 1) % s, k)
        tris.append((label_edge[label], spoke[b_corner], spoke[a_corner]))
    raw = _Raw(nverts, edges, tris)
    _check_raw(raw)
    return raw, label_edge


def _midpoint_subdivide(raw: _Raw) -> tuple[_Raw, list[tuple[int, int]]]:
    """One midpoint subdivision.  Returns the subdivided raw complex plus,
    for every old edge, the pair of half-edge indices replacing it.

    Each triangle contributes three interior edges between the midpoints
    of its faces.  Two of their directions are forced by the half-edge
    orientations; the third (between the midpoints of faces 0 and 1) is
    free, and a backtracking pass picks directions so that no two edges of
    the subdivided complex share a vertex tuple.
    """
    ne = len(raw.edges)
    nverts = raw.nverts + ne
    mid = lambda e: raw.nverts + e

    edges: list[tuple[int, int]] = []
    halves: list[tuple[int, int]] = []
    for e, (t, h) in enumerate(raw.edges):
        edges.append((t, mid(e)))
        edges.append((mid(e), h))
        halves.append((2 * e, 2 * e + 1))

    used: dict[tuple[int, int], int] = {tup: 1 for tup in edges}
    if len(used) != len(edges):
        raise ValueError("half-edge tuples collide; complex too degenerate")

    ntri = len(raw.tris)
    fixed = []      # per triangle: (int21 tuple, int20 tuple)
    free10 = []     # per triangle: int10 tuple in standard / flipped direction
    for f0, f1, f2 in raw.tris:
        fixed.append(((mid(f2), mid(f1)), (mid(f2), mid(f0))))
        free10.append(((mid(f1), mid(f0)), (mid(f0), mid(f1))))

    # Backtrack over the triangles with an explicit stack, trying variant 0
    # before 1: choice[t] is the variant placed at triangle t, -1 for none.
    choice = [-1] * ntri
    t = 0
    while 0 <= t < ntri:
        i21, i20 = fixed[t]
        if choice[t] >= 0:  # back at t: take its variant out
            for tup in (i21, i20, free10[t][choice[t]]):
                del used[tup]
        fits = i21 != i20 and i21 not in used and i20 not in used
        choice[t] = next((v for v in range(choice[t] + 1, 2) if fits
                          and free10[t][v] not in used and free10[t][v] not in (i21, i20)), -1)
        if choice[t] < 0:
            t -= 1
            continue
        for tup in (i21, i20, free10[t][choice[t]]):
            used[tup] = 1
        t += 1
    if t < 0:
        raise ValueError("no collision-free subdivision orientation found")

    int_index: list[tuple[int, int, int]] = []
    for t in range(ntri):
        i21, i20 = fixed[t]
        base = len(edges)
        edges.append(i21)
        edges.append(i20)
        edges.append(free10[t][choice[t]])
        int_index.append((base, base + 1, base + 2))

    tris: list[tuple[int, int, int]] = []
    h = halves
    for t, (f0, f1, f2) in enumerate(raw.tris):
        i21, i20, i10 = int_index[t]
        tris.append((i21, h[f1][0], h[f2][0]))           # corner at v0
        tris.append((h[f0][0], i20, h[f2][1]))           # corner at v1
        if choice[t] == 0:
            tris.append((h[f0][1], h[f1][1], i10))       # corner at v2
            tris.append((i10, i20, i21))                 # center
        else:
            tris.append((h[f1][1], h[f0][1], i10))       # corner at v2, flipped
            tris.append((i10, i21, i20))                 # center, flipped
    out = _Raw(nverts, edges, tris)
    _check_raw(out)
    return out, halves


def _raw_to_delta(raw: _Raw) -> DeltaComplex:
    edge_tuples = tuple(raw.edges)
    tri_tuples = []
    for f0, f1, f2 in raw.tris:
        v0, v1 = raw.edges[f2]
        v2 = raw.edges[f0][1]
        tri_tuples.append((v0, v1, v2))
    x = DeltaComplex(raw.nverts, (edge_tuples, tuple(tri_tuples)))
    # the tuple-derived face maps must agree with the explicit ones
    for i, (f0, f1, f2) in enumerate(raw.tris):
        if x.faces(2, i) != (f0, f1, f2):
            raise ValueError("tuple-derived faces disagree with construction")
    return x


# ---------------------------------------------------------------------------
# Catalog spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceInfo:
    """A catalog space with labeled identification loops.

    ``label_edges`` maps each polygon label to the edge indices its loop
    consists of; ``reversing_labels`` are those whose loops reverse the
    surface orientation (their two polygon occurrences have equal sign).
    """

    name: str
    complex: DeltaComplex
    label_edges: tuple[tuple[str, tuple[int, ...]], ...]
    reversing_labels: frozenset[str]
    default_xi: frozenset[str]

    def xi(self, odd_labels: Optional[frozenset[str]] = None) -> LocalSystem:
        """The sign system whose holonomy is -1 exactly around the loops of
        ``odd_labels`` (default: the space's canonical choice)."""
        chosen = self.default_xi if odd_labels is None else frozenset(odd_labels)
        unknown = chosen - {name for name, _ in self.label_edges}
        if unknown:
            raise InvalidXi(f"unknown labels {sorted(unknown)}")
        return _solve_sign_system(self.complex, self.label_edges, chosen)

    def orientation_system(self) -> System:
        """The orientation character: the sign system that is -1 exactly
        around the orientation-reversing loops (None when there are none).
        Raises ValueError unless it makes the twisted top cohomology
        infinite cyclic."""
        if self.complex.dimension < 2:
            return None
        ls = (_solve_sign_system(self.complex, self.label_edges, self.reversing_labels)
              if self.reversing_labels else None)
        top = cohomology(self.complex, ls)[self.complex.dimension].group
        if top != FGAbelianGroup(1):
            raise ValueError("the orientation character does not give top cohomology Z; "
                             "not a closed surface?")
        return ls

    def trivial_xi(self) -> LocalSystem:
        return LocalSystem(self.complex, (1,) * self.complex.count(1))


@lru_cache(maxsize=256)
def _solve_sign_system(x: DeltaComplex, label_edges: tuple, odd: frozenset) -> LocalSystem:
    rows = [Counter(x.faces(2, t)) for t in range(x.count(2))]
    rows += [Counter(edges) for _, edges in label_edges]
    rhs = [0] * x.count(2) + [1 if name in odd else 0 for name, _ in label_edges]
    m = IntMatrix.from_nonzeros(rows, x.count(1))
    try:
        sol = solve_mod(m, rhs, 2)
    except NoSolution as exc:
        raise InvalidXi("no sign system with the requested holonomies") from exc
    return LocalSystem(x, tuple(-1 if v % 2 else 1 for v in sol))


def _surface_from_word(name: str, word: Word) -> SpaceInfo:
    raw, label_edge = _cone_of_polygon(word)
    sub, halves = _midpoint_subdivide(raw)
    x = _raw_to_delta(sub)
    label_edges = tuple((label, halves[e]) for label, e in sorted(label_edge.items()))
    occ: dict[str, list[int]] = {}
    for _, (label, exp) in enumerate(word):
        occ.setdefault(label, []).append(exp)
    reversing = frozenset(label for label, exps in occ.items() if exps[0] == exps[1])
    default = _default_xi_labels(name, [label for label, _ in label_edges], reversing)
    return SpaceInfo(name, x, label_edges, reversing, default)


def _default_xi_labels(name: str, labels: Sequence[str], reversing: frozenset) -> frozenset:
    if name.startswith("sigma") or name == "torus":
        return frozenset([labels[0]]) if labels else frozenset()
    # non-orientable: default to the orientation class
    return reversing


@lru_cache(maxsize=64)
def circle() -> SpaceInfo:
    x = DeltaComplex(1, (((0, 0),),))
    return SpaceInfo("circle", x, (("a", (0,)),), frozenset(), frozenset(["a"]))


@lru_cache(maxsize=64)
def torus() -> SpaceInfo:
    return _surface_from_word("torus", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))


@lru_cache(maxsize=64)
def klein_bottle() -> SpaceInfo:
    # two-crosscap form; the canonical xi is the orientation character
    return _surface_from_word("klein_bottle", (("a", 1), ("a", 1), ("b", 1), ("b", 1)))


def _check_edges(name: str, edges: int, reason: str) -> None:
    """Reject a surface of more edges than a loaded complex may have cells
    of one dimension, before its polygon word is built."""
    if edges > MAX_CELLS:
        raise OutOfRange(f"{reason}: {name} has {edges} edges, "
                         f"more than complexes.MAX_CELLS = {MAX_CELLS}")


@lru_cache(maxsize=64)
def sigma(g: int) -> SpaceInfo:
    if g < 1:
        raise OutOfRange("genus must be >= 1")
    _check_edges(f"sigma({g})", 24 * g, f"genus must be at most {MAX_CELLS // 24}")
    word: list[tuple[str, int]] = []
    for i in range(1, g + 1):
        word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    return _surface_from_word(f"sigma{g}", tuple(word))


@lru_cache(maxsize=64)
def crosscap_sum(n: int) -> SpaceInfo:
    if n < 1:
        raise OutOfRange("need at least one crosscap")
    _check_edges(f"crosscap({n})", 12 * n, f"crosscap count must be at most {MAX_CELLS // 12}")
    word: list[tuple[str, int]] = []
    for i in range(1, n + 1):
        word += [(f"a{i}", 1), (f"a{i}", 1)]
    return _surface_from_word(f"crosscap{n}", tuple(word))


def space(kind: str, **params) -> SpaceInfo:
    """Catalog entry point: circle | torus | klein_bottle | sigma | crosscap."""
    if kind == "circle":
        return circle()
    if kind == "torus":
        return torus()
    if kind in ("klein", "klein_bottle"):
        return klein_bottle()
    if kind == "sigma":
        return sigma(int(params["g"]))
    if kind in ("crosscap", "crosscap_sum"):
        return crosscap_sum(int(params["n"]))
    raise KeyError(f"unknown catalog space {kind!r}")


# ---------------------------------------------------------------------------
# Bundles and fluxes over catalog spaces
# ---------------------------------------------------------------------------

def _h2_multiple(x: DeltaComplex, xi: LocalSystem, n: int, error: type,
                 trivial: str, name: str) -> tuple[int, ...]:
    """n times the canonical generator of H^2(x, Z_xi), as a 2-cocycle.
    Raises ``error`` unless n names an element: only n = 0 on the trivial
    group (message ``trivial``), and 0 <= n < d on a cyclic Z/d."""
    h2 = cohomology(x, xi)[2] if x.dimension >= 2 else None
    if h2 is None or h2.group.is_trivial:
        if n != 0:
            raise error(trivial)
        return (0,) * x.count(2)
    if h2.group.free_rank == 0 and not 0 <= n < h2.group.torsion[0]:
        raise error(f"{name} must lie in range 0..{h2.group.torsion[0] - 1}")
    return tuple(n * v for v in h2.representatives[0])


def build_bundle(info: SpaceInfo, xi: Optional[LocalSystem] = None, j: int = 0):
    """Circle bundle over a catalog space with twisted Euler class j times
    the canonical generator of H^2(base, Z_xi)."""
    x = info.complex
    if xi is None:
        xi = info.xi()
    if xi.base != x:
        raise InvalidXi("xi lives over a different complex")
    if info.name.startswith("sigma") and xi.is_trivial_cocycle:
        raise InvalidXi("orientation class must be nonzero on this surface")
    return BundleDescriptor(x, xi, _h2_multiple(
        x, xi, j, JOutOfRange, "the classifying group is trivial; only j = 0 exists", "j"))


def build_flux(bundle, k: int = 0):
    """Flux pair on a bundle whose push-forward class is k times the
    canonical generator of H^2(base, Z_xi)."""
    return FluxPair(bundle, (), _h2_multiple(
        bundle.base, bundle.xi, k, KOutOfRange, "flux group is trivial; only k = 0 exists", "k"))
