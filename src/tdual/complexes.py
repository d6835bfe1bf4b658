"""Ordered Delta-complexes, rank-1 local systems, and twisted cochains.

A complex is stored as vertex tuples per dimension; a face is found by
cutting its vertices out of the tuple and looking the result up among the
registered simplices of its dimension.  For this to be unambiguous,
distinct simplices of every dimension below the top must have distinct
vertex tuples.  The catalog builders produce models satisfying this.

Local systems are +-1 signs on edges subject to the multiplicative cocycle
condition on every triangle; they encode integer coefficients twisted by a
homomorphism pi_1 -> {+-1}.  The transport conventions live in two places:
``_coboundary_cached`` attaches the transport sign of the leading edge to
the 0th face term, and ``_cup_terms``, which both ``cup`` and
``cup_matrix_left`` read, transports the second factor along the front
path.  Both conventions are exercised by exact identities (delta^2 = 0,
Leibniz) in the test suite.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .exactalg import (
    FGAbelianGroup,
    GroupData,
    IntMatrix,
    NoSolution,
    block_matrix,
    homology_at,
    homology_at_mod,
    homology_at_transpose,
    solve_integer,
    solve_mod,
)


# The most vertices, or simplices of one dimension, of a loaded complex, so
# that a few bytes of JSON cannot ask for any size; sigma(64) has 1,536 edges.
MAX_CELLS = 100_000


class InvalidLocalSystem(Exception):
    """Edge signs violate the cocycle condition on some triangle."""


class BaseMismatch(Exception):
    """Operands live over different complexes or local systems."""


class NotACocycle(Exception):
    """A cochain expected to be closed is not."""


RING_Z = "Z"
RING_Q = "Q"


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaComplex:
    """Ordered Delta-complex; ``simplices[k-1]`` lists the k-simplices as
    (k+1)-tuples of vertex ids (repetitions allowed)."""

    vertex_count: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        for d, level in enumerate(self.simplices, start=1):
            for tup in level:
                if len(tup) != d + 1:
                    raise ValueError(f"simplex {tup} has wrong arity for dimension {d}")
                if any(v < 0 or v >= self.vertex_count for v in tup):
                    raise ValueError(f"vertex id out of range in {tup}")
        self._face_tables  # force validation of face lookups

    @property
    def dimension(self) -> int:
        return len(self.simplices)

    def count(self, dim: int) -> int:
        if dim < 0 or dim > self.dimension:
            return 0
        if dim == 0:
            return self.vertex_count
        return len(self.simplices[dim - 1])

    def simplex(self, dim: int, index: int) -> tuple[int, ...]:
        if dim == 0:
            return (index,)
        return self.simplices[dim - 1][index]

    @cached_property
    def _index_tables(self) -> tuple[dict[tuple[int, ...], int], ...]:
        """tables[d-1] maps each d-simplex's vertex tuple to its index."""
        tables = []
        for d in range(1, self.dimension + 1):
            table: dict[tuple[int, ...], int] = {}
            for i, tup in enumerate(self.simplices[d - 1]):
                if d < self.dimension and tup in table:
                    raise ValueError(
                        f"ambiguous face lookup: duplicate {d}-simplex tuple {tup}")
                table.setdefault(tup, i)
            tables.append(table)
        return tuple(tables)

    @cached_property
    def _face_tables(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """faces[d-1][i] = indices of the d+1 faces of the i-th d-simplex."""
        out = []
        for d in range(1, self.dimension + 1):
            level = []
            for tup in self.simplices[d - 1]:
                faces = []
                for i in range(d + 1):
                    sub = tup[:i] + tup[i + 1:]
                    if d == 1:
                        faces.append(sub[0])
                    else:
                        j = self._index_tables[d - 2].get(sub)
                        if j is None:
                            raise ValueError(
                                f"face {sub} of {tup} is not a registered {d-1}-simplex")
                        faces.append(j)
                level.append(tuple(faces))
            out.append(tuple(level))
        return tuple(out)

    def faces(self, dim: int, index: int) -> tuple[int, ...]:
        return self._face_tables[dim - 1][index]

    def subface(self, dim: int, index: int, start: int, end: int) -> int:
        """Index of the face spanning tuple positions start..end inclusive.

        A proper face is looked up by its vertex tuple, which is unique
        below the top dimension."""
        if end - start == dim:
            return index
        sub = self.simplex(dim, index)[start:end + 1]
        if end == start:
            return sub[0]
        return self._index_tables[end - start - 1][sub]

    def euler_characteristic(self) -> int:
        chi = self.vertex_count
        for d in range(1, self.dimension + 1):
            chi += (-1) ** d * self.count(d)
        return chi

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "simplices": {str(d): [list(t) for t in self.simplices[d - 1]]
                          for d in range(1, self.dimension + 1)},
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "DeltaComplex":
        dims = sorted(int(k) for k in obj.get("simplices", {}))
        if dims and dims != list(range(1, dims[-1] + 1)):
            raise ValueError("simplex dimensions must be contiguous from 1")
        n = json_int(obj["vertices"], "vertices")
        if max([n] + [len(obj["simplices"][str(d)]) for d in dims]) > MAX_CELLS:
            raise ValueError(f"a complex may have at most {MAX_CELLS} cells of each dimension")
        levels = tuple(tuple(tuple(json_int(v, "simplices") for v in t)
                             for t in obj["simplices"][str(d)])
                       for d in dims)
        return DeltaComplex(n, levels)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "DeltaComplex":
        return DeltaComplex.from_json_dict(json.loads(s))


def json_int(v, name: str) -> int:
    """``v`` if it is a JSON integer; ValueError naming the field ``name``
    otherwise (a float or a boolean is not an integer here)."""
    if type(v) is not int:
        raise ValueError(f"{name}: expected an integer, not {json.dumps(v)}")
    return v


# ---------------------------------------------------------------------------
# Local systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSystem:
    """Rank-1 integer local system: a +-1 sign per edge with trivial
    holonomy around every triangle."""

    base: DeltaComplex
    edge_signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edge_signs) != self.base.count(1):
            raise InvalidLocalSystem("one sign per edge required")
        if any(s not in (1, -1) for s in self.edge_signs):
            raise InvalidLocalSystem("signs must be +-1")
        for i in range(self.base.count(2)):
            f = self.base.faces(2, i)
            if self.edge_signs[f[2]] * self.edge_signs[f[0]] * self.edge_signs[f[1]] != 1:
                raise InvalidLocalSystem(f"cocycle condition fails on triangle {i}")

    def sign(self, edge: int) -> int:
        return self.edge_signs[edge]

    @property
    def is_trivial_cocycle(self) -> bool:
        return all(s == 1 for s in self.edge_signs)

    def to_json_dict(self) -> dict:
        return {"edge_signs": list(self.edge_signs)}

    @staticmethod
    def from_json_dict(base: DeltaComplex, obj: dict) -> "LocalSystem":
        return LocalSystem(base, tuple(json_int(s, "edge_signs") for s in obj["edge_signs"]))


System = Optional[LocalSystem]


def tensor(a: System, b: System) -> System:
    if a is None:
        return b
    if b is None:
        return a
    if a.base is not b.base and a.base != b.base:
        raise BaseMismatch("local systems live over different complexes")
    signs = tuple(x * y for x, y in zip(a.edge_signs, b.edge_signs))
    if all(s == 1 for s in signs):
        return None
    return LocalSystem(a.base, signs)


def _sign(system: System, edge: int) -> int:
    return 1 if system is None else system.edge_signs[edge]


def system_key(system: System) -> tuple[int, ...]:
    return () if system is None else system.edge_signs


def is_same_z2_class(a: System, b: System) -> bool:
    """Whether two sign systems differ by the coboundary of a +-1 vertex
    function, i.e. define the same class in H^1(X, Z/2)."""
    base = a.base if a is not None else (b.base if b is not None else None)
    if base is None:
        return True
    return z2_rescaling(base, a, b) is not None


def z2_rescaling(base: DeltaComplex, a: System, b: System) -> Optional[tuple[int, ...]]:
    """A vertex function u mod 2 with u(tail) + u(head) = 1 exactly on the
    edges where the signs of a and b differ, so that rescaling by (-1)^u
    turns a into b; None when a and b define different classes in
    H^1(X, Z/2).

    A breadth-first parity labelling of the edge-vertex incidence: each
    component starts from its highest-index vertex with u = 0, the free
    variable the mod-2 solve of u(tail) + u(head) = diff sets to zero, so
    u is the one that solve returns.  An edge whose labels disagree with
    its sign difference closes an odd cycle, and there is no u."""
    nbrs = [[] for _ in range(base.vertex_count)]
    for e in range(base.count(1)):
        tail, head = base.simplex(1, e)
        diff = 0 if _sign(a, e) == _sign(b, e) else 1
        nbrs[tail].append((head, diff))
        nbrs[head].append((tail, diff))
    u = [None] * base.vertex_count
    for root in reversed(range(base.vertex_count)):
        if u[root] is not None:
            continue
        u[root] = 0
        queue = [root]
        for v in queue:  # grows while it is walked
            for w, diff in nbrs[v]:
                if u[w] is None:
                    u[w] = u[v] ^ diff
                    queue.append(w)
                elif u[w] != u[v] ^ diff:
                    return None
    return tuple(u)


# ---------------------------------------------------------------------------
# Coboundary matrices and cochains
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _coboundary_cached(x: DeltaComplex, k: int, signs: tuple[int, ...]) -> IntMatrix:
    rows = []
    for r in range(x.count(k + 1)):
        fs = x.faces(k + 1, r)
        row = Counter({fs[0]: signs[x.subface(k + 1, r, 0, 1)] if signs else 1})
        for i in range(1, k + 2):
            row[fs[i]] += -1 if i % 2 else 1
        rows.append(row)
    return IntMatrix.from_nonzeros(rows, x.count(k))


def coboundary_matrix(x: DeltaComplex, k: int, system: System = None) -> IntMatrix:
    """Matrix of the twisted coboundary C^k(X, L) -> C^{k+1}(X, L)."""
    if k < 0:
        return IntMatrix.zeros(x.count(k + 1), 0)
    return _coboundary_cached(x, k, system_key(system))


@dataclass(frozen=True)
class TwistedCochain:
    """A k-cochain with values in Z (or Z/m) twisted by a local system."""

    base: DeltaComplex
    degree: int
    values: tuple[int, ...]
    system: System = None
    modulus: Optional[int] = None  # None: integer coefficients

    def __post_init__(self) -> None:
        if len(self.values) != self.base.count(self.degree):
            raise ValueError("value count must match simplex count")
        if self.system is not None and self.system.base != self.base:
            raise BaseMismatch("cochain system lives over a different complex")

    def __add__(self, other: "TwistedCochain") -> "TwistedCochain":
        self._check_compatible(other)
        vals = tuple(a + b for a, b in zip(self.values, other.values))
        if self.modulus:
            vals = tuple(v % self.modulus for v in vals)
        return TwistedCochain(self.base, self.degree, vals, self.system, self.modulus)

    def __sub__(self, other: "TwistedCochain") -> "TwistedCochain":
        return self + other.scale(-1)

    def scale(self, c: int) -> "TwistedCochain":
        vals = tuple(c * v for v in self.values)
        if self.modulus:
            vals = tuple(v % self.modulus for v in vals)
        return TwistedCochain(self.base, self.degree, vals, self.system, self.modulus)

    def is_zero(self) -> bool:
        if self.modulus:
            return all(v % self.modulus == 0 for v in self.values)
        return all(v == 0 for v in self.values)

    def _check_compatible(self, other: "TwistedCochain") -> None:
        if self.base != other.base or self.degree != other.degree:
            raise BaseMismatch("cochains are not compatible")
        if self.modulus != other.modulus:
            raise BaseMismatch("coefficient rings differ")
        if system_key(self.system) != system_key(other.system):
            raise BaseMismatch("local systems differ")


def coboundary(c: TwistedCochain) -> TwistedCochain:
    m = coboundary_matrix(c.base, c.degree, c.system)
    vals = m.mul_vec(c.values)
    if c.modulus:
        vals = tuple(v % c.modulus for v in vals)
    return TwistedCochain(c.base, c.degree + 1, vals, c.system, c.modulus)


def _cup_terms(a: TwistedCochain, q: int, right_system: System):
    """(s, back, a(front) * w) for each (p+q)-simplex s with a(front) != 0,
    where front and back are its front p-face and back q-face and w is the
    product of the transport signs of ``right_system`` along its first p
    edges.  The cup product and its matrix both read these terms."""
    x = a.base
    p = a.degree
    k = p + q
    bsys = system_key(right_system)
    for s in range(x.count(k)):
        av = a.values[x.subface(k, s, 0, p)]
        if av == 0:
            continue
        if bsys:
            for j in range(p):
                av *= bsys[x.subface(k, s, j, j + 1)]
        yield s, x.subface(k, s, p, k), av


def cup(a: TwistedCochain, b: TwistedCochain) -> TwistedCochain:
    """Alexander-Whitney product with local-system transport.

    The value on a (p+q)-simplex is a(front p-face) * w * b(back q-face),
    where w is the product of the transport signs of b's system along the
    first p edges of the simplex.
    """
    if a.base != b.base:
        raise BaseMismatch("cup factors live over different complexes")
    if a.modulus != b.modulus:
        raise BaseMismatch("cup factors have different coefficients")
    k = a.degree + b.degree
    vals = [0] * a.base.count(k)
    for s, back, c in _cup_terms(a, b.degree, b.system):
        v = c * b.values[back]
        vals[s] = v % a.modulus if a.modulus else v
    return TwistedCochain(a.base, k, tuple(vals), tensor(a.system, b.system), a.modulus)


def cup_matrix_left(a: TwistedCochain, q: int, right_system: System) -> IntMatrix:
    """Matrix of b -> a cup b on q-cochains twisted by ``right_system``."""
    x = a.base
    n_to = x.count(a.degree + q)
    if q < 0:
        return IntMatrix.zeros(n_to, 0)
    rows = [Counter() for _ in range(n_to)]
    for s, back, c in _cup_terms(a, q, right_system):
        rows[s][back] += c
    return IntMatrix.from_nonzeros(rows, x.count(q))


def half_coboundary(d: IntMatrix, lift: Sequence[int]) -> Optional[tuple[int, ...]]:
    """d(lift) / 2, or None when d(lift) is odd somewhere.

    For a {0, +-1} lift of a mod-2 cochain, d(lift) is even exactly when
    that cochain is a mod-2 cocycle, and half of it represents the
    integral Bockstein of its class.
    """
    v = d.mul_vec(lift)
    if any(x % 2 for x in v):
        return None
    return tuple(x // 2 for x in v)


def bockstein(c: TwistedCochain, lift_negative: bool = False) -> TwistedCochain:
    """Integral Bockstein of a mod-2 cocycle: lift to {0,1} (or {0,-1})
    integer values, take the untwisted coboundary, halve."""
    if c.modulus != 2:
        raise ValueError("bockstein expects a mod-2 cochain")
    lift_val = -1 if lift_negative else 1
    half = half_coboundary(coboundary_matrix(c.base, c.degree),
                           [lift_val if v % 2 else 0 for v in c.values])
    if half is None:
        raise NotACocycle("bockstein input must be a mod-2 cocycle")
    return TwistedCochain(c.base, c.degree + 1, half)


# ---------------------------------------------------------------------------
# Chain complexes, mapping cones and their (co)homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainComplex:
    """A cochain complex C^0 -> ... -> C^dim of free abelian groups.

    ``delta(k)`` is the matrix of C^k -> C^{k+1} for every integer k, with
    C^k = 0 outside 0..dim.  ``key`` names the complex in the cache of its
    groups, so equal keys must give equal coboundaries; each kind of
    complex starts its keys with its own tag, so that keys of different
    kinds never compare equal.
    """

    key: tuple
    dim: int
    delta: Callable[[int], IntMatrix] = field(compare=False, repr=False)

    def cohomology(self, ring=RING_Z) -> tuple[GroupData, ...]:
        """H^0..H^dim: the groups at once, generator cocycles and class_of
        maps on first use.

        ``ring`` is "Z", "Q" (the free ranks of the Z groups) or an int m >= 2
        (Z/m, off the Z Smith forms by universal coefficients, so delta must
        square to zero over Z); anything else raises ValueError.
        """
        return _groups(self, ring, False)

    def homology(self, ring=RING_Z) -> tuple[GroupData, ...]:
        """H_0..H_dim of the chain complex of transposed coboundaries."""
        return _groups(self, ring, True)


# typed: 2.0 and True must not find the entries of 2 and 1, which would
# skip the ring check.
@lru_cache(maxsize=2048, typed=True)
def _groups(cx: ChainComplex, ring, transposed: bool) -> tuple[GroupData, ...]:
    if not (ring in (RING_Z, RING_Q) or (type(ring) is int and ring >= 2)):
        raise ValueError(f"ring must be {RING_Z!r}, {RING_Q!r} or an int modulus >= 2, "
                         f"not {ring!r}")
    if ring == RING_Q:  # transposing keeps ranks, so H_k and H^k agree over Q
        return tuple(GroupData(FGAbelianGroup(h.group.free_rank)) for h in _groups(cx, RING_Z, False))
    out = []
    for k in range(cx.dim + 1):
        d_in, d_out = cx.delta(k - 1), cx.delta(k)
        if ring == RING_Z:
            out.append((homology_at_transpose if transposed else homology_at)(d_in, d_out))
        else:  # H_k = ker(delta^{k-1} transposed) / im(delta^k transposed)
            pair = (d_out.transpose(), d_in.transpose()) if transposed else (d_in, d_out)
            out.append(homology_at_mod(*pair, ring))
    return tuple(out)


def cone(target: ChainComplex, source: ChainComplex,
         f: Callable[[int], IntMatrix], k: int) -> IntMatrix:
    """Coboundary delta^k of the mapping cone T^k (+) S^{k-1} of a degree-2
    map f^j: S^j -> T^{j+2}:

        delta^k = [[t^k, (-1)^k f^{k-1}],
                   [0,   s^{k-1}       ]]

    The alternating sign makes delta^2 = 0 whenever t f = f s.
    """
    t, s = target.delta(k), source.delta(k - 1)
    return block_matrix([[t, f(k - 1).scale(1 if k % 2 == 0 else -1)],
                         [IntMatrix.zeros(s.rows, t.cols), s]])


def cochain_complex(x: DeltaComplex, system: System = None) -> ChainComplex:
    """The twisted cochain complex C^*(X, L) with L = ``system``."""
    if system is not None and system.base != x:
        raise InvalidLocalSystem("system lives over a different complex")
    return ChainComplex(("base", x, system_key(system)), x.dimension,
                        lambda k: coboundary_matrix(x, k, system))


def cohomology(x: DeltaComplex, system: System = None, ring=RING_Z) -> list[GroupData]:
    """H^0..H^D with generator cocycles and class_of maps.

    ``ring`` is "Z", "Q", or an int modulus m >= 2 for Z/m coefficients,
    both derived from the integral groups (``ChainComplex.cohomology``).
    """
    return list(cochain_complex(x, system).cohomology(ring))


def homology(x: DeltaComplex, system: System = None, ring=RING_Z) -> list[GroupData]:
    """H_0..H_D of the transported chain complex (transposed coboundaries)."""
    return list(cochain_complex(x, system).homology(ring))


@dataclass(frozen=True)
class DualityReport:
    dimension: int
    entries: tuple[tuple[int, str, FGAbelianGroup, FGAbelianGroup, bool], ...]

    @property
    def ok(self) -> bool:
        return all(e[4] for e in self.entries)

    def __str__(self) -> str:
        lines = []
        for i, name, lhs, rhs, ok in self.entries:
            status = "ok" if ok else "FAIL"
            lines.append(f"H^{i}({name}) = {lhs}  vs  H_{self.dimension - i} = {rhs}  [{status}]")
        return "\n".join(lines)


def poincare_duality_check(x: DeltaComplex, orientation: System,
                           systems: Sequence[tuple[str, System]] = (("Z", None),)) -> DualityReport:
    """Check H^i(X, L) = H_{n-i}(X, L (x) orn) as abstract groups."""
    return duality_report(lambda ls: cochain_complex(x, ls), orientation, systems)


def duality_report(complex_of: Callable[[System], ChainComplex], orientation: System,
                   systems: Sequence[tuple[str, System]]) -> DualityReport:
    """Compare H^i(C(L)) with H_{n-i}(C(L (x) orientation)) for each named
    system L, where ``complex_of`` builds the n-dimensional complex C(L)."""
    n = complex_of(None).dim
    entries = []
    for name, ls in systems:
        lhs = complex_of(ls).cohomology()
        rhs = complex_of(tensor(ls, orientation)).homology()
        for i in range(n + 1):
            a, b = lhs[i].group, rhs[n - i].group
            entries.append((i, name, a, b, a == b))
    return DualityReport(n, tuple(entries))


def is_coboundary(c: TwistedCochain) -> bool:
    """Whether c = delta(u) for some (k-1)-cochain u over the same system."""
    m = coboundary_matrix(c.base, c.degree - 1, c.system)
    try:
        if c.modulus:
            solve_mod(m, c.values, c.modulus)
        else:
            solve_integer(m, c.values)
        return True
    except NoSolution:
        return False
