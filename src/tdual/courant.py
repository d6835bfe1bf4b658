"""Symbolic verification of the bracket and transform identities on torus
double covers.

The context fixes a deck involution (x, theta) -> (Ax + b, -theta), an
anti-invariant connection form dtheta + a with exact curvature, the dual
primitive for the flux 2-form, and an invariant base 3-form.  Sections of
the generalized tangent bundle are pairs (vector field, 1-form) with
fiber-independent, equivariant components.  Everything is exact: the tests
compare trigonometric polynomials coefficient by coefficient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import NamedTuple

from .complexes import json_int
from .fourier import Form, FourierScalar, VectorField, form_primitive


_HALF = Fraction(1, 2)


def _anti_invariant(w: Form, deck_a, deck_two_b) -> Form:
    """(w - deck^* w) / 2."""
    return Form.sum(w.cover_dim).add(_HALF, w).add(-_HALF, w.pullback(deck_a, deck_two_b)).form()


# The largest base dimension of a loaded context, so that a few bytes of
# JSON cannot ask for any size: the checks at the CLI's 12 sections, on a
# context with the half-shift deck and one cosine flux potential, take
# 0.35-0.5 s and 22 MB over T^4 and 6-9 s and 75 MB over T^8 (Python 3.11,
# one core of a shared 2-CPU x86-64 host).
MAX_BASE_DIM = 4
# The most sections one run checks: its time and memory grow linearly with
# them, and on the T^4 context above 512 sections take 11-13 s and 163-176
# MB (about 0.3 MB a section; same host).
MAX_SECTIONS = 512


def _check_base_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"base dimension must be at least 1, not {d}")


@dataclass(frozen=True)
class EquivariantContext:
    """Double-cover data for one side of the duality and its mirror."""

    base_dim: int
    deck_a: tuple[tuple[int, ...], ...]
    deck_two_b: tuple[int, ...]
    a: Form        # connection potential on this side (anti-invariant 1-form)
    ahat: Form     # potential whose differential is the flux 2-form
    h3: Form       # invariant closed base 3-form (zero over 2-dim bases)

    def __post_init__(self) -> None:
        d = self.base_dim
        _check_base_dim(d)
        if len(self.deck_two_b) != d:
            raise ValueError(f"deck shift must have {d} entries, not {len(self.deck_two_b)}")
        if len(self.deck_a) != d or any(len(r) != d for r in self.deck_a):
            raise ValueError("deck matrix must be d x d")
        sq = [[sum(self.deck_a[i][k] * self.deck_a[k][j] for k in range(d))
               for j in range(d)] for i in range(d)]
        if sq != [[1 if i == j else 0 for j in range(d)] for i in range(d)]:
            raise ValueError("deck matrix must be an involution")
        for name, w in (("a", self.a), ("ahat", self.ahat)):
            if w.cover_dim != d + 1:
                raise ValueError(f"{name} lives on the wrong cover")
            if w.degrees() - {1}:
                raise ValueError(f"{name} must be a 1-form")
            if any(d in key for key, _ in w.components):
                raise ValueError(f"{name} must be a base form")
            if not (self.pullback_form(w) + w).is_zero():
                raise ValueError(f"{name} must be anti-invariant")
        if self.h3.cover_dim != d + 1:
            raise ValueError("h3 lives on the wrong cover")
        if (self.h3.degrees() - {3}) or any(d in key for key, _ in self.h3.components):
            raise ValueError("h3 must be a base 3-form")
        if not (self.pullback_form(self.h3) - self.h3).is_zero():
            raise ValueError("h3 must be invariant")
        if not self.h3.d().is_zero():
            raise ValueError("h3 must be closed")
        if not self.flux_h().d().is_zero():
            raise ValueError("total flux 3-form is not closed")

    # -- basic geometry ------------------------------------------------------

    @property
    def cover_dim(self) -> int:
        return self.base_dim + 1

    @property
    def theta(self) -> int:
        return self.base_dim

    def pullback_form(self, w: Form) -> Form:
        return w.pullback(self.deck_a, self.deck_two_b)

    def pushforward_field(self, v: VectorField) -> VectorField:
        return v.pushforward(self.deck_a, self.deck_two_b)

    def connection(self) -> Form:
        return self._connection

    def curvature(self) -> Form:
        return self.a.d()

    def flux_fhat(self) -> Form:
        return self.ahat.d()

    def flux_h(self) -> Form:
        return self._flux_h

    def dual(self) -> "EquivariantContext":
        return self._dual

    # Built once per context: the brackets read the flux, the transforms the
    # connections and fibre field; a fresh dual would re-validate each time.
    @cached_property
    def _connection(self) -> Form:
        return Form.dx(self.cover_dim, self.theta) + self.a

    @cached_property
    def _fibre(self) -> VectorField:
        return VectorField.coordinate(self.cover_dim, self.theta)

    @cached_property
    def _flux_h(self) -> Form:
        return self.h3 + self.connection().wedge(self.flux_fhat())

    @cached_property
    def _dual(self) -> "EquivariantContext":
        return EquivariantContext(self.base_dim, self.deck_a, self.deck_two_b,
                                  self.ahat, self.a, self.h3)

    # -- projectors ----------------------------------------------------------

    def invariant_part(self, w: Form) -> Form:
        return Form.sum(self.cover_dim).add(_HALF, w).add(_HALF, self.pullback_form(w)).form()

    def anti_invariant_part(self, w: Form) -> Form:
        return _anti_invariant(w, self.deck_a, self.deck_two_b)

    def is_invariant(self, w: Form) -> bool:
        return (self.pullback_form(w) - w).is_zero()

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.base_dim,
            "deck": {"A": [list(r) for r in self.deck_a],
                     "b": [str(Fraction(v, 2)) for v in self.deck_two_b]},
            "a": self.a.to_json_list(),
            "Fhat": self.flux_fhat().to_json_list(),
            "H3": self.h3.to_json_list(),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "EquivariantContext":
        d = json_int(obj["dim"], "dim")
        _check_base_dim(d)  # before the forms, whose frequencies have d entries
        if d > MAX_BASE_DIM:
            raise ValueError(f"base dimension must be at most {MAX_BASE_DIM}, not {d}")
        deck = obj.get("deck", {})
        a_rows = tuple(tuple(json_int(v, "deck.A") for v in r)
                       for r in deck.get("A", [[1 if i == j else 0 for j in range(d)]
                                               for i in range(d)]))
        two_b = []
        for v in deck.get("b", ["0"] * d):
            f = Fraction(str(v)) * 2
            if f.denominator != 1:
                raise ValueError("deck shift must be half-integral")
            two_b.append(int(f))
        a = Form.from_json_list(d + 1, obj.get("a", []))
        fhat = Form.from_json_list(d + 1, obj.get("Fhat", []))
        h3 = Form.from_json_list(d + 1, obj.get("H3", []))
        # pick the anti-invariant primitive: the flux is anti-invariant, so
        # the projection still differentiates to it
        ahat = _anti_invariant(form_primitive(fhat), a_rows, tuple(two_b))
        return EquivariantContext(d, a_rows, tuple(two_b), a, ahat, h3)


@dataclass(frozen=True)
class GeneralizedSection:
    """Invariant section of the generalized tangent bundle of the cover."""

    vec: VectorField
    form: Form

    def __post_init__(self) -> None:
        if self.form.degrees() - {1}:
            raise ValueError("form part must be a 1-form")
        if self.vec.cover_dim != self.form.cover_dim:
            raise ValueError("components live on different covers")

    def __add__(self, o: "GeneralizedSection") -> "GeneralizedSection":
        return GeneralizedSection(self.vec + o.vec, self.form + o.form)

    def __sub__(self, o: "GeneralizedSection") -> "GeneralizedSection":
        return GeneralizedSection(self.vec - o.vec, self.form - o.form)

    def scale(self, f: FourierScalar) -> "GeneralizedSection":
        return GeneralizedSection(self.vec.scale(f), self.form.scale(f))

    def is_zero(self) -> bool:
        return self.vec.is_zero() and self.form.is_zero()

    # Kept for the brackets: d of the form part, and d lambda - i_X H per side.
    @cached_property
    def _d_form(self) -> Form:
        return self.form.d()

    @cached_property
    def _flux_terms(self) -> dict:
        return {}

    def _flux_term(self, ctx: "EquivariantContext") -> Form:
        """d lambda - i_X H for the flux of ``ctx``, kept by id (the entry holds ``ctx``)."""
        if id(ctx) not in self._flux_terms:
            self._flux_terms[id(ctx)] = ctx, (Form.sum(self.form.cover_dim).add(1, self._d_form)
                                              .interior(-1, ctx.flux_h(), self.vec).form())
        return self._flux_terms[id(ctx)][1]


def section_is_invariant(s: GeneralizedSection, ctx: EquivariantContext) -> bool:
    ok_v = all((a - b).is_zero() for a, b in
               zip(ctx.pushforward_field(s.vec).components, s.vec.components))
    return ok_v and ctx.is_invariant(s.form)


def project_section(s: GeneralizedSection, ctx: EquivariantContext) -> GeneralizedSection:
    vec = VectorField(s.vec.cover_dim,
                      tuple((a + b).scale(Fraction(1, 2)) for a, b in
                            zip(s.vec.components, ctx.pushforward_field(s.vec).components)))
    return GeneralizedSection(vec, ctx.invariant_part(s.form))


# ---------------------------------------------------------------------------
# Bracket, Clifford action, twisted differential
# ---------------------------------------------------------------------------

def dorfman(s1: GeneralizedSection, s2: GeneralizedSection,
            ctx: EquivariantContext) -> GeneralizedSection:
    """[ (X, l), (Y, m) ]_H = ([X, Y], L_X m - i_Y d l + i_Y i_X H), with H the
    flux of ``ctx`` (pass ``ctx.dual()`` for the dual side's bracket); the form
    part is i_X dm + d(i_X m) - i_Y (dl - i_X H), dm and dl - i_X H kept per section."""
    x, y = s1.vec, s2.vec
    form = (Form.sum(x.cover_dim).interior(1, s2._d_form, x).d(1, s2.form.interior(x))
            .interior(-1, s1._flux_term(ctx), y).form())
    return GeneralizedSection(x.lie_bracket(y), form)


def clifford(s: GeneralizedSection, w: Form, into=None, c=1):
    """s . w = i_X w + lambda ^ w; given a ``Form.sum`` ``into``, c s . w
    is added to that sum, which is returned, instead."""
    acc = (into or Form.sum(w.cover_dim)).interior(c, w, s.vec).wedge(c, s.form, w)
    return acc if into else acc.form()


def _twisted_d(w: Form, h: Form, into=None, c=1):
    """dw + h ^ w, or c times it added to ``into`` as in ``clifford``."""
    acc = (into or Form.sum(w.cover_dim)).d(c, w).wedge(c, h, w)
    return acc if into else acc.form()


def twisted_d(w: Form, ctx: EquivariantContext, side: str = "E") -> Form:
    """d_H = d + H wedge, with H from the requested side ("E" or "Ehat")."""
    return _twisted_d(w, ctx.flux_h() if side == "E" else ctx.dual().flux_h())


def pairing(s1: GeneralizedSection, s2: GeneralizedSection) -> FourierScalar:
    """Canonical half pairing: ((X,l),(Y,m)) = (m(X) + l(Y)) / 2."""
    return (Form.sum(s1.vec.cover_dim).interior(_HALF, s2.form, s1.vec)
            .interior(_HALF, s1.form, s2.vec).form().component(()))


def anchor_d(f: FourierScalar, cover_dim: int) -> GeneralizedSection:
    """The operator sending a function to (0, df)."""
    return GeneralizedSection(VectorField.zero(cover_dim),
                              Form.scalar(cover_dim, f).d())


def derived_bracket_check(s1: GeneralizedSection, s2: GeneralizedSection,
                          w: Form, ctx: EquivariantContext) -> bool:
    """The bracket acts as the graded double commutator of a twisted
    differential with the Clifford actions:

        dorfman(s1,s2) . w = D(s1 s2 w) + s1 D(s2 w) - s2 D(s1 w) - s2 s1 D w

    where D = d - H wedge.  The inner bracket [D, s1] is an anticommutator
    of odd operators, the outer one an ordinary commutator; the flux enters
    D with the sign opposite to the one in the bracket formula (wedging by
    H anticommutes past the degree-one Clifford factors)."""
    return _derived_bracket_holds(dorfman(s1, s2, ctx), s1, s2, w, ctx, clifford(s1, w))


def _derived_bracket_holds(bracket: GeneralizedSection, s1: GeneralizedSection,
                           s2: GeneralizedSection, w: Form, ctx: EquivariantContext,
                           s1w: Form) -> bool:
    """``derived_bracket_check`` given the bracket [s1, s2] and s1 . w; the
    right-hand side is summed into one table, with D u = _twisted_d(u, -H)."""
    mh, s2w, rhs = -ctx.flux_h(), clifford(s2, w), Form.sum(w.cover_dim)
    _twisted_d(clifford(s1, s2w), mh, rhs)
    clifford(s1, _twisted_d(s2w, mh), rhs)
    clifford(s2, _twisted_d(s1w, mh), rhs, -1)
    clifford(s2, clifford(s1, _twisted_d(w, mh)), rhs, -1)
    return clifford(bracket, w) == rhs.form()


# ---------------------------------------------------------------------------
# The swap and the transform on forms
# ---------------------------------------------------------------------------

def decompose_section(s: GeneralizedSection, ctx: EquivariantContext):
    """Split via the connection: (X, x, l, mu) with X the base field, x the
    vertical component, l the fiber covector component, mu the base form."""
    cd, th = ctx.cover_dim, ctx.theta
    x_base = VectorField(cd, s.vec.components[:th]
                         + (FourierScalar.zero(ctx.base_dim),))
    x_vert = s.vec.components[th] + ctx.a.interior(x_base).component(())
    ell = s.form.component((th,))
    mu = Form.sum(cd).add(1, s.form).scale(-1, ctx.connection(), ell).form()
    return x_base, x_vert, ell, mu


def _assemble(ctx: EquivariantContext, x_base: VectorField, vert: FourierScalar,
              ell: FourierScalar, mu: Form, side: EquivariantContext) -> GeneralizedSection:
    """The section (X, vert, ell, mu) in the split by the connection of
    ``side``, the inverse of ``decompose_section`` for it."""
    cd, th = ctx.cover_dim, ctx.theta
    vec = VectorField(cd, x_base.components[:th]
                      + (vert - side.a.interior(x_base).component(()),))
    return GeneralizedSection(vec, Form.sum(cd).add(1, mu).scale(1, side.connection(), ell).form())


def phi_swap(s: GeneralizedSection, ctx: EquivariantContext) -> GeneralizedSection:
    """Exchange the vertical vector component with the fiber covector
    component, re-assembling with the dual connection."""
    x_base, x, ell, mu = decompose_section(s, ctx)
    return _assemble(ctx, x_base, ell, x, mu, ctx.dual())


def fiber_inversion(s: GeneralizedSection, ctx: EquivariantContext) -> GeneralizedSection:
    """The section map induced by inverting the fiber circle:
    (X, x, l, mu) |-> (X, -x, -l, mu) in connection-split coordinates.
    It is an involution, and bracket_swap = phi_swap o fiber_inversion."""
    x_base, x, ell, mu = decompose_section(s, ctx)
    return _assemble(ctx, x_base, -x, -ell, mu, ctx)


def bracket_swap(s: GeneralizedSection, ctx: EquivariantContext) -> GeneralizedSection:
    """The Courant-algebroid isomorphism onto the dual side:
    (X, x, l, mu) |-> (X, -l, -x, mu) in connection-split coordinates.

    This is the plain component swap precomposed with the fiber inversion
    of the source (the sign action of the bundle classification); with the
    conventions fixed by the bracket, the twisted differential and the
    transform on forms, this is the variant that intertwines the brackets
    exactly, while the plain swap is the one compatible with the Clifford
    action under the transform."""
    x_base, x, ell, mu = decompose_section(s, ctx)
    return _assemble(ctx, x_base, -ell, -x, mu, ctx.dual())


def check_phi_intertwines(s1: GeneralizedSection, s2: GeneralizedSection,
                          ctx: EquivariantContext) -> bool:
    """bracket_swap([s1, s2]_H) = [bracket_swap(s1), bracket_swap(s2)]_Hhat,
    exactly."""
    return (bracket_swap(dorfman(s1, s2, ctx), ctx)
            == dorfman(bracket_swap(s1, ctx), bracket_swap(s2, ctx), ctx.dual()))


def hori_forms(w: Form, ctx: EquivariantContext) -> Form:
    """Componentwise transform: w = alpha + A ^ beta goes to
    beta - Ahat ^ alpha on the dual side."""
    cd, beta = w.cover_dim, w.interior(ctx._fibre)
    alpha = Form.sum(cd).add(1, w).wedge(-1, ctx.connection(), beta).form()
    return Form.sum(cd).add(1, beta).wedge(-1, ctx.dual().connection(), alpha).form()


# ---------------------------------------------------------------------------
# Randomized checking
# ---------------------------------------------------------------------------

def random_scalar(rng: random.Random, base_dim: int) -> FourierScalar:
    """A constant plus two waves of frequencies within 1."""
    const = rng.randint(-2, 2)
    waves = [(tuple(rng.randint(-1, 1) for _ in range(base_dim)), rng.randint(-2, 2),
              rng.random() >= 0.5) for _ in range(2)]
    return FourierScalar.wave_sum(base_dim, const, waves)


def random_form(rng: random.Random, ctx: EquivariantContext, degree: int,
                invariant: bool = True) -> Form:
    cd = ctx.cover_dim
    acc = {}
    for key in combinations(range(cd), degree):
        acc[key] = random_scalar(rng, ctx.base_dim)
    w = Form.make(cd, acc)
    return ctx.invariant_part(w) if invariant else ctx.anti_invariant_part(w)


def random_section(rng: random.Random, ctx: EquivariantContext) -> GeneralizedSection:
    cd = ctx.cover_dim
    vec = VectorField(cd, tuple(random_scalar(rng, ctx.base_dim) for _ in range(cd)))
    form = Form.make(cd, {(j,): random_scalar(rng, ctx.base_dim) for j in range(cd)})
    return project_section(GeneralizedSection(vec, form), ctx)


class _Brackets(NamedTuple):
    """The brackets the checks read for one section triple (a, b, c) and
    invariant function f; ``swapped`` is the dual-side bracket
    [bracket_swap(a), bracket_swap(b)].  With [b, c], which only [a, [b, c]]
    reads, these are nine distinct brackets, each computed once."""

    ab: GeneralizedSection
    ba: GeneralizedSection
    ac: GeneralizedSection
    a_bc: GeneralizedSection
    ab_c: GeneralizedSection
    b_ac: GeneralizedSection
    a_fb: GeneralizedSection
    swapped: GeneralizedSection


def _brackets(a: GeneralizedSection, b: GeneralizedSection, c: GeneralizedSection,
              f: FourierScalar, ctx: EquivariantContext) -> _Brackets:
    ab, ac = dorfman(a, b, ctx), dorfman(a, c, ctx)
    return _Brackets(ab, dorfman(b, a, ctx), ac, dorfman(a, dorfman(b, c, ctx), ctx),
                     dorfman(ab, c, ctx), dorfman(b, ac, ctx),
                     dorfman(a, b.scale(f), ctx),
                     dorfman(bracket_swap(a, ctx), bracket_swap(b, ctx), ctx.dual()))


@dataclass
class CourantReport:
    context_label: str
    checks: list

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)

    def __str__(self) -> str:
        lines = [f"context: {self.context_label}"]
        for name, ok in self.checks:
            lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)


def run_context_checks(ctx: EquivariantContext, sections: int = 12,
                       seed: int = 7, label: str = "") -> CourantReport:
    """All bracket axioms, the derived-bracket identity, the swap
    intertwiner and the form-level transform identities on random data;
    ``ValueError`` unless ``sections`` is from 1 to ``MAX_SECTIONS``."""
    if sections < 1:
        raise ValueError(f"sections must be at least 1, not {sections}")
    if sections > MAX_SECTIONS:
        raise ValueError(f"sections must be at most {MAX_SECTIONS}, not {sections}")
    rng = random.Random(seed)
    cd = ctx.cover_dim
    checks = []

    triples = [(random_section(rng, ctx), random_section(rng, ctx),
                random_section(rng, ctx)) for _ in range(sections)]
    fns = [random_scalar(rng, ctx.base_dim) for _ in range(sections)]
    fns = [f + f.compose_affine(ctx.deck_a, ctx.deck_two_b) for f in fns]  # invariant

    # Each distinct bracket is computed once; every check reads these.  Scalars
    # and forms are canonical tables, so each identity is one equality test.
    brs = [_brackets(a, b, c, f, ctx) for (a, b, c), f in zip(triples, fns)]
    # The other values that two checks read, each computed on first use.
    swap = cache(lambda s: phi_swap(s, ctx))
    hori = cache(lambda w: hori_forms(w, ctx))
    d_h = cache(lambda w: twisted_d(w, ctx))
    act = cache(clifford)

    checks.append(("bracket Leibniz identity over itself",
                   all(br.a_bc == br.ab_c + br.b_ac for br in brs)))
    checks.append(("anchor respects brackets",
                   all(br.ab.vec == a.vec.lie_bracket(b.vec) for (a, b, _), br in zip(triples, brs))))
    checks.append(("bracket Leibniz rule for function multiples",
                   all(br.a_fb == b.scale(a.vec.apply(f)) + br.ab.scale(f)
                       for (a, b, _), f, br in zip(triples, fns, brs))))
    checks.append(("symmetrized bracket is the pairing differential",
                   all(br.ab + br.ba == anchor_d(pairing(a, b).scale(2), cd)
                       for (a, b, _), br in zip(triples, brs))))
    checks.append(("anchor differentiates the pairing",
                   all(a.vec.apply(pairing(b, c)) == pairing(br.ab, c) + pairing(b, br.ac)
                       for (a, b, c), br in zip(triples, brs))))

    forms = [random_form(rng, ctx, deg, invariant=True)
             for deg in (0, 1, 2) for _ in range(max(1, sections // 3))]
    checks.append(("derived-bracket identity",
                   all(_derived_bracket_holds(br.ab, a, b, w, ctx, act(a, w))
                       for (a, b, _), br, w in zip(triples, brs, forms))))
    checks.append(("twisted differential squares to zero",
                   all(twisted_d(d_h(w), ctx).is_zero() for w in forms)))
    checks.append(("swap preserves the pairing and is an involution",
                   all(pairing(pa := swap(a), swap(b)) == pairing(a, b)
                       and phi_swap(pa, ctx.dual()) == a for a, b, _ in triples)))
    checks.append(("swap intertwines the brackets",
                   all(bracket_swap(br.ab, ctx) == br.swapped for br in brs)))
    checks.append(("transform anti-commutes with the Clifford action",
                   all(hori_forms(act(a, w), ctx) == clifford(swap(a), hori(w)).scale_rat(-1)
                       for (a, _, _), w in zip(triples, forms))))
    checks.append(("transform anti-commutes with the twisted differential",
                   all(hori_forms(d_h(w), ctx)
                       == twisted_d(hori(w), ctx, "Ehat").scale_rat(-1) for w in forms)))
    checks.append(("reverse transform inverts with a sign",
                   all(hori_forms(hori(w), ctx.dual()) == -w for w in forms)))

    return CourantReport(label or f"T^{ctx.base_dim} double cover", checks)


# ---------------------------------------------------------------------------
# Ready-made contexts over the 2-torus
# ---------------------------------------------------------------------------

def standard_contexts() -> list[tuple[str, EquivariantContext]]:
    """Verification contexts over T^2 with half-shift and reflection decks
    and nonzero anti-invariant fluxes."""
    d = 2
    cd = 3
    shift = ((1, 0), (0, 1))
    two_b = (1, 0)
    ctxs = []

    # half-shift deck, flat connection, exact anti-invariant flux
    ahat = Form.dx(cd, 1, FourierScalar.cos_wave((1, 0)))
    ctx = EquivariantContext(d, shift, two_b, Form.zero(cd),
                             _anti_invariant(ahat, shift, two_b), Form.zero(cd))
    ctxs.append(("half-shift, flat connection, cosine flux", ctx))

    # half-shift deck, both curvatures nonzero
    a = Form.dx(cd, 1, FourierScalar.sin_wave((1, 0), 2))
    ahat2 = Form.dx(cd, 1, FourierScalar.cos_wave((1, 0))) \
        + Form.dx(cd, 0, FourierScalar.sin_wave((1, 2)))
    ctx = EquivariantContext(d, shift, two_b, _anti_invariant(a, shift, two_b),
                             _anti_invariant(ahat2, shift, two_b), Form.zero(cd))
    assert not ctx.curvature().is_zero() and not ctx.flux_fhat().is_zero()
    ctxs.append(("half-shift, curved connection and flux", ctx))

    # reflection deck (x, y) -> (x + 1/2, -y)
    refl = ((1, 0), (0, -1))
    ahat3 = Form.dx(cd, 0, FourierScalar.cos_wave((1, 1)))
    ctx = EquivariantContext(d, refl, two_b, Form.zero(cd),
                             _anti_invariant(ahat3, refl, two_b), Form.zero(cd))
    assert not ctx.flux_fhat().is_zero()
    ctxs.append(("reflection deck, mixed-mode flux", ctx))

    # half-shift again with a denser spectrum and curvature on both sides
    ahat4 = Form.dx(cd, 1, FourierScalar.sin_wave((1, 1))) \
        + Form.dx(cd, 0, FourierScalar.cos_wave((1, -1)))
    a4 = Form.dx(cd, 0, FourierScalar.cos_wave((1, 2), 3)) \
        + Form.dx(cd, 1, FourierScalar.cos_wave((1, 0), 3))
    ctx = EquivariantContext(d, shift, two_b, _anti_invariant(a4, shift, two_b),
                             _anti_invariant(ahat4, shift, two_b), Form.zero(cd))
    assert not ctx.curvature().is_zero() and not ctx.flux_fhat().is_zero()
    ctxs.append(("half-shift, mixed-frequency potentials", ctx))
    return ctxs
