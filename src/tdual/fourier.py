"""Exact trigonometric-polynomial calculus on torus covers.

Scalars are real finite Fourier sums over integer frequencies: each term
pairs a frequency k of the closed upper half (k = 0, or the first nonzero
entry of k positive) with integer cos/sin numerators over one positive
common denominator, so reality holds by construction and products run on
Python ints.  Coordinates have period one and the derivative is
normalized so that the k-th wave differentiates to i*k times itself.
Forms carry a component scalar per coordinate subset of the cover
T^{d+1}, whose last coordinate is the fiber angle; all coefficients are
independent of the fiber coordinate.  The JSON schema is the Gaussian
full spectrum: one {"freq", "re", "im"} entry per nonzero coefficient at
k and at -k.  ``FourierScalar.from_json_list`` is the one place such a
spectrum enters, and the one place its reality is checked; there is no
Gaussian-rational type (``GaussQ`` is gone).  Form and vector-field
operations emit (key, integer, scalar) pieces and sum each key once
(``_form`` over ``_lincomb``).  Products have one kernel: ``_products``
adds every c * f * g of a sum straight into one frequency accumulator
over a common denominator and reduces once per output key; the
product-to-sum formula is written only in ``_mul_into``, and
``FourierScalar.__mul__`` is the one-term case.  ``Form.make`` and
``Form.from_json_list`` check component keys; operations build their
results through the unchecked ``_form_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from .complexes import json_int

Rat = Union[int, Fraction]
Term = tuple[tuple[int, ...], int, int]


@dataclass(unsafe_hash=True, slots=True)
class FourierScalar:
    """Real finite Fourier sum over Z^dim,

        f(x) = sum over (k, a, b) in terms of (a cos 2pi k.x + b sin 2pi k.x) / den.

    ``terms`` holds the frequencies of the closed upper half in increasing
    order, each with integer numerators (a, b) not both zero and b = 0 at
    k = 0; ``den`` is positive and has gcd 1 with the numerators taken
    together, so equal scalars have equal fields.  In Gaussian terms the coefficient
    at k != 0 is (a - b i) / (2 den) and the one at -k its conjugate.

    Operations build scalars through ``_scalar``, which reduces; a Gaussian
    full spectrum enters only through ``from_json_list``, which checks that
    it is real.  Scalars are never mutated, so they hash by their fields.
    """

    dim: int
    terms: tuple[Term, ...]
    den: int

    @staticmethod
    def zero(dim: int) -> "FourierScalar":
        return FourierScalar(dim, (), 1)

    @staticmethod
    def const(dim: int, value: Rat) -> "FourierScalar":
        v = Fraction(value)
        return _scalar(dim, [((0,) * dim, v.numerator, 0)] if v else [], v.denominator)

    @staticmethod
    def cos_wave(freq: Sequence[int], amp: Rat = 1) -> "FourierScalar":
        return _wave(freq, amp, False)

    @staticmethod
    def sin_wave(freq: Sequence[int], amp: Rat = 1) -> "FourierScalar":
        return _wave(freq, amp, True)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o: "FourierScalar") -> "FourierScalar":
        return _lincomb(self.dim, ((1, self), (1, o)))

    def __sub__(self, o: "FourierScalar") -> "FourierScalar":
        return _lincomb(self.dim, ((1, self), (-1, o)))

    def __mul__(self, o: "FourierScalar") -> "FourierScalar":
        return _products(self.dim, ((1, self, o),))

    def scale(self, c: Rat) -> "FourierScalar":
        if type(c) is not int:
            c = Fraction(c)
        p = c.numerator
        if not p:
            return FourierScalar.zero(self.dim)
        return _scalar(self.dim, [(k, a * p, b * p) for k, a, b in self.terms],
                       self.den * c.denominator)

    def __neg__(self) -> "FourierScalar":
        return self.scale(-1)

    def partial(self, j: int) -> "FourierScalar":
        # d/dx_j (a cos + b sin) = k_j b cos - k_j a sin
        return _scalar(self.dim, [(k, k[j] * b, -k[j] * a)
                                  for k, a, b in self.terms if k[j]], self.den)

    def compose_affine(self, a_rows: Sequence[Sequence[int]],
                       two_b: Sequence[int]) -> "FourierScalar":
        """f(A x + b) with 2b integral; phases stay exact signs."""
        cols = list(zip(*a_rows))
        zero = (0,) * self.dim
        acc: dict[tuple[int, ...], list[int]] = {}
        for k, a, b in self.terms:
            newk = tuple(sum(map(mul, k, col)) for col in cols)
            if sum(map(mul, k, two_b)) % 2:
                a, b = -a, -b
            if newk < zero:
                newk = tuple(map(neg, newk))
                b = -b
            elif newk == zero:
                b = 0
            p = acc.get(newk)
            if p is None:
                acc[newk] = [a, b]
            else:
                p[0] += a
                p[1] += b
        return _collect(self.dim, acc, self.den)

    def constant_term(self) -> Fraction:
        if self.terms and not any(self.terms[0][0]):
            return Fraction(self.terms[0][1], self.den)
        return Fraction(0)

    def to_json_list(self) -> list:
        full = []
        two_den = 2 * self.den
        for k, a, b in self.terms:
            if any(k):
                re = str(Fraction(a, two_den))
                full.append((k, re, str(Fraction(-b, two_den))))
                full.append((tuple(map(neg, k)), re, str(Fraction(b, two_den))))
            else:
                full.append((k, str(Fraction(a, self.den)), "0"))
        full.sort()
        return [{"freq": list(k), "re": re, "im": im} for k, re, im in full]

    @staticmethod
    def from_json_list(dim: int, items: list) -> "FourierScalar":
        """The scalar with Gaussian coefficient re + i im at each ``freq``;
        ``ValueError`` unless every nonzero one has ``dim`` entries and the
        coefficient at -k is the conjugate of the one at k."""
        coeff = {}
        for item in items:
            k = tuple(json_int(v, "freq") for v in item["freq"])
            coeff[k] = (Fraction(item["re"]), Fraction(item.get("im", "0")))
        zero = (0,) * dim
        half = []
        for k, (re, im) in sorted(coeff.items()):
            if not (re or im):
                continue
            if len(k) != dim:
                raise ValueError("frequency arity mismatch")
            if coeff.get(tuple(map(neg, k)), (0, 0)) != (re, -im):
                raise ValueError("reality violated: coefficient at -k must conjugate")
            if k > zero:
                half.append((k, 2 * re, -2 * im))
            elif k == zero:
                half.append((k, re, im))
        den = lcm(*(x.denominator for _, re, im in half for x in (re, im)))
        return _scalar(dim, [(k, int(re * den), int(im * den)) for k, re, im in half], den)


def _reduce(items: list[Term], den: int) -> tuple[tuple[Term, ...], int]:
    """Divide the common factor of ``den`` and every numerator out of
    ``items``: (k, a, b) with k in the closed upper half, sorted by k and
    distinct, b = 0 at k = 0 and (a, b) != (0, 0)."""
    g = den
    for _, a, b in items:
        g = gcd(g, a, b)
        if g == 1:
            return tuple(items), den
    return tuple((k, a // g, b // g) for k, a, b in items), den // g


def _scalar(dim: int, items: list[Term], den: int) -> FourierScalar:
    """The unchecked constructor behind every operation; see ``_reduce``."""
    return FourierScalar(dim, *_reduce(items, den))


def _collect(dim: int, acc: dict, den: int) -> FourierScalar:
    """``_scalar`` from a frequency -> [a, b] accumulator."""
    return _scalar(dim, sorted((k, a, b) for k, (a, b) in acc.items() if a or b), den)


def _lincomb(dim: int, pairs: Iterable[tuple[int, FourierScalar]]) -> FourierScalar:
    """The sum of c * s over (integer c, scalar s) pairs, taken over the
    least common denominator and reduced once."""
    pairs = [(c, s) for c, s in pairs if c and s.terms]
    if not pairs:
        return FourierScalar.zero(dim)
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    den = lcm(*(s.den for _, s in pairs))
    acc: dict[tuple[int, ...], list[int]] = {}
    get = acc.get
    for c, s in pairs:
        m = c * (den // s.den)
        for k, a, b in s.terms:
            p = get(k)
            if p is None:
                acc[k] = [a * m, b * m]
            else:
                p[0] += a * m
                p[1] += b * m
    return _collect(dim, acc, den)


def _mul_into(acc: dict, m: int, t1: Sequence[Term], t2: Sequence[Term]) -> None:
    """Add m times the numerators of f1 f2, written over the denominator
    2 den(f1) den(f2), into the frequency -> [a, b] accumulator ``acc``,
    for f1, f2 with terms t1, t2."""
    # Product to sum: with x = a1 a2, y = b1 b2, u = a1 b2, v = b1 a2,
    # 2 f1 f2 = (x - y) cos(s) + (u + v) sin(s) + (x + y) cos(t) + (v - u) sin(t)
    # for s = k1 + k2 (always in the upper half) and t = k1 - k2,
    # flipped into the upper half by negating its sin part.
    zero = (0,) * len(t1[0][0])
    get = acc.get
    for k1, a1, b1 in t1:
        if m != 1:
            a1 *= m
            b1 *= m
        for k2, a2, b2 in t2:
            x = a1 * a2
            y = b1 * b2
            u = a1 * b2
            v = b1 * a2
            ks = tuple(map(add, k1, k2))
            p = get(ks)
            if p is None:
                acc[ks] = [x - y, u + v]
            else:
                p[0] += x - y
                p[1] += u + v
            kd = tuple(map(sub, k1, k2))
            if kd > zero:
                s = v - u
            elif kd < zero:
                kd = tuple(map(sub, k2, k1))
                s = u - v
            else:
                s = 0
            p = get(kd)
            if p is None:
                acc[kd] = [x + y, s]
            else:
                p[0] += x + y
                p[1] += s


def _products(dim: int, triples: Iterable[tuple[int, FourierScalar, FourierScalar]]) -> FourierScalar:
    """The sum of c * f * g over (integer c, scalar f, scalar g) triples:
    each product is added straight into one accumulator over the least
    common denominator, reduced once.  ``__mul__`` is the one-term case."""
    triples = [(c, f, g) for c, f, g in triples if c and f.terms and g.terms]
    if not triples:
        return FourierScalar.zero(dim)
    den = lcm(*(f.den * g.den for _, f, g in triples))
    acc: dict[tuple[int, ...], list[int]] = {}
    for c, f, g in triples:
        _mul_into(acc, c * (den // (f.den * g.den)), f.terms, g.terms)
    return _collect(dim, acc, 2 * den)


def _wave(freq: Sequence[int], amp: Rat, sine: bool) -> FourierScalar:
    """amp * cos(2pi k.x) or amp * sin(2pi k.x), k flipped into the upper half."""
    k = tuple(int(v) for v in freq)
    amp = Fraction(amp)
    zero = (0,) * len(k)
    p = amp.numerator
    if k < zero:
        k = tuple(map(neg, k))
        if sine:
            p = -p
    elif k == zero and sine:
        p = 0
    return _scalar(len(k), [(k, 0, p) if sine else (k, p, 0)] if p else [],
                   amp.denominator)


Key = tuple[int, ...]


def _delete_sign(key: Key, j: int) -> tuple[Key, int]:
    pos = key.index(j)
    return key[:pos] + key[pos + 1:], -1 if pos % 2 else 1


def _sort_sign(seq: Sequence[int]) -> int:
    """The sign of the permutation that sorts the distinct entries of seq."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


@dataclass(frozen=True)
class Form:
    """Inhomogeneous differential form on T^{cover_dim}; component scalars
    depend only on the first ``cover_dim - 1`` coordinates."""

    cover_dim: int
    components: tuple[tuple[Key, FourierScalar], ...]

    @staticmethod
    def make(cover_dim: int, mapping: Mapping[Key, FourierScalar]) -> "Form":
        """The form with the nonzero components of ``mapping``; ``ValueError``
        unless each of their keys is sorted, distinct and in range and each
        scalar lives on the base.  Operations build their results through
        the unchecked ``_form_of``."""
        out = _form_of(cover_dim, mapping)
        for key, f in out.components:
            if any(i < 0 or i >= cover_dim for i in key):
                raise ValueError("coordinate index out of range")
            if tuple(sorted(set(key))) != key:
                raise ValueError("component keys must be sorted and distinct")
            if f.dim != cover_dim - 1:
                raise ValueError("scalar base dimension mismatch")
        return out

    @staticmethod
    def zero(cover_dim: int) -> "Form":
        return Form(cover_dim, ())

    @staticmethod
    def scalar(cover_dim: int, f: FourierScalar) -> "Form":
        return Form.make(cover_dim, {(): f})

    @staticmethod
    def one(cover_dim: int) -> "Form":
        return Form.scalar(cover_dim, FourierScalar.const(cover_dim - 1, 1))

    @staticmethod
    def dx(cover_dim: int, j: int, coeff: Optional[FourierScalar] = None) -> "Form":
        f = coeff if coeff is not None else FourierScalar.const(cover_dim - 1, 1)
        return Form.make(cover_dim, {(j,): f})

    def component(self, key: Key) -> FourierScalar:
        for k, f in self.components:
            if k == key:
                return f
        return FourierScalar.zero(self.cover_dim - 1)

    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> set[int]:
        return {len(k) for k, _ in self.components}

    def _pieces(self, c: int) -> list[tuple[Key, int, FourierScalar]]:
        return [(k, c, f) for k, f in self.components]

    def __add__(self, o: "Form") -> "Form":
        return _form(self.cover_dim, self._pieces(1) + o._pieces(1))

    def __sub__(self, o: "Form") -> "Form":
        return _form(self.cover_dim, self._pieces(1) + o._pieces(-1))

    def __neg__(self) -> "Form":
        return _form(self.cover_dim, self._pieces(-1))

    def scale_rat(self, c: Rat) -> "Form":
        return _form_of(self.cover_dim, {k: f.scale(c) for k, f in self.components})

    def scale(self, g: FourierScalar) -> "Form":
        return _form_products(self.cover_dim, [(k, 1, g, f) for k, f in self.components])

    def wedge(self, o: "Form") -> "Form":
        return _form_products(self.cover_dim, [
            (tuple(sorted(k1 + k2)), _sort_sign(k1 + k2), f1, f2)
            for k1, f1 in self.components for k2, f2 in o.components
            if not set(k1) & set(k2)])

    def d(self) -> "Form":
        # the fiber coordinate never appears
        return _form(self.cover_dim, [
            (tuple(sorted((j,) + key)), _sort_sign((j,) + key), f.partial(j))
            for key, f in self.components for j in range(self.cover_dim - 1) if j not in key])

    def interior(self, vf: "VectorField") -> "Form":
        pieces = []
        for key, f in self.components:
            for j in key:
                new, sign = _delete_sign(key, j)
                pieces.append((new, sign, vf.components[j], f))
        return _form_products(self.cover_dim, pieces)

    def pullback(self, a_rows: Sequence[Sequence[int]], two_b: Sequence[int]) -> "Form":
        """Pullback along (x, theta) -> (Ax + b, -theta): dx_i goes to
        sum_j A_ij dx_j and dtheta to -dtheta."""
        d = self.cover_dim - 1
        images = [[(j, a) for j, a in enumerate(row) if a] for row in a_rows] + [[(d, -1)]]
        pieces = []
        for key, f in self.components:
            g = f.compose_affine(a_rows, two_b)
            for choice in product(*(images[i] for i in key)):
                js = tuple(j for j, _ in choice)
                if len(set(js)) == len(js):
                    pieces.append((tuple(sorted(js)),
                                   _sort_sign(js) * prod(a for _, a in choice), g))
        return _form(self.cover_dim, pieces)

    def to_json_list(self) -> list:
        return [{"dx": list(k), "waves": f.to_json_list()} for k, f in self.components]

    @staticmethod
    def from_json_list(cover_dim: int, items: list) -> "Form":
        acc = {}
        for item in items:
            key = tuple(json_int(v, "dx") for v in item["dx"])
            acc[key] = FourierScalar.from_json_list(cover_dim - 1, item["waves"])
        return Form.make(cover_dim, acc)


def _form_of(cover_dim: int, mapping: Mapping[Key, FourierScalar]) -> Form:
    """The form with the nonzero components of ``mapping``, whose keys are
    taken to be valid: the unchecked constructor behind every operation."""
    return Form(cover_dim, tuple(sorted((k, f) for k, f in mapping.items() if f.terms)))


def _form(cover_dim: int, pieces: Iterable[tuple[Key, int, FourierScalar]]) -> Form:
    """The form sum of c * s dx_key over (key, integer c, scalar s) pieces,
    each key summed by one ``_lincomb``."""
    groups: dict[Key, list] = {}
    for key, c, s in pieces:
        groups.setdefault(key, []).append((c, s))
    return _form_of(cover_dim, {k: _lincomb(cover_dim - 1, g) for k, g in groups.items()})


def _form_products(cover_dim: int,
                   pieces: Iterable[tuple[Key, int, FourierScalar, FourierScalar]]) -> Form:
    """The form sum of c * f * g dx_key over (key, integer c, scalar f,
    scalar g) pieces, each key summed by one ``_products``."""
    groups: dict[Key, list] = {}
    for key, c, f, g in pieces:
        groups.setdefault(key, []).append((c, f, g))
    return _form_of(cover_dim, {k: _products(cover_dim - 1, g) for k, g in groups.items()})


@dataclass(frozen=True)
class VectorField:
    """Vector field on the cover with fiber-independent components."""

    cover_dim: int
    components: tuple[FourierScalar, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.cover_dim:
            raise ValueError("one component per coordinate required")
        for f in self.components:
            if f.dim != self.cover_dim - 1:
                raise ValueError("scalar base dimension mismatch")

    @staticmethod
    def zero(cover_dim: int) -> "VectorField":
        z = FourierScalar.zero(cover_dim - 1)
        return VectorField(cover_dim, (z,) * cover_dim)

    @staticmethod
    def coordinate(cover_dim: int, j: int, coeff: Optional[FourierScalar] = None) -> "VectorField":
        comps = [FourierScalar.zero(cover_dim - 1) for _ in range(cover_dim)]
        comps[j] = coeff if coeff is not None else FourierScalar.const(cover_dim - 1, 1)
        return VectorField(cover_dim, tuple(comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, o: "VectorField") -> "VectorField":
        return VectorField(self.cover_dim,
                           tuple(a + b for a, b in zip(self.components, o.components)))

    def __sub__(self, o: "VectorField") -> "VectorField":
        return VectorField(self.cover_dim,
                           tuple(a - b for a, b in zip(self.components, o.components)))

    def scale_rat(self, c: Rat) -> "VectorField":
        return VectorField(self.cover_dim, tuple(f.scale(c) for f in self.components))

    def scale(self, g: FourierScalar) -> "VectorField":
        return VectorField(self.cover_dim, tuple(g * f for f in self.components))

    def _derivative_terms(self, f: FourierScalar, c: int) -> list:
        # the fiber coordinate contributes nothing
        return [(c, self.components[j], f.partial(j)) for j in range(f.dim)]

    def apply(self, f: FourierScalar) -> FourierScalar:
        """Directional derivative of a base scalar."""
        return _products(f.dim, self._derivative_terms(f, 1))

    def lie_bracket(self, o: "VectorField") -> "VectorField":
        return VectorField(self.cover_dim, tuple(
            _products(x.dim, self._derivative_terms(y, 1) + o._derivative_terms(x, -1))
            for x, y in zip(self.components, o.components)))

    def pushforward(self, a_rows: Sequence[Sequence[int]], two_b: Sequence[int]) -> "VectorField":
        """Image under the deck map (x, theta) -> (Ax + b, -theta); for an
        involution this is also the pullback."""
        d = self.cover_dim - 1
        moved = [f.compose_affine(a_rows, two_b) for f in self.components]
        return VectorField(self.cover_dim, tuple(
            _lincomb(d, zip(row, moved)) for row in a_rows) + (-moved[d],))


def lie_derivative(x: VectorField, w: Form) -> Form:
    """Cartan formula: L_X = i_X d + d i_X."""
    return w.d().interior(x) + w.interior(x).d()


def form_primitive(w: Form) -> Form:
    """A primitive of a closed form with vanishing constant modes, via the
    frequency-wise contraction homotopy."""
    if not w.d().is_zero():
        raise ValueError("form is not closed")
    pieces = []
    for key, f in w.components:
        for k, a, b in f.terms:
            j = next((idx for idx, v in enumerate(k) if v), None)
            if j is None:
                raise ValueError("closed form has a constant mode; no primitive exists")
            if j in key:
                new, sign = _delete_sign(key, j)
                # (a cos + b sin) / den is d/dx_j of (-b cos + a sin) / (k_j den)
                pieces.append((new, sign, _scalar(f.dim, [(k, -b, a)], f.den * k[j])))
    out = _form(w.cover_dim, pieces)
    if not (out.d() - w).is_zero():
        raise ValueError("primitive construction failed")
    return out
