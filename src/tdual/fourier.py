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
k and at -k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Mapping, Optional, Sequence, Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class GaussQ:
    """Gaussian rational a + b*i with exact components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: Rat = 0, im: Rat = 0) -> "GaussQ":
        return GaussQ(Fraction(re), Fraction(im))

    def conj(self) -> "GaussQ":
        return GaussQ(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


_ZERO = GaussQ(Fraction(0), Fraction(0))

Term = tuple[tuple[int, ...], int, int]


@dataclass(init=False, unsafe_hash=True, slots=True)
class FourierScalar:
    """Real finite Fourier sum over Z^dim,

        f(x) = sum over (k, a, b) in terms of (a cos 2pi k.x + b sin 2pi k.x) / den.

    ``terms`` holds the frequencies of the closed upper half in increasing
    order, each with integer numerators (a, b) not both zero and b = 0 at
    k = 0; ``den`` is positive and has gcd 1 with the numerators taken
    together, so equal scalars have equal fields.  In Gaussian terms the coefficient
    at k != 0 is (a - b i) / (2 den) and the one at -k its conjugate.

    ``FourierScalar(dim, terms)`` takes the Gaussian full spectrum as
    (k, GaussQ) pairs and raises ``ValueError`` unless it is real.
    Operations pass their reduced half spectrum and its denominator as a
    third argument, which is not checked; see ``_scalar``.  Scalars are
    never mutated, so they hash by their fields.
    """

    dim: int
    terms: tuple[Term, ...]
    den: int

    def __init__(self, dim: int, terms, _den: Optional[int] = None) -> None:
        self.dim = dim
        if _den is not None:
            self.terms = terms
            self.den = _den
            return
        coeff = dict(terms)
        zero = (0,) * dim
        half = []
        for k, c in terms:
            if len(k) != dim:
                raise ValueError("frequency arity mismatch")
            if coeff.get(tuple(map(neg, k)), _ZERO) != c.conj():
                raise ValueError("reality violated: coefficient at -k must conjugate")
            if k > zero:
                half.append((k, 2 * Fraction(c.re), -2 * Fraction(c.im)))
            elif k == zero:
                half.append((k, Fraction(c.re), Fraction(0)))
        den = lcm(*(x.denominator for _, re, im in half for x in (re, im)))
        self.terms, self.den = _reduce(sorted(
            (k, int(re * den), int(im * den)) for k, re, im in half if re or im), den)

    @staticmethod
    def make(dim: int, mapping: Mapping[tuple[int, ...], GaussQ]) -> "FourierScalar":
        items = tuple(sorted((k, c) for k, c in mapping.items() if c))
        return FourierScalar(dim, items)

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
        return self._combine(o, 1)

    def __sub__(self, o: "FourierScalar") -> "FourierScalar":
        return self._combine(o, -1)

    def _combine(self, o: "FourierScalar", sign: int) -> "FourierScalar":
        """self + sign * o over the least common denominator."""
        if not o.terms:
            return self
        d1, d2 = self.den, o.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        acc = {k: [a * m1, b * m1] for k, a, b in self.terms}
        for k, a, b in o.terms:
            p = acc.get(k)
            if p is None:
                acc[k] = [a * m2, b * m2]
            else:
                p[0] += a * m2
                p[1] += b * m2
        return _collect(self.dim, acc, d1 * m1)

    def __mul__(self, o: "FourierScalar") -> "FourierScalar":
        # Product to sum: with x = a1 a2, y = b1 b2, u = a1 b2, v = b1 a2,
        # 2 f1 f2 = (x - y) cos(s) + (u + v) sin(s) + (x + y) cos(t) + (v - u) sin(t)
        # for s = k1 + k2 (always in the upper half) and t = k1 - k2,
        # flipped into the upper half by negating its sin part.
        t1, t2 = self.terms, o.terms
        if not t1 or not t2:
            return FourierScalar.zero(self.dim)
        zero = (0,) * self.dim
        acc: dict[tuple[int, ...], list[int]] = {}
        get = acc.get
        for k1, a1, b1 in t1:
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
        return _collect(self.dim, acc, 2 * self.den * o.den)

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

    def constant_term(self) -> GaussQ:
        if self.terms and not any(self.terms[0][0]):
            return GaussQ.of(Fraction(self.terms[0][1], self.den))
        return _ZERO

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
        acc = {}
        for item in items:
            k = tuple(int(v) for v in item["freq"])
            acc[k] = GaussQ(Fraction(item["re"]), Fraction(item.get("im", "0")))
        return FourierScalar.make(dim, acc)


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


def _insert_sign(key: Key, j: int) -> tuple[Optional[Key], int]:
    """Sorted insertion of index j into dx_key; None when j already there."""
    if j in key:
        return None, 0
    pos = sum(1 for s in key if s < j)
    new = tuple(sorted(key + (j,)))
    return new, -1 if pos % 2 else 1


def _delete_sign(key: Key, j: int) -> tuple[Key, int]:
    pos = key.index(j)
    new = key[:pos] + key[pos + 1:]
    return new, -1 if pos % 2 else 1


@dataclass(frozen=True)
class Form:
    """Inhomogeneous differential form on T^{cover_dim}; component scalars
    depend only on the first ``cover_dim - 1`` coordinates."""

    cover_dim: int
    components: tuple[tuple[Key, FourierScalar], ...]

    def __post_init__(self) -> None:
        for key, f in self.components:
            if any(i < 0 or i >= self.cover_dim for i in key):
                raise ValueError("coordinate index out of range")
            if tuple(sorted(set(key))) != key:
                raise ValueError("component keys must be sorted and distinct")
            if f.dim != self.cover_dim - 1:
                raise ValueError("scalar base dimension mismatch")

    @staticmethod
    def make(cover_dim: int, mapping: Mapping[Key, FourierScalar]) -> "Form":
        items = tuple(sorted((k, f) for k, f in mapping.items() if not f.is_zero()))
        return Form(cover_dim, items)

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

    def degree_part(self, p: int) -> "Form":
        return Form.make(self.cover_dim,
                         {k: f for k, f in self.components if len(k) == p})

    def __add__(self, o: "Form") -> "Form":
        acc = dict(self.components)
        for k, f in o.components:
            acc[k] = acc.get(k, FourierScalar.zero(f.dim)) + f
        return Form.make(self.cover_dim, acc)

    def __sub__(self, o: "Form") -> "Form":
        return self + o.scale_rat(-1)

    def __neg__(self) -> "Form":
        return self.scale_rat(-1)

    def scale_rat(self, c: Rat) -> "Form":
        return Form.make(self.cover_dim, {k: f.scale(c) for k, f in self.components})

    def scale(self, g: FourierScalar) -> "Form":
        return Form.make(self.cover_dim, {k: g * f for k, f in self.components})

    def wedge(self, o: "Form") -> "Form":
        acc: dict[Key, FourierScalar] = {}
        for k1, f1 in self.components:
            for k2, f2 in o.components:
                if set(k1) & set(k2):
                    continue
                merged = tuple(sorted(k1 + k2))
                # sign of sorting the concatenation k1 + k2
                sign = 1
                seq = list(k1 + k2)
                for i in range(len(seq)):
                    for j in range(i + 1, len(seq)):
                        if seq[i] > seq[j]:
                            sign = -sign
                val = (f1 * f2).scale(sign)
                acc[merged] = acc.get(merged, FourierScalar.zero(f1.dim)) + val
        return Form.make(self.cover_dim, acc)

    def d(self) -> "Form":
        acc: dict[Key, FourierScalar] = {}
        base_dim = self.cover_dim - 1
        for key, f in self.components:
            for j in range(base_dim):  # the fiber coordinate never appears
                df = f.partial(j)
                if df.is_zero():
                    continue
                new, sign = _insert_sign(key, j)
                if new is None:
                    continue
                acc[new] = acc.get(new, FourierScalar.zero(base_dim)) + df.scale(sign)
        return Form.make(self.cover_dim, acc)

    def interior(self, vf: "VectorField") -> "Form":
        acc: dict[Key, FourierScalar] = {}
        for key, f in self.components:
            for j in key:
                comp = vf.components[j]
                if comp.is_zero():
                    continue
                new, sign = _delete_sign(key, j)
                acc[new] = acc.get(new, FourierScalar.zero(f.dim)) + (comp * f).scale(sign)
        return Form.make(self.cover_dim, acc)

    def pullback(self, a_rows: Sequence[Sequence[int]], two_b: Sequence[int]) -> "Form":
        """Pullback along (x, theta) -> (Ax + b, -theta)."""
        d = self.cover_dim - 1
        out = Form.zero(self.cover_dim)
        for key, f in self.components:
            piece = Form.scalar(self.cover_dim, f.compose_affine(a_rows, two_b))
            for idx in key:
                if idx == d:
                    one_form = Form.dx(self.cover_dim, d,
                                       FourierScalar.const(d, -1))
                else:
                    comp: dict[Key, FourierScalar] = {}
                    for jj in range(d):
                        if a_rows[idx][jj]:
                            comp[(jj,)] = FourierScalar.const(d, a_rows[idx][jj])
                    one_form = Form.make(self.cover_dim, comp)
                piece = piece.wedge(one_form)
            out = out + piece
        return out

    def to_json_list(self) -> list:
        return [{"dx": list(k), "waves": f.to_json_list()} for k, f in self.components]

    @staticmethod
    def from_json_list(cover_dim: int, items: list) -> "Form":
        acc = {}
        for item in items:
            key = tuple(int(v) for v in item["dx"])
            acc[key] = FourierScalar.from_json_list(cover_dim - 1, item["waves"])
        return Form.make(cover_dim, acc)


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
        return self + o.scale_rat(-1)

    def scale_rat(self, c: Rat) -> "VectorField":
        return VectorField(self.cover_dim, tuple(f.scale(c) for f in self.components))

    def scale(self, g: FourierScalar) -> "VectorField":
        return VectorField(self.cover_dim, tuple(g * f for f in self.components))

    def apply(self, f: FourierScalar) -> FourierScalar:
        """Directional derivative of a base scalar."""
        out = FourierScalar.zero(f.dim)
        for j in range(f.dim):  # fiber coordinate contributes nothing
            out = out + self.components[j] * f.partial(j)
        return out

    def lie_bracket(self, o: "VectorField") -> "VectorField":
        comps = []
        base_dim = self.cover_dim - 1
        for k in range(self.cover_dim):
            acc = FourierScalar.zero(base_dim)
            for j in range(base_dim):
                acc = acc + self.components[j] * o.components[k].partial(j)
                acc = acc - o.components[j] * self.components[k].partial(j)
            comps.append(acc)
        return VectorField(self.cover_dim, tuple(comps))

    def pushforward(self, a_rows: Sequence[Sequence[int]], two_b: Sequence[int]) -> "VectorField":
        """Image under the deck map (x, theta) -> (Ax + b, -theta); for an
        involution this is also the pullback."""
        d = self.cover_dim - 1
        comps = []
        for i in range(d):
            acc = FourierScalar.zero(d)
            for j in range(d):
                if a_rows[i][j]:
                    acc = acc + self.components[j].compose_affine(a_rows, two_b).scale(a_rows[i][j])
            comps.append(acc)
        comps.append(-self.components[d].compose_affine(a_rows, two_b))
        return VectorField(self.cover_dim, tuple(comps))


def lie_derivative(x: VectorField, w: Form) -> Form:
    """Cartan formula: L_X = i_X d + d i_X."""
    return w.d().interior(x) + w.interior(x).d()


def form_primitive(w: Form) -> Form:
    """A primitive of a closed form with vanishing constant modes, via the
    frequency-wise contraction homotopy."""
    if not w.d().is_zero():
        raise ValueError("form is not closed")
    acc: dict[Key, FourierScalar] = {}
    base_dim = w.cover_dim - 1
    for key, f in w.components:
        for k, a, b in f.terms:
            j = next((idx for idx, v in enumerate(k) if v), None)
            if j is None:
                raise ValueError("closed form has a constant mode; no primitive exists")
            if j not in key:
                continue
            new, sign = _delete_sign(key, j)
            # (a cos + b sin) / den is d/dx_j of (-b cos + a sin) / (k_j den)
            term = _scalar(base_dim, [(k, -sign * b, sign * a)], f.den * k[j])
            acc[new] = acc.get(new, FourierScalar.zero(base_dim)) + term
    out = Form.make(w.cover_dim, acc)
    if not (out.d() - w).is_zero():
        raise ValueError("primitive construction failed")
    return out
