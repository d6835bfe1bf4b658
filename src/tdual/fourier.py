"""Exact trigonometric-polynomial calculus on torus covers.

Scalars are real finite Fourier sums over integer frequencies: each term
pairs a frequency k of the closed upper half (k = 0, or the first nonzero
entry of k positive) with integer cos/sin numerators over one positive
common denominator, so reality holds by construction and products run on
Python ints.  Coordinates have period one and the derivative is
normalized so that the k-th wave differentiates to i*k times itself.
A frequency is packed into one int, a signed 64-bit digit per entry, the
first most significant: k1 +- k2 is an int sum, the upper half is the
positive ints and int order is lexicographic.  Entries are capped at
|k_i| < 2**31, so a sum of two is exact; ``FrequencyOverflow`` (a
``ValueError``) is raised where a frequency enters (``cos_wave``,
``sin_wave``, ``wave_sum``, ``from_json_list``) and where it grows
(``compose_affine`` and each product's output).  A form on T^{d+1},
fiber angle last, is one such table with keys packed frequency <<
cover_dim | coordinate mask.
Form operations and sums of them (``Form.sum``, a ``FormSum``) add
their terms into one table, rescaled by ``_mul_into``'s multiplier, and
reduce it once (``_table``), with signs from bit counts; ``_mul_into`` is
the one product kernel.  The JSON schema is the Gaussian full spectrum, one
{"freq", "re", "im"} entry per nonzero coefficient at k and at -k, read
only by ``FourierScalar.from_json_list``, which checks its reality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import mul, neg
from typing import Iterable, Mapping, Optional, Sequence, Union

from .complexes import json_int

Rat = Union[int, Fraction]
Term = tuple[int, int, int]
Key = tuple[int, ...]
Table = tuple[tuple[Term, ...], int]  # a scalar's or form's (terms, den)

_CAP = 1 << 31  # every frequency entry has |k_i| < _CAP
_DIGIT = (1 << 64) - 1


class FrequencyOverflow(ValueError):
    """A frequency entry reached 2**31 in absolute value."""

    def __init__(self) -> None:
        super().__init__("frequency entries must be below 2**31 in absolute value")


def _pack(k: Sequence[int]) -> int:
    p = 0
    for v in k:
        if not -_CAP < v < _CAP:
            raise FrequencyOverflow()
        p = (p << 64) + v
    return p


def _unpack(p: int, dim: int) -> Key:
    p += _CAP * (((1 << 64 * dim) - 1) // _DIGIT)  # every digit k_i + 2**31 >= 0
    return tuple([(p >> s & _DIGIT) - _CAP for s in range(64 * dim - 64, -1, -64)])


@dataclass(unsafe_hash=True, slots=True)
class FourierScalar:
    """Real finite Fourier sum over Z^dim,

        f(x) = sum over (k, a, b) in terms of (a cos 2pi k.x + b sin 2pi k.x) / den.

    ``terms`` holds the packed frequencies of the closed upper half in
    increasing order, each with integer numerators (a, b) not both zero
    and b = 0 at k = 0; ``den`` is positive and has gcd 1 with the
    numerators taken together, so equal scalars have equal fields.  In
    Gaussian terms the coefficient at k != 0 is (a - b i) / (2 den) and
    the one at -k its conjugate.  Operations build scalars through
    ``_reduce``; scalars are never mutated, so they hash by their fields.
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
        return FourierScalar(dim, *_reduce([(0, v.numerator, 0)] if v else [], v.denominator))

    @staticmethod
    def cos_wave(freq: Sequence[int], amp: Rat = 1) -> "FourierScalar":
        return _wave(freq, amp, False)

    @staticmethod
    def sin_wave(freq: Sequence[int], amp: Rat = 1) -> "FourierScalar":
        return _wave(freq, amp, True)

    @staticmethod
    def wave_sum(dim: int, const: int, waves: Iterable[tuple[Sequence[int], int, bool]],
                 den: int = 1) -> "FourierScalar":
        """(const plus amp * sin(2pi k.x) (``sine``) or amp * cos(2pi k.x)
        over the (k, amp, sine) in ``waves``) / den, integer numerators, as
        one table with one reduction; k is flipped into the upper half."""
        acc = {0: [const, 0]}
        for freq, amp, sine in waves:
            p = _pack(freq)  # sine is odd, and zero at k = 0
            _add(acc, amp, [(abs(p), 0, (p > 0) - (p < 0)) if sine else (abs(p), 1, 0)])
        return FourierScalar(dim, *_table(acc, den))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o: "FourierScalar") -> "FourierScalar":
        return FourierScalar(self.dim, *_lincomb(((1, self), (1, o))))

    def __sub__(self, o: "FourierScalar") -> "FourierScalar":
        return FourierScalar(self.dim, *_lincomb(((1, self), (-1, o))))

    def __mul__(self, o: "FourierScalar") -> "FourierScalar":
        acc: dict = {}
        _mul_into(acc, 1, self.terms, o.terms)
        return FourierScalar(self.dim, *_table(acc, 2 * self.den * o.den, self.dim))

    def scale(self, c: Rat) -> "FourierScalar":
        return FourierScalar(self.dim, *_lincomb(((Fraction(c), self),)))

    def __neg__(self) -> "FourierScalar":
        return self.scale(-1)

    def partial(self, j: int) -> "FourierScalar":
        return FourierScalar(self.dim, *_reduce(_partials(self.terms, self.dim)[j], self.den))

    def compose_affine(self, a_rows: Sequence[Sequence[int]],
                       two_b: Sequence[int]) -> "FourierScalar":
        """f(A x + b) with 2b integral."""
        acc: dict = {}
        _add(acc, 1, _affine_terms(self.terms, self.dim, a_rows, two_b))
        return FourierScalar(self.dim, *_table(acc, self.den))

    def constant_term(self) -> Fraction:
        if self.terms and not self.terms[0][0]:
            return Fraction(self.terms[0][1], self.den)
        return Fraction(0)

    def to_json_list(self) -> list:
        full = []
        two_den = 2 * self.den
        for p, a, b in self.terms:
            k = _unpack(p, self.dim)
            if p:
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
        ``ValueError`` unless every nonzero one has ``dim`` entries below
        2**31 in absolute value and the coefficient at -k is the conjugate
        of the one at k."""
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
                half.append((_pack(k), 2 * re, -2 * im))
            elif k == zero:
                half.append((0, re, im))
        den = lcm(*(x.denominator for _, re, im in half for x in (re, im)))
        return FourierScalar(dim, *_reduce([(k, int(re * den), int(im * den))
                                            for k, re, im in half], den))


def _reduce(items: list[Term], den: int) -> Table:
    """Divide the common factor of ``den`` and every numerator out of
    ``items``: (key, a, b) sorted by key and distinct, (a, b) != (0, 0)
    and b = 0 at frequency 0."""
    g = den
    for _, a, b in items:
        g = gcd(g, a, b)
        if g == 1:
            return tuple(items), den
    return tuple([(k, a // g, b // g) for k, a, b in items]), den // g


def _table(acc: dict, den: int, dim: int = 0, shift: int = 0) -> Table:
    """``_reduce`` of the nonzero entries of a key -> [a, b] accumulator.
    Given a product's ``dim``, ``FrequencyOverflow`` unless each digit of
    each frequency (the key above ``shift`` mask bits) is in [-2**31, 2**31)
    and in [-2**31 + 1, 2**31 + 1); exact for sums of two capped frequencies."""
    if dim:
        ones = ((1 << 64 * dim) - 1) // _DIGIT << shift
        lo, hi, high = (_CAP - 1) * ones, _CAP * ones, (_DIGIT - (1 << 32) + 1) * ones
        for k in acc:
            if (k + lo | k + hi) & high:
                raise FrequencyOverflow()
    return _reduce(sorted([(k, a, b) for k, (a, b) in acc.items() if a or b]), den)


def _lincomb(pairs: Iterable[tuple[Rat, Union[FourierScalar, "Form"]]]) -> Table:
    """The table of the sum of c * s over (c, scalar or form s) pairs."""
    acc = FormSum(0)
    for c, s in pairs:
        acc.add(c, s)
    return _table(acc.acc, acc.den)


def _add(acc: dict, c: int, terms: Iterable[Term]) -> None:
    """Add c times ``terms`` into the key -> [a, b] accumulator ``acc``."""
    get = acc.get
    for k, a, b in terms:
        p = get(k)
        if p is None:
            acc[k] = [c * a, c * b]
        else:
            p[0] += c * a
            p[1] += c * b


def _mul_into(acc: dict, c: int, t1: Sequence[Term], t2: Sequence[Term], mask: int = 0) -> None:
    """Add c times the numerators of f1 f2 over 2 den(f1) den(f2) into
    ``acc`` at each product frequency plus ``mask``, for f1, f2 with terms
    t1, t2 whose keys are frequencies shifted alike."""
    # Product to sum: with x = a1 a2, y = b1 b2, u = a1 b2, v = b1 a2,
    # 2 f1 f2 = (x - y) cos(s) + (u + v) sin(s) + (x + y) cos(t) + (v - u) sin(t)
    # for s = k1 + k2 (always in the upper half) and t = k1 - k2,
    # flipped into the upper half by negating its sin part.
    get = acc.get
    for k1, a1, b1 in t1:
        if c != 1:
            a1 *= c
            b1 *= c
        ks = k1 + mask
        for k2, a2, b2 in t2:
            x = a1 * a2
            y = b1 * b2
            u = a1 * b2
            v = b1 * a2
            k = ks + k2
            p = get(k)
            if p is None:
                acc[k] = [x - y, u + v]
            else:
                p[0] += x - y
                p[1] += u + v
            k = k1 - k2
            if k > 0:
                k, s = k + mask, v - u
            elif k:
                k, s = mask - k, u - v
            else:
                k, s = mask, 0
            p = get(k)
            if p is None:
                acc[k] = [x + y, s]
            else:
                p[0] += x + y
                p[1] += s


def _partials(terms: Sequence[Term], dim: int, shift: int = 0) -> list[list[Term]]:
    """Per base coordinate j, the terms of d/dx_j, unreduced with their keys
    (frequencies above ``shift`` bits): d/dx_j (a cos + b sin) = k_j b cos - k_j a sin."""
    out: list[list[Term]] = [[] for _ in range(dim)]
    places = list(zip(out, range(64 * dim - 64 + shift, shift - 1, -64)))
    off = _CAP * (((1 << 64 * dim) - 1) // _DIGIT) << shift  # every digit k_j + 2**31 >= 0
    for p, a, b in terms:
        q = p + off
        for part, s in places:
            kj = (q >> s & _DIGIT) - _CAP
            if kj:
                part.append((p, kj * b, -kj * a))
    return out


def _affine_terms(terms: Sequence[Term], dim: int, a_rows: Sequence[Sequence[int]],
                  two_b: Sequence[int], shift: int = 0) -> Iterable[Term]:
    """The terms of f(A x + b), 2b integral, unmerged, for f's ``terms`` with
    keys k << ``shift``: kA flipped into the upper half, phases times (-1)^(k.2b)."""
    cols = list(zip(*a_rows))
    for key, a, b in terms:
        k = _unpack(key >> shift, dim)
        if sum(map(mul, k, two_b)) % 2:
            a, b = -a, -b
        p = _pack([sum(map(mul, k, col)) for col in cols])
        if p < 0:
            p, b = -p, -b
        elif not p:
            b = 0
        yield p << shift, a, b


def _wave(freq: Sequence[int], amp: Rat, sine: bool) -> FourierScalar:
    """amp * cos(2pi k.x), or amp * sin(2pi k.x) when ``sine``."""
    k, amp = [int(v) for v in freq], Fraction(amp)
    return FourierScalar.wave_sum(len(k), 0, [(k, amp.numerator, sine)], amp.denominator)


def _mask(key: Iterable[int]) -> int:
    return sum(1 << i for i in key)


def _key(mask: int) -> Key:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _sign(mask: int) -> int:
    """(-1) to the number of bits of ``mask``."""
    return -1 if mask.bit_count() & 1 else 1


@dataclass(unsafe_hash=True, slots=True)
class Form:
    """Inhomogeneous differential form on T^{cover_dim} whose coefficients
    depend only on the first ``cover_dim - 1`` coordinates: the terms
    (packed frequency << cover_dim | coordinate mask, a, b) over ``den``,
    canonical as in ``FourierScalar``."""

    cover_dim: int
    terms: tuple[Term, ...]
    den: int

    @staticmethod
    def make(cover_dim: int, mapping: Mapping[Key, FourierScalar]) -> "Form":
        """The form with the nonzero components of ``mapping``; ``ValueError``
        unless each of their keys is sorted, distinct and in range and each
        scalar lives on the base."""
        den = lcm(*(f.den for f in mapping.values()))
        items = []
        for key, f in sorted((k, f) for k, f in mapping.items() if f.terms):
            if any(i < 0 or i >= cover_dim for i in key):
                raise ValueError("coordinate index out of range")
            if tuple(sorted(set(key))) != key:
                raise ValueError("component keys must be sorted and distinct")
            if f.dim != cover_dim - 1:
                raise ValueError("scalar base dimension mismatch")
            m, c = _mask(key), den // f.den
            items += [(k << cover_dim | m, a * c, b * c) for k, a, b in f.terms]
        return Form(cover_dim, *_reduce(sorted(items), den))

    @staticmethod
    def zero(cover_dim: int) -> "Form":
        return Form(cover_dim, (), 1)

    @staticmethod
    def sum(cover_dim: int) -> "FormSum":
        return FormSum(cover_dim)

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

    def _groups(self) -> dict[int, list[Term]]:
        """Coordinate mask -> the terms of that component, mask cleared."""
        groups: dict[int, list[Term]] = {}
        for key, a, b in self.terms:
            m = key & ((1 << self.cover_dim) - 1)
            groups.setdefault(m, []).append((key ^ m, a, b))
        return groups

    def _scalar(self, t: list[Term]) -> FourierScalar:
        cd = self.cover_dim
        return FourierScalar(cd - 1, *_reduce([(k >> cd, a, b) for k, a, b in t], self.den))

    @property
    def components(self) -> tuple[tuple[Key, FourierScalar], ...]:
        """(key, scalar) per nonzero component, in key order."""
        return tuple(sorted((_key(m), self._scalar(t)) for m, t in self._groups().items()))

    def component(self, key: Key) -> FourierScalar:
        m = _mask(i for i in key if 0 <= i < self.cover_dim)
        return self._scalar(self._groups().get(m, []) if _key(m) == key else [])

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {(k & ((1 << self.cover_dim) - 1)).bit_count() for k, _, _ in self.terms}

    def __add__(self, o: "Form") -> "Form":
        return Form(self.cover_dim, *_lincomb(((1, self), (1, o))))

    def __sub__(self, o: "Form") -> "Form":
        return Form(self.cover_dim, *_lincomb(((1, self), (-1, o))))

    def __neg__(self) -> "Form":
        return self.scale_rat(-1)

    def scale_rat(self, c: Rat) -> "Form":
        return FormSum(self.cover_dim).add(Fraction(c), self).form()

    def scale(self, g: FourierScalar) -> "Form":
        return FormSum(self.cover_dim).scale(1, self, g).form()

    def wedge(self, o: "Form") -> "Form":
        return FormSum(self.cover_dim).wedge(1, self, o).form()

    def d(self) -> "Form":
        return FormSum(self.cover_dim).d(1, self).form()

    def interior(self, vf: "VectorField") -> "Form":
        return FormSum(self.cover_dim).interior(1, self, vf).form()

    def pullback(self, a_rows: Sequence[Sequence[int]], two_b: Sequence[int]) -> "Form":
        """Pullback along (x, theta) -> (Ax + b, -theta): dx_i goes to
        sum_j A_ij dx_j and dtheta to -dtheta."""
        cd, acc = self.cover_dim, {}
        rows = [[(j, a) for j, a in enumerate(row) if a] for row in a_rows] + [[(cd - 1, -1)]]
        for m, t in self._groups().items():  # signed by the permutation that sorts the new indices
            image = [(_mask(js), (-1) ** sum(i > j for i, j in combinations(js, 2))
                      * prod(a for _, a in choice))
                     for choice in product(*(rows[i] for i in _key(m)))
                     for js in [[j for j, _ in choice]] if len(set(js)) == len(js)]
            _add(acc, 1, [(key | m2, c * a, c * b) for key, a, b in
                          _affine_terms(t, cd - 1, a_rows, two_b, cd) for m2, c in image])
        return Form(cd, *_table(acc, self.den))

    def to_json_list(self) -> list:
        return [{"dx": list(k), "waves": f.to_json_list()} for k, f in self.components]

    @staticmethod
    def from_json_list(cover_dim: int, items: list) -> "Form":
        acc = {}
        for item in items:
            key = tuple(json_int(v, "dx") for v in item["dx"])
            acc[key] = FourierScalar.from_json_list(cover_dim - 1, item["waves"])
        return Form.make(cover_dim, acc)


class FormSum:
    """A sum of form terms: one key -> [a, b] table over a denominator that
    grows by lcm.  Each method adds c (int or Fraction) times one operation
    and returns the sum; ``form`` reduces once, checking frequencies for
    overflow if a product was added.  ``add`` also sums scalars' tables."""

    __slots__ = ("cover_dim", "acc", "den", "prod")

    def __init__(self, cover_dim: int) -> None:
        self.cover_dim, self.acc, self.den, self.prod = cover_dim, {}, 1, False

    def _times(self, c: Rat, den: int) -> int:
        """The multiplier that puts c times numerators over ``den`` over the
        sum's denominator, first grown by lcm to a multiple of den."""
        c, den = c.numerator, den * c.denominator
        if self.den % den:
            g = den // gcd(self.den, den)
            for p in self.acc.values():
                p[0], p[1] = p[0] * g, p[1] * g
            self.den *= g
        return c * (self.den // den)

    def add(self, c: Rat, w: Form) -> "FormSum":
        _add(self.acc, self._times(c, w.den), w.terms)
        return self

    def d(self, c: Rat, w: Form) -> "FormSum":
        # the fiber coordinate never appears
        cd, c = self.cover_dim, self._times(c, w.den)
        for j, part in enumerate(_partials(w.terms, cd - 1, cd)):
            _add(self.acc, c, [(k | 1 << j, -a, -b) if (k & ((1 << j) - 1)).bit_count() & 1
                               else (k | 1 << j, a, b) for k, a, b in part if not k >> j & 1])
        return self

    def interior(self, c: Rat, w: Form, vf: "VectorField") -> "FormSum":
        cd, (den, _, rows) = self.cover_dim, vf._rows
        c, self.prod = self._times(c, 2 * w.den * den), True
        for m, t in w._groups().items():
            for j in range(cd):
                if m >> j & 1:
                    _mul_into(self.acc, c * _sign(m & ((1 << j) - 1)), rows[j], t, m ^ 1 << j)
        return self

    def wedge(self, c: Rat, w1: Form, w2: Form) -> "FormSum":
        cd, groups = self.cover_dim, w2._groups().items()
        c, self.prod = self._times(c, 2 * w1.den * w2.den), True
        for m1, t1 in w1._groups().items():
            for m2, t2 in groups:
                if not m1 & m2:  # the sign sorts m1's indices followed by m2's
                    n = sum((m1 >> j + 1).bit_count() for j in range(cd) if m2 >> j & 1)
                    _mul_into(self.acc, -c if n % 2 else c, t1, t2, m1 | m2)
        return self

    def scale(self, c: Rat, w: Form, g: FourierScalar) -> "FormSum":
        cd, c, self.prod = self.cover_dim, self._times(c, 2 * w.den * g.den), True
        t2 = [(k << cd, a, b) for k, a, b in g.terms]
        for m, t in w._groups().items():
            _mul_into(self.acc, c, t2, t, m)
        return self

    def form(self) -> Form:
        cd = self.cover_dim
        return Form(cd, *_table(self.acc, self.den, cd - 1 if self.prod else 0, cd))


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

    @cached_property
    def _rows(self) -> tuple[int, list[Sequence[Term]], list[list[Term]]]:
        """(den, each component's terms over den, the same shifted as in forms)."""
        den, cd = lcm(*(f.den for f in self.components)), self.cover_dim
        rows = [f.terms if f.den == den else
                [(k, a * (den // f.den), b * (den // f.den)) for k, a, b in f.terms]
                for f in self.components]
        return den, rows, [[(k << cd, a, b) for k, a, b in row] for row in rows]

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

    def scale(self, g: FourierScalar) -> "VectorField":
        return VectorField(self.cover_dim, tuple(g * f for f in self.components))

    def apply(self, f: FourierScalar) -> FourierScalar:
        """Directional derivative of a base scalar."""
        den, rows, _ = self._rows
        acc: dict = {}
        for row, part in zip(rows, _partials(f.terms, f.dim)):  # the fiber adds nothing
            _mul_into(acc, 1, row, part)
        return FourierScalar(f.dim, *_table(acc, 2 * den * f.den, f.dim))

    def lie_bracket(self, o: "VectorField") -> "VectorField":
        # [X, Y]_k = sum over base j of X_j d_j Y_k - Y_j d_j X_k
        dim = self.cover_dim - 1
        (dx, xs, _), (dy, ys, _) = self._rows, o._rows
        out = []
        for xk, yk in zip(xs, ys):
            acc: dict = {}
            for c, rows, k in ((1, xs, yk), (-1, ys, xk)):
                for row, part in zip(rows, _partials(k, dim)):
                    _mul_into(acc, c, row, part)
            out.append(FourierScalar(dim, *_table(acc, 2 * dx * dy, dim)))
        return VectorField(self.cover_dim, tuple(out))

    def pushforward(self, a_rows: Sequence[Sequence[int]], two_b: Sequence[int]) -> "VectorField":
        """Image under the deck map (x, theta) -> (Ax + b, -theta); for an
        involution this is also the pullback."""
        d = self.cover_dim - 1
        moved = [f.compose_affine(a_rows, two_b) for f in self.components]
        return VectorField(self.cover_dim, tuple(
            FourierScalar(d, *_lincomb(zip(row, moved))) for row in a_rows) + (-moved[d],))


def lie_derivative(x: VectorField, w: Form) -> Form:
    """Cartan formula: L_X = i_X d + d i_X."""
    return w.d().interior(x) + w.interior(x).d()


def form_primitive(w: Form) -> Form:
    """A primitive of a closed form with vanishing constant modes, via the
    frequency-wise contraction homotopy."""
    if not w.d().is_zero():
        raise ValueError("form is not closed")
    cd, pieces = w.cover_dim, []
    for key, a, b in w.terms:
        k = _unpack(key >> cd, cd - 1)
        j = next((idx for idx, v in enumerate(k) if v), None)
        if j is None:
            raise ValueError("closed form has a constant mode; no primitive exists")
        if key >> j & 1:
            # (a cos + b sin) / den is d/dx_j of (-b cos + a sin) / (k_j den)
            s = _sign(key & ((1 << j) - 1))
            pieces.append((1, Form(cd, *_reduce([(key ^ 1 << j, -s * b, s * a)], w.den * k[j]))))
    out = Form(cd, *_lincomb(pieces))
    if not (out.d() - w).is_zero():
        raise ValueError("primitive construction failed")
    return out
