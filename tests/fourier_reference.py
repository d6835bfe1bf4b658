"""Full-spectrum reference for the Fourier calculus.

The Gaussian-rational ``GaussQ``/``FourierScalar`` and the ``Form``,
``VectorField``, ``lie_derivative`` and ``form_primitive`` that
``tdual.fourier`` used before scalars stored only the half spectrum as
integer cos/sin numerators, kept verbatim as a test oracle, plus
``FormSum``, which sums compound form expressions one reference operation
and one merge per term.  The differential tests require ``tdual.fourier``
to produce exactly the same ``to_json_list`` output.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def __add__(self, o: "GaussQ") -> "GaussQ":
        return GaussQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GaussQ") -> "GaussQ":
        return GaussQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "GaussQ") -> "GaussQ":
        return GaussQ(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    def __neg__(self) -> "GaussQ":
        return GaussQ(-self.re, -self.im)

    def conj(self) -> "GaussQ":
        return GaussQ(self.re, -self.im)

    def scale(self, c: Rat) -> "GaussQ":
        c = Fraction(c)
        return GaussQ(self.re * c, self.im * c)

    def times_i(self, k: int = 1) -> "GaussQ":
        # multiply by i*k
        return GaussQ(-self.im * k, self.re * k)

    def div_ik(self, k: int) -> "GaussQ":
        # divide by i*k: multiply by -i/k
        return GaussQ(self.im / k, -self.re / k)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


_ZERO = GaussQ(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class FourierScalar:
    """Finite Fourier sum over Z^dim with Gaussian-rational coefficients."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], GaussQ], ...]

    def __post_init__(self) -> None:
        coeff = dict(self.terms)
        for k, c in self.terms:
            if len(k) != self.dim:
                raise ValueError("frequency arity mismatch")
            mk = tuple(-x for x in k)
            other = coeff.get(mk, _ZERO)
            if other != c.conj():
                raise ValueError("reality violated: coefficient at -k must conjugate")

    @staticmethod
    def make(dim: int, mapping: Mapping[tuple[int, ...], GaussQ]) -> "FourierScalar":
        items = tuple(sorted((k, c) for k, c in mapping.items() if c))
        return FourierScalar(dim, items)

    @staticmethod
    def zero(dim: int) -> "FourierScalar":
        return FourierScalar(dim, ())

    @staticmethod
    def const(dim: int, value: Rat) -> "FourierScalar":
        v = Fraction(value)
        if v == 0:
            return FourierScalar.zero(dim)
        return FourierScalar(dim, (((0,) * dim, GaussQ.of(v)),))

    @staticmethod
    def cos_wave(freq: Sequence[int], amp: Rat = 1) -> "FourierScalar":
        k = tuple(int(v) for v in freq)
        a = Fraction(amp) / 2
        d = len(k)
        if all(v == 0 for v in k):
            return FourierScalar.const(d, amp)
        mk = tuple(-v for v in k)
        return FourierScalar.make(d, {k: GaussQ.of(a), mk: GaussQ.of(a)})

    @staticmethod
    def sin_wave(freq: Sequence[int], amp: Rat = 1) -> "FourierScalar":
        k = tuple(int(v) for v in freq)
        a = Fraction(amp) / 2
        d = len(k)
        if all(v == 0 for v in k):
            return FourierScalar.zero(d)
        mk = tuple(-v for v in k)
        return FourierScalar.make(d, {k: GaussQ.of(0, -a), mk: GaussQ.of(0, a)})

    @staticmethod
    def wave_sum(dim: int, const: int, waves, den: int = 1) -> "FourierScalar":
        out = FourierScalar.const(dim, Fraction(const, den))
        for freq, amp, sine in waves:
            wave = FourierScalar.sin_wave if sine else FourierScalar.cos_wave
            out = out + wave(freq, Fraction(amp, den))
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o: "FourierScalar") -> "FourierScalar":
        acc = dict(self.terms)
        for k, c in o.terms:
            acc[k] = acc.get(k, _ZERO) + c
        return FourierScalar.make(self.dim, acc)

    def __sub__(self, o: "FourierScalar") -> "FourierScalar":
        return self + o.scale(-1)

    def __mul__(self, o: "FourierScalar") -> "FourierScalar":
        acc: dict[tuple[int, ...], GaussQ] = {}
        for k1, c1 in self.terms:
            for k2, c2 in o.terms:
                k = tuple(a + b for a, b in zip(k1, k2))
                c = c1 * c2
                if k in acc:
                    acc[k] = acc[k] + c
                else:
                    acc[k] = c
        return FourierScalar.make(self.dim, acc)

    def scale(self, c: Rat) -> "FourierScalar":
        return FourierScalar.make(self.dim, {k: v.scale(c) for k, v in self.terms})

    def __neg__(self) -> "FourierScalar":
        return self.scale(-1)

    def partial(self, j: int) -> "FourierScalar":
        return FourierScalar.make(self.dim, {k: c.times_i(k[j]) for k, c in self.terms})

    def compose_affine(self, a_rows: Sequence[Sequence[int]],
                       two_b: Sequence[int]) -> "FourierScalar":
        """f(A x + b) with 2b integral; phases stay exact signs."""
        acc: dict[tuple[int, ...], GaussQ] = {}
        for k, c in self.terms:
            newk = tuple(sum(k[i] * a_rows[i][j] for i in range(self.dim))
                         for j in range(self.dim))
            phase = sum(ki * bi for ki, bi in zip(k, two_b))
            cc = c if phase % 2 == 0 else -c
            acc[newk] = acc.get(newk, _ZERO) + cc
        return FourierScalar.make(self.dim, acc)

    def constant_term(self) -> GaussQ:
        for k, c in self.terms:
            if all(v == 0 for v in k):
                return c
        return _ZERO

    def to_json_list(self) -> list:
        return [{"freq": list(k), "re": str(c.re), "im": str(c.im)}
                for k, c in self.terms]

    @staticmethod
    def from_json_list(dim: int, items: list) -> "FourierScalar":
        acc = {}
        for item in items:
            k = tuple(int(v) for v in item["freq"])
            acc[k] = GaussQ(Fraction(item["re"]), Fraction(item.get("im", "0")))
        return FourierScalar.make(dim, acc)


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


class FormSum:
    """The sum of c times each added operation's result, each term built
    by its own reference operation and merged into the total at once."""

    def __init__(self, cover_dim: int) -> None:
        self.total = Form.zero(cover_dim)

    def _merge(self, c: Rat, w: Form) -> "FormSum":
        self.total = self.total + w.scale_rat(c)
        return self

    def add(self, c: Rat, w: Form) -> "FormSum":
        return self._merge(c, w)

    def d(self, c: Rat, w: Form) -> "FormSum":
        return self._merge(c, w.d())

    def interior(self, c: Rat, w: Form, vf: "VectorField") -> "FormSum":
        return self._merge(c, w.interior(vf))

    def wedge(self, c: Rat, w1: Form, w2: Form) -> "FormSum":
        return self._merge(c, w1.wedge(w2))

    def scale(self, c: Rat, w: Form, g: FourierScalar) -> "FormSum":
        return self._merge(c, w.scale(g))

    def form(self) -> Form:
        return self.total


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
    acc: dict[Key, dict[tuple[int, ...], GaussQ]] = {}
    base_dim = w.cover_dim - 1
    for key, f in w.components:
        for k, c in f.terms:
            j = next((idx for idx, v in enumerate(k) if v), None)
            if j is None:
                raise ValueError("closed form has a constant mode; no primitive exists")
            if j not in key:
                continue
            new, sign = _delete_sign(key, j)
            bucket = acc.setdefault(new, {})
            add = c.div_ik(k[j]).scale(sign)
            bucket[k] = bucket.get(k, _ZERO) + add
    out = Form.make(w.cover_dim,
                    {key: FourierScalar.make(base_dim, bucket)
                     for key, bucket in acc.items()})
    if not (out.d() - w).is_zero():
        raise ValueError("primitive construction failed")
    return out
