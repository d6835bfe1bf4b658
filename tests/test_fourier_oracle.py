"""Differential tests: the half-spectrum ``FourierScalar`` with integer
cos/sin numerators against the Gaussian full-spectrum code kept in
``fourier_reference``.

Every result must serialize to exactly the same ``to_json_list`` output:
scalars of dimension 1-3 with frequencies in -3..3 and amplitudes over
denominators 1, 2, 3 and 5 under + - * scale neg partial compose_affine
constant_term (decks: the identity, the half-shift and the reflection,
plus one map that sends nonzero frequencies to zero), forms and vector
fields under scale wedge d interior pullback lie_derivative form_primitive,
sums of those operations built in one ``Form.sum`` accumulator, and the
symbolic Courant layer on the standard contexts.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourier_reference as ref
from tdual import courant
from tdual.courant import random_form, random_section, run_context_checks, standard_contexts
from tdual.fourier import (
    Form,
    FourierScalar,
    VectorField,
    form_primitive,
    lie_derivative,
)

DENS = (1, 2, 3, 5)
SETTINGS = settings(max_examples=100, deadline=None)


def decks(dim):
    """The identity, the half-shift and the reflection (x0 + 1/2, -x_last)."""
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    shift = (1,) + (0,) * (dim - 1)
    refl = tuple(tuple((-1 if i == dim - 1 else 1) * int(i == j) for j in range(dim))
                 for i in range(dim))
    return [(ident, (0,) * dim), (ident, shift), (refl, shift)]


def affine_maps(dim):
    """The decks, plus x -> (sum of x, 0, ...), which sends some nonzero
    frequencies to zero."""
    collapse = tuple((1,) + (0,) * (dim - 1) for _ in range(dim))
    return decks(dim) + [(collapse, (1,) * dim)]


def rationals():
    return st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENS))


@st.composite
def spectra(draw, dim):
    """A real Gaussian spectrum: conjugate coefficients at k and -k."""
    mapping = {}
    for _ in range(draw(st.integers(0, 4))):
        k = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
        re, im = draw(rationals()), draw(rationals())
        if not any(k):
            im = Fraction(0)
        mapping[k] = (re, im)
        mapping[tuple(-v for v in k)] = (re, -im)
    return mapping


def as_json(mapping):
    return [{"freq": list(k), "re": str(re), "im": str(im)} for k, (re, im) in mapping.items()]


def scalar_pair(mapping, dim):
    new = FourierScalar.from_json_list(dim, as_json(mapping))
    old = ref.FourierScalar.make(dim, {k: ref.GaussQ(re, im)
                                       for k, (re, im) in mapping.items()})
    assert new.to_json_list() == old.to_json_list()
    return new, old


@st.composite
def scalars(draw, dim):
    return scalar_pair(draw(spectra(dim)), dim)


@st.composite
def forms(draw, dim):
    cd = dim + 1
    keys = draw(st.lists(st.sampled_from(sorted(
        tuple(j for j in range(cd) if mask >> j & 1) for mask in range(1 << cd))),
        max_size=3, unique=True))
    pairs = {key: draw(scalars(dim)) for key in keys}
    return (Form.make(cd, {k: p[0] for k, p in pairs.items()}),
            ref.Form.make(cd, {k: p[1] for k, p in pairs.items()}))


@st.composite
def fields(draw, dim):
    pairs = [draw(scalars(dim)) for _ in range(dim + 1)]
    return (VectorField(dim + 1, tuple(p[0] for p in pairs)),
            ref.VectorField(dim + 1, tuple(p[1] for p in pairs)))


def same(new, old):
    """Identical JSON, and identical fields once the reference JSON is read
    back, which also catches a stray sin part at k = 0 that the JSON drops."""
    assert new.to_json_list() == old.to_json_list()
    dim = new.dim if isinstance(new, FourierScalar) else new.cover_dim
    assert type(new).from_json_list(dim, old.to_json_list()) == new


def same_field(new, old):
    assert len(new.components) == len(old.components)
    for a, b in zip(new.components, old.components):
        same(a, b)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_scalar_operations_match_reference(data, dim):
    f, F = data.draw(scalars(dim))
    g, G = data.draw(scalars(dim))
    c = data.draw(rationals())
    same(f + g, F + G)
    same(f - g, F - G)
    same(f * g, F * G)
    same(f.scale(c), F.scale(c))
    same(-f, -F)
    for j in range(dim):
        same(f.partial(j), F.partial(j))
    for a_rows, two_b in affine_maps(dim):
        same(f.compose_affine(a_rows, two_b), F.compose_affine(a_rows, two_b))
    const, CONST = f.constant_term(), F.constant_term()
    assert (const, Fraction(0)) == (CONST.re, CONST.im)
    assert f.is_zero() == F.is_zero()
    assert FourierScalar.from_json_list(dim, F.to_json_list()) == f


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_scalar_op_chains_match_reference(data, dim):
    """Longer expressions: growing denominators, cancellation, reuse."""
    pool = [data.draw(scalars(dim)) for _ in range(3)]
    for _ in range(6):
        (f, F), (g, G) = (pool[data.draw(st.integers(0, len(pool) - 1))]
                          for _ in range(2))
        op = data.draw(st.sampled_from(("add", "sub", "mul", "scale", "neg",
                                        "partial", "compose")))
        if op == "add":
            out = (f + g, F + G)
        elif op == "sub":
            out = (f - g, F - G)
        elif op == "mul":
            out = (f * g, F * G)
        elif op == "scale":
            c = data.draw(rationals())
            out = (f.scale(c), F.scale(c))
        elif op == "neg":
            out = (-f, -F)
        elif op == "partial":
            j = data.draw(st.integers(0, dim - 1))
            out = (f.partial(j), F.partial(j))
        else:
            a_rows, two_b = data.draw(st.sampled_from(affine_maps(dim)))
            out = (f.compose_affine(a_rows, two_b), F.compose_affine(a_rows, two_b))
        same(*out)
        pool.append(out)


def test_waves_and_constants_match_reference():
    for freq in [(0, 0), (1, 0), (-1, 2), (0, -3), (2, -1)]:
        for amp in (1, -2, Fraction(3, 5), 0):
            same(FourierScalar.cos_wave(freq, amp), ref.FourierScalar.cos_wave(freq, amp))
            same(FourierScalar.sin_wave(freq, amp), ref.FourierScalar.sin_wave(freq, amp))
    for v in (0, 1, -3, Fraction(-7, 2)):
        same(FourierScalar.const(2, v), ref.FourierScalar.const(2, v))
    for const, waves, den in [(2, [((1, 0), 1, False), ((-1, 0), 3, True)], 1),
                              (0, [((1, -1), 2, True), ((-1, 1), 2, True)], 3),  # they cancel
                              (-1, [((0, 0), 5, True), ((0, 2), -4, False)], 2),
                              (2, [((0, 1), 4, False), ((0, -1), 2, False)], 2)]:
        same(FourierScalar.wave_sum(2, const, waves, den),
             ref.FourierScalar.wave_sum(2, const, waves, den))
    same(FourierScalar.zero(3), ref.FourierScalar.zero(3))


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_non_real_spectra_are_rejected_like_the_reference(data, dim):
    mapping = data.draw(spectra(dim))
    k = tuple(data.draw(st.integers(-3, 3)) for _ in range(dim))
    re, im = data.draw(rationals()), data.draw(rationals())
    mapping[k] = (re, im)
    old_terms = tuple(sorted((k, ref.GaussQ(re, im)) for k, (re, im) in mapping.items()))
    try:
        old = ref.FourierScalar(dim, old_terms)
    except ValueError:
        with pytest.raises(ValueError):
            FourierScalar.from_json_list(dim, as_json(mapping))
    else:
        # the reference keeps a zero coefficient given to it directly
        assert FourierScalar.from_json_list(dim, as_json(mapping)).to_json_list() == \
            [e for e in old.to_json_list() if e["re"] != "0" or e["im"] != "0"]


# ---------------------------------------------------------------------------
# Forms and vector fields
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_form_operations_match_reference(data, dim):
    w, W = data.draw(forms(dim))
    v, V = data.draw(forms(dim))
    x, X = data.draw(fields(dim))
    y, Y = data.draw(fields(dim))
    g, G = data.draw(scalars(dim))
    same(w.scale(g), W.scale(G))
    same_field(x.scale(g), X.scale(G))
    same(w.wedge(v), W.wedge(V))
    same(w.d(), W.d())
    same(w.interior(x), W.interior(X))
    for a_rows, two_b in decks(dim):
        same(w.pullback(a_rows, two_b), W.pullback(a_rows, two_b))
        same_field(x.pushforward(a_rows, two_b), X.pushforward(a_rows, two_b))
    same(lie_derivative(x, w), ref.lie_derivative(X, W))
    same_field(x.lie_bracket(y), X.lie_bracket(Y))
    same(x.apply(w.component(())), X.apply(W.component(())))
    closed, CLOSED = w.d(), W.d()
    same(form_primitive(closed), ref.form_primitive(CLOSED))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_form_primitive_errors_match_reference(data, dim):
    w, W = data.draw(forms(dim))
    try:
        expected = ref.form_primitive(W)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            form_primitive(w)
    else:
        same(form_primitive(w), expected)


OPS = ("add", "d", "interior", "wedge", "scale")


def operands(op, w, v, x, g):
    """The operands that ``FormSum``'s ``op`` takes after its multiplier."""
    return {"add": (w,), "d": (w,), "interior": (w, x), "wedge": (w, v), "scale": (w, g)}[op]


def alone(op, w, v, x, g):
    """``op``'s result on its own, through the ``Form`` method."""
    return w if op == "add" else getattr(w, op)(*operands(op, w, v, x, g)[1:])


@st.composite
def sum_terms(draw, dim):
    """Up to six terms (c, op, our operands, the reference's) over forms of
    mixed denominators, c an integer or a fraction."""
    (w, W), (v, V) = draw(forms(dim)), draw(forms(dim))
    (x, X), (g, G) = draw(fields(dim)), draw(scalars(dim))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        op, c = draw(st.sampled_from(OPS)), draw(st.one_of(st.integers(-3, 3), rationals()))
        first = draw(st.booleans())  # either form may come first
        ours, theirs = ((w, v), (W, V)) if first else ((v, w), (V, W))
        terms.append((c, op, ours + (x, g), theirs + (X, G)))
    return terms


def summed(form_cls, cd, terms, side):
    """The terms summed in one ``form_cls.sum``, with our operands (side 2)
    or the reference's (side 3)."""
    acc = form_cls.sum(cd)
    for term in terms:
        getattr(acc, term[1])(term[0], *operands(term[1], *term[side]))
    return acc.form()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_form_sums_match_reference_and_separate_operations(data, dim):
    """One accumulator equals the reference's, which merges one reference
    operation at a time, and the sum of the operations each reduced on its
    own; with every term also added negated it is the zero form."""
    cd, terms = dim + 1, data.draw(sum_terms(dim))
    out = summed(Form, cd, terms, 2)
    same(out, summed(ref.Form, cd, terms, 3))
    separate = Form.zero(cd)
    for c, op, ours, _ in terms:
        separate = separate + alone(op, *ours).scale_rat(c)
    assert out == separate
    negated = [(-c, op, ours, theirs) for c, op, ours, theirs in terms]
    assert summed(Form, cd, terms + negated, 2) == Form.zero(cd)


# ---------------------------------------------------------------------------
# The Courant layer on the standard contexts
# ---------------------------------------------------------------------------

CHECK_NAMES = [
    "bracket Leibniz identity over itself",
    "anchor respects brackets",
    "bracket Leibniz rule for function multiples",
    "symmetrized bracket is the pairing differential",
    "anchor differentiates the pairing",
    "derived-bracket identity",
    "twisted differential squares to zero",
    "swap preserves the pairing and is an involution",
    "swap intertwines the brackets",
    "transform anti-commutes with the Clifford action",
    "transform anti-commutes with the twisted differential",
    "reverse transform inverts with a sign",
]


def use_reference(m):
    """Point the Courant layer at the reference classes."""
    for name in ("Form", "FourierScalar", "VectorField"):
        m.setattr(courant, name, getattr(ref, name))


def context_outputs(ctx):
    return [ctx.to_json_dict(), ctx.dual().to_json_dict(),
            ctx.flux_h().to_json_list(), ctx.ahat.to_json_list()]


def test_standard_context_json_matches_reference(monkeypatch):
    new = [(name, context_outputs(ctx)) for name, ctx in standard_contexts()]
    with monkeypatch.context() as m:
        use_reference(m)
        old = [(name, context_outputs(ctx)) for name, ctx in standard_contexts()]
    assert new == old


def textbook_bracket(s1, s2, ctx):
    """([X, Y], L_X m - i_Y d l + i_Y i_X H) through the reference Cartan
    formula, unfactored."""
    x, y = s1.vec, s2.vec
    form = (ref.lie_derivative(x, s2.form) - s1.form.d().interior(y)
            + ctx.flux_h().interior(x).interior(y))
    return courant.GeneralizedSection(x.lie_bracket(y), form)


def courant_outputs(ctx, bracket=courant.dorfman):
    rng = random.Random(7)
    a, b = random_section(rng, ctx), random_section(rng, ctx)
    w = random_form(rng, ctx, 1)
    br = bracket(a, b, ctx)
    swapped = courant.bracket_swap(br, ctx)
    out = [courant.clifford(br, w), courant.hori_forms(w, ctx),
           courant.twisted_d(w, ctx), swapped.form, br.form, courant.pairing(a, b)]
    return ([o.to_json_list() for o in out]
            + [[f.to_json_list() for f in s.vec.components] for s in (br, swapped)])


def test_courant_operations_match_reference(monkeypatch):
    """The factored bracket against the textbook one on the reference classes."""
    new = [courant_outputs(ctx) for _, ctx in standard_contexts()]
    with monkeypatch.context() as m:
        use_reference(m)
        old = [courant_outputs(ctx, textbook_bracket) for _, ctx in standard_contexts()]
    assert new == old


@pytest.mark.parametrize("seed", range(7, 12))
def test_check_lists_of_the_standard_contexts(seed):
    """The reference passes every check at these seeds; it is not rerun
    here because it takes about 25 s for the five seeds (Python 3.11, one
    core of a 2-CPU x86-64 host)."""
    for name, ctx in standard_contexts():
        report = run_context_checks(ctx, sections=3, seed=seed, label=name)
        assert report.checks == [(n, True) for n in CHECK_NAMES]
