"""The packed frequency keys and the one-table forms of ``tdual.fourier``.

A frequency vector is one int of signed 64-bit digits, first entry most
significant, and every entry is capped at |k_i| < 2**31.  These tests
check the packing against plain tuples, the cap where a frequency enters
and where it grows, and that a form's table is canonical: equal forms
built along different paths compare and hash equal.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual.fourier import Form, FourierScalar, FrequencyOverflow, VectorField, _pack, _unpack

CAP = 2 ** 31
SETTINGS = settings(max_examples=200, deadline=None)


def vectors(dim, bound=CAP - 1):
    return st.tuples(*[st.integers(-bound, bound)] * dim)


@st.composite
def vector_pairs(draw):
    """Two vectors of one dimension 1-4 whose sum and difference stay
    inside the cap."""
    dim = draw(st.integers(1, 4))
    return draw(vectors(dim, CAP // 2 - 1)), draw(vectors(dim, CAP // 2 - 1))


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.integers(1, 4).flatmap(vectors))
def test_unpack_inverts_pack(k):
    assert _unpack(_pack(k), len(k)) == k


@SETTINGS
@given(vector_pairs())
def test_packed_sums_and_differences_are_int_sums(pair):
    k1, k2 = pair
    assert _pack(k1) + _pack(k2) == _pack(tuple(a + b for a, b in zip(k1, k2)))
    assert _pack(k1) - _pack(k2) == _pack(tuple(a - b for a, b in zip(k1, k2)))


@SETTINGS
@given(vector_pairs())
def test_sign_is_the_upper_half_and_order_is_tuple_order(pair):
    k1, k2 = pair
    zero = (0,) * len(k1)
    for k in (k1, k2):
        assert (_pack(k) > 0) == (k > zero)
        assert (_pack(k) == 0) == (k == zero)
    assert (_pack(k1) < _pack(k2)) == (k1 < k2)
    assert (_pack(k1) == _pack(k2)) == (k1 == k2)


# ---------------------------------------------------------------------------
# The frequency cap
# ---------------------------------------------------------------------------

def test_waves_reject_frequencies_past_the_cap():
    for freq in ((CAP, 0), (-CAP, 0), (0, CAP), (1, -CAP)):
        with pytest.raises(FrequencyOverflow, match="below 2\\*\\*31"):
            FourierScalar.cos_wave(freq)
        with pytest.raises(FrequencyOverflow):
            FourierScalar.sin_wave(freq)
    top = FourierScalar.cos_wave((CAP - 1, -(CAP - 1)))
    assert top.to_json_list()[0]["freq"] == [-(CAP - 1), CAP - 1]


def test_json_rejects_frequencies_past_the_cap():
    items = [{"freq": [CAP, 0], "re": "1/2", "im": "0"},
             {"freq": [-CAP, 0], "re": "1/2", "im": "0"}]
    with pytest.raises(FrequencyOverflow):
        FourierScalar.from_json_list(2, items)
    with pytest.raises(ValueError):  # the cap error is a ValueError
        Form.from_json_list(3, [{"dx": [0], "waves": items}])
    items[0]["freq"], items[1]["freq"] = [CAP - 1, 0], [-(CAP - 1), 0]
    assert FourierScalar.from_json_list(2, items) == FourierScalar.cos_wave((CAP - 1, 0))


def test_compose_affine_rejects_images_past_the_cap():
    f = FourierScalar.cos_wave((2 ** 30, 1))
    double = ((2, 0), (0, 1))
    with pytest.raises(FrequencyOverflow):
        f.compose_affine(double, (0, 0))
    assert f.compose_affine(((1, 0), (0, 1)), (0, 0)) == f


def test_products_reject_frequencies_past_the_cap():
    # a difference reaching -2**31 in a later entry is past the cap too
    with pytest.raises(FrequencyOverflow):
        FourierScalar.cos_wave((1, -(CAP - 1))) * FourierScalar.cos_wave((0, 1))
    x = Form.dx(3, 0, FourierScalar.cos_wave((CAP - 1, 0)))
    y = Form.dx(3, 1, FourierScalar.cos_wave((1, 0)))
    with pytest.raises(FrequencyOverflow):
        x.wedge(y)


def test_chebyshev_doubling_stops_at_the_cap():
    """g <- 2 g g - 1 doubles the frequency of cos(2**28 x); the step that
    would reach 2**31 raises."""
    two, one = FourierScalar.const(1, 2), FourierScalar.const(1, 1)
    g = FourierScalar.cos_wave((2 ** 28,))
    for e in (29, 30):
        g = two * g * g - one
        assert g == FourierScalar.cos_wave((2 ** e,))
    with pytest.raises(FrequencyOverflow):
        two * g * g - one


@st.composite
def near_cap_scalars(draw, dim):
    """cos(2pi k.x) or half of it, each k_i one of 0, +-1, +-2**30 and
    +-(2**31 - 1), so that a sum of two frequencies may reach the cap."""
    entries = st.sampled_from((0, 1, -1, CAP // 2, -CAP // 2, CAP - 1, -(CAP - 1)))
    return FourierScalar.cos_wave(draw(st.tuples(*[entries] * dim)),
                                  draw(st.sampled_from((1, Fraction(1, 2)))))


@st.composite
def near_cap_forms(draw, cd):
    keys = [key for p in range(cd + 1) for key in combinations(range(cd), p)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True))
    return Form.make(cd, {key: draw(near_cap_scalars(cd - 1)) for key in chosen})


def multiplied(op, args):
    """The (scalar, scalar) pairs whose products the form operation ``op``
    adds up."""
    if op == "interior":
        return [(args[1].components[j], f) for key, f in args[0].components for j in key]
    if op == "wedge":
        return [(f, g) for k1, f in args[0].components for k2, g in args[1].components
                if not set(k1) & set(k2)]
    return [(args[1], f) for _, f in args[0].components] if op == "scale" else []


def alone(op, args):
    """The form operation ``op`` on ``args``, reduced on its own."""
    return args[0] if op == "add" else getattr(args[0], op)(*args[1:])


def reaches_cap(f, g):
    """Whether some k1 + k2, k1 a frequency of f and k2 one of g, each
    with its negative, has an entry of 2**31 or more in absolute value."""
    freqs = [[e["freq"] for e in h.to_json_list()] for h in (f, g)]
    return any(abs(a + b) >= CAP for k1 in freqs[0] for k2 in freqs[1] for a, b in zip(k1, k2))


@SETTINGS
@given(st.data(), st.integers(2, 3))
def test_form_sums_overflow_exactly_when_their_terms_do(data, cd):
    """``Form.sum`` raises ``FrequencyOverflow`` exactly when one of its
    products reaches the cap, as each operation then does on its own, and
    otherwise equals the sum of its terms."""
    w, v = data.draw(near_cap_forms(cd)), data.draw(near_cap_forms(cd))
    x = VectorField(cd, tuple(data.draw(near_cap_scalars(cd - 1)) for _ in range(cd)))
    g = data.draw(near_cap_scalars(cd - 1))
    terms = data.draw(st.lists(st.sampled_from((
        ("add", (w,)), ("d", (v,)), ("interior", (w, x)), ("wedge", (w, v)), ("scale", (v, g)))),
        min_size=1, max_size=4))
    acc, separate = Form.sum(cd), Form.zero(cd)
    for op, args in terms:
        getattr(acc, op)(1, *args)
        if any(reaches_cap(f, h) for f, h in multiplied(op, args)):
            with pytest.raises(FrequencyOverflow):
                alone(op, args)
            separate = None
        elif separate is not None:
            separate = separate + alone(op, args)
    if separate is None:
        with pytest.raises(FrequencyOverflow):
            acc.form()
    else:
        assert acc.form() == separate


# ---------------------------------------------------------------------------
# One canonical table per form
# ---------------------------------------------------------------------------

@st.composite
def scalars(draw, dim):
    out = FourierScalar.zero(dim)
    for _ in range(draw(st.integers(0, 3))):
        freq = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
        amp = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3))))
        wave = FourierScalar.sin_wave if draw(st.booleans()) else FourierScalar.cos_wave
        out = out + wave(freq, amp)
    return out


@st.composite
def forms(draw, cd, degrees=None):
    keys = [key for p in (degrees or range(cd + 1)) for key in combinations(range(cd), p)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    return Form.make(cd, {key: draw(scalars(cd - 1)) for key in chosen})


@SETTINGS
@given(st.data(), st.integers(2, 4))
def test_sums_in_any_order_are_one_table(data, cd):
    u, v, w = (data.draw(forms(cd)) for _ in range(3))
    left, right = (u + v) + w, u + (v + w)
    assert left == right and hash(left) == hash(right)
    assert (u - v) + v == u
    assert (u + v) - (v + u) == Form.zero(cd)


@SETTINGS
@given(st.data(), st.integers(2, 4))
def test_one_forms_anticommute(data, cd):
    u, v = (data.draw(forms(cd, (1,))) for _ in range(2))
    assert u.wedge(v) == -v.wedge(u)
    assert hash(u.wedge(v)) == hash((-v).wedge(u))
    assert u.wedge(u).is_zero()


@SETTINGS
@given(st.data(), st.integers(2, 4))
def test_components_rebuild_the_form(data, cd):
    w = data.draw(forms(cd))
    assert Form.make(cd, dict(w.components)) == w
    for key, f in w.components:
        assert w.component(key) == f
    assert w.degrees() == {len(key) for key, _ in w.components}
