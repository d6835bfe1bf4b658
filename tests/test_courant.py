import random
from fractions import Fraction

import pytest

from tdual import courant, fourier
from tdual.courant import (
    EquivariantContext,
    GeneralizedSection,
    bracket_swap,
    check_phi_intertwines,
    clifford,
    derived_bracket_check,
    dorfman,
    fiber_inversion,
    hori_forms,
    pairing,
    phi_swap,
    project_section,
    random_form,
    random_scalar,
    random_section,
    run_context_checks,
    section_is_invariant,
    standard_contexts,
    twisted_d,
)
from tdual.fourier import Form, FourierScalar, VectorField, form_primitive, lie_derivative

CD = 3


def flat_context():
    return EquivariantContext(2, ((1, 0), (0, 1)), (1, 0),
                              Form.zero(CD), Form.zero(CD), Form.zero(CD))


def flux_context():
    return standard_contexts()[0][1]


def curved_context():
    return standard_contexts()[1][1]


# ---------------------------------------------------------------------------
# Exact scalar and form calculus
# ---------------------------------------------------------------------------

def test_scalar_arithmetic_and_derivative():
    f = FourierScalar.cos_wave((1, 0))
    assert (f.partial(0) + FourierScalar.sin_wave((1, 0))).is_zero()
    g = FourierScalar.sin_wave((0, 2))
    assert (g.partial(1) - FourierScalar.cos_wave((0, 2), 2)).is_zero()
    assert ((f * g) - (g * f)).is_zero()


def test_reality_enforced():
    with pytest.raises(ValueError):
        FourierScalar.from_json_list(2, [{"freq": [1, 0], "re": "1", "im": "1"}])


def test_form_calculus():
    rng = random.Random(0)
    ctx = curved_context()
    for deg in (0, 1, 2):
        w = random_form(rng, ctx, deg, invariant=False)
        assert w.d().d().is_zero()
    a = Form.dx(CD, 0, FourierScalar.cos_wave((1, 1)))
    b = Form.dx(CD, 1, FourierScalar.sin_wave((2, 0)))
    assert (a.wedge(b) + b.wedge(a)).is_zero()


@pytest.mark.parametrize("key, dim, reason", [
    ((3,), 2, "coordinate index out of range"),
    ((-1,), 2, "coordinate index out of range"),
    ((1, 0), 2, "component keys must be sorted and distinct"),
    ((1, 1), 2, "component keys must be sorted and distinct"),
    ((0,), 1, "scalar base dimension mismatch"),
])
def test_form_make_checks_component_keys(key, dim, reason):
    with pytest.raises(ValueError, match=reason):
        Form.make(CD, {key: FourierScalar.cos_wave((1,) * dim)})
    # zero components are dropped before the checks
    assert Form.make(CD, {key: FourierScalar.zero(dim)}).is_zero()


def test_form_primitive():
    fl = Form.dx(CD, 0, FourierScalar.sin_wave((1, 0))).wedge(Form.dx(CD, 1))
    pr = form_primitive(fl)
    assert (pr.d() - fl).is_zero()
    with pytest.raises(ValueError):
        form_primitive(Form.dx(CD, 0).wedge(Form.dx(CD, 1)))  # constant mode


def test_context_validation():
    with pytest.raises(ValueError):
        # non-involutive deck
        EquivariantContext(2, ((1, 1), (0, 1)), (0, 0),
                           Form.zero(CD), Form.zero(CD), Form.zero(CD))
    with pytest.raises(ValueError):
        # invariant (not anti-invariant) potential
        bad = Form.dx(CD, 0, FourierScalar.cos_wave((2, 0)))
        EquivariantContext(2, ((1, 0), (0, 1)), (1, 0),
                           bad, Form.zero(CD), Form.zero(CD))


def test_context_json_round_trip():
    ctx = curved_context()
    obj = ctx.to_json_dict()
    back = EquivariantContext.from_json_dict(obj)
    assert back.deck_a == ctx.deck_a and back.deck_two_b == ctx.deck_two_b
    assert (back.a - ctx.a).is_zero()
    # the primitive may differ by a closed anti-invariant form, but the
    # flux must reproduce exactly
    assert (back.flux_fhat() - ctx.flux_fhat()).is_zero()
    assert (back.h3 - ctx.h3).is_zero()


# ---------------------------------------------------------------------------
# Bracket basics
# ---------------------------------------------------------------------------

def test_coordinate_fields_commute_flat():
    ctx = flat_context()
    s1 = GeneralizedSection(VectorField.coordinate(CD, 0), Form.zero(CD))
    s2 = GeneralizedSection(VectorField.coordinate(CD, 1), Form.zero(CD))
    assert dorfman(s1, s2, ctx).is_zero()


def test_flux_term_of_the_bracket():
    # with H carrying a dx^dy^dtheta component the bracket of the two base
    # coordinate fields produces its double contraction
    ctx = flux_context()
    s1 = GeneralizedSection(VectorField.coordinate(CD, 0), Form.zero(CD))
    s2 = GeneralizedSection(VectorField.coordinate(CD, 1), Form.zero(CD))
    br = dorfman(s1, s2, ctx)
    assert all(c.is_zero() for c in br.vec.components)
    expect = ctx.flux_h().interior(s1.vec).interior(s2.vec)
    assert (br.form - expect).is_zero()


def test_bracket_function_linearity_axiom():
    ctx = curved_context()
    rng = random.Random(1)
    for _ in range(4):
        a = random_section(rng, ctx)
        b = random_section(rng, ctx)
        f = FourierScalar.cos_wave((2, 0), 1) + FourierScalar.const(2, 2)
        lhs = dorfman(a, b.scale(f), ctx)
        rhs = b.scale(a.vec.apply(f)) + dorfman(a, b, ctx).scale(f)
        assert (lhs - rhs).is_zero()


def test_sections_project_to_invariant():
    ctx = curved_context()
    rng = random.Random(2)
    for _ in range(4):
        s = random_section(rng, ctx)
        assert section_is_invariant(s, ctx)
        assert section_is_invariant(dorfman(s, s, ctx), ctx)


# ---------------------------------------------------------------------------
# Clifford action and twisted differential
# ---------------------------------------------------------------------------

def test_clifford_basics():
    one = Form.one(CD)
    sx = GeneralizedSection(VectorField.zero(CD), Form.dx(CD, 0))
    assert (clifford(sx, one) - Form.dx(CD, 0)).is_zero()
    sv = GeneralizedSection(VectorField.coordinate(CD, 0), Form.zero(CD))
    wxy = Form.dx(CD, 0).wedge(Form.dx(CD, 1))
    assert (clifford(sv, wxy) - Form.dx(CD, 1)).is_zero()


def test_clifford_relation():
    ctx = curved_context()
    rng = random.Random(3)
    for deg in (0, 1, 2):
        u, v = random_section(rng, ctx), random_section(rng, ctx)
        w = random_form(rng, ctx, deg)
        lhs = clifford(u, clifford(v, w)) + clifford(v, clifford(u, w))
        assert (lhs - w.scale(pairing(u, v).scale(2))).is_zero()


def test_twisted_d_on_one_is_flux():
    ctx = flux_context()
    assert (twisted_d(Form.one(CD), ctx) - ctx.flux_h()).is_zero()


def test_twisted_d_squares_to_zero():
    ctx = curved_context()
    rng = random.Random(4)
    for deg in (0, 1):
        w = random_form(rng, ctx, deg)
        assert twisted_d(twisted_d(w, ctx), ctx).is_zero()


def test_twisted_d_of_connection():
    # d_H(A) = F + A ^ Fhat when the base 3-form vanishes
    ctx = curved_context()
    a_conn = ctx.connection()
    lhs = twisted_d(a_conn, ctx)
    rhs = ctx.curvature() + a_conn.wedge(ctx.flux_fhat()).scale_rat(-1) \
        + ctx.flux_h().wedge(a_conn) + a_conn.wedge(ctx.flux_fhat())
    # directly: dA + H ^ A where dA = F and H ^ A = (A ^ Fhat) ^ A
    direct = ctx.curvature() + ctx.flux_h().wedge(a_conn)
    assert (lhs - direct).is_zero()


def test_derived_bracket_identity():
    for _, ctx in standard_contexts()[:2]:
        rng = random.Random(5)
        for deg in (0, 1, 2):
            s1, s2 = random_section(rng, ctx), random_section(rng, ctx)
            w = random_form(rng, ctx, deg)
            assert derived_bracket_check(s1, s2, w, ctx)


def test_derived_bracket_trivial_cases():
    ctx = flat_context()
    s1 = GeneralizedSection(VectorField.coordinate(CD, 0), Form.zero(CD))
    s2 = GeneralizedSection(VectorField.coordinate(CD, 1), Form.dx(CD, 0))
    assert derived_bracket_check(s1, s2, Form.one(CD), ctx)


# ---------------------------------------------------------------------------
# Swap and transform
# ---------------------------------------------------------------------------

def test_phi_swap_defining_example():
    ctx = curved_context()
    s = GeneralizedSection(VectorField.coordinate(CD, 2), Form.zero(CD))
    out = phi_swap(s, ctx)
    assert all(c.is_zero() for c in out.vec.components)
    assert (out.form - ctx.dual().connection()).is_zero()


def test_phi_swap_fixes_balanced_sections():
    ctx = flat_context()
    f = FourierScalar.cos_wave((1, 1))
    s = GeneralizedSection(VectorField.coordinate(CD, 2, f), Form.dx(CD, 2, f))
    out = phi_swap(s, ctx)
    assert (out - s).is_zero()


def test_phi_swap_involution_and_pairing():
    ctx = curved_context()
    rng = random.Random(6)
    for _ in range(4):
        s, t = random_section(rng, ctx), random_section(rng, ctx)
        assert (phi_swap(phi_swap(s, ctx), ctx.dual()) - s).is_zero()
        assert (pairing(phi_swap(s, ctx), phi_swap(t, ctx)) - pairing(s, t)).is_zero()


def test_bracket_swap_intertwines():
    for _, ctx in standard_contexts()[:3]:
        rng = random.Random(7)
        for _ in range(3):
            s1, s2 = random_section(rng, ctx), random_section(rng, ctx)
            assert check_phi_intertwines(s1, s2, ctx)


def test_bracket_swap_intertwines_flat_case():
    ctx = flat_context()
    rng = random.Random(12)
    for _ in range(3):
        s1, s2 = random_section(rng, ctx), random_section(rng, ctx)
        assert check_phi_intertwines(s1, s2, ctx)


@pytest.mark.parametrize("index", range(4))
def test_fiber_inversion_is_an_involution_behind_bracket_swap(index):
    ctx = standard_contexts()[index][1]
    rng = random.Random(3)
    for _ in range(3):
        s = random_section(rng, ctx)
        assert (phi_swap(fiber_inversion(s, ctx), ctx) - bracket_swap(s, ctx)).is_zero()
        assert (fiber_inversion(fiber_inversion(s, ctx), ctx) - s).is_zero()


def test_bracket_swap_scaling_compatibility():
    ctx = curved_context()
    rng = random.Random(8)
    s1, s2 = random_section(rng, ctx), random_section(rng, ctx)
    f = FourierScalar.cos_wave((2, 0)) + FourierScalar.const(2, 1)
    lhs = bracket_swap(dorfman(s1, s2.scale(f), ctx), ctx)
    rhs = dorfman(bracket_swap(s1, ctx), bracket_swap(s2, ctx).scale(f), ctx.dual())
    assert (lhs - rhs).is_zero()


def test_hori_forms_trivial_values():
    ctx = curved_context()
    assert (hori_forms(Form.one(CD), ctx) + ctx.dual().connection()).is_zero()
    assert (hori_forms(ctx.connection(), ctx) - Form.one(CD)).is_zero()


def test_hori_clifford_anticommutation():
    ctx = curved_context()
    rng = random.Random(9)
    for deg in (0, 1, 2):
        s = random_section(rng, ctx)
        w = random_form(rng, ctx, deg)
        lhs = hori_forms(clifford(s, w), ctx)
        rhs = clifford(phi_swap(s, ctx), hori_forms(w, ctx)).scale_rat(-1)
        assert (lhs - rhs).is_zero()


def test_hori_twisted_d_anticommutation():
    for _, ctx in standard_contexts()[:2]:
        rng = random.Random(10)
        for deg in (0, 1, 2):
            w = random_form(rng, ctx, deg)
            lhs = hori_forms(twisted_d(w, ctx, "E"), ctx)
            rhs = twisted_d(hori_forms(w, ctx), ctx, "Ehat").scale_rat(-1)
            assert (lhs - rhs).is_zero()


def test_hori_round_trip_is_minus_identity():
    ctx = curved_context()
    rng = random.Random(11)
    for deg in (0, 1, 2, 3):
        w = random_form(rng, ctx, deg)
        assert (hori_forms(hori_forms(w, ctx), ctx.dual()) + w).is_zero()


def test_full_context_reports():
    for name, ctx in standard_contexts()[:2]:
        rep = run_context_checks(ctx, sections=3, seed=13, label=name)
        assert rep.ok, str(rep)


@pytest.mark.parametrize("sections", [0, -1])
def test_context_checks_need_a_section(sections):
    with pytest.raises(ValueError, match="sections must be at least 1"):
        run_context_checks(flux_context(), sections=sections)


def test_context_checks_cap_the_section_count(monkeypatch):
    """The cap is checked before any section is drawn."""
    monkeypatch.setattr(courant, "random_section", None)
    with pytest.raises(ValueError, match=f"sections must be at most {courant.MAX_SECTIONS}, "
                                         f"not {courant.MAX_SECTIONS + 1}"):
        run_context_checks(flux_context(), sections=courant.MAX_SECTIONS + 1)


def test_each_bracket_is_computed_once_per_run(monkeypatch):
    """Nine distinct brackets per section triple: [b,c], [a,[b,c]], [a,b],
    [[a,b],c], [a,c], [b,[a,c]], [a,f b], [b,a] and the dual-side bracket
    of the swapped pair."""
    calls = []

    def counted(s1, s2, ctx):
        calls.append(1)
        return dorfman(s1, s2, ctx)

    monkeypatch.setattr(courant, "dorfman", counted)
    for name, ctx in standard_contexts():
        calls.clear()
        assert run_context_checks(ctx, sections=3, seed=7, label=name).ok
        assert len(calls) == 27


def test_shared_values_are_computed_once_per_run(monkeypatch):
    """Per run at three sections: one transform of each of the three forms,
    of its twisted differential, of its Clifford product and back, so 12;
    one twisted differential of each form, of that and of its transform, so
    9; one swap of each of a and b per triple and one back, so 9; and still
    the 27 brackets."""
    calls = {name: 0 for name in ("hori_forms", "twisted_d", "phi_swap", "dorfman")}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(courant, name, counted(name, getattr(courant, name)))
    for name, ctx in standard_contexts():
        calls.update(dict.fromkeys(calls, 0))
        assert run_context_checks(ctx, sections=3, seed=7, label=name).ok
        assert calls == {"hori_forms": 12, "twisted_d": 9, "phi_swap": 9, "dorfman": 27}, name


def test_each_clifford_action_is_built_once_per_run(monkeypatch):
    """Per section triple at three sections: eight Clifford actions in the
    derived-bracket identity (the three outer ones of its right-hand side
    are summed into it) and one in the transform check, which reads a . w
    from the same cache; 27 in all, where building a . w twice made 30."""
    calls = []

    def counted(*args):
        calls.append(1)
        return clifford(*args)

    monkeypatch.setattr(courant, "clifford", counted)
    name, ctx = standard_contexts()[1]
    assert run_context_checks(ctx, sections=3, seed=7, label=name).ok
    assert len(calls) == 27


def test_bracket_form_part_is_one_reduction(monkeypatch):
    """With d mu and d lambda - i_X H kept on the sections, a bracket
    reduces i_X mu, one table per component of the Lie bracket and one
    for its whole form part; term by term, i_X mu and that part took six."""
    ctx = curved_context()
    rng = random.Random(3)
    a, b = random_section(rng, ctx), random_section(rng, ctx)
    a._flux_term(ctx), b._d_form  # both kept on the sections from here on
    x, y = a.vec, b.vec
    textbook = (lie_derivative(x, b.form) - a.form.d().interior(y)
                + ctx.flux_h().interior(x).interior(y))
    tables, table = [], fourier._table

    def counted(*args):
        tables.append(1)
        return table(*args)

    monkeypatch.setattr(fourier, "_table", counted)
    assert dorfman(a, b, ctx).form == textbook
    assert len(tables) == 1 + CD + 1


def test_scalar_pullbacks_build_no_form(monkeypatch):
    """compose_affine maps the frequencies directly instead of pulling a
    form back, as k -> kA: over a deck with A != A^T, f(x0, x1) = cos(2pi x1)
    + sin(2pi x0) goes to cos(2pi (x0 - x1)) - sin(2pi x0)."""
    ctx = curved_context()
    f = FourierScalar.cos_wave((1, 2), 3) + FourierScalar.sin_wave((2, -1))
    expected = Form.scalar(CD, f).pullback(ctx.deck_a, ctx.deck_two_b).component(())
    g = FourierScalar.cos_wave((0, 1)) + FourierScalar.sin_wave((1, 0))

    def refuse(*args):
        raise AssertionError("Form.pullback called")

    monkeypatch.setattr(Form, "pullback", refuse)
    assert f.compose_affine(ctx.deck_a, ctx.deck_two_b) == expected
    assert (g.compose_affine(((1, 0), (1, -1)), (1, 0))
            == FourierScalar.cos_wave((1, -1)) + FourierScalar.sin_wave((1, 0), -1))


def test_checks_read_the_bracket_they_are_given(monkeypatch):
    """With the i_Y i_X H term dropped from the bracket, the checks that
    compare it with a flux-twisted structure fail on every standard context."""
    def flux_free(s1, s2, ctx):
        x, y = s1.vec, s2.vec
        form = lie_derivative(x, s2.form) - s1.form.d().interior(y)
        return GeneralizedSection(x.lie_bracket(y), form)

    monkeypatch.setattr(courant, "dorfman", flux_free)
    for name, ctx in standard_contexts():
        checks = dict(run_context_checks(ctx, sections=3, seed=7, label=name).checks)
        assert checks["derived-bracket identity"] is False, name
        assert checks["swap intertwines the brackets"] is False, name


def test_random_scalar_sums_its_waves_in_one_table():
    """``random_scalar`` equals the constant plus its two waves added one
    merge at a time, from the same draws in the same order, and leaves the
    generator where that sum leaves it: 900 draws over T^1, T^2 and T^4."""
    def by_merges(rng, dim):
        out = FourierScalar.const(dim, rng.randint(-2, 2))
        for _ in range(2):
            freq = tuple(rng.randint(-1, 1) for _ in range(dim))
            amp = rng.randint(-2, 2)
            wave = FourierScalar.cos_wave if rng.random() < 0.5 else FourierScalar.sin_wave
            out = out + wave(freq, amp)
        return out

    for dim in (1, 2, 4):
        a, b = random.Random(dim), random.Random(dim)
        for _ in range(300):
            f, g = random_scalar(a, dim), by_merges(b, dim)
            assert (f.dim, f.terms, f.den) == (g.dim, g.terms, g.den)
        assert a.getstate() == b.getstate()
