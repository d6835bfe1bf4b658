"""Differential tests: ``homology_at`` and ``homology_at_mod``, read off
the Smith forms of the two maps, against the kernel-and-subquotient code
kept in ``homology_reference``.

Generators may differ between the two, so the tests check invariants:
equal groups; ``class_of(reps[i]) = e_i``; ``class_of`` vanishes on the
boundaries (and on m e_j mod m), is additive, and raises ValueError on a
non-cycle; and the old ``class_of`` of the new generators and the new
``class_of`` of the old generators compose to the identity, modulo the
torsion orders.  The cases are the base and total complexes of the
catalog spaces below (bundles j in 0..2, both coefficient systems) and
the correspondence complex of flux k = 1 on bundle j = 1, in cohomology
and homology over Z, Z/2 and Z/3, and random pairs d_in = P [D; 0] Q,
d_out = [0 | M] P^-1 with P and Q unimodular, over Z, Z/2, Z/3, Z/4 and
Z/6.  Z/m homology is read off an integer complex, so every pair
composes to zero over Z; one that does so only mod m is refused.

The group is read off the Smith diagonals before any generator exists,
so each case also checks it against the group the forced generators
present (the relations among them modulo the boundaries), against the
group the eager generator code computes, and, for the homology of a
complex, against ``homology_at`` on the explicitly transposed
coboundaries, whose generators and ``class_of`` must be the ones the
complex hands out.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homology_reference as ref
from tdual import catalog, exactalg
from tdual.bundles import BundleDescriptor, TotalComplex
from tdual.complexes import ChainComplex, cochain_complex
from tdual.exactalg import (
    CompositionNotZero,
    IntMatrix,
    PresentedGroup,
    _generators,
    homology_at,
    homology_at_mod,
    hstack,
    kernel_basis,
    normal_form,
)
from tdual.tduality import CorrespondenceComplex

SPACES = ([("sigma", {"g": g}) for g in (1, 2, 3)]
          + [("crosscap", {"n": n}) for n in (1, 2, 3, 4)]
          + [("torus", {}), ("klein", {})])
RINGS = ("Z", 2, 3)


def space_id(case):
    kind, params = case
    return kind + "".join(str(v) for v in params.values())


def reduce(coords, moduli):
    return tuple(c % m if m else c for c, m in zip(coords, moduli))


def combine(coeffs, vectors, n):
    out = [0] * n
    for c, v in zip(coeffs, vectors):
        out = [x + c * y for x, y in zip(out, v)]
    return out


def presented_group(reps, d_in, ring):
    """The group the cycles ``reps`` generate modulo im(d_in) (and m over
    Z/m): Z^s over the c with sum c_i reps[i] a boundary."""
    s, n_mid = len(reps), d_in.rows
    blocks = [IntMatrix(n_mid, s, tuple(zip(*reps)) if s else ((),) * n_mid), d_in]
    if ring != "Z":
        blocks.append(IntMatrix.identity(n_mid).scale(ring))
    relations = [v[:s] for v in kernel_basis(hstack(blocks))]
    return normal_form(PresentedGroup(s, IntMatrix.from_rows(relations, cols=s)))


def check_pair(d_in, d_out, ring, lazy=None):
    """``lazy``, when given, is a GroupData of the same pair computed
    another way; it must match this one bit for bit."""
    if ring == "Z":
        new, old = homology_at(d_in, d_out), ref.homology_at(d_in, d_out)
    else:
        new, old = homology_at_mod(d_in, d_out, ring), ref.homology_at_mod(d_in, d_out, ring)
    g = new.group  # read before any generator is built
    assert g == old.group
    assert presented_group(new.representatives, d_in, ring) == g
    if ring == "Z":
        eager = _generators(d_in, d_out)
        assert eager.group == g
        assert eager.representatives == new.representatives
    if lazy is not None:
        n_mid = d_in.rows
        reps = new.representatives
        assert lazy.group == g
        assert lazy.representatives == reps
        probes = [tuple(int(i == j) for i in range(n_mid)) for j in range(min(n_mid, 6))]
        probes.append(combine(range(1, len(reps) + 1), reps, n_mid))
        for cycle in probes:  # non-cycles among them: both must raise
            assert outcome(lazy.class_of, cycle) == outcome(new.class_of, cycle)
    moduli = [0] * g.free_rank + list(g.torsion)
    rank, n_mid = len(moduli), d_in.rows
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    assert len(new.representatives) == rank
    assert [new.class_of(rep) for rep in new.representatives] == unit

    boundaries = [d_in.col(j) for j in range(d_in.cols)]
    if ring != "Z":
        boundaries += [tuple(ring * int(i == j) for i in range(n_mid)) for j in range(n_mid)]
    for b in boundaries:
        assert new.class_of(b) == (0,) * rank
    # additive, and blind to boundaries
    coeffs = [3 * i - 2 for i in range(rank)]
    cycle = combine(coeffs + [1] * len(boundaries), list(new.representatives) + boundaries, n_mid)
    assert new.class_of(cycle) == reduce(coeffs, moduli)

    for j in range(n_mid):
        image = d_out.col(j)
        if any(v % ring if ring != "Z" else v for v in image):
            with pytest.raises(ValueError):
                new.class_of(tuple(int(i == j) for i in range(n_mid)))
            break

    # new -> old -> new and old -> new -> old are the identity
    to_old = [old.class_of(rep) for rep in new.representatives]
    to_new = [new.class_of(rep) for rep in old.representatives]
    for i in range(rank):
        assert reduce(combine(to_old[i], to_new, rank), moduli) == unit[i]
        assert reduce(combine(to_new[i], to_old, rank), moduli) == unit[i]


def check_complex(cx, seen):
    """Cohomology and homology of every degree, over every ring; ``seen``
    holds the pairs checked so far, since complexes share coboundaries.
    The homology the complex hands out, its group read off the
    untransposed coboundaries, is checked against ``homology_at`` on the
    transposed ones."""
    for ring in RINGS:
        homology = cx.homology(ring)
        for k in range(cx.dim + 1):
            d_in, d_out = cx.delta(k - 1), cx.delta(k)
            for pair, lazy in (((d_in, d_out), None),
                               ((d_out.transpose(), d_in.transpose()), homology[k])):
                if (pair, ring) not in seen:
                    seen.add((pair, ring))
                    check_pair(*pair, ring, lazy)


def outcome(class_of, cycle):
    try:
        return class_of(cycle)
    except ValueError:
        return ValueError


def bundles(info):
    for j in range(3):
        try:
            yield catalog.build_bundle(info, info.xi(), j)
        except catalog.JOutOfRange:
            pass


@pytest.mark.parametrize("case", SPACES, ids=space_id)
def test_catalog_complexes_match_reference(case):
    info = catalog.space(case[0], **case[1])
    x = info.complex
    seen = set()
    for system in (None, info.xi()):
        check_complex(cochain_complex(x, system), seen)
    for bundle in bundles(info):
        for zeta in (None, bundle.xi):
            check_complex(TotalComplex(bundle, zeta).chain, seen)
    bundle = catalog.build_bundle(info, info.xi(), 1)
    ehat = BundleDescriptor(x, bundle.xi, catalog.build_flux(bundle, 1).fhat)
    corr = CorrespondenceComplex(bundle, ehat)
    check_complex(ChainComplex(("oracle-corr", bundle, ehat), x.dimension + 2, corr.delta_matrix),
                  seen)


def test_generators_factor_nothing_taller_than_d_out(monkeypatch):
    """Generators read d_in's Smith form and one of a matrix with d_out's
    rows, never a kernel basis of d_out as tall as the middle term: every
    matrix factored while the generators of every degree of the total
    models of sigma(8) at j = 1 are built has at most d_out.rows rows."""
    info = catalog.sigma(8)
    bundle = catalog.build_bundle(info, info.xi(), 1)
    factored, limit = [], []
    init, generators = exactalg._Smith.__init__, exactalg._generators

    def watched_init(self, a):
        if limit:
            factored.append((a.rows, a.cols, limit[-1]))
        init(self, a)

    def watched_generators(d_in, d_out):
        limit.append(d_out.rows)
        try:
            return generators(d_in, d_out)
        finally:
            limit.pop()

    monkeypatch.setattr(exactalg._Smith, "__init__", watched_init)
    monkeypatch.setattr(exactalg, "_generators", watched_generators)
    for zeta in (None, bundle.xi):
        cx = TotalComplex(bundle, zeta).chain
        for k in range(cx.dim + 1):
            h = homology_at(cx.delta(k - 1), cx.delta(k))  # the group, off cached Smith forms
            assert len(h.representatives) == h.group.free_rank + len(h.group.torsion)
    assert factored  # the generators did factor something
    assert [f for f in factored if f[0] > f[2]] == []


def matrix(rows, n_rows, n_cols):
    return IntMatrix(n_rows, n_cols, tuple(tuple(r) for r in rows))


@st.composite
def unimodular(draw, n):
    """(P, P^-1) as a product of elementary column additions and sign flips."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    if n < 2:
        return p, p_inv
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i == j:  # negate column i of P and row i of P^-1
            for row in p:
                row[i] = -row[i]
            p_inv[i] = [-v for v in p_inv[i]]
        else:  # P := P (I + c e_ij), P^-1 := (I - c e_ij) P^-1
            for row in p:
                row[j] += c * row[i]
            p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]
    return p, p_inv


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def composable_pairs(draw):
    ring = draw(st.sampled_from(RINGS + (4, 6)))  # Z/6 = Z/2 + Z/3 recombines
    n_mid, n_in, n_out = draw(st.integers(0, 6)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    r = draw(st.integers(0, min(n_mid, n_in)))
    p, p_inv = draw(unimodular(n_mid))
    q, _ = draw(unimodular(n_in))
    small = st.integers(-3, 3)
    diag = [draw(st.integers(0, 6)) for _ in range(r)]
    middle = [[diag[i] if i == j and i < r else 0 for j in range(n_in)] for i in range(n_mid)]
    right = [[0 if j < r else draw(small) for j in range(n_mid)] for _ in range(n_out)]
    d_in = matrix(product(product(p, middle), q) if n_in else [[]] * n_mid, n_mid, n_in)
    d_out = matrix(product(right, p_inv) if n_mid else [[]] * n_out, n_out, n_mid)
    return d_in, d_out, ring


@settings(max_examples=150, deadline=None)
@given(composable_pairs())
def test_random_pairs_match_reference(pair):
    d_in, d_out, ring = pair
    check_pair(d_in, d_out, ring)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_pairs_composing_to_zero_only_mod_m_are_refused(m):
    d_in, d_out = matrix([[1], [1]], 2, 1), matrix([[m, 0]], 1, 2)
    assert d_out.mul(d_in).data == ((m,),)
    with pytest.raises(CompositionNotZero):
        homology_at_mod(d_in, d_out, m)
