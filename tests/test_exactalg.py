import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual.exactalg import (
    CompositionNotZero,
    FGAbelianGroup,
    IntMatrix,
    NoSolution,
    PresentedGroup,
    block_matrix,
    determinant,
    hstack,
    homology_at,
    homology_at_mod,
    kernel_basis,
    normal_form,
    smith_normal_form,
    solve_integer,
    solve_mod,
    vstack,
)


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def random_matrix(rng, rows, cols, lo=-50, hi=50):
    return mat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols)


# ---------------------------------------------------------------------------
# Matrix storage against dense arithmetic
# ---------------------------------------------------------------------------

# Entries of an all-zero, a sparse (about one in three nonzero) and a full
# matrix.
DENSITIES = (st.just(0), st.sampled_from([0] * 8 + [-7, -1, 1, 2]),
             st.integers(-30, -1) | st.integers(1, 30))


def dense(data, rows, cols):
    """Dense rows of a rows x cols matrix at a drawn density."""
    entry = data.draw(st.sampled_from(DENSITIES))
    return tuple(tuple(data.draw(entry) for _ in range(cols)) for _ in range(rows))


def stored(rows, cols, m):
    """``m`` holds exactly the dense ``rows``: same matrix, same view, and
    only nonzeros stored, in increasing column order."""
    assert (m.rows, m.cols, m.data) == (len(rows), cols, rows)
    same = IntMatrix(len(rows), cols, rows)
    assert m == same and hash(m) == hash(same)
    assert m.nonzeros == tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_constructors_agree(data):
    r, c = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    rows = dense(data, r, c)
    # dicts hold the zeros too, and list columns from last to first
    from_dicts = IntMatrix.from_nonzeros([dict(reversed(list(enumerate(row)))) for row in rows], c)
    for m in (IntMatrix(r, c, rows), IntMatrix.from_rows([list(row) for row in rows], cols=c),
              from_dicts):
        stored(rows, c, m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_operations_match_dense_arithmetic(data):
    r, c, p, s, q = (data.draw(st.integers(0, 8)) for _ in range(5))
    a, b = dense(data, r, c), dense(data, c, p)
    right, below, corner = dense(data, r, q), dense(data, s, c), dense(data, s, q)
    v = data.draw(st.lists(st.integers(-9, 9), min_size=c, max_size=c))
    k = data.draw(st.integers(-3, 3))
    A, B = IntMatrix.from_rows(a, cols=c), IntMatrix.from_rows(b, cols=p)
    R, S, C = (IntMatrix.from_rows(m, cols=n) for m, n in ((right, q), (below, c), (corner, q)))

    stored(tuple(zip(*a)) if r else ((),) * c, r, A.transpose())
    stored(tuple(tuple(sum(a[i][t] * b[t][j] for t in range(c)) for j in range(p))
                 for i in range(r)), p, A.mul(B))
    assert A.mul_vec(v) == tuple(sum(a[i][t] * v[t] for t in range(c)) for i in range(r))
    stored(tuple(x + y for x, y in zip(a, right)), c + q, hstack([A, R]))
    stored(tuple(y + x + y for x, y in zip(a, right)), c + 2 * q, hstack([R, A, R]))
    stored(a + below, c, vstack([A, S]))
    stored(tuple(x + y for x, y in zip(a + below, right + corner)), c + q,
           block_matrix([[A, R], [S, C]]))
    for factor in (k, 0):
        stored(tuple(tuple(factor * x for x in row) for row in a), c, A.scale(factor))
    assert A.is_zero() == (not any(map(any, a)))
    assert all(A.col(j) == tuple(row[j] for row in a) for j in range(c))
    assert A.diagonal() == tuple(a[i][i] for i in range(min(r, c)))


def test_sparse_constructor_rejects_columns_out_of_range():
    for row in ({3: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            IntMatrix.from_nonzeros([{}, row], 3)
    assert IntMatrix.from_nonzeros([{2: 0, 0: 5}], 3).data == ((5, 0, 0),)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_identity():
    a = IntMatrix.identity(3)
    u, d, v = smith_normal_form(a)
    assert u == IntMatrix.identity(3)
    assert d == IntMatrix.identity(3)
    assert v == IntMatrix.identity(3)


def test_snf_2x2():
    a = mat([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(a)
    assert d.diagonal() == (2, 4)
    assert u.mul(d).mul(v) == a
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


def test_snf_zero():
    for rows, cols in ((2, 3), (0, 3), (2, 0), (0, 0)):
        a = IntMatrix.zeros(rows, cols)
        u, d, v = smith_normal_form(a)
        assert d == IntMatrix.zeros(rows, cols)
        assert u.mul(d).mul(v) == a
    # empty products: no rows, no columns, or an empty inner dimension
    assert IntMatrix.zeros(0, 3).mul(IntMatrix.identity(3)) == IntMatrix.zeros(0, 3)
    assert IntMatrix.identity(3).mul(IntMatrix.zeros(3, 0)) == IntMatrix.zeros(3, 0)
    assert IntMatrix.zeros(2, 0).mul(IntMatrix.zeros(0, 4)) == IntMatrix.zeros(2, 4)


def check_snf_contract(a):
    u, d, v = smith_normal_form(a)
    assert u.mul(d).mul(v) == a
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = d.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0
    for x in diag:
        assert x >= 0
    nz = [x for x in diag if x]
    for p, q in zip(nz, nz[1:]):
        assert q % p == 0
    assert diag == tuple(sorted(diag, key=lambda x: (x == 0, x)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_snf_random_contract(rows, cols, seed):
    rng = random.Random(seed)
    check_snf_contract(random_matrix(rng, rows, cols, -9, 9))


def test_snf_determinism():
    rng = random.Random(7)
    a = random_matrix(rng, 5, 4)
    assert smith_normal_form(a) == smith_normal_form(a)


# ---------------------------------------------------------------------------
# Integer solving
# ---------------------------------------------------------------------------

def test_solve_scalar():
    assert solve_integer(mat([[2]]), [4]) == (2,)


def test_solve_parity_obstruction():
    with pytest.raises(NoSolution):
        solve_integer(mat([[2]]), [3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_solve_planted(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, 4, 5, -6, 6)
    x0 = [rng.randint(-5, 5) for _ in range(5)]
    b = a.mul_vec(x0)
    x = solve_integer(a, b)
    assert a.mul_vec(x) == b


def brute_force_solvable(a, b, box=12):
    n = a.cols
    from itertools import product
    for x in product(range(-box, box + 1), repeat=n):
        if a.mul_vec(x) == tuple(b):
            return True
    return False


def test_solve_vs_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = random_matrix(rng, rows, cols, -3, 3)
        b = [rng.randint(-4, 4) for _ in range(rows)]
        brute = brute_force_solvable(a, b)
        try:
            x = solve_integer(a, b)
            assert a.mul_vec(x) == tuple(b)
            got = True
        except NoSolution:
            got = False
        # the brute-force box is large enough for these tiny systems:
        # any solvable system has a solution with coordinates bounded by 12
        assert got == brute


def test_kernel_basis_annihilates():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -5, 5)
        for v in kernel_basis(a):
            assert a.mul_vec(v) == (0,) * a.rows


def test_solve_mod():
    a = mat([[2, 0], [0, 3]])
    x = solve_mod(a, [0, 1], 5)
    assert [(2 * x[0]) % 5, (3 * x[1]) % 5] == [0, 1]
    with pytest.raises(NoSolution):
        solve_mod(mat([[2]]), [1], 4)


# ---------------------------------------------------------------------------
# Presented groups
# ---------------------------------------------------------------------------

def test_normal_form_merges_invariant_factors():
    g = normal_form(PresentedGroup(2, mat([[2, 0], [0, 3]])))
    assert g == FGAbelianGroup(0, (6,))


def test_normal_form_fundamental_group_abelianization():
    # <a1, a2, x | 2a1 + 2a2 = x, 2x = 0> abelianized
    g = normal_form(PresentedGroup(3, mat([[2, 2, -1], [0, 0, 2]])))
    assert g == FGAbelianGroup(1, (4,))


def test_normal_form_free():
    g = normal_form(PresentedGroup(3, mat([], cols=3)))
    assert g == FGAbelianGroup(3)


def test_normal_form_idempotent():
    for g in [FGAbelianGroup(2, (2, 6)), FGAbelianGroup(0, (4,)), FGAbelianGroup(3)]:
        assert normal_form(g.presentation()) == g


def test_direct_sum_renormalizes():
    a = FGAbelianGroup(1, (2,))
    b = FGAbelianGroup(0, (3,))
    assert a.direct_sum(b) == FGAbelianGroup(1, (6,))
    c = FGAbelianGroup(0, (2,))
    assert c.direct_sum(c) == FGAbelianGroup(0, (2, 2))


def test_group_str():
    assert str(FGAbelianGroup(0)) == "0"
    assert str(FGAbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


# ---------------------------------------------------------------------------
# homology_at
# ---------------------------------------------------------------------------

def test_homology_circle_complex():
    # one vertex, one edge, both maps zero
    d_in = IntMatrix.zeros(1, 0)
    d_out = IntMatrix.zeros(0, 1)
    h = homology_at(d_in, d_out)
    assert h.group == FGAbelianGroup(1)


def test_homology_projective_plane_chain_level():
    # cone over the 2-gon with doubled side: hand-derived boundary matrices.
    # edges (a, sp1, sp2), vertices (corner, apex), triangles (T1, T2):
    #   dT1 = a - sp2 + sp1, dT2 = a - sp1 + sp2, d(sp_i) = corner - apex.
    d2 = mat([[1, 1], [1, -1], [-1, 1]])
    d1 = mat([[0, 1, 1], [0, -1, -1]])
    h1 = homology_at(d2, d1)
    assert h1.group == FGAbelianGroup(0, (2,))
    h0 = homology_at(d1, IntMatrix.zeros(0, 2))
    assert h0.group == FGAbelianGroup(1)
    h2 = homology_at(IntMatrix.zeros(2, 0), d2)
    assert h2.group == FGAbelianGroup(0)


def test_homology_composition_guard():
    for _ in range(2):  # the check is cached, its failure is not
        with pytest.raises(CompositionNotZero):
            homology_at(mat([[1], [0]]), mat([[1, 0]]))


def test_class_of_maps_boundaries_to_zero():
    d2 = mat([[1, 1], [1, -1], [-1, 1]])
    d1 = mat([[0, 1, 1], [0, -1, -1]])
    h1 = homology_at(d2, d1)
    boundary = d2.mul_vec([3, -2])
    assert h1.coordinates(boundary) == (0,)
    gen = h1.representatives[0]
    assert h1.coordinates(gen) == (1,)
    with pytest.raises(ValueError):
        h1.coordinates([0, 1, 0])  # a single spoke edge is not a cycle


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    minv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
        for r in minv:
            r[j] -= c * r[i]
    return mat(m), mat(minv)


def test_homology_invariant_under_middle_change_of_basis():
    rng = random.Random(5)
    for _ in range(15):
        n_mid = rng.randint(2, 5)
        d_in = random_matrix(rng, n_mid, rng.randint(1, 4), -3, 3)
        # build d_out with d_out . d_in = 0: take kernel relations of d_in^T? simpler:
        # use d_out = 0 and a nonzero variant via composition with kernel basis.
        d_out = IntMatrix.zeros(0, n_mid)
        p, pinv = random_unimodular(rng, n_mid)
        a = homology_at(d_in, d_out).group
        b = homology_at(p.mul(d_in), IntMatrix.zeros(0, n_mid)).group
        assert a == b


def test_homology_at_mod():
    # circle complex mod 2: H^0 = H^1 = Z/2
    d_in = IntMatrix.zeros(1, 0)
    d_out = IntMatrix.zeros(0, 1)
    h = homology_at_mod(d_in, d_out, 2)
    assert h.group == FGAbelianGroup(0, (2,))
    # tensor part only: H = Z/2 from d_in = 2, so H (x) Z/4 = Z/2
    h = homology_at_mod(mat([[2]]), IntMatrix.zeros(0, 1), 4)
    assert h.group == FGAbelianGroup(0, (2,))
    assert h.representatives == ((1,),)
    assert [h.class_of(x) for x in ((1,), (2,), (3,), (4,))] == [(1,), (0,), (1,), (0,)]
    # Tor part only: H = 0 and Tor(coker 2, Z/4) = Z/2, generated by (4/2) e
    h = homology_at_mod(IntMatrix.zeros(1, 0), mat([[2]]), 4)
    assert h.group == FGAbelianGroup(0, (2,))
    assert h.representatives == ((2,),)
    assert [h.class_of(x) for x in ((2,), (4,), (6,), (-2,))] == [(1,), (0,), (1,), (1,)]
    with pytest.raises(ValueError):
        h.class_of((1,))
    # Tor(coker 4, Z/2) = Z/2: the coordinate of e is (4 e / 2) g / d = 1, not 4 e / 2
    h = homology_at_mod(IntMatrix.zeros(1, 0), mat([[4]]), 2)
    assert h.group == FGAbelianGroup(0, (2,)) and h.representatives == ((1,),)
    assert [h.class_of(x) for x in ((1,), (2,), (3,))] == [(1,), (0,), (1,)]
    # Z/2 (tensor part, e_0) and Z/3 (Tor part, 2 e_1) recombine into Z/6
    d_in, d_out = mat([[2], [0]]), mat([[0, 3]])
    h = homology_at_mod(d_in, d_out, 6)
    assert h.group == FGAbelianGroup(0, (6,))
    rep, = h.representatives
    assert h.class_of(rep) == (1,)
    assert all(v % 6 == 0 for v in d_out.mul_vec(rep))
    assert h.class_of((1, 0)) == (3,)  # the element of order 2
    third, = h.class_of((0, 2))
    assert third in (2, 4)  # an element of order 3
    assert h.class_of((1, 2)) == ((3 + third) % 6,)
    assert h.class_of((2, 0)) == h.class_of((0, 6)) == h.class_of((6, 0)) == (0,)
    with pytest.raises(ValueError):
        h.class_of((0, 1))


def test_determinant_of_empty_and_singular_matrices():
    assert determinant(IntMatrix.zeros(0, 0)) == 1
    assert determinant(mat([[0, 1, 2], [0, 3, 4], [0, 5, 6]])) == 0
    assert determinant(mat([[0, 1], [1, 0]])) == -1


def test_matrices_equal_only_matrices():
    assert mat([[1]]) != [[1]] and not mat([[1]]) == "x"
