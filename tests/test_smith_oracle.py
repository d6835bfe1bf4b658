"""Differential tests: the exact Smith kernel and the matrix product
against the dense reference in ``dense_reference``.

The Smith form D is unique, so it must agree exactly.  The transforms
need not: the kernel eliminates its +-1 pivots first, in another order
than the reference's minimal-entry rule, so L, R, U and V are checked as
a factorization (L A R = D, U L = I, V R = I, U D V = A), the kernel
basis as the same lattice, and each solve by its outcome and A x = b.
A block-triangular matrix built by ``block_matrix`` is factored from its
diagonal blocks' Smith forms; its D and rank must also equal those of the
same entries factored from scratch.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import DenseSmith, dense_mul
from tdual import bundles, catalog, complexes, exactalg, ktheory, pipeline, tduality
from tdual.bundles import TotalComplex
from tdual.complexes import DeltaComplex, LocalSystem, coboundary_matrix, z2_rescaling
from tdual.exactalg import (
    IntMatrix,
    NoSolution,
    _Smith,
    _smith_cached,
    block_matrix,
    homology_at,
    homology_at_transpose,
    hstack,
    kernel_basis,
    rank_of,
    smith_normal_form,
    solve_integer,
    solve_mod,
)
from tdual.tduality import CorrespondenceComplex, SmallTwistedComplex


def sparse_unit_matrix(rng, rows, cols, density=0.03):
    """About ``density`` nonzero, mostly +-1, occasionally up to +-5."""
    def entry():
        if rng.random() >= density:
            return 0
        v = 1 if rng.random() < 0.85 else rng.randint(2, 5)
        return v if rng.random() < 0.5 else -v
    return IntMatrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def dense_matrix(rng, rows, cols, bound=50):
    return IntMatrix(rows, cols, tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                                       for _ in range(rows)))


def diagonal_heavy_matrix(rng, rows, cols):
    """Non-unit diagonal entries that need not divide each other, a few
    off-diagonal ones, rows and columns shuffled: non-unit pivots and
    divisibility passes."""
    data = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        data[i][i] = rng.choice((0, 2, 3, 4, 6, 9, 10))
    for _ in range(rng.randint(0, rows + cols)):
        data[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((-6, -4, -2, 2, 3, 4, 6))
    rng.shuffle(data)
    perm = rng.sample(range(cols), cols)
    return IntMatrix(rows, cols, tuple(tuple(row[j] for j in perm) for row in data))


def incidence_matrix(rng, rows, cols):
    """Rows with one to three +1 entries, a 2 where two land together, as
    in an edge-vertex incidence matrix with loops."""
    data = [[0] * cols for _ in range(rows)]
    for row in data:
        for _ in range(rng.randint(1, 3)):
            row[rng.randrange(cols)] += 1
    return IntMatrix.from_rows(data, cols=cols)


def mod_two_system(a):
    """[A | 2I]: its integer solutions, cut to A's columns and taken mod 2,
    solve A x = b (mod 2); the reference for solve_mod's GF(2) path."""
    return hstack([a, IntMatrix.identity(a.rows).scale(2)])


def outcome(smith, b):
    try:
        return smith.solve(b)
    except NoSolution:
        return NoSolution


def right_hand_sides(rng, a):
    """Planted solvable systems, random ones (mostly NoSolution) and zero."""
    out = [(0,) * a.rows]
    for _ in range(3):
        x = [rng.randint(-3, 3) for _ in range(a.cols)]
        out.append(a.mul_vec(x))
        out.append(tuple(rng.randint(-4, 4) for _ in range(a.rows)))
    return out


def r_matrix(smith):
    """R, the product of the column log, as columns R e_j."""
    n = smith.shape[1]
    return IntMatrix.from_nonzeros(
        exactalg._apply(smith._col_log, n, exactalg._units(range(n)), True, False), n)


def spans(basis, vectors, n):
    """Every vector is an integer combination of ``basis`` (length-n
    columns), solved by the dense reference."""
    ref = DenseSmith(IntMatrix(n, len(basis), tuple(tuple(v[i] for v in basis) for i in range(n))))
    return all(outcome(ref, v) is not NoSolution for v in vectors)


def assert_factorization(s, a):
    """L A R = D, U L = I, V R = I and U D V = A, for the transforms that
    ``s`` reads off its logs."""
    m, n = a.rows, a.cols
    l, r, u, v, d = s.l_matrix(), r_matrix(s), s.u_matrix(), s.v_matrix(), s.d_matrix()
    assert l.mul(a).mul(r) == d
    assert u.mul(l) == IntMatrix.identity(m)
    assert v.mul(r) == IntMatrix.identity(n)
    assert u.mul(d).mul(v) == a


def assert_same_as_dense(a, rng):
    new, ref = _Smith(a), DenseSmith(a)
    assert new.diag == ref.diag
    assert new.rank == ref.rank
    assert new.d_matrix() == ref.d_matrix()
    assert_factorization(new, a)
    kernel, ref_kernel = new.kernel_columns(), ref.kernel_columns()
    assert len(kernel) == len(ref_kernel)
    assert spans(kernel, ref_kernel, a.cols) and spans(ref_kernel, kernel, a.cols)
    for b in right_hand_sides(rng, a):
        x = outcome(new, b)
        assert (x is NoSolution) == (outcome(ref, b) is NoSolution)
        if x is not NoSolution:
            assert a.mul_vec(x) == tuple(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 50), st.integers(0, 10 ** 6))
def test_sparse_unit_heavy_matrices_match_dense(rows, cols, seed):
    rng = random.Random(seed)
    assert_same_as_dense(sparse_unit_matrix(rng, rows, cols), rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_dense_matrices_match_dense(rows, cols, seed):
    rng = random.Random(seed)
    assert_same_as_dense(dense_matrix(rng, rows, cols), rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_diagonal_heavy_matrices_match_dense(rows, cols, seed):
    rng = random.Random(seed)
    assert_same_as_dense(diagonal_heavy_matrix(rng, rows, cols), rng)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_mod_two_systems_match_dense(rows, cols, seed):
    rng = random.Random(seed)
    assert_same_as_dense(mod_two_system(incidence_matrix(rng, rows, cols)), rng)


def edge_vertex_matrix(x):
    """The edge-vertex system that complexes.z2_rescaling solves mod 2."""
    rows = []
    for e in range(x.count(1)):
        row = [0] * x.vertex_count
        for v in x.simplex(1, e):
            row[v] += 1
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=x.vertex_count)


@pytest.mark.parametrize("kind,params", [("sigma", {"g": 3}), ("crosscap", {"n": 4})])
def test_z2_rescaling_systems_match_dense(kind, params):
    x = catalog.space(kind, **params).complex
    assert_same_as_dense(mod_two_system(edge_vertex_matrix(x)), random.Random(3))


def integer_mod_two(a, b):
    """solve_mod(a, b, 2) as the integer solve of [A | 2I], or NoSolution."""
    try:
        return tuple(v % 2 for v in solve_integer(mod_two_system(a), b)[:a.cols])
    except NoSolution:
        return NoSolution


def gf2_outcome(a, b):
    try:
        return solve_mod(a, b, 2)
    except NoSolution:
        return NoSolution


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20), st.integers(1, 14), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_gf2_solve_agrees_with_integer_path(rows, cols, kind, seed):
    """Same solvability as [A | 2I] over Z; a solution in {0, 1}^n with
    A x = b (mod 2).  Low-rank products make inconsistent systems."""
    rng = random.Random(seed)
    if kind == 0:
        a = incidence_matrix(rng, rows, cols)
    elif kind == 1:
        a = sparse_unit_matrix(rng, rows, cols, density=0.3)
    else:
        inner = rng.randint(1, 3)
        a = dense_matrix(rng, rows, inner, bound=3).mul(dense_matrix(rng, inner, cols, bound=3))
    rhs = right_hand_sides(rng, a) + [tuple(rng.randint(0, 1) for _ in range(rows))]
    for b in rhs:
        x = gf2_outcome(a, b)
        assert (x is NoSolution) == (integer_mod_two(a, b) is NoSolution)
        if x is not NoSolution:
            assert set(x) <= {0, 1} and len(x) == cols
            assert all((v - c) % 2 == 0 for v, c in zip(a.mul_vec(x), b))


CATALOG = ([("circle", {}), ("torus", {}), ("klein", {})]
           + [("sigma", {"g": g}) for g in (1, 2, 3)]
           + [("crosscap", {"n": n}) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("kind,params", CATALOG)
def test_z2_rescaling_matches_integer_path(kind, params):
    """On every ordered pair of the space's sign systems (none, the
    orientation system, the default xi and the xi odd on one label), the
    GF(2) rescaling is the vector the integer solve gave."""
    info = catalog.space(kind, **params)
    x = info.complex
    systems = [None, info.orientation_system(), info.xi()]
    systems += [info.xi(frozenset({label})) for label, _ in info.label_edges]
    a = edge_vertex_matrix(x)
    for s1 in systems:
        for s2 in systems:
            diff = [int((s1.sign(e) if s1 else 1) != (s2.sign(e) if s2 else 1))
                    for e in range(x.count(1))]
            expected = integer_mod_two(a, diff)
            assert z2_rescaling(x, s1, s2) == (None if expected is NoSolution else expected)


def rescaled(system, x, flips):
    """system times the coboundary of the vertex function with u = 1 on
    ``flips``: the same class in H^1(X, Z/2)."""
    return LocalSystem(x, tuple((system.sign(e) if system else 1)
                                * (-1) ** sum(v in flips for v in x.simplex(1, e))
                                for e in range(x.count(1))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.integers(0, 10 ** 6))
def test_z2_rescaling_is_the_gf2_solution_on_catalog_systems(space, seed):
    """The parity labelling returns the u of the GF(2) solve, or None where
    it has none, on the catalog's sign systems rescaled at random."""
    info = catalog.space(space[0], **space[1])
    x = info.complex
    rng = random.Random(seed)
    systems = [None, info.orientation_system(), info.xi()]
    systems += [info.xi(frozenset({label})) for label, _ in info.label_edges]
    s1 = rng.choice(systems)
    s2 = rescaled(rng.choice(systems), x, {v for v in range(x.vertex_count) if rng.random() < 0.5})
    diff = [int((s1.sign(e) if s1 else 1) != s2.sign(e)) for e in range(x.count(1))]
    expected = gf2_outcome(edge_vertex_matrix(x), diff)
    assert z2_rescaling(x, s1, s2) == (None if expected is NoSolution else expected)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.booleans()), max_size=24))
def test_z2_rescaling_is_the_gf2_solution_on_graphs(n, edges):
    """The same on graphs with loops, repeated edges, isolated vertices and
    several components, where any edge signs form a sign system."""
    edges = [(t % n, h % n, odd) for t, h, odd in edges]
    x = DeltaComplex(n, (tuple((t, h) for t, h, _ in edges),))
    odd = LocalSystem(x, tuple(-1 if o else 1 for _, _, o in edges))
    expected = gf2_outcome(edge_vertex_matrix(x), [int(o) for _, _, o in edges])
    assert z2_rescaling(x, None, odd) == (None if expected is NoSolution else expected)


def test_one_factorization_serves_snf_kernel_and_solve():
    a = dense_matrix(random.Random(5), 9, 11)
    _smith_cached.cache_clear()
    u, d, v = smith_normal_form(a)
    kernel = kernel_basis(a)
    x = solve_integer(a, a.mul_vec([1] * 11))
    info = _smith_cached.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert u.mul(d).mul(v) == a
    assert all(not any(a.mul_vec(k)) for k in kernel) and a.mul_vec(x) == a.mul_vec([1] * 11)
    s = _Smith(a)
    assert s.u_matrix() == s.u_matrix() == u
    assert s.v_matrix() == s.v_matrix() == v
    assert d == DenseSmith(a).d_matrix()
    assert_factorization(s, a)


def test_equal_matrices_hash_equal_and_share_one_factorization():
    rows = [[3, 0, -1], [2, 5, 0]]
    a, b = IntMatrix.from_rows(rows), IntMatrix(2, 3, tuple(map(tuple, rows)))
    assert a is not b and a == b and hash(a) == hash(b) == hash(a)
    _smith_cached.cache_clear()
    assert exactalg._smith(a) is exactalg._smith(b)
    assert _smith_cached.cache_info().misses == 1


def test_matrix_hash_reads_the_entries_once():
    hashed = []

    class Entry(int):
        def __hash__(self):
            hashed.append(self)
            return int.__hash__(self)

    a = IntMatrix(2, 2, ((Entry(1), Entry(0)), (Entry(0), Entry(2))))
    assert hash(a) == hash(a) == hash(IntMatrix.from_rows([[1, 0], [0, 2]]))
    assert len(hashed) == 2


@st.composite
def matrix_and_batches(draw):
    """A matrix with 0 to 8 rows and columns, entries within 30, and for
    each of its two vector lengths batches of 0, 1 and 5 vectors; the
    batch of 5 holds one or more zero vectors among the others."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entries = st.integers(-30, 30)
    a = IntMatrix(rows, cols, tuple(tuple(draw(st.lists(entries, min_size=cols, max_size=cols)))
                                    for _ in range(rows)))

    def batches(n):
        def vector():
            return tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
        five = [vector() for _ in range(5)]
        for k in draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)):
            five[k] = (0,) * n
        return [[], [vector()], five]

    return a, batches(rows), batches(cols)


@settings(max_examples=80, deadline=None)
@given(matrix_and_batches())
@example((IntMatrix.zeros(0, 4), [[], [()], [()] * 5], [[], [(1, 0, 0, -2)], [(0,) * 4] * 5]))
@example((IntMatrix.zeros(4, 0), [[], [(3, 0, 0, 1)], [(0,) * 4] * 5], [[], [()], [()] * 5]))
def test_log_applier_matches_dense_transforms(case):
    """``left``/``right`` apply the operation logs to a batch in one pass;
    each product equals L v / R v, and the inverse direction L^-1 v /
    R^-1 v, with L and R the transforms that take A to the dense
    reference's D, and U and V their inverses."""
    a, left_batches, right_batches = case
    s = _Smith(a)
    m, n = a.rows, a.cols
    l, r, u, v = s.l_matrix(), r_matrix(s), s.u_matrix(), s.v_matrix()
    assert l.mul(a).mul(r) == DenseSmith(a).d_matrix()
    assert u.mul(l) == IntMatrix.identity(m) and v.mul(r) == IntMatrix.identity(n)
    for batch in left_batches:
        pairs = [list(exactalg._pairs(x)) for x in batch]
        assert s.left(pairs) == [l.mul_vec(x) for x in batch]
        inverse = exactalg._apply(s._row_log, m, pairs, False, True)
        assert exactalg._vectors(inverse, len(batch)) == [u.mul_vec(x) for x in batch]
    for batch in right_batches:
        pairs = [list(exactalg._pairs(x)) for x in batch]
        assert s.right(pairs) == [r.mul_vec(x) for x in batch]
        inverse = exactalg._apply(s._col_log, n, pairs, True, True)
        assert exactalg._vectors(inverse, len(batch)) == [v.mul_vec(x) for x in batch]


FULL_ROW_RANK = IntMatrix.from_rows([[2, 1, 0, 3, -1, 0],
                                     [0, 1, 4, 0, 2, -3],
                                     [1, 0, -2, 5, 0, 1],
                                     [3, -1, 0, 0, 1, 2]])


def planted_dependent_row():
    """A 7 x 4 matrix whose last row is row 0 plus twice row 3."""
    rows = [list(r) for r in dense_matrix(random.Random(17), 6, 4, bound=9).data]
    return IntMatrix.from_rows(rows + [[x + 2 * y for x, y in zip(rows[0], rows[3])]])


# Smith diagonal 1, 2, 6, 36, 36, so the image columns divide by d_i > 1,
# and a sixth row, the sum of the first two, so U has a cokernel column.
DIAGONAL_HEAVY = IntMatrix.from_rows([[0, 6, 0, 0, 2], [4, 0, 0, 0, 0], [0, 0, 0, 12, 0],
                                      [0, 0, 9, 0, 0], [2, 0, 0, 0, 6], [4, 6, 0, 0, 2]])


@pytest.mark.parametrize("a,diag", [
    (IntMatrix.zeros(3, 4), (0, 0, 0)),
    (FULL_ROW_RANK, (1, 1, 1, 1)),
    (planted_dependent_row(), (1, 1, 1, 1)),
    (DIAGONAL_HEAVY, (1, 2, 6, 36, 36)),
], ids=["zero-3x4", "full-row-rank-4x6", "tall-7x4-dependent-row", "diagonal-heavy-6x5"])
def test_u_from_image_and_cokernel_columns_matches_dense(a, diag):
    """U's first rank columns are A R e_i / d_i, the others L^-1 e_i from
    the row log; together they invert L, and U D V = A."""
    s = _Smith(a)
    assert s.diag == DenseSmith(a).diag == diag
    assert_factorization(s, a)


def low_rank_matrix(rng, rows, cols):
    """A product through at most three inner dimensions: rank deficient."""
    inner = rng.randint(0, 3)
    return dense_matrix(rng, rows, inner, bound=6).mul(dense_matrix(rng, inner, cols, bound=6))


U_CASES = {"dense": dense_matrix, "sparse-unit": sparse_unit_matrix,
           "diagonal-heavy": diagonal_heavy_matrix, "low-rank": low_rank_matrix}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(U_CASES)), st.integers(0, 12), st.integers(0, 12),
       st.integers(0, 10 ** 6))
@example("dense", 0, 5, 0)
@example("diagonal-heavy", 4, 0, 0)
@example("low-rank", 9, 7, 1)
def test_u_image_columns_are_a_r_e_i_over_d_i(kind, rows, cols, seed):
    """U's first rank columns, read off the rows of A R in one pass of the
    column log, are A R e_i / d_i computed column by column; the shapes
    include 0 rows or 0 columns (as zero matrices) and rank-deficient
    matrices."""
    rng = random.Random(seed)
    a = U_CASES[kind](rng, rows, cols) if rows and cols else IntMatrix.zeros(rows, cols)
    s = _Smith(a)
    r = s.rank
    u = s.u_matrix()
    image = [a.mul_vec(col) for col in s.right(exactalg._units(range(r)))]
    assert all(x % d == 0 for column, d in zip(image, s.diag) for x in column)
    assert [u.col(i) for i in range(r)] == [tuple(x // d for x in column)
                                            for column, d in zip(image, s.diag)]
    assert s.diag == DenseSmith(a).diag
    assert_factorization(s, a)


def test_dense_row_work_stays_below_floor_quotient_work():
    """Eight dense 24 x 24 matrices, entries within 50: the row logs hold
    at most 14,000 additions.  The minimal-entry loop's nearest-integer
    quotients make 13,030 on these matrices; floor quotients make 16,603."""
    rng = random.Random(7)
    additions = 0
    for _ in range(8):
        a = IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(24)] for _ in range(24)])
        additions += sum(1 for c in _Smith(a)._row_log[2] if c)
    assert additions <= 14_000, additions


def test_logs_place_pivots_only_after_every_addition():
    """Both phases eliminate in the input's frame, and one placement at
    the end moves each pivot onto the diagonal: in the row log and in the
    column log, every swap or negation (coefficient 0) comes after every
    addition.  Fifty dense matrices up to 12 x 12, entries within 50."""
    rng = random.Random(7)
    for _ in range(50):
        a = dense_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        s = _Smith(a)
        for log in (s._row_log, s._col_log):
            coefficients = log[2]
            first_move = next((k for k, c in enumerate(coefficients) if not c), len(coefficients))
            assert not any(coefficients[first_move:]), a
        assert s.diag == DenseSmith(a).diag


def test_u_of_full_row_rank_applies_no_row_operation(monkeypatch):
    """With rank = rows, every column of U comes from A R e_i / d_i: the
    row log, several times as long as the column log on dense input, is
    applied to no vector."""
    batches = []
    apply_log = exactalg._apply

    def recording(log, n, vectors, columns, inverse):
        batches.append((log, vectors))
        return apply_log(log, n, vectors, columns, inverse)

    monkeypatch.setattr(exactalg, "_apply", recording)
    s = _Smith(FULL_ROW_RANK)
    s.u_matrix()
    assert batches and all(not vectors for log, vectors in batches if log is s._row_log)
    assert s.diag == DenseSmith(FULL_ROW_RANK).diag
    assert_factorization(s, FULL_ROW_RANK)


def test_reads_come_in_any_order_on_one_factorization():
    """Smith form, solve and kernel read the same cached logs in either
    order, and give the same values: no read consumes what a later one
    needs."""
    a = dense_matrix(random.Random(11), 8, 10)
    b = a.mul_vec([1, -2, 0, 3, 1, 0, -1, 2, 0, 1])
    forward = (smith_normal_form, lambda a: solve_integer(a, b), kernel_basis)

    _smith_cached.cache_clear()
    first = [read(a) for read in forward]
    again = [read(a) for read in reversed(forward)][::-1]
    assert _smith_cached.cache_info().misses == 1
    _smith_cached.cache_clear()
    reverse_first = [read(a) for read in reversed(forward)][::-1]
    assert first == again == reverse_first
    u, d, v = first[0]
    assert u.mul(d).mul(v) == a and a.mul_vec(first[1]) == b


def test_group_reads_do_no_transform_work(monkeypatch):
    """Groups and ranks come off the Smith diagonals alone; generators are
    the first read that applies a log."""
    applied = []
    apply_log = exactalg._apply
    monkeypatch.setattr(exactalg, "_apply", lambda *args: applied.append(1) or apply_log(*args))
    info = catalog.space("sigma", g=2)
    d_in, d_out = (coboundary_matrix(info.complex, k, info.xi()) for k in (0, 1))
    _smith_cached.cache_clear()
    cohomology = homology_at(d_in, d_out)
    assert cohomology.group == homology_at_transpose(d_in, d_out).group
    assert rank_of(d_out) + cohomology.group.free_rank == d_out.cols - rank_of(d_in)
    assert cohomology.group.torsion and not applied
    assert cohomology.representatives and applied


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes_match_dense(rows, cols):
    assert_same_as_dense(IntMatrix.zeros(rows, cols), random.Random(0))


def sigma2_delta_sequences():
    """The coboundaries of sigma(2), untwisted and twisted by xi, and the
    total-space deltas of its bundles at j = 0 and j = 1."""
    info = catalog.space("sigma", g=2)
    x, xi = info.complex, info.xi()
    out = [[coboundary_matrix(x, k, system) for k in range(x.dimension)] for system in (None, xi)]
    for j in (0, 1):
        total = TotalComplex(catalog.build_bundle(info, xi, j))
        out.append([total.delta_matrix(k) for k in range(total.dimension)])
    return out


def test_sigma2_deltas_match_dense():
    rng = random.Random(2)
    for deltas in sigma2_delta_sequences():
        for a in deltas:
            assert_same_as_dense(a, rng)


@pytest.mark.parametrize("g", [8, 16])
def test_unit_pivots_keep_row_work_within_the_nonzeros(g):
    """On the total coboundaries of sigma(g) at j = 1, the row log holds
    no more additions than the matrix has nonzeros.  Taking the first
    row with a +-1 instead contracts the vertices into hubs: 3,389 and
    13,437 additions on delta^0 at g = 8 and 16, for 384 and 768
    nonzeros."""
    info = catalog.space("sigma", g=g)
    total = TotalComplex(catalog.build_bundle(info, info.xi(), 1))
    for k in (0, 1):
        a = total.delta_matrix(k)
        additions = sum(1 for c in exactalg._smith(a)._row_log[2] if c)
        assert additions <= sum(map(len, a.nonzeros)), (k, additions)


def test_sigma2_delta_products_match_dense():
    for deltas in sigma2_delta_sequences():
        for d_in, d_out in zip(deltas, deltas[1:]):
            assert d_out.mul(d_in) == dense_mul(d_out, d_in)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.booleans(),
       st.integers(0, 10 ** 6))
def test_mul_matches_dense(rows, inner, cols, sparse, seed):
    rng = random.Random(seed)
    make = sparse_unit_matrix if sparse else dense_matrix
    a, b = make(rng, rows, inner), make(rng, inner, cols)
    assert a.mul(b) == dense_mul(a, b)


# ---------------------------------------------------------------------------
# Block-triangular matrices, factored from their diagonal blocks
# ---------------------------------------------------------------------------

def plain(a):
    """The matrix of a's entries with no recorded blocks: factored from scratch."""
    return IntMatrix.from_nonzeros([dict(row) for row in a.nonzeros], a.cols)


def additions(smith):
    return sum(1 for c in smith._row_log[2] if c)


def made(a):
    """The row additions a's own factorization makes: its row log less the
    heads it takes over from its recorded blocks."""
    return additions(exactalg._smith(a)) - sum(additions(exactalg._smith(b))
                                               for b in a._blocks or ())


def assert_seeded_matches(a, rng):
    """A recorded block matrix: the seeded factorization has the diag and
    rank of the plain one and of the dense reference, and factors A, spans
    its kernel lattice and solves as the reference does."""
    assert a._layout is not None
    seeded, scratch = _Smith(a), _Smith(plain(a))
    assert (seeded.diag, seeded.rank) == (scratch.diag, scratch.rank)
    assert_same_as_dense(a, rng)


BLOCK_KINDS = {"sparse-unit": lambda rng, r, c: sparse_unit_matrix(rng, r, c, density=0.3),
               "dense": dense_matrix, "diagonal-heavy": diagonal_heavy_matrix,
               "low-rank": low_rank_matrix}


def random_block(rng, kind, rows, cols):
    return BLOCK_KINDS[kind](rng, rows, cols) if rows and cols else IntMatrix.zeros(rows, cols)


def triangular(rng, top, bottom, lower, c_kind):
    """[[top, C], [0, bottom]], or [[top, 0], [C, bottom]] when ``lower``,
    built by block_matrix; C is zero for ``c_kind`` "zero"."""
    rows, cols = (bottom.rows, top.cols) if lower else (top.rows, bottom.cols)
    c = IntMatrix.zeros(rows, cols) if c_kind == "zero" else random_block(rng, c_kind, rows, cols)
    if lower:
        return block_matrix([[top, IntMatrix.zeros(top.rows, bottom.cols)], [c, bottom]])
    return block_matrix([[top, c], [IntMatrix.zeros(bottom.rows, top.cols), bottom]])


@st.composite
def block_grids(draw, depth):
    """A block-triangular matrix whose diagonal blocks are random blocks of
    0 to 7 rows and columns or, up to ``depth`` levels down, block
    matrices themselves; upper or lower, C of any kind or zero."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))

    def block():
        if depth and draw(st.booleans()):
            return draw(block_grids(depth - 1))
        kind = draw(st.sampled_from(sorted(BLOCK_KINDS)))
        return random_block(rng, kind, draw(st.integers(0, 7)), draw(st.integers(0, 7)))

    top, bottom = block(), block()
    c_kind = draw(st.sampled_from(sorted(BLOCK_KINDS) + ["zero"]))
    return triangular(rng, top, bottom, draw(st.booleans()), c_kind)


# Torsion on both diagonals that C must mix: Smith diagonal 1, 1, 6, 54.
TORSION_GRID = [[IntMatrix.from_rows([[2, 0], [0, 6]]), IntMatrix.from_rows([[1, 3], [0, 4]])],
                [IntMatrix.zeros(2, 2), IntMatrix.from_rows([[3, 0], [0, 9]])]]


@settings(max_examples=150, deadline=None)
@given(block_grids(0), st.integers(0, 10 ** 6))
@example(block_matrix(TORSION_GRID), 0)
@example(block_matrix([[IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 2)],
                       [IntMatrix.zeros(4, 3), IntMatrix.from_rows([[1, 0], [0, 2], [1, 1], [0, 0]])]]),
         0)
@example(block_matrix([[IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.zeros(2, 0)],
                       [IntMatrix.from_rows([[5, 0]]), IntMatrix.zeros(1, 0)]]), 0)
def test_seeded_block_matrices_match_plain_and_dense(a, seed):
    """Upper and lower grids of sparse unit-heavy, dense (entries within
    50), diagonal-heavy (torsion) and low-rank blocks of 0 to 7 rows and
    columns, C of any of those kinds or zero."""
    assert_seeded_matches(a, random.Random(seed))


@settings(max_examples=80, deadline=None)
@given(block_grids(2), st.integers(0, 10 ** 6))
def test_seeded_nested_block_matrices_match_plain_and_dense(a, seed):
    """Grids whose diagonal blocks are grids, two levels down."""
    assert_seeded_matches(a, random.Random(seed))


def catalog_block_matrices(kind, params):
    """The total deltas (zeta trivial and xi), D_even (both twists) and the
    correspondence deltas of the space's bundle and flux at j = k = 1."""
    info = catalog.space(kind, **params)
    pair = catalog.build_flux(catalog.build_bundle(info, info.xi(), 1), 1)
    out = [TotalComplex(pair.bundle, zeta).delta_matrix(k)
           for zeta in (None, info.xi()) for k in range(3)]
    out += [SmallTwistedComplex(pair, twist).d_even() for twist in (False, True)]
    corr = CorrespondenceComplex(pair.bundle, pair.dual().bundle)
    return out + [corr.delta_matrix(k) for k in range(4)]


@pytest.mark.parametrize("kind,params", [("sigma", {"g": 2}), ("crosscap", {"n": 3}),
                                         ("klein", {})])
def test_catalog_block_matrices_match_plain_and_dense(kind, params):
    rng = random.Random(5)
    for a in catalog_block_matrices(kind, params):
        assert_seeded_matches(a, rng)


def test_d_even_and_total_deltas_clear_their_blocks_units_without_fill():
    """On sigma(4) at j = k = 1, D_even's factorization makes at most 50
    row additions beyond the logs of total delta^0 and delta^2 (2,311 from
    scratch), and each total delta at most 50 beyond its base deltas'."""
    info = catalog.space("sigma", g=4)
    pair = catalog.build_flux(catalog.build_bundle(info, info.xi(), 1), 1)
    for twist in (False, True):
        model = SmallTwistedComplex(pair, twist)
        for a in [model.d_even()] + [model.model.delta_matrix(k) for k in range(3)]:
            assert a._layout is not None
            assert made(a) <= 50, (twist, a.rows, a.cols, made(a))


def clear_caches():
    for module in (complexes, exactalg, bundles, tduality, ktheory, pipeline):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def total_reads(bundle, twin_first):
    """From cold caches, factor total delta^1 and the equal matrix built by
    from_nonzeros, in either order, then read the total model's groups,
    representatives and class_of on cocycles moved by coboundaries."""
    clear_caches()
    model = TotalComplex(bundle)
    cone = model.delta_matrix(1)
    twin = plain(cone)
    assert twin == cone and twin._layout is None and cone._layout is not None
    for a in (twin, cone) if twin_first else (cone, twin):
        exactalg._smith(a)
    assert exactalg._smith(twin) is not exactalg._smith(cone)
    groups = model.cohomology()
    rng = random.Random(1)
    moved = [[tuple(x + y for x, y in zip(rep, model.delta_matrix(k - 1).mul_vec(
        [rng.randint(-2, 2) for _ in range(model.count(k - 1))]))) for rep in g.representatives]
        for k, g in enumerate(groups)]
    return ([g.group for g in groups], [g.representatives for g in groups],
            [[g.class_of(c) for c in cycles] for g, cycles in zip(groups, moved)])


@pytest.mark.parametrize("kind,params", [("sigma", {"g": 2}), ("crosscap", {"n": 3})])
def test_total_groups_do_not_depend_on_which_equal_matrix_is_factored_first(kind, params):
    info = catalog.space(kind, **params)
    bundle = catalog.build_bundle(info, info.xi(), 1)
    assert total_reads(bundle, twin_first=True) == total_reads(bundle, twin_first=False)


def test_pipeline_cells_make_few_row_additions(monkeypatch):
    """run_pipeline on sigma(4) at its four (j, k) and on crosscap(6) at
    (1, 1), each from cold caches, makes at most 3,000 row additions in
    all, counting for each factorization only those beyond the logs it
    takes over from its blocks; from scratch they make 9,876."""
    counts = []

    class Counting(exactalg._Smith):
        def __init__(self, a):
            super().__init__(a)
            counts.append(additions(self) - sum(additions(exactalg._smith(b))
                                                for b in a._blocks or ()))

    monkeypatch.setattr(exactalg, "_Smith", Counting)
    cells = [("sigma", 4, j, k) for j in (0, 1) for k in (0, 1)] + [("crosscap", 6, 1, 1)]
    for kind, param, j, k in cells:
        clear_caches()
        assert pipeline.run_pipeline(kind, param, j, k).ok
    assert sum(counts) <= 3_000, sum(counts)
