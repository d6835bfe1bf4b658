"""Differential tests: the exact Smith kernel and the matrix product
against the dense reference in ``dense_reference``.

Both must agree exactly, not just up to equivalence: the pivot rule fixes
D, U, V and L, and through them every kernel basis, solution, generator
and ``class_of`` map computed downstream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import DenseSmith, dense_mul
from tdual import catalog
from tdual.bundles import TotalComplex
from tdual.complexes import coboundary_matrix
from tdual.exactalg import IntMatrix, NoSolution, _Smith


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


def assert_same_as_dense(a, rng):
    for full in (False, True):
        new, ref = _Smith(a, full=full), DenseSmith(a, full=full)
        assert new.diag == ref.diag
        assert new.rank == ref.rank
        assert new.d_matrix() == ref.d_matrix()
        assert new.l_matrix() == ref.l_matrix()
        assert new.kernel_columns() == ref.kernel_columns()
        if full:
            assert new.u_matrix() == ref.u_matrix()
            assert new.v_matrix() == ref.v_matrix()
        for b in right_hand_sides(rng, a):
            assert outcome(new, b) == outcome(ref, b)


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
