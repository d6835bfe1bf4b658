"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision integers: Smith normal form
with unimodular transforms, integer linear solves, kernels, and the
presentation of finitely generated abelian groups in invariant-factor
normal form.  These are the primitives behind every (co)homology and
K-group computed elsewhere in the package.

Matrices are stored as their nonzeros, which every operation and the
Smith factorization follow: the coboundary and cup matrices of the models
are well below 1 % dense.  ``IntMatrix.data`` is a dense view for tests.
The factorization takes the +-1 pivots first, sparsest column first
(Dumas, Saunders, Villard, JSC 32 (2001)), then the small core left over.
A block-triangular matrix from ``block_matrix`` (a cone, D_even) starts
instead from its diagonal blocks' cached factorizations.

All values are immutable; functions are pure and safe to share between
threads.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, compress
from math import gcd
from typing import Callable, Mapping, Optional, Sequence


class NoSolution(Exception):
    """The linear system has no integer solution."""


class CompositionNotZero(Exception):
    """The two maps handed to homology_at do not compose to zero."""


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Integer matrix stored as its nonzeros: ``nonzeros[i]`` is row i as
    (column, value) pairs, value != 0, in increasing column order.
    ``IntMatrix(rows, cols, data)`` and ``from_rows`` take dense rows and
    ``from_nonzeros`` a {column: value} dict per row; equal matrices
    compare and hash equal however built.  ``data``, the dense rows, is
    built on first read and kept: a view for tests and dense oracles."""

    __slots__ = ("rows", "cols", "nonzeros", "_hash", "_data", "_blocks", "_layout")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]]):
        if len(data) != rows:
            raise ValueError("row count mismatch")
        if any(len(r) != cols for r in data):
            raise ValueError("column count mismatch")
        self.rows, self.cols = rows, cols
        self._hash = self._data = self._blocks = self._layout = None
        self.nonzeros = tuple([tuple(_pairs(r)) for r in data])

    @staticmethod
    def _of(rows: int, cols: int, nonzeros: tuple) -> "IntMatrix":
        """The matrix of rows of (column, value) pairs already in form."""
        m = object.__new__(IntMatrix)
        m.rows, m.cols, m.nonzeros = rows, cols, nonzeros
        m._hash = m._data = m._blocks = m._layout = None
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.nonzeros) == (other.rows, other.cols, other.nonzeros)

    def __hash__(self) -> int:
        # Computed once: matrices key the Smith cache, and hashing reads every entry.
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.nonzeros))
        return self._hash

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}, {self.cols}, {self.data!r})"

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        if self._data is None:
            rows = [[0] * self.cols for _ in self.nonzeros]
            for row, r in zip(rows, self.nonzeros):
                for j, x in r:
                    row[j] = x
            self._data = tuple(map(tuple, rows))
        return self._data

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        if not rows and cols is None:
            raise ValueError("empty matrix needs explicit column count")
        return IntMatrix(len(rows), len(rows[0]) if rows else cols, rows)

    @staticmethod
    def from_nonzeros(rows: Sequence[Mapping[int, int]], cols: int) -> "IntMatrix":
        """The matrix whose row i holds the entries {column: value} of
        ``rows[i]``; zero values are dropped."""
        nonzeros = tuple([tuple(sorted([(j, x) for j, x in r.items() if x])) for r in rows])
        if any(r and (r[0][0] < 0 or r[-1][0] >= cols) for r in nonzeros):
            raise ValueError("column index out of range")
        return IntMatrix._of(len(nonzeros), cols, nonzeros)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._of(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._of(n, n, tuple(((i, 1),) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, x in row:
                out[j].append((i, x))
        return IntMatrix._of(self.cols, self.rows, tuple(map(tuple, out)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product; the work follows the nonzeros of both factors."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        b = other.nonzeros
        return IntMatrix.from_nonzeros([_row_times(row, b) for row in self.nonzeros], other.cols)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple([sum([x * v[j] for j, x in row]) for row in self.nonzeros])

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(dict(row).get(j, 0) for row in self.nonzeros)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(dict(self.nonzeros[i]).get(i, 0) for i in range(min(self.rows, self.cols)))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, tuple(tuple((j, c * x) for j, x in row if c)
                                                         for row in self.nonzeros))


def hstack(blocks: Sequence[IntMatrix]) -> IntMatrix:
    if not blocks:
        raise ValueError("need at least one block")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("row mismatch in hstack")
    offsets = list(accumulate([b.cols for b in blocks], initial=0))  # block k starts at offsets[k]
    return IntMatrix._of(rows, offsets[-1], tuple(
        head + tuple([(o + j, x) for o, row in zip(offsets[1:], tail) for j, x in row])
        for head, *tail in zip(*(b.nonzeros for b in blocks))))  # block 0's rows kept as they are


def _row_times(row: Sequence[tuple[int, int]], b: Sequence[Sequence[tuple[int, int]]]) -> dict:
    """``row``, as (column, value) pairs, times the matrix of nonzeros ``b``: {column: sum}."""
    acc = {}
    for j, a in row:
        for k, y in b[j]:
            acc[k] = acc.get(k, 0) + a * y
    return acc


def vstack(blocks: Sequence[IntMatrix]) -> IntMatrix:
    if not blocks:
        raise ValueError("need at least one block")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column mismatch in vstack")
    return IntMatrix._of(sum(b.rows for b in blocks), cols,
                         tuple(chain.from_iterable(b.nonzeros for b in blocks)))


def block_matrix(grid: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """The matrix of a grid of blocks.  Of a 2 x 2 grid [[A, C], [0, B]] or
    [[A, 0], [C, B]] it records A, B and the layout (C below A or not, A's
    shape, A's and B's layouts), and ``_Smith`` starts from A's and B's."""
    out = vstack([hstack(row) for row in grid])
    if [len(row) for row in grid] == [2, 2] and (grid[0][1].is_zero() or grid[1][0].is_zero()):
        (a, _), (c, b) = grid
        out._blocks, out._layout = (a, b), (not c.is_zero(), a.rows, a.cols, a._layout, b._layout)
    return out


def determinant(a: IntMatrix) -> int:
    """Fraction-free Bareiss determinant."""
    if a.rows != a.cols:
        raise ValueError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class _Smith:
    """Smith decomposition D = L * A * R.

    ``A = Linv * D * Rinv`` with ``Linv``, ``Rinv`` unimodular.  Pivoting
    is deterministic.  ``_unit_pivots`` first eliminates the +-1 pivots,
    fewest rows first; the loop below then works on the core left over,
    which holds no +-1.  It scans the core for its entry of minimal
    absolute value, ties to the lowest (row, col), only to start a pivot;
    while a Euclid round leaves remainders, the next pivot is the least of
    them, in the pivot's column while it has any (ties to the lowest row),
    else in its row (ties to the lowest column) (Cohen, GTM 138, 2.4.4).
    Both eliminate by ``_eliminate``, whose nearest-integer quotients take
    fewer steps than the floor (Knuth, TAOCP vol. 2, 4.5.3).  D is unique;
    L, R and the generators read off them follow the pivot order.

    A block-triangular matrix that ``block_matrix`` records (a cone,
    D_even) starts instead from its diagonal blocks' cached factorizations
    (``_seeded``; Kaczynski, Mischaikow, Mrozek, *Computational Homology*,
    ch. 3-4): a +-1 of theirs is alone in one of its lines and only the
    off-diagonal block meets the other, so it clears without fill.

    The elimination is sparse: it does work in proportion to the nonzeros
    it touches, not to the size of the matrix or the remaining block.

    - Rows of A are dicts holding only their nonzeros, and ``rows_of[j]``
      is the set of rows with a nonzero in column j of A, kept in step
      with every row operation: the rows to clear under a pivot in column
      j are ``rows_of[j]``.
    - Everything runs in the input's frame (a seeded one's, after its
      blocks' logs): no row or column moves while pivots are taken.  A
      pivot's row and column are zero but for it once it is taken, so the
      active rows, those not yet pivoted, are zero in the pivot columns
      and whole rows can be scanned.  ``_place`` then moves pivot k to
      diagonal position k and makes it positive, so each log holds every
      swap and negation after every addition it adds.
    - A unit pivot divides every entry, so the divisibility pass is
      vacuous and skipped.
    - The elimination touches A only.  Its row and column operations are
      appended to a row log and a column log, the only record of L and R,
      and ``_apply`` multiplies a batch of sparse vectors by L, R or their
      inverses in one pass.  Only ``diag``, the input and the two logs are
      kept, so all reads share one factorization, in any order.
    - As A R = Linv D, column i < rank of Linv is A R e_i / d_i (d_i > 0).
      One pass of the column log over the rows of A gives the columns of
      A R; only the other columns go through the row log, several times
      longer than the column log on dense input.
    """

    def __init__(self, a: IntMatrix):
        self._a = a
        self.shape = m, n = a.rows, a.cols
        row_log, col_log = [], []  # (i, j, c) triples, packed by _pack
        A, units = (_seeded(a, row_log, col_log) if a._layout
                    else ([dict(row) for row in a.nonzeros], []))
        rows_of = [set() for _ in range(n)]
        for i, row in enumerate(A):
            for j in row:
                rows_of[j].add(i)
        for i, j in units:  # the blocks' +-1 pivots: only C' can meet their lines
            if len(A[i]) > 1 or len(rows_of[j]) > 1:
                _eliminate(A, rows_of, i, j, row_log, col_log)
        pivots = _unit_pivots(A, rows_of, row_log, col_log, units)
        done = {i for i, _ in pivots}
        active = [i for i, row in enumerate(A) if row and i not in done]
        found = _find_pivot(A, active)
        while found is not None:
            i, j = found
            if not _eliminate(A, rows_of, i, j, row_log, col_log):
                col = rows_of[j]  # pivot on the least remainder the round made
                found = ((min((abs(A[k][j]), k) for k in col)[1], j) if len(col) > 1
                         else (i, min((abs(x), l) for l, x in A[i].items() if l != j)[1]))
                continue
            p = A[i][j]
            bad = next((k for k in active if k != i and any(x % p for x in A[k].values())),
                       None) if abs(p) > 1 else None
            if bad is not None:  # enforce divisibility: row i += row bad, re-pivot
                _add_row(A[i], 1, A[bad], rows_of, i)
                row_log += (i, bad, 1)
            else:
                active.remove(i)
                pivots.append((i, j))
            found = _find_pivot(A, active)
        self.diag = _place(A, pivots, m, n, row_log, col_log)
        self.rank = len(pivots)
        self._row_log = _pack(row_log)
        self._col_log = _pack(col_log)

    def d_matrix(self) -> IntMatrix:
        m, n = self.shape
        return IntMatrix.from_nonzeros([{i: d} for i, d in enumerate(self.diag)]
                                       + [{}] * (m - len(self.diag)), n)

    def u_matrix(self) -> IntMatrix:
        """Linv, with A = Linv * D * Rinv: column i < rank is column i of
        A R over d_i, from one pass of the column log over the rows of A;
        the others are Linv e_i through the row log."""
        (m, n), r = self.shape, self.rank
        a_r = _apply(self._col_log, n, self._a.nonzeros, False, False)  # line i: column i of A R
        image = IntMatrix.from_nonzeros([{k: x // d for k, x in line.items()}
                                         for line, d in zip(a_r, self.diag[:r])], m).transpose()
        rest = _apply(self._row_log, m, _units(range(r, m)), False, True)
        return hstack([image, IntMatrix.from_nonzeros(rest, m - r)])

    def v_matrix(self) -> IntMatrix:
        """Rinv, with A = Linv * D * Rinv."""
        n = self.shape[1]
        return IntMatrix.from_nonzeros(_apply(self._col_log, n, _units(range(n)), True, True), n)

    def l_matrix(self) -> IntMatrix:
        m = self.shape[0]
        return IntMatrix.from_nonzeros(_apply(self._row_log, m, _units(range(m)), False, False), m)

    def left(self, vectors: Sequence) -> list[tuple[int, ...]]:
        """L v, dense, for each v in ``vectors`` given as (index, value) pairs."""
        return _vectors(_apply(self._row_log, self.shape[0], vectors, False, False), len(vectors))

    def right(self, vectors: Sequence) -> list[tuple[int, ...]]:
        """R v, dense, for each v in ``vectors`` given as (index, value) pairs."""
        return _vectors(_apply(self._col_log, self.shape[1], vectors, True, False), len(vectors))

    def solve(self, b: Sequence[int]) -> tuple[int, ...]:
        """One integer solution of A x = b, free parameters set to zero."""
        if len(b) != self.shape[0]:
            raise ValueError("rhs length mismatch")
        c, = self.left([_pairs(b)])
        factors = self.diag[:self.rank]  # the nonzero diagonal comes first
        if any(y % d for y, d in zip(c, factors)):
            raise NoSolution("divisibility obstruction")
        if any(c[self.rank:]):
            raise NoSolution("inconsistent row in diagonalized system")
        x, = self.right([[(i, y // d) for i, (y, d) in enumerate(zip(c, factors)) if y]])
        return x

    def kernel_columns(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel lattice of A."""
        return self.right(_units(range(self.rank, self.shape[1])))


def _seeded(a: IntMatrix, row_log: list, col_log: list) -> tuple[list[dict], list]:
    """The rows of L0 a R0 for a matrix ``block_matrix`` recorded, and the
    (row, column) of their diagonal +-1s; L0 and R0 are block diagonal with
    the blocks' cached L and R, whose logs, shifted, head a's.  That is
    [[D_A, L_A C R_B], [0, D_B]] for a = [[A, C], [0, B]] and [[D_A, 0],
    [L_B C R_A, D_B]] for [[A, 0], [C, B]]: C's rows go through R's log,
    then the columns of C R through L's, never dense.  A +-1 of D_A or D_B
    is alone in one of its lines and only C' meets the other, so
    ``_eliminate`` clears it without fill."""
    (lower, m0, n0, _, _), (top, bottom) = a._layout, a._blocks
    s_top, s_bottom = _smith(top), _smith(bottom)
    for log, k, (ii, jj, cs) in ((row_log, 0, s_top._row_log), (row_log, m0, s_bottom._row_log),
                                 (col_log, 0, s_top._col_log), (col_log, n0, s_bottom._col_log)):
        log += chain.from_iterable(zip(map(k.__add__, ii), map(k.__add__, jj), cs))
    # C = a[m0:, :n0] on B's rows and A's columns, or a[:m0, n0:] on A's rows and B's
    of_rows, of_cols, i0, j0 = (s_bottom, s_top, m0, 0) if lower else (s_top, s_bottom, 0, n0)
    c = [[(j - j0, x) for j, x in row if (j < n0) == lower]
         for row in a.nonzeros[i0:i0 + of_rows.shape[0]]]
    c_r = _apply(of_cols._col_log, of_cols.shape[1], c, False, False)  # line j: column j of C R
    l_c_r = _apply(of_rows._row_log, of_rows.shape[0], [line.items() for line in c_r], False, False)
    A = [{} for _ in range(a.rows)]
    for i, line in enumerate(l_c_r):
        A[i0 + i] = {j0 + j: x for j, x in line.items()}
    diagonal = [(p + k, q + k, d) for s, p, q in ((s_top, 0, 0), (s_bottom, m0, n0))
                for k, d in enumerate(s.diag[:s.rank])]
    for i, j, d in diagonal:
        A[i][j] = d
    return A, [(i, j) for i, j, d in diagonal if d == 1]


def _apply(log: tuple[array, array, list[int]], n: int, vectors: Sequence,
           columns: bool, inverse: bool) -> list[dict]:
    """The product of the n x n elementary operations in ``log``, or of
    their inverse, with each of ``vectors``, in one pass over the log.

    Operation k of a log ``(i, j, c)`` is (i[k], j[k], c[k]): c != 0 adds c
    times line j to line i, c == 0 swaps lines i and j, or negates line i
    when i == j.  A row log holds L = E_k ... E_1, a column log
    R = F_1 ... F_k, whose F acts on a vector as line j += c line i.  So:

    - L v: the row log in order, line i += c line j;
    - L^-1 v (``inverse``): the row log last-first, line i -= c line j;
    - R v (``columns``): the column log last-first, line j += c line i;
    - R^-1 v (both): the column log in order, line j -= c line i;
    - R^T v: a column log read with ``columns`` False: in order, line i += c line j.

    Vectors are read as (index, value) pairs; the products come back as n
    lines, line i holding coordinate i of each, as a dict over those where
    it is nonzero.  An operation costs its source line's nonzeros in the
    batch, and an empty batch reads no log.
    """
    lines = [{} for _ in range(n)]
    if not vectors:
        return lines
    ii, jj, cs = log
    if columns:
        ii, jj = jj, ii
    if inverse:
        cs = [-c for c in cs]
    if columns != inverse:
        ii, jj, cs = reversed(ii), reversed(jj), reversed(cs)
    for k, v in enumerate(vectors):
        for i, x in v:
            lines[i][k] = x
    for i, j, c in zip(ii, jj, cs):
        if c:
            src = lines[j]
            if src:
                dst = lines[i]
                for k, x in src.items():
                    y = dst.get(k, 0) + c * x
                    if y:
                        dst[k] = y
                    else:
                        del dst[k]
        elif i == j:
            line = lines[i]
            for k in line:
                line[k] = -line[k]
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return lines


def _vectors(lines: Sequence[dict], count: int) -> list[tuple[int, ...]]:
    """The ``count`` products whose lines ``_apply`` returned, dense."""
    out = [[0] * len(lines) for _ in range(count)]
    for i, line in enumerate(lines):
        for k, x in line.items():
            out[k][i] = x
    return list(map(tuple, out))


def _pack(log: list[int]) -> tuple[array, array, list[int]]:
    """A flat list of (i, j, c) triples as the log that ``_apply`` reads:
    the i and the j in compact arrays, the unbounded c in a list."""
    return array("i", log[0::3]), array("i", log[1::3]), log[2::3]


def _add_row(row: dict, c: int, v: dict, rows_of: list[set], i: int) -> None:
    """Row i of A += c * v, c != 0, with the column index following the
    entries that appear or vanish."""
    get = row.get
    for k, x in v.items():
        y = get(k)
        if y is None:
            row[k] = c * x
            rows_of[k].add(i)
        else:
            y += c * x
            if y:
                row[k] = y
            else:
                del row[k]
                rows_of[k].remove(i)


def _combine(pairs, vectors: Sequence[Sequence[int]], n: int) -> list[int]:
    """The sum of c * vectors[k] over the (k, c) in ``pairs``, each vector
    cut to length n."""
    out = [0] * n
    for k, c in pairs:
        if c:
            v = vectors[k]
            for i in compress(range(n), v):
                out[i] += c * v[i]
    return out


def _pairs(v: Sequence[int]):
    """The nonzeros of a dense vector as (index, value) pairs."""
    return zip(compress(range(len(v)), v), filter(None, v))


def _units(indices) -> list[tuple[tuple[int, int]]]:
    """The unit vectors e_i, i in ``indices``, as (index, value) pairs."""
    return [((i, 1),) for i in indices]


def _eliminate(A: list[dict], rows_of: list[set], i: int, j: int,
               row_log: list, col_log: list) -> bool:
    """Reduce column j, then row i, by the pivot p = A[i][j], logging each
    operation; return whether p is then alone in both.  Each entry a is
    reduced by the nearest-integer quotient of a / p, to a remainder in
    [-|p|/2, |p|/2]: exact on p = +-1.  Column j is clear before row i is
    reduced, so a column operation changes only row i."""
    row, p = A[i], A[i][j]
    half = 2 * p
    for k in [k for k in rows_of[j] if k != i]:
        q = (2 * A[k][j] + p) // half
        if q:  # row k -= q * row i
            _add_row(A[k], -q, row, rows_of, k)
            row_log += (k, i, -q)
    if len(rows_of[j]) > 1:
        return False
    for l in [l for l in row if l != j]:
        q = (2 * row[l] + p) // half
        if q:  # col l -= q * col j
            v = row[l] - q * p
            if v:
                row[l] = v
            else:
                del row[l]
                rows_of[l].remove(i)
            col_log += (l, j, -q)
    return len(row) == 1


def _unit_pivots(A: list[dict], rows_of: list[set], row_log: list, col_log: list,
                 pivots: list) -> list:
    """Eliminate the +-1 pivots of A outside the columns of ``pivots`` by
    ``_eliminate``; return ``pivots`` with theirs appended in order taken.

    A lazy heap of (rows in column j, j) pops the column with fewest rows;
    its pivot is the +-1 in the row with fewest nonzeros, ties to the lower
    row.  Only the pivot row's columns change, so only they are pushed
    again: no +-1 is left outside the pivots.  On vertex-edge coboundaries
    this makes fewer row additions than A has nonzeros, where the first
    row holding a +-1 contracts vertices into hubs.  Nothing moves: each
    pivot stays at its place in the input, and its sign is kept.
    """
    done = {j for _, j in pivots}
    heap = [(len(rows), j) for j, rows in enumerate(rows_of) if rows and j not in done]
    heapify(heap)
    while heap:
        count, j = heappop(heap)
        col = rows_of[j]
        if count != len(col) or j in done:
            continue  # stale: j was pushed again, or is a pivot column
        units = [(len(A[i]), i) for i in col if A[i][j] in (1, -1)]
        if not units:
            continue
        i = min(units)[1]
        changed = [l for l in A[i] if l != j]
        _eliminate(A, rows_of, i, j, row_log, col_log)
        for l in changed:
            heappush(heap, (len(rows_of[l]), l))
        pivots.append((i, j))
        done.add(j)
    return pivots


def _find_pivot(A: list[dict], active: Sequence[int]) -> Optional[tuple[int, int]]:
    """(row, col) of the entry of minimal |value| in the ``active`` rows,
    listed in increasing order, ties to the lowest (row, col); None when
    they are zero.  Active rows are zero in the pivot columns, so whole
    rows can be scanned; the scan stops at the first row holding a +-1,
    since nothing is smaller."""
    best, at = 0, None
    for i in active:
        row = A[i]
        if row:
            v = min(map(abs, row.values()))
            if at is None or v < best:
                best, at = v, i
                if v == 1:
                    break
    if at is None:
        return None
    return at, min(j for j, x in A[at].items() if x == best or x == -best)


def _place(A: list[dict], pivots: Sequence[tuple[int, int]], m: int, n: int,
           row_log: list, col_log: list) -> tuple[int, ...]:
    """Move pivot k to diagonal position k by row and column swaps, then
    negate the row of each negative pivot, logging each operation; return
    the diagonal.  Pivot k's row and column are zero but for it, and a
    later swap leaves position k alone."""
    row_at, col_at = list(range(m)), list(range(n))  # position -> line
    row_pos, col_pos = row_at[:], col_at[:]  # line -> position
    for k, (i, j) in enumerate(pivots):
        for at, pos, log, x in ((row_at, row_pos, row_log, i), (col_at, col_pos, col_log, j)):
            q, y = pos[x], at[k]
            if q != k:  # swap positions k and q
                at[k], at[q], pos[x], pos[y] = x, y, k, q
                log += (k, q, 0)
        if A[i][j] < 0:
            row_log += (k, k, 0)
    return tuple(abs(A[i][j]) for i, j in pivots) + (0,) * (min(m, n) - len(pivots))


def _smith(a: IntMatrix) -> _Smith:
    """The cached factorization of ``a``, keyed on its block layout too: it
    cannot depend on which of two equal matrices reached the cache first."""
    return _smith_cached(a, a._layout)


@lru_cache(maxsize=4096)
def _smith_cached(a: IntMatrix, layout: Optional[tuple]) -> _Smith:
    return _Smith(a)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with A = U*D*V, U and V unimodular, D diagonal
    with non-negative entries in a divisibility chain."""
    s = _smith(a)
    return s.u_matrix(), s.d_matrix(), s.v_matrix()


def solve_integer(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...]:
    """Some integer x with A x = b.  Raises NoSolution if b is not in the
    image of A over the integers.  Deterministic: free parameters are zero
    after the Smith substitution."""
    return _smith(a).solve(b)


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the lattice of integer solutions of A x = 0."""
    return _smith(a).kernel_columns()


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FGAbelianGroup:
    """Invariant-factor normal form Z^r + Z/d1 + ... + Z/dk, d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        rels = (*self.torsion, *other.torsion)
        mat = IntMatrix.from_nonzeros([{i: d} for i, d in enumerate(rels)], len(rels))
        merged = normal_form(PresentedGroup(len(rels), mat))
        return FGAbelianGroup(self.free_rank + other.free_rank + merged.free_rank, merged.torsion)

    def presentation(self) -> "PresentedGroup":
        """Canonical presentation: one relation d_i * e_{r+i} per factor."""
        n = self.free_rank + len(self.torsion)
        return PresentedGroup(n, IntMatrix.from_nonzeros(
            [{self.free_rank + i: d} for i, d in enumerate(self.torsion)], n))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PresentedGroup:
    """Quotient of Z^ambient_rank by the row space of ``relations``."""

    ambient_rank: int
    relations: IntMatrix

    def __post_init__(self) -> None:
        if self.relations.cols != self.ambient_rank:
            raise ValueError("relation width must equal ambient rank")


def normal_form(g: PresentedGroup) -> FGAbelianGroup:
    """Cokernel of the relation matrix in invariant-factor form."""
    s = _smith(g.relations)
    return FGAbelianGroup(g.ambient_rank - s.rank, tuple(d for d in s.diag if d > 1))


# ---------------------------------------------------------------------------
# Homology of a pair of composable maps
# ---------------------------------------------------------------------------

class GroupData:
    """A subquotient ker(d_out)/im(d_in): its group first, its generators
    on first use.

    ``group`` is known when the value is made.  ``representatives`` are
    cycles in the middle term: free generators first, then torsion
    generators in invariant-factor order.  ``class_of`` maps any cycle to
    its coordinates in that order, reducing torsion coordinates into
    [0, d), and raises ValueError on a non-cycle.

    ``GroupData.deferred(group, build)`` leaves both to ``build()``, which
    returns a GroupData of the same group; it runs once, on the first read
    of ``representatives``, ``class_of`` or ``coordinates``, so a caller
    that reads only ``group`` never pays for generators.
    """

    __slots__ = ("group", "_generators")

    def __init__(self, group: FGAbelianGroup, representatives: Sequence[Sequence[int]] = (),
                 class_of: Optional[Callable[[Sequence[int]], tuple[int, ...]]] = None):
        self.group = group
        self._generators = (tuple(representatives), class_of)

    @classmethod
    def deferred(cls, group: FGAbelianGroup, build: Callable[[], "GroupData"]) -> "GroupData":
        out = cls(group)
        out._generators = build
        return out

    def _built(self) -> tuple:
        # One read of the slot: two threads reading first may both build,
        # and both store equal generators.
        gens = self._generators
        if callable(gens):
            built = gens()
            gens = self._generators = (built.representatives, built.class_of)
        return gens

    @property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return self._built()[0]

    @property
    def class_of(self) -> Optional[Callable[[Sequence[int]], tuple[int, ...]]]:
        return self._built()[1]

    def coordinates(self, cycle: Sequence[int]) -> tuple[int, ...]:
        if self.class_of is None:
            raise ValueError("no class_of map attached")
        return self.class_of(cycle)


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> GroupData:
    """ker(d_out)/im(d_in): the group at once, generators and a class_of
    map on first use.

    ``d_in``: C_in -> C_mid and ``d_out``: C_mid -> C_out; requires
    d_out . d_in = 0.  The group is read off the cached Smith forms of the
    two maps: free rank n_mid - rank(d_in) - rank(d_out), torsion the
    diagonal entries of d_in above 1.  Generators come from the same
    factorizations in adapted bases (Kaczynski, Mischaikow, Mrozek,
    *Computational Homology*, ch. 3), built by ``_generators`` only when
    ``representatives``, ``class_of`` or ``coordinates`` is first read.
    """
    _check_composes(d_in, d_out)
    return GroupData.deferred(_group(d_in.rows, _smith(d_in), _smith(d_out)),
                              lambda: _generators(d_in, d_out))


def homology_at_transpose(d_in: IntMatrix, d_out: IntMatrix) -> GroupData:
    """``homology_at(d_out.T, d_in.T)``, ker(d_in.T)/im(d_out.T): for the
    coboundaries d_in = delta^{k-1} and d_out = delta^k, the homology H_k.

    Transposing keeps ranks and invariant factors, so the group is read
    off the cached Smith forms of d_in and d_out themselves, those that
    the cohomology at the same degree reads.  The transposes are built and
    factored only when generators are first asked for.
    """
    _check_composes(d_in, d_out)
    return GroupData.deferred(_group(d_out.cols, _smith(d_out), _smith(d_in)),
                              lambda: homology_at(d_out.transpose(), d_in.transpose()))


@lru_cache(maxsize=4096)
def _check_composes(d_in: IntMatrix, d_out: IntMatrix) -> None:
    """Raise unless d_in and d_out chain through one middle and compose to
    zero, row by row up to the first nonzero row of d_out . d_in, never
    forming the product.  Cached, so H^k and H_k of one complex check once;
    a failing pair raises on every call, since exceptions are not cached."""
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions disagree")
    if any(any(_row_times(row, d_in.nonzeros).values()) for row in d_out.nonzeros):
        raise CompositionNotZero("d_out . d_in != 0")


def _group(n_mid: int, s_in: _Smith, s_out: _Smith) -> FGAbelianGroup:
    """ker(d_out)/im(d_in) for maps through Z^n_mid that compose to zero,
    from the Smith forms of d_in and d_out or of their transposes."""
    return FGAbelianGroup(n_mid - s_in.rank - s_out.rank, tuple(d for d in s_in.diag if d > 1))


def _generators(d_in: IntMatrix, d_out: IntMatrix) -> GroupData:
    """``homology_at(d_in, d_out)`` with its generators and class_of built
    from two factorizations, d_in's and M's below (Kaczynski, Mischaikow,
    Mrozek, *Computational Homology*, ch. 3):

    - With L d_in R = D of rank r and y = L x, im(d_in) is spanned by the
      d_i e_i (i < r).  As d_out d_in = 0, d_out L^-1 = [0 | M] (M = d_out
      when d_in is zero, as L = 1 then).
    - With L_M M R_M = D_M of rank s and z = R_M^-1 y[r:], d_out x = 0
      exactly when z[:s] = 0.  The free generators are the L^-1 (0, R_M e_l)
      (l >= s), with coordinates z[s:]; the torsion ones the L^-1 e_i with
      d_i > 1, with coordinates y_i mod d_i.
    """
    n_mid = d_in.rows
    s_in = _smith(d_in)
    r = s_in.rank
    tors = [(i, d) for i, d in enumerate(s_in.diag[:r]) if d > 1]
    if r:  # line j of L^-T d_out^T is column j of d_out L^-1
        m_cols = _apply(s_in._row_log, n_mid, d_out.nonzeros, True, True)[r:]
        s_m = _Smith(IntMatrix.from_nonzeros(m_cols, d_out.rows).transpose())
    else:
        s_m = _smith(d_out)
    n_m, s = n_mid - r, s_m.rank
    free = [[] for _ in range(s, n_m)]  # the (0, R_M e_l) as (index, value) pairs
    for i, line in enumerate(_apply(s_m._col_log, n_m, _units(range(s, n_m)), True, False)):
        for k, x in line.items():
            free[k].append((r + i, x))
    reps = _vectors(_apply(s_in._row_log, n_mid, free + _units([i for i, _ in tors]), False, True),
                    len(free) + len(tors))

    def class_of(cycle: Sequence[int]) -> tuple[int, ...]:
        if len(cycle) != n_mid:
            raise ValueError("cycle has wrong length")
        y, = s_in.left([_pairs(cycle)])
        z = _apply(s_m._col_log, n_m, [_pairs(y[r:])], True, True)
        if any(z[:s]):
            raise ValueError("not a cycle")
        return tuple(line.get(0, 0) for line in z[s:]) + tuple(y[i] % d for i, d in tors)

    return GroupData(FGAbelianGroup(n_m - s, tuple(d for _, d in tors)), reps, class_of)


def homology_at_mod(d_in: IntMatrix, d_out: IntMatrix, m: int) -> GroupData:
    """ker(d_out)/im(d_in) over Z/m, m >= 2, for maps that compose to zero
    over Z, by universal coefficients (Hatcher, *Algebraic Topology*, Thm
    3.2): H (x) Z/m (+) Tor(coker d_out, Z/m), H = ``homology_at``.  The
    group is read at once: Z/m per free generator of H and Z/gcd(d, m) per
    invariant factor d > 1 of d_in and of d_out, ordered by the Smith form
    S of their diagonal.  Generators, built on first use, are H's and
    (m/g) R_out e_i per factor d_i of d_out with g = gcd(d_i, m) > 1,
    recombined by S's U.  For x with d_out x = 0 (mod m) and
    w = L_out d_out x / m, ``class_of`` reads the Tor coordinates
    w_i g / d_i, and H's class_of the cycle x - R_out y, y_i = m w_i / d_i.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    integral = homology_at(d_in, d_out)
    s_out, n_mid, h = _smith(d_out), d_in.rows, integral.group
    factors = s_out.diag[:s_out.rank]
    tor = [(i, g) for i, d in enumerate(factors) if (g := gcd(d, m)) > 1]
    orders = [m] * h.free_rank + [gcd(d, m) for d in h.torsion] + [g for _, g in tor]
    s = _smith(IntMatrix.from_nonzeros([{i: o} for i, o in enumerate(orders)], len(orders)))
    units = s.diag.count(1)
    group = FGAbelianGroup(0, s.diag[units:])

    def class_of(cycle: Sequence[int]) -> tuple[int, ...]:
        image = d_out.mul_vec(cycle)  # raises ValueError on a wrong length
        if any(v % m for v in image):
            raise ValueError("not a cycle")
        w, = s_out.left([_pairs([v // m for v in image])])
        y, = s_out.right([_pairs([m * x // d for x, d in zip(w, factors)])])
        c = integral.class_of([a - b for a, b in zip(cycle, y)]) + tuple(w[i] * g // factors[i]
                                                                           for i, g in tor)
        return tuple(x % d for x, d in zip(s.left([_pairs(c)])[0][units:], group.torsion))

    def build() -> GroupData:
        tor_gens = s_out.right(_units([i for i, _ in tor]))
        gens = list(integral.representatives) + [[m // g * v for v in col]
                                                 for (_, g), col in zip(tor, tor_gens)]
        return GroupData(group, [tuple(_combine(col, gens, n_mid))
                                 for col in s.u_matrix().transpose().nonzeros[units:]], class_of)

    return GroupData.deferred(group, build)


def rank_of(a: IntMatrix) -> int:
    return _smith(a).rank


def solve_mod(a: IntMatrix, b: Sequence[int], m: int) -> tuple[int, ...]:
    """Some x with entries in [0, m) and A x = b (mod m); raises NoSolution
    otherwise.  For m = 2 this is Gaussian elimination over GF(2) (see
    ``_solve_gf2``); for other m, an integer solve of [A | m I] y = b."""
    if m == 2:
        return _solve_gf2(a, b)
    aug = hstack([a, IntMatrix.identity(a.rows).scale(m)])
    x = solve_integer(aug, b)
    return tuple(v % m for v in x[:a.cols])


def _solve_gf2(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...]:
    """The x in {0, 1}^n with A x = b (mod 2) whose free variables are zero.

    Equation i is the Python int whose bit j is A[i][j] mod 2 (j < n) and
    whose bit n is b_i mod 2.  Each is reduced by the rows kept so far,
    keyed by their lowest set bit, and kept when a coefficient bit
    survives; one reduced to the bare bit n is inconsistent.  The kept
    rows are an echelon form, and its pivots are the columns outside the
    span of the columns before them, whatever the order of the equations;
    the other columns are the free variables.
    """
    n = a.cols
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    rhs = 1 << n
    kept: dict[int, int] = {}  # lowest set bit -> row
    for row, c in zip(a.nonzeros, b):
        bits = rhs if c & 1 else 0
        for j, x in row:
            if x & 1:
                bits |= 1 << j
        while bits:
            low = bits & -bits
            if low == rhs:
                raise NoSolution("inconsistent row mod 2")
            pivot_row = kept.get(low)
            if pivot_row is None:
                kept[low] = bits
                break
            bits ^= pivot_row
    x = 0  # back substitution, last pivot first
    for low in sorted(kept, reverse=True):
        row = kept[low]
        if ((row & x).bit_count() + (row >> n)) & 1:
            x |= low
    return tuple((x >> j) & 1 for j in range(n))
