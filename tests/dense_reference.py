"""Dense reference for the exact Smith kernel and the matrix product.

The dense elimination and product that ``tdual.exactalg`` used before its
loops were made to follow the nonzeros.  Kept verbatim as a test oracle:
the differential tests require ``exactalg`` to produce exactly the same D
and products, the same solvability and kernel lattice, and transforms
that factor A; ``exactalg`` takes its +-1 pivots in another order, so its
L, R, U and V differ from these.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import Sequence

from tdual.exactalg import IntMatrix, NoSolution


def dense_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    ot = b.transpose().data
    out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in ot) for row in a.data)
    return IntMatrix(a.rows, b.cols, out)


class DenseSmith:
    """Smith decomposition D = L * A * R.

    ``A = Linv * D * Rinv`` with ``Linv``, ``Rinv`` unimodular; the inverse
    transforms are only accumulated when ``full`` is set (solving and
    kernels need just L and R).  Pivoting is deterministic: the nonzero
    entry of minimal absolute value, ties broken by lowest (row, col).
    """

    def __init__(self, a: IntMatrix, full: bool = False):
        self.shape = (a.rows, a.cols)
        self.full = full
        m, n = a.rows, a.cols
        A = [list(row) for row in a.data]
        L = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        Linv = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if full else None
        Rinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if full else None

        def row_swap(i, j):
            A[i], A[j] = A[j], A[i]
            L[i], L[j] = L[j], L[i]
            if full:
                for r in Linv:
                    r[i], r[j] = r[j], r[i]

        def col_swap(i, j):
            for r in A:
                r[i], r[j] = r[j], r[i]
            for r in R:
                r[i], r[j] = r[j], r[i]
            if full:
                Rinv[i], Rinv[j] = Rinv[j], Rinv[i]

        def row_add(i, j, c):
            # row i += c * row j
            Ai, Aj = A[i], A[j]
            for k in range(n):
                Ai[k] += c * Aj[k]
            Li, Lj = L[i], L[j]
            for k in range(m):
                Li[k] += c * Lj[k]
            if full:
                for r in Linv:
                    r[j] -= c * r[i]

        def col_add(i, j, c):
            # col i += c * col j
            for r in A:
                r[i] += c * r[j]
            for r in R:
                r[i] += c * r[j]
            if full:
                Ri, Rj = Rinv[i], Rinv[j]
                for k in range(n):
                    Rj[k] -= c * Ri[k]

        def row_negate(i):
            A[i] = [-x for x in A[i]]
            L[i] = [-x for x in L[i]]
            if full:
                for r in Linv:
                    r[i] = -r[i]

        t = 0
        while t < min(m, n):
            empty = False
            while True:
                # deterministic pivot: minimal |value|, then lowest (row, col)
                best = None
                for i in range(t, m):
                    Ai = A[i]
                    for j in range(t, n):
                        v = Ai[j]
                        if v != 0:
                            av = abs(v)
                            if best is None or av < best[0]:
                                best = (av, i, j)
                if best is None:
                    empty = True
                    break
                _, bi, bj = best
                if bi != t:
                    row_swap(t, bi)
                if bj != t:
                    col_swap(t, bj)
                if A[t][t] < 0:
                    row_negate(t)

                pivot = A[t][t]
                col_clean = True
                for i in range(t + 1, m):
                    v = A[i][t]
                    if v:
                        q = v // pivot
                        if q:
                            row_add(i, t, -q)
                        if A[i][t]:
                            col_clean = False
                if not col_clean:
                    continue  # a smaller remainder appeared; re-pivot
                row_clean = True
                for j in range(t + 1, n):
                    v = A[t][j]
                    if v:
                        q = v // pivot
                        if q:
                            col_add(j, t, -q)
                        if A[t][j]:
                            row_clean = False
                if not row_clean:
                    continue
                # pivot row/col clean: enforce divisibility over the rest
                bad = None
                for i in range(t + 1, m):
                    Ai = A[i]
                    for j in range(t + 1, n):
                        if Ai[j] % pivot:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_add(t, bad, 1)
            if empty:
                break
            t += 1

        self.rank = sum(1 for i in range(min(m, n)) if A[i][i] != 0)
        self.diag = tuple(A[i][i] for i in range(min(m, n)))
        self._A = A
        self._L = L
        self._Linv = Linv
        self._R = R
        self._Rinv = Rinv

    def d_matrix(self) -> IntMatrix:
        m, n = self.shape
        return IntMatrix(m, n, tuple(tuple(r) for r in self._A))

    def u_matrix(self) -> IntMatrix:
        if not self.full:
            raise ValueError("inverse transforms were not tracked")
        m = self.shape[0]
        return IntMatrix(m, m, tuple(tuple(r) for r in self._Linv))

    def v_matrix(self) -> IntMatrix:
        if not self.full:
            raise ValueError("inverse transforms were not tracked")
        n = self.shape[1]
        return IntMatrix(n, n, tuple(tuple(r) for r in self._Rinv))

    def l_matrix(self) -> IntMatrix:
        m = self.shape[0]
        return IntMatrix(m, m, tuple(tuple(r) for r in self._L))

    def solve(self, b: Sequence[int]) -> tuple[int, ...]:
        """One integer solution of A x = b, free parameters set to zero."""
        m, n = self.shape
        if len(b) != m:
            raise ValueError("rhs length mismatch")
        nz_b = [(k, v) for k, v in enumerate(b) if v]
        L = self._L
        c = [sum(L[i][k] * v for k, v in nz_b) for i in range(m)]
        y = [0] * n
        for i in range(min(m, n)):
            d = self._A[i][i]
            if d == 0:
                if c[i] != 0:
                    raise NoSolution("inconsistent row in diagonalized system")
            else:
                if c[i] % d:
                    raise NoSolution("divisibility obstruction")
                y[i] = c[i] // d
        for i in range(min(m, n), m):
            if c[i] != 0:
                raise NoSolution("inconsistent row in diagonalized system")
        nz_y = [(k, v) for k, v in enumerate(y) if v]
        R = self._R
        return tuple(sum(R[i][k] * v for k, v in nz_y) for i in range(n))

    def kernel_columns(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel lattice of A."""
        m, n = self.shape
        out = []
        for j in range(n):
            if j >= min(m, n) or self._A[j][j] == 0:
                out.append(tuple(self._R[i][j] for i in range(n)))
        return out
