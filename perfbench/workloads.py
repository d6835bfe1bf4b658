"""The benchmark's workloads.

Each workload builds its inputs from the seed (``setup``), then runs a list
of operations through tdual's public functions (``op``) and judges every
output against its oracle (``failed``).  ``setup`` is the only place that
imports tdual, so that the import is part of the measured set-up time.

Sizes are fixed per workload; ``small`` selects a reduced size that the
benchmark's own tests use.
"""

from __future__ import annotations

import json
import random

# Caches whose entries are the inputs built in set-up (catalog spaces and
# their orientation systems).  They are the only caches that may be warm
# when the timed phase starts.
CATALOG_INPUTS = frozenset({"catalog.circle", "catalog.torus", "catalog.klein_bottle",
                            "catalog.sigma", "catalog.crosscap_sum",
                            "catalog._solve_sign_system"})


class Workload:
    """A seed's inputs and their operations; ``input_caches`` names the
    caches that set-up fills with inputs.  With ``cold_ops`` every other
    cache is emptied, untimed, before each operation, so that each one
    runs as in a fresh process."""

    input_caches = frozenset()
    cold_ops = False

    def __init__(self, seed: str, small: bool):
        self.seed, self.small = seed, small


def _space(kind: str, param: int):
    """The catalog space that ``pipeline`` uses for a fixture's space."""
    from tdual import catalog
    if kind == "klein":
        return catalog.space("circle")
    if kind == "sigma":
        return catalog.space("sigma", g=param)
    return catalog.space("crosscap", n=param)


class Fixtures(Workload):
    """Every reference cell through ``pipeline.compute_fixture``, in an
    order shuffled by the seed."""

    input_caches = CATALOG_INPUTS

    def setup(self):
        from tdual import fixtures, pipeline
        cells = list(fixtures.all_fixtures())
        random.Random(self.seed).shuffle(cells)
        if self.small:
            cells = [c for c in cells if c.space == "klein" or c.params[0] == 1]
        for kind, param in sorted({(c.space, c.params[0] if c.params else 0) for c in cells}):
            _space(kind, param).xi()
        self.compute = pipeline.compute_fixture
        return cells

    def op(self, cell):
        return self.compute(cell)

    def failed(self, cell, out) -> bool:
        return out != cell.expected

    def canonical(self, out) -> str:
        return repr(out)


class PipelineLarge(Workload):
    """``pipeline.run_pipeline`` on one genus-g surface for each of its four
    (j, k), then on one crosscap sum for one (j, k) drawn by the seed; (j,
    k) take the values the fixtures cover.

    One operation's cost depends on its (j, k): the sigma(4) pairs differ
    by up to 30 % and the crosscap(6) pairs by up to 33 %.  Drawing sigma's
    pairs would carry that spread into every run; running all four keeps
    the surface's share of a repetition fixed.  The four share cached work
    (in one process the later ones take a third to two thirds of the
    first's time), so each runs cold, as ``tdual tables`` runs in a fresh
    process.  Their order is fixed, so that the seed moves only the
    crosscap pair.
    """

    input_caches = CATALOG_INPUTS
    cold_ops = True
    SIGMA_G, CROSSCAP_N = 4, 6

    def setup(self):
        from tdual import pipeline
        rng = random.Random(self.seed)
        g, n = (1, 2) if self.small else (self.SIGMA_G, self.CROSSCAP_N)
        ops = [("sigma", g, j, k) for j in range(2) for k in range(2)]
        ops.append(("crosscap", n, rng.randint(0, 3), rng.randint(0, 3)))
        for kind, param, _, _ in ops:
            _space(kind, param).xi()
        self.run_pipeline = pipeline.run_pipeline
        return ops

    def op(self, params):
        return self.run_pipeline(*params)

    def failed(self, params, report) -> bool:
        # A report without fixture diffs was not compared with the tables.
        return not (report.ok and report.fixture_diffs)

    def canonical(self, report) -> str:
        return json.dumps(report.to_json_dict(), sort_keys=True)


class Courant(Workload):
    """``courant.run_context_checks`` in the four standard contexts, with
    the random sections of each of five fixed section seeds, in an order
    shuffled by the seed: 20 operations.

    ``sections=3`` is what the package's own tests use, and the smallest
    count at which the derived-bracket and Clifford checks, which pair
    section triples with forms, see a form of every degree 0, 1 and 2.
    The section seeds start at 7, the CLI's default.  They are fixed
    because one draw's cost depends on its random terms, by about 18 %
    (standard deviation over 40 draws per context); with drawn sections
    the quartile spread of ``op_p90_ms`` over ten runs would come near
    its bound of 0.25 (see README.md).
    """

    SECTIONS = 3
    SECTION_SEEDS = range(7, 12)

    def setup(self):
        from tdual import courant
        contexts = courant.standard_contexts()[:1 if self.small else None]
        self.checks = courant.run_context_checks
        seeds = self.SECTION_SEEDS[:1] if self.small else self.SECTION_SEEDS
        ops = [(label, ctx, seed) for seed in seeds for label, ctx in contexts]
        random.Random(self.seed).shuffle(ops)
        return ops

    def op(self, params):
        label, ctx, seed = params
        return self.checks(ctx, sections=self.SECTIONS, seed=seed, label=label)

    def failed(self, params, report) -> bool:
        return not (report.ok and report.checks)

    def canonical(self, report) -> str:
        return repr(report.checks)


class SnfDense(Workload):
    """Seeded random dense integer matrices through ``smith_normal_form``,
    ``kernel_basis`` and ``solve_integer``.

    Shapes follow a fixed schedule; the seed draws the entries, the planted
    row and the right-hand sides.  Each matrix carries one planted
    obstruction that makes ``unsolvable`` have no integer solution: on even
    indices the last row is the difference of two others (no rational
    solution), on odd indices one row is a multiple of a prime that does
    not divide the matching entry of the right-hand side.
    """

    SHAPES = ((4, 4), (5, 7), (7, 5), (8, 8), (6, 10), (10, 6), (10, 10), (9, 14),
              (14, 9), (12, 12), (12, 18), (18, 12), (16, 16), (20, 20), (16, 24), (24, 24))
    MATRICES = 192
    ENTRY = 50

    def _matrix(self, rng: random.Random, i: int):
        rows, cols = self.SHAPES[i % len(self.SHAPES)]
        e = self.ENTRY
        a = [[rng.randint(-e, e) for _ in range(cols)] for _ in range(rows)]
        if i % 2 == 0:
            p, q = rng.sample(range(rows - 1), 2)
            a[-1] = [x - y for x, y in zip(a[p], a[q])]
            planted = rows - 1
        else:
            prime = rng.choice((2, 3, 5, 7))
            planted = rng.randrange(rows)
            a[planted] = [prime * rng.randint(-e // prime, e // prime) for _ in range(cols)]
        x = [rng.randint(-9, 9) for _ in range(cols)]
        solvable = [sum(u * v for u, v in zip(row, x)) for row in a]
        unsolvable = list(solvable)
        unsolvable[planted] += 1
        return a, solvable, unsolvable

    def setup(self):
        from tdual import exactalg
        rng = random.Random(self.seed)
        count = 8 if self.small else self.MATRICES
        self.ex = exactalg
        ops = []
        for i in range(count):
            a, solvable, unsolvable = self._matrix(rng, i)
            ops.append((exactalg.IntMatrix.from_rows(a), tuple(solvable), tuple(unsolvable)))
        return ops

    def op(self, params):
        a, solvable, unsolvable = params
        ex = self.ex
        u, d, v = ex.smith_normal_form(a)
        kernel = ex.kernel_basis(a)
        x = ex.solve_integer(a, solvable)
        try:
            y = ex.solve_integer(a, unsolvable)
        except ex.NoSolution:
            y = None
        return u.data, d.data, v.data, tuple(kernel), x, y

    def failed(self, params, out) -> bool:
        a, solvable, unsolvable = params
        u, d, v, kernel, x, y = out
        rows = a.data
        cols = a.cols
        diag = [d[i][i] for i in range(min(a.rows, cols))]
        rank = sum(1 for t in diag if t)
        ok = (_matmul(_matmul(u, d), v) == [list(r) for r in rows]
              and all(d[i][j] == 0 for i in range(a.rows) for j in range(cols) if i != j)
              and all(t >= 0 for t in diag)
              and all(diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
                      for i in range(len(diag) - 1))
              and abs(_det(u)) == 1 and abs(_det(v)) == 1
              and len(kernel) == cols - rank
              and all(any(k) and _matvec(rows, k) == [0] * a.rows for k in kernel)
              and _matvec(rows, x) == list(solvable)
              and y is None)
        return not ok

    def canonical(self, out) -> str:
        return repr(out)


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _det(m) -> int:
    """Bareiss fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - aik * rk[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


WORKLOADS = {"fixtures": Fixtures, "pipeline_large": PipelineLarge,
             "courant": Courant, "snf_dense": SnfDense}
