"""Reference for the homology of a pair of composable maps.

``_subquotient``, ``homology_at`` and ``homology_at_mod`` as ``tdual``
computed them before homology was read off the Smith forms of the two
maps: a kernel basis of d_out, a second factorization of that basis for
coordinates, and a full-mode factorization of the relation matrix; the
mod-m path projected the kernel of [d_out | m I].  Kept verbatim as a
test oracle: the groups must agree, and the two ``class_of`` maps must
translate between the two sets of generators by an invertible change of
coordinates.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Sequence

from tdual.exactalg import (
    CompositionNotZero,
    FGAbelianGroup,
    GroupData,
    IntMatrix,
    NoSolution,
    _Smith,
    hstack,
    kernel_basis,
)


def _subquotient(kernel_cols: list[tuple[int, ...]], n_mid: int,
                 image_cols: list[tuple[int, ...]]) -> GroupData:
    """ker/im where ``kernel_cols`` spans a saturated sublattice of Z^n_mid
    containing every column of ``image_cols``."""
    k = len(kernel_cols)
    kmat = IntMatrix.from_rows([[kernel_cols[j][i] for j in range(k)] for i in range(n_mid)],
                               cols=k)
    ksmith = _Smith(kmat)
    rel_rows = []
    for colv in image_cols:
        rel_rows.append(ksmith.solve(colv))  # coordinates of the column in the kernel basis
    relmat = IntMatrix.from_rows([list(r) for r in rel_rows], cols=k)
    # relations act on Z^k; columns of relmat^T span the image
    msmith = _Smith(relmat.transpose())
    diag = msmith.diag
    torsion_pos = [i for i in range(len(diag)) if diag[i] > 1]
    free_pos = [i for i in range(k) if i >= len(diag) or diag[i] == 0]
    order = free_pos + torsion_pos
    torsion = tuple(diag[i] for i in torsion_pos)
    group = FGAbelianGroup(len(free_pos), torsion)

    u = msmith.u_matrix()         # k x k; columns are the adapted basis
    l = msmith.l_matrix()         # u^{-1}
    reps = []
    for pos in order:
        vec = [0] * n_mid
        for kcol, g in zip(kernel_cols, u.col(pos)):
            if g:
                vec = [x + g * y for x, y in zip(vec, kcol)]
        reps.append(tuple(vec))

    moduli = [0] * len(free_pos) + list(torsion)

    def class_of(cycle: Sequence[int]) -> tuple[int, ...]:
        if len(cycle) != n_mid:
            raise ValueError("cycle has wrong length")
        try:
            y = ksmith.solve(tuple(cycle))
        except NoSolution as exc:
            raise ValueError("not a cycle") from exc
        z = [sum(l.data[i][j] * y[j] for j in range(k)) for i in range(k)]
        out = []
        for pos, m in zip(order, moduli):
            out.append(z[pos] % m if m else z[pos])
        return tuple(out)

    return GroupData(group, tuple(reps), class_of)


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> GroupData:
    """ker(d_out)/im(d_in) with generators and a class_of map.

    ``d_in``: C_in -> C_mid and ``d_out``: C_mid -> C_out; requires
    d_out . d_in = 0.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions disagree")
    if not d_out.mul(d_in).is_zero():
        raise CompositionNotZero("d_out . d_in != 0")
    n_mid = d_in.rows
    kernel = kernel_basis(d_out)
    image = [d_in.col(j) for j in range(d_in.cols)]
    return _subquotient(kernel, n_mid, image)


def homology_at_mod(d_in: IntMatrix, d_out: IntMatrix, m: int) -> GroupData:
    """Homology of the complex reduced mod m, via integer lattices."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions disagree")
    if any(v % m for row in d_out.mul(d_in).data for v in row):
        raise CompositionNotZero("d_out . d_in != 0 (mod m)")
    n_mid = d_in.rows
    n_out = d_out.rows
    # x with d_out x = 0 (mod m): project the kernel of [d_out | m*I]
    stacked = hstack([d_out, IntMatrix.identity(n_out).scale(m)]) if n_out else IntMatrix.zeros(0, n_mid)
    kernel = [v[:n_mid] for v in kernel_basis(stacked)] if n_out else \
             [tuple(1 if i == j else 0 for i in range(n_mid)) for j in range(n_mid)]
    image = [d_in.col(j) for j in range(d_in.cols)]
    image += [tuple(m if i == j else 0 for i in range(n_mid)) for j in range(n_mid)]
    return _subquotient(kernel, n_mid, image)
