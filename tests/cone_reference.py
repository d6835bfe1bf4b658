"""Reference for the mapping cones and the (co)homology loops.

The coboundaries of the total-space and correspondence models, assembled
block by block, and the four degree loops (base and total, cohomology and
homology) that ``tdual`` used before ``ChainComplex`` and ``cone``
replaced them.  Kept as a test oracle: the new code must give the same
matrices, groups, generators and ``class_of`` coordinates.  The bodies are
the old ones; only the total loops read the reference ``total_delta``
instead of ``TotalComplex.delta_matrix``, so that no new code enters.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from tdual.complexes import (
    RING_Q,
    RING_Z,
    DeltaComplex,
    InvalidLocalSystem,
    LocalSystem,
    System,
    coboundary_matrix,
    cup_matrix_left,
    tensor,
)
from tdual.exactalg import (
    FGAbelianGroup,
    GroupData,
    IntMatrix,
    block_matrix,
    homology_at,
    homology_at_mod,
)


def boundary_matrix(x: DeltaComplex, k: int, system: System = None) -> IntMatrix:
    """Transported boundary C_k -> C_{k-1}: transpose of the coboundary."""
    if k <= 0:
        return IntMatrix.zeros(0, x.count(0) if k == 0 else 0)
    return coboundary_matrix(x, k - 1, system).transpose()


def cohomology(x: DeltaComplex, system: System = None, ring=RING_Z) -> list[GroupData]:
    if system is not None and system.base != x:
        raise InvalidLocalSystem("system lives over a different complex")
    out = []
    for k in range(x.dimension + 1):
        d_in = coboundary_matrix(x, k - 1, system) if k else IntMatrix.zeros(x.count(0), 0)
        d_out = coboundary_matrix(x, k, system)
        if ring == RING_Z:
            out.append(homology_at(d_in, d_out))
        elif ring == RING_Q:
            out.append(GroupData(FGAbelianGroup(homology_at(d_in, d_out).group.free_rank), ()))
        else:
            out.append(homology_at_mod(d_in, d_out, int(ring)))
    return out


def homology(x: DeltaComplex, system: System = None, ring=RING_Z) -> list[GroupData]:
    if system is not None and system.base != x:
        raise InvalidLocalSystem("system lives over a different complex")
    out = []
    for k in range(x.dimension + 1):
        d_out = boundary_matrix(x, k, system)
        d_in = boundary_matrix(x, k + 1, system) if k < x.dimension \
            else IntMatrix.zeros(x.count(k), 0)
        if ring == RING_Z:
            out.append(homology_at(d_in, d_out))
        elif ring == RING_Q:
            out.append(GroupData(FGAbelianGroup(homology_at(d_in, d_out).group.free_rank), ()))
        else:
            out.append(homology_at_mod(d_in, d_out, int(ring)))
    return out


def total_delta(bundle, zkey: tuple, k: int) -> IntMatrix:
    base = bundle.base
    zeta = LocalSystem(base, zkey) if zkey else None
    zeta_xi = tensor(zeta, bundle.xi)
    e = bundle.euler_cochain()
    d_top = coboundary_matrix(base, k, zeta)
    d_bot = coboundary_matrix(base, k - 1, zeta_xi)
    cup_e = cup_matrix_left(e, k - 1, zeta_xi)
    sign = 1 if k % 2 == 0 else -1
    return block_matrix([[d_top, cup_e.scale(sign)],
                         [IntMatrix.zeros(d_bot.rows, d_top.cols), d_bot]])


def _total_count(bundle, k: int) -> int:
    return bundle.base.count(k) + bundle.base.count(k - 1)


def total_cohomology(bundle, zkey: tuple, ring) -> tuple[GroupData, ...]:
    out = []
    for k in range(bundle.base.dimension + 2):
        d_in = total_delta(bundle, zkey, k - 1) if k else IntMatrix.zeros(_total_count(bundle, 0), 0)
        d_out = total_delta(bundle, zkey, k)
        if ring == "Z":
            out.append(homology_at(d_in, d_out))
        elif ring == "Q":
            out.append(GroupData(FGAbelianGroup(homology_at(d_in, d_out).group.free_rank), ()))
        else:
            out.append(homology_at_mod(d_in, d_out, int(ring)))
    return tuple(out)


def total_homology(bundle, zkey: tuple, ring) -> tuple[GroupData, ...]:
    dimension = bundle.base.dimension + 1
    out = []
    for k in range(dimension + 1):
        d_out = total_delta(bundle, zkey, k - 1).transpose() if k else \
            IntMatrix.zeros(0, _total_count(bundle, 0))
        d_in = total_delta(bundle, zkey, k).transpose() if k < dimension else \
            IntMatrix.zeros(_total_count(bundle, k), 0)
        if ring == "Z":
            out.append(homology_at(d_in, d_out))
        elif ring == "Q":
            out.append(GroupData(FGAbelianGroup(homology_at(d_in, d_out).group.free_rank), ()))
        else:
            out.append(homology_at_mod(d_in, d_out, int(ring)))
    return tuple(out)


def corr_delta(e_bundle, ehat_bundle, k: int) -> IntMatrix:
    base = e_bundle.base
    xi = e_bundle.xi
    e = e_bundle.euler_cochain()
    ehat = ehat_bundle.euler_cochain()
    d = lambda deg, sys: coboundary_matrix(base, deg, sys)
    sign = 1 if k % 2 == 0 else -1
    # the rho column carries opposite signs in the two middle rows: the
    # exactness witness for the flux discrepancy lives there
    cup_e_1 = cup_matrix_left(e, k - 1, xi).scale(sign)          # beta -> alpha'
    cup_ehat_1 = cup_matrix_left(ehat, k - 1, xi).scale(sign)    # gamma -> alpha'
    cup_ehat_2 = cup_matrix_left(ehat, k - 2, None).scale(sign)  # rho -> beta'
    cup_e_3 = cup_matrix_left(e, k - 2, None).scale(-sign)       # rho -> gamma'
    n = base.count
    z = IntMatrix.zeros
    return block_matrix([
        [d(k, None), cup_e_1, cup_ehat_1, z(n(k + 1), n(k - 2))],
        [z(n(k), n(k)), d(k - 1, xi), z(n(k), n(k - 1)), cup_ehat_2],
        [z(n(k), n(k)), z(n(k), n(k - 1)), d(k - 1, xi), cup_e_3],
        [z(n(k - 1), n(k)), z(n(k - 1), n(k - 1)), z(n(k - 1), n(k - 1)), d(k - 2, None)],
    ])
