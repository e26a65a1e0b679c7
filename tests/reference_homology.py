"""`homology` as it was when every degree ran two Smith decompositions of
its own, kept verbatim as the reference the test suite compares the
library against: the cycles from the decomposition of the outgoing
differential, then the boundaries in kernel coordinates.  It caches
nothing, so each call reduces both matrices afresh.  Betti numbers,
torsion, generators, coordinate rows and kernels must agree exactly."""

from capstar.chains import ChainComplexZ, HomologyGroup
from capstar.errors import InternalCheckError
from capstar.intlinalg import smith_normal_form


def homology(k: ChainComplexZ, degree: int) -> HomologyGroup:
    eps = k.diff_degree
    n = k.rank(degree)
    a = k.sparse_d(degree)  # out of the degree
    b = k.sparse_d(degree - eps)  # into the degree
    snf_a = smith_normal_form(a)
    r_a = snf_a.rank
    v_inv = snf_a.sparse.v_inv
    kernel = snf_a.sparse.V.T[r_a:]  # rows: a basis of the cycles
    coords_b = v_inv @ b
    if coords_b[:r_a].any():
        raise InternalCheckError("boundaries are not cycles; d o d != 0")
    snf_c = smith_normal_form(coords_b[r_a:])
    r_c = snf_c.rank
    factors = snf_c.invariant_factors()
    free_idx = list(range(r_c, n - r_a))
    tors_idx = [i for i in range(r_c) if factors[i] > 1]
    keep = free_idx + tors_idx
    return HomologyGroup(
        degree=degree,
        betti=len(free_idx),
        torsion=tuple(factors[i] for i in tors_idx),
        _gens=snf_c.sparse.u_inv.T[keep] @ kernel,
        _cycle_test=a,
        _coords=snf_c.sparse.U[keep] @ v_inv[r_a:],
        _kernel=kernel.T,
    )
