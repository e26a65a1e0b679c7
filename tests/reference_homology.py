"""`homology` by two definitions, kept as references the test suite
compares the library against.  Neither caches anything.

`homology` is the library's definition: d_j is decomposed in the kernel
coordinates of the degree j + e it maps into, and each call redoes that
chain of decompositions from the degree whose outgoing differential is
zero.  Betti numbers, torsion, generators and coordinate rows must
agree with the library exactly.

`homology_two_decompositions` is the definition the library had when
every degree ran two Smith decompositions of its own: the cycles from
the decomposition of the outgoing differential itself, then the
boundaries in kernel coordinates.  It picks another basis, so only the
groups, and the lattices the bases span, can be compared with it."""

from capstar.chains import ChainComplexZ, HomologyGroup
from capstar.errors import InternalCheckError
from capstar.intlinalg import smith_normal_form


def _in_kernel_coordinates(snf_a, b):
    """The decomposition of `b` in the kernel coordinates of the
    decomposition `snf_a` of the differential out of b's target."""
    r_a = snf_a.rank
    coords_b = snf_a.sparse.v_inv @ b
    if coords_b[:r_a].any():
        raise InternalCheckError("boundaries are not cycles; d o d != 0")
    return smith_normal_form(coords_b[r_a:])


def _group(degree, a, snf_a, snf_c) -> HomologyGroup:
    """The group from the decomposition `snf_a` of the cycles of the
    outgoing differential `a` and `snf_c` of the boundaries in its
    kernel coordinates."""
    r_a, r_c = snf_a.rank, snf_c.rank
    kernel = snf_a.sparse.V.T[r_a:]  # rows: a basis of the cycles
    factors = snf_c.invariant_factors()
    free_idx = list(range(r_c, a.shape[1] - r_a))
    tors_idx = [i for i in range(r_c) if factors[i] > 1]
    keep = free_idx + tors_idx
    return HomologyGroup(
        degree=degree,
        betti=len(free_idx),
        torsion=tuple(factors[i] for i in tors_idx),
        _gens=snf_c.sparse.u_inv.T[keep] @ kernel,
        _cycle_test=a,
        _coords=snf_c.sparse.U[keep] @ snf_a.sparse.v_inv[r_a:],
    )


def homology(k: ChainComplexZ, degree: int) -> HomologyGroup:
    eps = k.diff_degree
    j, chain = degree, []  # the degrees from `degree` to a zero differential
    while j in k.sparse:
        chain.append(j)
        j += eps
    snf_a = None
    for j in reversed(chain):
        d = k.sparse_d(j)
        snf_a = smith_normal_form(d) if snf_a is None else _in_kernel_coordinates(snf_a, d)
    a, b = k.sparse_d(degree), k.sparse_d(degree - eps)
    if snf_a is None:  # a is zero: its kernel coordinates are the chain coordinates
        return _group(degree, a, smith_normal_form(a), smith_normal_form(b))
    return _group(degree, a, snf_a, _in_kernel_coordinates(snf_a, b))


def homology_two_decompositions(k: ChainComplexZ, degree: int) -> HomologyGroup:
    eps = k.diff_degree
    a = k.sparse_d(degree)  # out of the degree
    b = k.sparse_d(degree - eps)  # into the degree
    snf_a = smith_normal_form(a)
    return _group(degree, a, snf_a, _in_kernel_coordinates(snf_a, b))
