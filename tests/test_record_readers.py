"""What `homology` reads off an elimination record agrees with the five
factors that the same loop tracks for the whole matrix: the identities
of the `Elimination` docstring, checked on the matrices homology
reduces."""

import pytest

from capstar import elimination
from capstar import intlinalg as la
from capstar.complexes import barycentric_subdivide
from capstar.fixtures import simplex_pair, surfaces
from helpers import pseudo_projective_plane
from test_smith_reference import _reduced_matrices


def assert_readers_match_factors(a):
    rec = elimination.eliminate(a)
    f = la.smith_normal_form(a).sparse
    (m, n), r0, r = a.shape, len(rec.E), rec.rank
    u_inv_cols = f.u_inv._col_dicts
    assert list(rec.L) == list(u_inv_cols[:r0])
    assert list(rec.E) == list(f.v_inv._row_dicts[:r0])
    assert rec.kernel() == la.SparseMatrix((n, n - r), _cols=f.V._col_dicts[r:])
    assert rec.kernel_coordinate_rows() == list(f.v_inv._row_dicts[r:])
    assert rec.u_inv_columns(range(r0, m)) == list(u_inv_cols[r0:])
    assert rec.u_rows(range(r0, m), rec.left_rows()) == list(f.U._row_dicts[r0:])


def _cases():
    """The matrices `homology` reduces for the surfaces at sd^0-sd^1, the
    3-simplex at sd^0-sd^1 and the pseudo-projective plane P_5."""
    complexes = []
    for name, x in {**surfaces(), "disk3": simplex_pair(3).ambient}.items():
        complexes += [(f"{name}-sd0", x), (f"{name}-sd1", barycentric_subdivide(x).complex)]
    complexes.append(("P5-sd0", pseudo_projective_plane(5)))
    return [pytest.param(a, id=f"{label}-{i}")
            for label, x in complexes for i, a in enumerate(_reduced_matrices(x))]


CASES = _cases()


@pytest.mark.parametrize("a", CASES)
def test_readers_match_the_tracked_factors(a):
    assert_readers_match_factors(a)


def test_some_cases_have_a_residue():
    # the readers take their other branch, through the residue's factors
    assert sum(elimination.eliminate(p.values[0]).residue is not None for p in CASES) >= 2
