"""The Smith normal form certifies U A V = D, U u_inv = I, V v_inv = I
and that D is a Smith form at every size."""

import pytest

from capstar import chains, elimination
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of
from capstar.chains import homology
from capstar.complexes import barycentric_subdivide
from capstar.fixtures import klein_bottle, projective_plane


def _large_matrix():
    # 150 x 150 = 22,500 entries, past 20,000 where a size cut-off would
    # sit, yet sparse enough to reduce quickly
    return la.SparseMatrix((150, 150), tuple({i: 1 + i % 3, (i + 7) % 150: -1} for i in range(150)))


def test_large_reduction_passes_its_certificate():
    a = _large_matrix()
    snf = la.smith_normal_form(a)
    assert snf.sparse.U @ a @ snf.sparse.V == snf.sparse.D


def test_corrupted_large_reduction_is_rejected(monkeypatch):
    a = _large_matrix()
    identity = la.sparse_identity
    # U (and V) no longer start at the identity, so U A V != D
    monkeypatch.setattr(la, "sparse_identity", lambda n: identity(n).scaled(2))
    with pytest.raises(AssertionError, match="smith reduction lost the factorization"):
        la.smith_normal_form(a)


def test_corrupted_small_reduction_is_rejected(monkeypatch):
    identity = la.sparse_identity
    monkeypatch.setattr(la, "sparse_identity", lambda n: identity(n).scaled(2))
    with pytest.raises(AssertionError, match="smith reduction lost the factorization"):
        la.smith_normal_form([[2, 4], [6, 8]])


def _with_entry_added(m, i, j):
    """`m` with 1 added to its entry (i, j)."""
    rows = [dict(row) for row in m.rows]
    rows[i][j] = rows[i].get(j, 0) + 1
    rows[i] = {k: e for k, e in rows[i].items() if e}
    return la.SparseMatrix(m.shape, tuple(rows))


def test_certificate_rejects_one_corrupted_entry_of_u_v_or_d():
    # d_2 of the Klein bottle at sd^1, as on the benchmark's ladder
    a = chain_complex_of(barycentric_subdivide(klein_bottle()).complex).sparse_d(2)
    f = la.smith_normal_form(a).sparse
    la._certify(f.U, a, f.V, f.D)
    # A V reads row k of V wherever column k of A is nonzero
    k = next(k for k, col in enumerate(a.cols) if col)
    j = next(iter(f.V.rows[k]))
    i, r = a.shape[0] // 2, f.D.shape[1] // 2
    for u, v, d in [(f.U, _with_entry_added(f.V, k, j), f.D),
                    (_with_entry_added(f.U, i, i), f.V, f.D),
                    (f.U, f.V, _with_entry_added(f.D, r, r))]:
        with pytest.raises(AssertionError, match="^smith reduction lost the factorization$"):
            la._certify(u, a, v, d)


def _with_residue(rec, residue):
    return elimination.Elimination(rec.shape, rec.rows, rec.cols, rec.L, rec.E, rec.block, residue)


@pytest.mark.parametrize("name", ["u_inv", "v_inv"])
def test_a_corrupted_inverse_is_rejected(monkeypatch, name):
    # d_2 of the Klein bottle at sd^1; U A V == D still holds, so only
    # U u_inv == I or V v_inv == I can catch the corruption
    a = chain_complex_of(barycentric_subdivide(klein_bottle()).complex).sparse_d(2)
    eliminate = elimination.eliminate

    def corrupted(a, **kwargs):
        rec = eliminate(a, **kwargs)
        f = rec.residue.sparse
        residue = la.SmithDecomposition(f._replace(**{name: _with_entry_added(getattr(f, name), 0, 0)}))
        return _with_residue(rec, residue)

    monkeypatch.setattr(elimination, "eliminate", corrupted)
    with pytest.raises(AssertionError, match="^smith reduction lost the factorization$"):
        la.smith_normal_form(a)


@pytest.mark.parametrize("rows", [
    pytest.param([[2, 0], [0, 3]], id="2-does-not-divide-3"),
    pytest.param([[-2, 0], [0, 0]], id="negative"),
    pytest.param([[1, 1], [0, 2]], id="off-the-diagonal"),
    pytest.param([[0, 0], [0, 1]], id="zero-before-a-unit"),
])
def test_a_factorisation_whose_d_is_no_smith_form_is_rejected(rows):
    # U = V = I and D = A: a unimodular factorisation, but of no Smith form
    d = la.SparseMatrix.of(rows)
    identity = la.sparse_identity(2)
    with pytest.raises(AssertionError, match="^smith reduction did not reach a Smith form$"):
        la._certify(identity, d, identity, d, identity, identity)


def _negated_first(lines: tuple) -> tuple:
    return ({k: -e for k, e in lines[0].items()},) + lines[1:]


def test_a_negated_invariant_factor_is_rejected(monkeypatch):
    # row 0 of the residue's U and D and column 0 of its u_inv negated:
    # U A V == D, U u_inv == I and V v_inv == I all still hold, yet the
    # torsion of H_1(RP^2) would read -2 and be dropped as no torsion
    def corrupted(a, **kwargs):
        rec = eliminate(a, **kwargs)
        if rec.residue is None:
            return rec
        f = rec.residue.sparse
        residue = la.SmithDecomposition(f._replace(
            U=la.SparseMatrix(f.U.shape, _negated_first(f.U._row_dicts)),
            D=la.SparseMatrix(f.D.shape, _negated_first(f.D._row_dicts)),
            u_inv=la.SparseMatrix(f.u_inv.shape, _cols=_negated_first(f.u_inv._col_dicts))))
        return _with_residue(rec, residue)

    eliminate = chains.eliminate
    assert homology(chain_complex_of(projective_plane()), 1).torsion == (2,)
    monkeypatch.setattr(chains, "eliminate", corrupted)
    with pytest.raises(AssertionError, match="^smith reduction did not reach a Smith form$"):
        homology(chain_complex_of(projective_plane()), 1)
