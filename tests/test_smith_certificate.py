"""The Smith normal form certifies U A V = D, U u_inv = I and V v_inv = I
at every size."""

import pytest

from capstar import elimination
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of
from capstar.complexes import barycentric_subdivide
from capstar.fixtures import klein_bottle


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


@pytest.mark.parametrize("name", ["u_inv", "v_inv"])
def test_a_corrupted_inverse_is_rejected(monkeypatch, name):
    # d_2 of the Klein bottle at sd^1; U A V == D still holds, so only
    # U u_inv == I or V v_inv == I can catch the corruption
    a = chain_complex_of(barycentric_subdivide(klein_bottle()).complex).sparse_d(2)
    factors = elimination._factors

    def corrupted(rec):
        f = factors(rec)
        return f._replace(**{name: _with_entry_added(getattr(f, name), 0, 0)})

    monkeypatch.setattr(elimination, "_factors", corrupted)
    with pytest.raises(AssertionError, match="^smith reduction lost the factorization$"):
        la.smith_normal_form(a)
