"""The Smith normal form certifies U A V = D at every size."""

import numpy as np
import pytest

from capstar import intlinalg as la


def _large_matrix():
    # 150 x 150 = 22,500 entries, past 20,000 where a size cut-off would
    # sit, yet sparse enough to reduce quickly
    a = la.zeros(150, 150)
    for i in range(150):
        a[i, i] = 1 + i % 3
        a[i, (i + 7) % 150] = -1
    return a


def test_large_reduction_passes_its_certificate():
    a = _large_matrix()
    snf = la.smith_normal_form(a)
    assert np.array_equal(la.matmul(la.matmul(snf.U, a), snf.V), snf.D)


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
        la.smith_normal_form(la.as_matrix([[2, 4], [6, 8]]))
