import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from capstar import intlinalg as la
from capstar.errors import ValidationError
from capstar.intlinalg import smith_normal_form


def snf_of(rows, shape=None):
    return smith_normal_form(la.SparseMatrix.of(rows, shape))


def test_diag_two_zero():
    s = snf_of([[2, 0], [0, 0]])
    assert s.D[0, 0] == 2 and s.D[1, 1] == 0
    assert s.invariant_factors() == (2,)


def test_identity_fixed():
    s = snf_of([[1, 0], [0, 1]])
    assert s.sparse.D == la.sparse_identity(2)


def test_invariant_factors_2_4():
    s = snf_of([[2, 4], [6, 8]])
    assert s.invariant_factors() == (2, 4)


def test_transforms_are_exact_inverses():
    s = snf_of([[3, 1, 2], [0, 4, 1]])
    f = s.sparse
    assert f.U @ f.u_inv == la.sparse_identity(2)
    assert f.v_inv @ f.V == la.sparse_identity(3)


matrices = st.integers(min_value=0, max_value=8).flatmap(
    lambda m: st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: (rows, (m, n)))
    )
)


@given(matrices)
def test_snf_properties(case):
    rows, shape = case
    a = la.SparseMatrix.of(rows, shape)
    s = smith_normal_form(a)
    assert s.sparse.U @ a @ s.sparse.V == s.sparse.D
    facs = s.invariant_factors()
    assert all(f > 0 for f in facs)
    for i in range(1, len(facs)):
        assert facs[i] % facs[i - 1] == 0
    m, n = shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s.D[i, j] == 0
    assert list(facs) == oracle.smith_diagonal(rows)


@given(matrices)
def test_kernel_and_solve(case):
    rows, shape = case
    a = la.SparseMatrix.of(rows, shape)
    kb = la.kernel_basis(a)
    assert not (a @ kb).any()
    # a solution exists for b in the image
    if shape[1]:
        b = a @ la.SparseMatrix.of([[1]] * shape[1])
        sol = la.solve_integer(smith_normal_form(a), b)
        assert sol is not None
        assert a @ sol == b


def test_solve_unsolvable():
    assert la.solve_integer(smith_normal_form([[2]]), [[1]]) is None
    # [1, 0] is not in the column span of [1, 1]: U b is nonzero past the rank
    assert la.solve_integer(smith_normal_form([[1], [1]]), [[1], [0]]) is None
    assert not la.lattice_contains([[1], [1]], [[1], [0]])


def test_lattice_comparison():
    gens = la.SparseMatrix.of([[2, 0], [0, 3]])
    assert la.lattice_contains(gens, [[2], [3]])
    assert not la.lattice_contains(gens, [[1], [0]])
    other = la.SparseMatrix.of([[2, 2], [3, 0]])
    assert la.lattices_equal(gens, other)


@pytest.mark.parametrize("vectors", [la.SparseMatrix((3, 0)), la.SparseMatrix((3, 1))],
                         ids=["no vectors", "one vector"])
def test_lattice_contains_checks_the_ambient_rank(vectors):
    # no vectors in Z^3 are not contained in a lattice of Z^2
    with pytest.raises(ValidationError, match="^ambient rank mismatch$"):
        la.lattice_contains([[1, 0], [0, 1]], vectors)
    with pytest.raises(ValidationError, match="^ambient rank mismatch$"):
        la.lattices_equal([[1, 0], [0, 1]], vectors)


def test_five_hundred_random_matrices_up_to_8x8():
    import random

    rng = random.Random(0)
    for _ in range(500):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        a = la.SparseMatrix.of(rows, (m, n))
        s = smith_normal_form(a)
        f = s.sparse
        assert f.U @ a @ f.V == f.D
        assert f.U @ f.u_inv == la.sparse_identity(m)
        assert f.V @ f.v_inv == la.sparse_identity(n)
        facs = s.invariant_factors()
        for i in range(1, len(facs)):
            assert facs[i] % facs[i - 1] == 0
