"""The vectorised Smith reduction takes the same pivots as the reference
loops in `reference_smith`, so all five of its matrices agree with the
reference entry for entry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_smith
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.fixtures import pair_models, surfaces

FIELDS = ("U", "D", "V", "u_inv", "v_inv")


def assert_same_reduction(a):
    new = la.smith_normal_form(a)
    ref = reference_smith.smith_normal_form(a)
    for name in FIELDS:
        got, want = getattr(new, name), getattr(ref, name)
        assert got.dtype == object and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert all(type(x) is int for x in got.flat), name


# every divisor of 12 with both signs, so non-unit pivots, remainders and
# the divisibility fix-up all run
entries = st.sampled_from([0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 12, -12])
matrices = st.tuples(st.integers(0, 10), st.integers(0, 10)).flatmap(
    lambda shape: st.lists(
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    ).map(lambda rows: la.as_matrix(rows, shape=shape))
)


@given(matrices)
def test_same_reduction_on_torsion_matrices(a):
    assert_same_reduction(a)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3)])
def test_same_reduction_on_empty_and_zero_shapes(shape):
    assert_same_reduction(la.zeros(*shape))


def test_divisibility_fix_up_runs():
    # diag(2, 3) is not in Smith form: the block entry 3 is not divisible by 2
    a = la.as_matrix([[2, 0], [0, 3]])
    assert la.smith_normal_form(a).invariant_factors() == (1, 6)
    assert_same_reduction(a)


def _boundary_matrices():
    cases = []

    def add(label, x, y=None):
        k = chain_complex_of(x, y)
        for n in sorted(k.differentials):
            cases.append(pytest.param(k.d(n), id=f"{label}-d{n}"))

    for name, x in surfaces().items():
        for sd in range(2):
            add(f"{name}-sd{sd}", x)
            x = barycentric_subdivide(x).complex
    for name, model in pair_models().items():
        x, y = model.ambient, model.boundary
        for sd in range(2):
            add(f"{name}-sd{sd}", x)
            add(f"{name}-sd{sd}-rel", x, y)
            result = barycentric_subdivide(x)
            x, y = result.complex, induced_subdivision(result, y)
    return cases


@pytest.mark.parametrize("a", _boundary_matrices())
def test_same_reduction_on_boundary_matrices(a):
    assert_same_reduction(a)


@st.composite
def boundary_like_matrices(draw):
    """Sparse matrices shaped like boundary matrices, up to 30 x 30: at
    most four nonzeros per column, from {±1, ±2, ±3}, with some rows and
    columns all zero.  Elimination fills rows in, swaps move the column
    index, zero rows stay behind the pivot and some blocks have no unit."""
    m, n = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    a = la.zeros(m, n)
    if not m:
        return a
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m // 4))
    units = draw(st.booleans())
    values = [1, -1, 2, -2, 3, -3] if units else [2, -2, 3, -3]
    for j in range(n):
        column = draw(st.dictionaries(st.integers(0, m - 1), st.sampled_from(values), max_size=4))
        for i, x in column.items():
            if i not in zero_rows:
                a[i, j] = x
    return a


@settings(max_examples=100)
@given(boundary_like_matrices())
def test_same_reduction_on_sparse_boundary_like_matrices(a):
    assert_same_reduction(a)
