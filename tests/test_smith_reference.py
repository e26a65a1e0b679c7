"""The vectorised Smith reduction takes the same pivots as the reference
loops in `reference_smith`, so all five of its matrices agree with the
reference entry for entry."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_smith
from capstar import chains
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.fixtures import pair_models, surfaces
from helpers import pseudo_projective_plane

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
    ).map(lambda rows: la.SparseMatrix.of(rows, shape).toarray())
)


@given(matrices)
def test_same_reduction_on_torsion_matrices(a):
    assert_same_reduction(a)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3)])
def test_same_reduction_on_empty_and_zero_shapes(shape):
    assert_same_reduction(np.zeros(shape, dtype=object))


def test_divisibility_fix_up_runs():
    # diag(2, 3) is not in Smith form: the block entry 3 is not divisible by 2
    a = la.SparseMatrix.of([[2, 0], [0, 3]]).toarray()
    assert la.smith_normal_form(a).invariant_factors() == (1, 6)
    assert_same_reduction(a)


@pytest.mark.parametrize("rows", [
    pytest.param([[-1, 2], [3, 4]], id="unit-pivot-negated"),
    pytest.param([[3, -6], [-6, 9]], id="pivot-negated"),
    pytest.param([[4], [6]], id="remainder-promoted-from-below"),
    pytest.param([[4, 6]], id="remainder-promoted-from-the-right"),
    pytest.param([[2], [3]], id="unit-remainder-from-below"),
    pytest.param([[2, -3]], id="unit-remainder-from-the-right"),
    pytest.param([[4, 0], [0, 6]], id="fix-up"),
])
def test_same_reduction_in_each_branch_of_the_step(rows):
    assert_same_reduction(la.SparseMatrix.of(rows).toarray())


def _boundary_matrices():
    cases = []

    def add(label, x, y=None):
        k = chain_complex_of(x, y)
        for n in sorted(k.sparse):
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


def _reduced_matrices(x, y=None):
    """The nonzero matrices that `homology` hands the Smith reduction for
    (x, y) in every degree: each differential in the kernel coordinates
    of the degree it maps into, or as itself where that degree's
    outgoing differential is zero."""
    k = chain_complex_of(x, y)
    with mock.patch.object(chains, "eliminate", wraps=chains.eliminate) as snf:
        for n in range(x.dimension + 1):
            chains.homology(k, n)
    return [call.args[0] for call in snf.call_args_list if call.args[0].any()]


def _ladder_matrices():
    """Those of every `ladder` rung of the benchmark: the surfaces at
    sd^0-sd^1, the pair models relative to their boundary at sd^0-sd^2,
    but disk3 only to sd^1."""
    cases = []
    for name, x in surfaces().items():
        for sd in range(2):
            cases += [pytest.param(a, id=f"{name}-sd{sd}-{i}") for i, a in enumerate(_reduced_matrices(x))]
            x = barycentric_subdivide(x).complex
    for name, model in pair_models().items():
        x, y = model.ambient, model.boundary
        for sd in range(2 if name == "disk3" else 3):
            cases += [pytest.param(a, id=f"{name}-sd{sd}-rel-{i}")
                      for i, a in enumerate(_reduced_matrices(x, y))]
            result = barycentric_subdivide(x)
            x, y = result.complex, induced_subdivision(result, y)
    return cases


@pytest.mark.parametrize("a", _ladder_matrices())
def test_same_reduction_on_the_matrices_homology_reduces(a):
    assert_same_reduction(a)


def _moore_matrices():
    """Those of the pseudo-projective planes P_2..P_7 at sd^0 and of P_3
    at sd^1, whose H_1 is Z/p: torsion beyond Z/2."""
    cases = [pytest.param(a, id=f"P{p}-sd0-{i}")
             for p in range(2, 8) for i, a in enumerate(_reduced_matrices(pseudo_projective_plane(p)))]
    x = barycentric_subdivide(pseudo_projective_plane(3)).complex
    return cases + [pytest.param(a, id=f"P3-sd1-{i}") for i, a in enumerate(_reduced_matrices(x))]


@pytest.mark.parametrize("a", _moore_matrices())
def test_same_reduction_on_pseudo_projective_planes(a):
    assert_same_reduction(a)


@st.composite
def boundary_like_matrices(draw):
    """Sparse matrices shaped like boundary matrices, up to 30 x 30: at
    most four nonzeros per column, from {±1, ±2, ±3}, with some rows and
    columns all zero.  Elimination fills rows in, swaps move the column
    index, zero rows stay behind the pivot and some blocks have no unit."""
    m, n = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    a = np.zeros((m, n), dtype=object)
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
