"""Matrix entries are exact integers: products never wrap around in a
fixed-width dtype, and a non-integral entry is refused rather than
truncated.  Matrices are read by `SparseMatrix.of` and multiplied with
`@`; right-hand sides are the columns of a matrix."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from capstar import intlinalg as la
from capstar.bridge import SimplicialChain, chain_complex_of, vector_to_chain
from capstar.chains import chain_complex, chain_map, homology
from capstar.errors import ValidationError
from capstar.fixtures import circle
from helpers import dense


def _ints(m):
    return all(type(e) is int for row in m.rows for e in row.values())


def _column(rhs):
    """A right-hand side vector as the one-column matrix that
    `solve_integer` and `lattice_contains` read."""
    if isinstance(rhs, np.ndarray):
        return rhs.reshape(-1, 1)
    return rhs if isinstance(rhs[0], list) else [[x] for x in rhs]


def test_matmul_does_not_overflow_int64():
    out = la.SparseMatrix.of(np.array([[2**62, 1]])) @ la.SparseMatrix.of(np.array([[4], [0]]))
    assert dense(out) == [[2**64]] and _ints(out)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
def test_matmul_is_exact_for_any_integer_dtype(dtype):
    a = la.SparseMatrix.of(np.array([[100, 27], [3, 0]], dtype=dtype))
    b = la.SparseMatrix.of(np.array([[100, 1], [100, 0]], dtype=dtype))
    assert dense(a @ b) == [[12700, 100], [300, 3]]
    assert a.apply([100, 100]) == [12700, 300]


def test_matmul_of_a_vector_matches_the_dense_product():
    rng = np.random.default_rng(5)
    a = rng.integers(-3, 4, size=(6, 7)) * (rng.random((6, 7)) < 0.4)
    b = rng.integers(-3, 4, size=7) * (rng.random(7) < 0.5)
    m = la.SparseMatrix.of(a)
    assert m.apply([x * 2**80 for x in b.tolist()]) == [int(x) * 2**80 for x in a @ b]
    assert dense(m @ la.SparseMatrix.of(b.reshape(-1, 1))) == (a @ b).reshape(-1, 1).tolist()


def test_matmul_accepts_bools():
    a, b = np.array([[True, True]]), np.array([[True], [True]])
    assert dense(la.SparseMatrix.of(a) @ la.SparseMatrix.of(b)) == [[2]]


@pytest.mark.parametrize(
    "entry", [0.5, 1.0, np.float64(1.0), Fraction(1, 1), Fraction(1, 2), "1"],
    ids=repr,
)
def test_as_matrix_refuses_non_integers(entry):
    with pytest.raises(ValidationError, match="not an integer"):
        la.SparseMatrix.of([[1, entry]])


def test_as_matrix_refuses_float_arrays():
    with pytest.raises(ValidationError, match=r"^entry 1\.0 is not an integer$"):
        la.SparseMatrix.of(np.array([[1.0, 2.0]]))


def test_as_matrix_accepts_ints_bools_and_numpy_integers():
    a = la.SparseMatrix.of([[1, True, np.int64(-3), np.uint8(4), np.True_]])
    assert dense(a) == [[1, 1, -3, 4, 1]] and _ints(a)
    b = la.SparseMatrix.of(np.array([[2**62, -1]]))
    assert dense(b) == [[2**62, -1]] and _ints(b)


def test_as_matrix_passes_object_arrays_through():
    # a checked matrix is not copied
    m = la.SparseMatrix((2, 3))
    assert la.SparseMatrix.of(m) is m


def test_chain_complex_refuses_a_fractional_differential():
    with pytest.raises(ValidationError, match="not an integer"):
        chain_complex(-1, {0: 1, 1: 1}, {1: [[0.5]]})


def test_smith_normal_form_refuses_non_integers():
    with pytest.raises(ValidationError, match="not an integer"):
        la.smith_normal_form([[2, 0.5]])
    with pytest.raises(ValidationError, match=r"^entry 1\.0 is not an integer$"):
        la.smith_normal_form(np.array([[1.0]]))


@pytest.mark.parametrize(
    "lines, match",
    [
        (({0: 0.5},), "not a nonzero integer"),
        (({0: 1.0},), "not a nonzero integer"),
        (({0: Fraction(1, 1)},), "not a nonzero integer"),
        (({0: np.int64(1)},), "not a nonzero integer"),
        (({0: True},), "not a nonzero integer"),
        (({0: 0},), "not a nonzero integer"),
        (({1: 1},), "inside the shape"),
        (({-1: 1},), "inside the shape"),
        (({np.int64(0): 1},), "inside the shape"),
        (({0: 1}, {}), "a tuple of 1 lines"),
        ([{0: 1}], "a tuple of 1 lines"),
        (([(0, 1)],), "not a dict"),
    ],
    ids=repr,
)
def test_sparse_input_is_checked(lines, match):
    a = la.SparseMatrix((1, 1), lines)
    with pytest.raises(ValidationError, match=match):
        la.smith_normal_form(a)
    with pytest.raises(ValidationError, match=match):
        la.solve_integer(la.smith_normal_form([[1]]), a)
    with pytest.raises(ValidationError, match=match):
        chain_complex(-1, {0: 1, 1: 1}, {1: a})
    k = chain_complex(-1, {0: 1}, {})
    with pytest.raises(ValidationError, match=match):
        chain_map(k, k, {0: a})


def test_sparse_input_shape_and_views_are_checked():
    with pytest.raises(ValidationError, match="not two sizes"):
        la.smith_normal_form(la.SparseMatrix((1, 1.0), ({0: 1},)))
    with pytest.raises(ValidationError, match="not two sizes"):
        la.smith_normal_form(la.SparseMatrix([1, 1], ({0: 1},)))
    with pytest.raises(ValidationError, match="views disagree"):
        la.smith_normal_form(la.SparseMatrix((1, 2), ({0: 1},), ({0: 1}, {0: 2})))
    with pytest.raises(ValidationError, match="views disagree"):
        la.smith_normal_form(la.SparseMatrix((1, 2), ({0: 1},), ({}, {0: 1})))
    with pytest.raises(ValidationError, match="views disagree"):
        la.smith_normal_form(la.SparseMatrix((2, 2), ({1: 1}, {}), ({1: 1}, {})))
    both = la.SparseMatrix((2, 2), _cols=({1: 3}, {0: -1}))
    both.rows
    assert la.smith_normal_form(both).invariant_factors() == (1, 3)


@pytest.mark.parametrize(
    "rhs", [[2.0], [Fraction(2, 1)], np.array([2.0]), [[0.5]]], ids=repr
)
def test_right_hand_sides_must_be_integers(rhs):
    with pytest.raises(ValidationError):
        la.solve_integer(la.smith_normal_form([[1]]), _column(rhs))
    with pytest.raises(ValidationError):
        la.lattice_contains([[1]], _column(rhs))


@pytest.mark.parametrize(
    "rhs", [[np.int64(2)], np.array([2], dtype=np.int32), [np.uint8(2)]], ids=repr
)
def test_numpy_integer_right_hand_sides_are_accepted(rhs):
    x = la.solve_integer(la.smith_normal_form([[1]]), _column(rhs))
    assert dense(x) == [[2]] and _ints(x)
    assert la.lattice_contains([[1]], _column(rhs))
    assert not la.lattice_contains([[2]], [[np.int64(1)]])


def test_object_array_right_hand_sides_are_checked():
    snf = la.smith_normal_form([[1]])
    with pytest.raises(ValidationError, match="not an integer"):
        la.solve_integer(snf, np.array([[2.0]], dtype=object))
    with pytest.raises(ValidationError, match="not an integer"):
        la.lattice_contains([[1]], np.array([[0.5]], dtype=object))
    x = la.solve_integer(snf, np.array([[np.int64(2)]], dtype=object))
    assert dense(x) == [[2]] and _ints(x)


def test_smith_normal_form_checks_object_array_entries():
    with pytest.raises(ValidationError, match="not an integer"):
        la.smith_normal_form(np.array([[0.5, 1]], dtype=object))


def test_smith_normal_form_certifies_numpy_integers_in_object_arrays():
    a = np.array([[np.int64(2**62), 3], [5, np.int64(7)]], dtype=object)
    assert type(a[0, 0]) is np.int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snf = la.smith_normal_form(a)
    assert snf.D.tolist() == [[1, 0], [0, 7 * 2**62 - 15]]
    assert all(type(e) is int for m in (snf.U, snf.D, snf.V) for e in m.flat)


def test_matmul_of_an_empty_vector():
    assert la.SparseMatrix((3, 0)).apply([]) == [0, 0, 0]
    assert la.SparseMatrix((0, 2)).apply([1, 2]) == []
    assert la.SparseMatrix((3, 0)) @ la.SparseMatrix((0, 1)) == la.SparseMatrix((3, 1))


@pytest.mark.parametrize(
    "entry", [2.5, 1.0, np.float64(1.0), Fraction(7, 2), Fraction(1, 1)], ids=repr,
)
def test_chains_refuse_non_integer_coefficients(entry):
    with pytest.raises(ValidationError, match="not an integer"):
        SimplicialChain(circle(), 1, {(1, 2): 2, (2, 3): entry})
    with pytest.raises(ValidationError, match="not an integer"):
        vector_to_chain(circle(), 1, [entry, 1, 0])


def test_vector_to_chain_refuses_a_float_array():
    with pytest.raises(ValidationError):
        vector_to_chain(circle(), 1, np.array([0.5, 1.9, 0.0]))


def test_a_0d_integer_array_is_an_entry_and_an_array_of_one_entry_is_not():
    c = SimplicialChain(circle(), 1, {(1, 2): np.array(2)})
    assert c.coefficients == {(1, 2): 2} and type(c.coefficients[(1, 2)]) is int
    for bad in (np.array([2]), np.array([[2]]), np.array(2.0)):
        with pytest.raises(ValidationError, match="^entry .* is not an integer$"):
            SimplicialChain(circle(), 1, {(1, 2): bad})


def test_an_array_with_no_rows_keeps_its_width():
    a = np.zeros((0, 3), dtype=np.int64)
    assert la.SparseMatrix.of(a).shape == (0, 3)
    assert la.kernel_basis(a).shape == (3, 3)
    with pytest.raises(ValidationError, match=r"^differential at degree 1 has shape \(0, 3\)"):
        chain_complex(-1, {1: 2}, {1: a})


def test_chains_accept_ints_bools_and_numpy_integers():
    c = SimplicialChain(circle(), 1, {(1, 2): True, (1, 3): np.int64(-3), (2, 3): np.uint8(0)})
    assert c.coefficients == {(1, 2): 1, (1, 3): -3}
    assert all(type(v) is int for v in c.coefficients.values())
    v = vector_to_chain(circle(), 1, np.array([2, 0, -1], dtype=np.int16))
    assert v.coefficients == {(1, 2): 2, (2, 3): -1}


@pytest.mark.parametrize(
    "cycle",
    [[0.5, -0.5, 0.5], [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)],
     np.array([0.5, -0.5, 0.5], dtype=object), np.array([1.0, -1.0, 1.0])],
    ids=["floats", "fractions", "object-array", "float-array"],
)
def test_coords_of_refuses_non_integer_vectors(cycle):
    h1 = homology(chain_complex_of(circle()), 1)
    with pytest.raises(ValidationError):
        h1.coords_of(cycle)


def test_coords_of_reads_integer_vectors_of_any_dtype():
    h1 = homology(chain_complex_of(circle()), 1)
    g = h1.cycle_basis[0]
    assert h1.coords_of(g) == h1.coords_of(list(g)) == (1,)
    assert h1.coords_of(np.array(list(g), dtype=np.int8)) == (1,)
    assert h1.coords_of([3 * e for e in g]) == (3,)


@pytest.mark.parametrize("entry", [1.5, 1.0, Fraction(1, 2), "1"], ids=repr)
def test_object_arrays_are_checked_entry_by_entry(entry):
    with pytest.raises(ValidationError, match="not an integer"):
        la.SparseMatrix.of(np.array([[1, entry]], dtype=object))
    with pytest.raises(ValidationError, match="not an integer"):
        la.SparseMatrix.of(np.array([[1], [entry]], dtype=object))


def test_object_arrays_of_numpy_integers_become_python_ints():
    a = la.SparseMatrix.of(np.array([[np.int64(2), np.True_]], dtype=object))
    assert dense(a) == [[2, 1]] and _ints(a)
    out = la.SparseMatrix.of([[1]]) @ la.SparseMatrix.of(np.array([[np.int64(3)]], dtype=object))
    assert dense(out) == [[3]] and _ints(out)


def test_coords_of_reads_each_entry_once(monkeypatch):
    h1 = homology(chain_complex_of(circle()), 1)
    g = [np.int64(x) for x in h1.cycle_basis[0]]
    reads = []
    entry = la._entry
    monkeypatch.setattr(la, "_entry", lambda x: reads.append(x) or entry(x))
    for cycle in (g, np.array(g, dtype=object)):
        reads.clear()
        assert h1.coords_of(cycle) == (1,)
        assert len(reads) == len(g)
