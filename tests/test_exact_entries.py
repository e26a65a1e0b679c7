"""Matrix entries are exact integers: products never wrap around in a
fixed-width dtype, and a non-integral entry is refused rather than
truncated."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from capstar import intlinalg as la
from capstar.chains import chain_complex
from capstar.errors import ValidationError


def test_matmul_does_not_overflow_int64():
    out = la.matmul(np.array([[2**62, 1]]), np.array([[4], [0]]))
    assert out.dtype == object
    assert out.tolist() == [[2**64]]
    assert type(out[0, 0]) is int


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
def test_matmul_is_exact_for_any_integer_dtype(dtype):
    a = np.array([[100, 27], [3, 0]], dtype=dtype)
    b = np.array([[100, 1], [100, 0]], dtype=dtype)
    assert la.matmul(a, b).tolist() == [[12700, 100], [300, 3]]
    assert la.matmul(a, b[:, 0]).tolist() == [12700, 300]


def test_matmul_of_a_vector_matches_the_dense_product():
    rng = np.random.default_rng(5)
    a = rng.integers(-3, 4, size=(6, 7)) * (rng.random((6, 7)) < 0.4)
    b = rng.integers(-3, 4, size=7) * (rng.random(7) < 0.5)
    huge = np.array([x * 2**80 for x in b.tolist()], dtype=object)
    assert la.matmul(a, huge).tolist() == [int(x) * 2**80 for x in a @ b]
    assert la.matmul(a, b.reshape(-1, 1))[:, 0].tolist() == (a @ b).tolist()


def test_matmul_accepts_bools():
    out = la.matmul(np.array([[True, True]]), np.array([[True], [True]]))
    assert out.tolist() == [[2]]


@pytest.mark.parametrize(
    "entry", [0.5, 1.0, np.float64(1.0), Fraction(1, 1), Fraction(1, 2), "1"],
    ids=repr,
)
def test_as_matrix_refuses_non_integers(entry):
    with pytest.raises(ValidationError, match="not an integer"):
        la.as_matrix([[1, entry]])


def test_as_matrix_refuses_float_arrays():
    with pytest.raises(ValidationError, match="must be integers"):
        la.as_matrix(np.array([[1.0, 2.0]]))


def test_as_matrix_accepts_ints_bools_and_numpy_integers():
    a = la.as_matrix([[1, True, np.int64(-3), np.uint8(4), np.True_]])
    assert a.tolist() == [[1, 1, -3, 4, 1]]
    assert all(type(x) is int for x in a.flat)
    b = la.as_matrix(np.array([[2**62, -1]]))
    assert b.dtype == object and b.tolist() == [[2**62, -1]]
    assert all(type(x) is int for x in b.flat)


def test_as_matrix_passes_object_arrays_through():
    a = la.zeros(2, 3)
    assert la.as_matrix(a) is a


def test_chain_complex_refuses_a_fractional_differential():
    with pytest.raises(ValidationError, match="not an integer"):
        chain_complex(-1, {0: 1, 1: 1}, {1: [[0.5]]})


def test_smith_normal_form_refuses_non_integers():
    with pytest.raises(ValidationError, match="not an integer"):
        la.smith_normal_form([[2, 0.5]])
    with pytest.raises(ValidationError, match="must be integers"):
        la.smith_normal_form(np.array([[1.0]]))


@pytest.mark.parametrize(
    "rhs", [[2.0], [Fraction(2, 1)], np.array([2.0]), [[0.5]]], ids=repr
)
def test_right_hand_sides_must_be_integers(rhs):
    with pytest.raises(ValidationError):
        la.solve_integer([[1]], rhs)
    with pytest.raises(ValidationError):
        la.lattice_contains([[1]], rhs)


@pytest.mark.parametrize(
    "rhs", [[np.int64(2)], np.array([2], dtype=np.int32), [np.uint8(2)]], ids=repr
)
def test_numpy_integer_right_hand_sides_are_accepted(rhs):
    x = la.solve_integer([[1]], rhs)
    assert x.tolist() == [2] and type(x[0]) is int
    assert la.lattice_contains([[1]], rhs)
    assert not la.lattice_contains([[2]], [np.int64(1)])


def test_object_array_right_hand_sides_are_checked():
    with pytest.raises(ValidationError, match="not an integer"):
        la.solve_integer([[1]], np.array([2.0], dtype=object))
    with pytest.raises(ValidationError, match="not an integer"):
        la.lattice_contains([[1]], np.array([[0.5]], dtype=object))
    x = la.solve_integer([[1]], np.array([np.int64(2)], dtype=object))
    assert x.tolist() == [2] and type(x[0]) is int


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
