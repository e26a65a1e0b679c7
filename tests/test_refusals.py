"""Chain complexes, chain maps, homology coordinates, the relative
supported cap and matrix products, solves and lattice comparisons refuse
malformed input with ValidationError."""

import numpy as np
import pytest

from capstar import intlinalg as la
from capstar.bridge import (
    SimplicialChain,
    SimplicialCochain,
    chain_complex_of,
    vector_to_chain,
    vector_to_cochain,
)
from capstar.chains import ChainComplexZ, HomologyGroup, chain_complex, chain_map, homology
from capstar.errors import ValidationError
from capstar.fixtures import circle, interval_pair
from capstar.products import relative_supported_cap


def _arrow():
    """Z in degree 1 onto Z in degree 0: d_1 = [1]."""
    return chain_complex(-1, {0: 1, 1: 1}, {1: [[1]]})


def test_chain_complex_refuses_a_differential_degree_other_than_one():
    for diff_degree in (0, 2, -2):
        with pytest.raises(ValidationError, match="diff_degree must be \\+1 or -1"):
            chain_complex(diff_degree, {0: 1}, {})


def test_chain_complex_refuses_a_differential_of_the_wrong_shape():
    with pytest.raises(ValidationError,
                       match=r"differential at degree 1 has shape \(1, 2\), expected \(1, 1\)"):
        chain_complex(-1, {0: 1, 1: 1}, {1: [[1, 0]]})


@pytest.mark.parametrize("build", [chain_complex, ChainComplexZ], ids=["chain_complex", "direct"])
def test_a_chain_complex_refuses_d_squared_not_zero(build):
    # Z -> Z -> Z with both maps the identity: d o d = 1 out of degree 2
    d = la.SparseMatrix.of([[1]])
    with pytest.raises(ValidationError, match="^d o d != 0 out of degree 2$"):
        build(-1, {0: 1, 1: 1, 2: 1}, {1: d, 2: d})


def test_chain_map_refuses_complexes_graded_apart():
    cochains = chain_complex(1, {0: 1}, {})
    with pytest.raises(ValidationError, match="different differential degrees"):
        chain_map(_arrow(), cochains, {})


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_chain_map_refuses_a_sign_other_than_one(sign):
    k = _arrow()
    with pytest.raises(ValidationError, match="sign must be \\+1 or -1"):
        chain_map(k, k, {0: [[1]], 1: [[1]]}, sign=sign)


def test_chain_map_refuses_a_degree_shift_or_sign_that_is_no_integer():
    k = _arrow()
    # a float degree was stored as its int, and a float shift failed only
    # later, in `induced_map_on_homology`
    for matrices, kwargs, entry in [({0.0: [[1]]}, {}, "0.0"),
                                    ({0: [[1]]}, {"shift": 1.0}, "1.0"),
                                    ({0: [[1]], 1: [[1]]}, {"sign": 1.0}, "1.0")]:
        with pytest.raises(ValidationError, match=f"^entry {entry} is not an integer$"):
            chain_map(k, k, matrices, **kwargs)
    # an integer of another type is read as its int, as in `chain_complex`
    f = chain_map(k, k, {0: [[1]], 1: [[1]]}, sign=True)
    assert f.sign == 1 and type(f.sign) is int


def test_chain_map_refuses_a_matrix_of_the_wrong_shape():
    k = _arrow()
    with pytest.raises(ValidationError,
                       match=r"matrix at degree 0 has shape \(2, 1\), expected \(1, 1\)"):
        chain_map(k, k, {0: [[1], [0]]})


def test_chain_map_refuses_a_map_that_does_not_commute():
    k = _arrow()
    chain_map(k, k, {0: [[2]], 1: [[2]]})
    # f_0 d_1 = [2] but d_1 f_1 = [0]
    with pytest.raises(ValidationError, match="does not commute with differentials at degree 1"):
        chain_map(k, k, {0: [[2]]})
    # with sign -1, f d = -d f: the identity commutes only up to that sign
    with pytest.raises(ValidationError, match="does not commute"):
        chain_map(k, k, {0: [[1]], 1: [[1]]}, sign=-1)
    assert chain_map(k, k, {0: [[1]], 1: [[-1]]}, sign=-1).sign == -1


def test_coords_of_refuses_a_vector_of_the_wrong_length():
    h1 = homology(chain_complex_of(circle()), 1)
    with pytest.raises(ValidationError, match="cycle has the wrong length"):
        h1.coords_of([1, 1])
    with pytest.raises(ValidationError, match="cycle has the wrong length"):
        h1.coords_of([1, -1, 1, 0])


@pytest.mark.parametrize("lift", [vector_to_chain, vector_to_cochain], ids=["chain", "cochain"])
def test_vector_to_chain_refuses_a_vector_of_the_wrong_length(lift):
    # the circle has three edges: a 4th entry was dropped, a missing one read as 0
    with pytest.raises(ValidationError, match="^vector has 4 entries for 3 basis elements$"):
        lift(circle(), 1, [1, 2, 3, 4])
    with pytest.raises(ValidationError, match="^vector has 1 entries for 3 basis elements$"):
        lift(circle(), 1, [5])
    assert lift(circle(), 1, [1, 2, 3]).coefficients == {(1, 2): 1, (1, 3): 2, (2, 3): 3}


def test_coords_of_refuses_a_vector_that_is_not_a_cycle():
    h1 = homology(chain_complex_of(circle()), 1)
    with pytest.raises(ValidationError, match="vector is not a cycle"):
        h1.coords_of([1, 0, 0])


def test_matrices_whose_shapes_do_not_fit_are_refused():
    with pytest.raises(ValidationError, match=r"^shape mismatch \(1, 2\) @ \(1, 1\)$"):
        la.SparseMatrix.of([[1, 0]]) @ la.SparseMatrix.of([[1]])
    with pytest.raises(ValidationError, match="^right-hand side length mismatch$"):
        la.solve_integer(la.smith_normal_form([[1, 0]]), [[1], [1]])
    with pytest.raises(ValidationError, match="^ambient rank mismatch$"):
        la.lattices_equal([[1]], [[1], [0]])


@pytest.mark.parametrize("call, given", [
    (lambda: la.SparseMatrix.of([2.0]), r"\[2\.0\]"),
    (lambda: la.SparseMatrix.of(np.array([1, 2])), r"array\(\[1, 2\]\)"),
    (lambda: la.SparseMatrix.of(5), "5"),
    (lambda: la.smith_normal_form([1, 2]), r"\[1, 2\]"),
    (lambda: la.solve_integer(la.smith_normal_form([[1]]), [1]), r"\[1\]"),
    (lambda: la.lattice_contains([[1, 0], [0, 1]], [1, 0]), r"\[1, 0\]"),
    (lambda: HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=(1, 2)), r"\(1, 2\)"),
    (lambda: HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=5), "5"),
], ids=["float-vector", "numpy-vector", "scalar", "smith-vector", "solve-vector",
        "lattice-vector", "group-vector", "group-scalar"])
def test_a_vector_or_scalar_is_refused_where_a_matrix_is_read(call, given):
    # each raised a bare TypeError ("'float' object is not iterable")
    with pytest.raises(ValidationError, match=f"^{given} is not a matrix given as rows$"):
        call()


@pytest.mark.parametrize("call, given", [
    (lambda: homology(chain_complex_of(circle()), 1).coords_of(5), "5"),
    (lambda: homology(chain_complex_of(circle()), 1).coords_of(2.0), r"2\.0"),
    (lambda: vector_to_chain(circle(), 1, 5), "5"),
    (lambda: vector_to_chain(circle(), 1, np.array(5)), r"array\(5\)"),
], ids=["coords-scalar", "coords-float", "vector-to-chain-scalar", "vector-to-chain-0d-array"])
def test_a_scalar_is_refused_where_a_vector_is_read(call, given):
    # each raised a bare TypeError ("'int' object is not iterable"), but a
    # 0-d array, which was read as a vector of one entry
    with pytest.raises(ValidationError, match=f"^{given} is not a vector$"):
        call()


def _midpoint_instance():
    model = interval_pair()
    x = model.ambient
    z = x.subcomplex_closure([("m",)])
    u = SimplicialCochain(x, 1, {("a", "m"): 1})
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    return x, model.boundary, z, u, alpha


def test_relative_supported_cap_refuses_a_negative_presubdivide():
    x, y, z, u, alpha = _midpoint_instance()
    assert relative_supported_cap(x, y, z, u, alpha).class_in_z.coords == (1,)
    with pytest.raises(ValidationError, match="presubdivide must be >= 0"):
        relative_supported_cap(x, y, z, u, alpha, presubdivide=-1)


def test_relative_supported_cap_refuses_inputs_on_another_complex():
    x, y, z, u, alpha = _midpoint_instance()
    other = circle()
    with pytest.raises(ValidationError, match="chain does not live on the ambient complex"):
        relative_supported_cap(x, y, z, u, SimplicialChain(other, 1, {(1, 2): 1}))
    with pytest.raises(ValidationError, match="cochain does not live on the ambient complex"):
        relative_supported_cap(x, y, z, SimplicialCochain(other, 1, {(1, 2): 1}), alpha)
    with pytest.raises(ValidationError,
                       match="boundary subcomplex does not belong to the ambient complex"):
        relative_supported_cap(x, other.subcomplex([(1,)]), z, u, alpha)
    with pytest.raises(ValidationError, match="subcomplex does not belong to the given complex"):
        relative_supported_cap(x, y, other.subcomplex([(1,)]), u, alpha)
