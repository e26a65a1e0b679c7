"""Integer input is read by protocol, not by type: an array is anything
with `tolist()`, read through it, and a scalar that is not an int gives
its value by `item()`.  The stand-ins here belong to no library, so
these tests use no numpy."""

import pytest

from capstar import intlinalg as la
from capstar.bridge import SimplicialChain, chain_complex_of, vector_to_chain
from capstar.chains import HomologyGroup, chain_complex, homology
from capstar.errors import ValidationError
from capstar.fixtures import circle


class ArrayLike:
    """Nested lists handed out by `tolist()`, as an array hands them."""

    def __init__(self, lines):
        self.lines = lines

    def tolist(self):
        return self.lines

    def __repr__(self):
        return f"ArrayLike({self.lines!r})"


class ScalarLike:
    """A value handed out by `item()`, as a numpy scalar hands it."""

    def __init__(self, value):
        self.value = value

    def item(self):
        return self.value

    def __repr__(self):
        return f"ScalarLike({self.value!r})"


def _ints(m):
    return all(type(e) is int for row in m.rows for e in row.values())


def test_matrices_are_read_through_tolist_and_item():
    a = ArrayLike([[2, ScalarLike(4)], [ScalarLike(True), 0]])
    m = la.SparseMatrix.of(a)
    assert m.rows == ({0: 2, 1: 4}, {0: 1}) and _ints(m)
    assert la.smith_normal_form(a).invariant_factors() == (1, 4)


def test_chain_complexes_are_read_through_tolist_and_item():
    k = chain_complex(-1, {0: ScalarLike(1), ScalarLike(1): 2},
                      {ScalarLike(1): ArrayLike([[ScalarLike(1), -1]])})
    assert k.ranks == {0: 1, 1: 2} and k.sparse_d(1).rows == ({0: 1, 1: -1},)
    assert _ints(k.sparse_d(1))
    assert homology(k, 1).betti == 1


def test_chains_and_vectors_are_read_through_tolist_and_item():
    c = SimplicialChain(circle(), 1, {(1, 2): ScalarLike(2), (1, 3): ScalarLike(0)})
    assert c.coefficients == {(1, 2): 2} and type(c.coefficients[(1, 2)]) is int
    cycle = ArrayLike([1, ScalarLike(-1), 1])
    v = vector_to_chain(circle(), 1, cycle)
    assert v.coefficients == {(1, 2): 1, (1, 3): -1, (2, 3): 1}
    assert all(type(e) is int for e in v.coefficients.values())
    h1 = homology(chain_complex_of(circle()), 1)
    assert h1.coords_of(cycle) == h1.coords_of([1, -1, 1]) != (0,)
    group = HomologyGroup(degree=1, betti=1, torsion=(), cycle_basis=ArrayLike([cycle.lines]))
    assert group.cycle_basis == ((1, -1, 1),)


def test_a_scalar_whose_item_is_not_an_int_is_refused():
    bad = ScalarLike(1.0)
    h1 = homology(chain_complex_of(circle()), 1)
    for call in (lambda: la.SparseMatrix.of(ArrayLike([[1, bad]])),
                 lambda: la.smith_normal_form([[bad]]),
                 lambda: chain_complex(-1, {0: 1, 1: bad}, {}),
                 lambda: SimplicialChain(circle(), 1, {(1, 2): bad}),
                 lambda: vector_to_chain(circle(), 1, ArrayLike([bad, 0, 0])),
                 lambda: h1.coords_of([bad, bad, bad])):
        with pytest.raises(ValidationError, match=r"^entry ScalarLike\(1\.0\) is not an integer$"):
            call()
    with pytest.raises(ValidationError, match=r"^entry 1\.5 is not an integer$"):
        la.SparseMatrix.of(ArrayLike([[1.5]]))

