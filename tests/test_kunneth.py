"""capstar's homology of staircase products against the Künneth formula,
computed from the factors' textbook groups by `helpers.kunneth`, which
shares no code with capstar's homology.  The products reach sizes the
brute-force oracle cannot: P2 × P2 has 12,259 cells and its H_3 is the Tor
term Tor(Z/2, Z/2); P2 × P3 is a coprime pair, so H_1 = Z/6 and the Tor
terms vanish.  Together they take about 1 s on 2 vCPUs."""

import pytest

from capstar.bridge import chain_complex_of
from capstar.chains import homology
from capstar.complexes import from_maximal_simplices
from capstar.fixtures import circle, projective_plane
from helpers import invariant_factors, kunneth, pseudo_projective_plane, staircase_product

S1 = [(1, ()), (1, ())]
RP2 = [(1, ()), (0, (2,)), (0, ())]


def moore(p):
    """The textbook groups of the pseudo-projective plane P_p."""
    return [(1, ()), (0, (p,)), (0, ())]


CASES = {
    "circle x circle": (circle, circle, S1, S1,
                        [(1, ()), (2, ()), (1, ())]),
    "RP2 x S1": (projective_plane, circle, RP2, S1,
                 [(1, ()), (1, (2,)), (0, (2,)), (0, ())]),
    "P2 x P2": (lambda: pseudo_projective_plane(2), lambda: pseudo_projective_plane(2),
                moore(2), moore(2), [(1, ()), (0, (2, 2)), (0, (2,)), (0, (2,)), (0, ())]),
    "P2 x P3": (lambda: pseudo_projective_plane(2), lambda: pseudo_projective_plane(3),
                moore(2), moore(3), [(1, ()), (0, (6,)), (0, ()), (0, ()), (0, ())]),
}


@pytest.mark.parametrize("name", CASES)
def test_product_homology_matches_kunneth(name):
    make_x, make_y, hx, hy, textbook = CASES[name]
    assert kunneth(hx, hy) == textbook
    x = staircase_product(make_x(), make_y(), name=name)
    k = chain_complex_of(x)
    groups = [homology(k, n) for n in range(x.dimension + 1)]
    assert [(g.betti, g.torsion) for g in groups] == textbook


def test_staircase_product_counts():
    # a triangle × an edge is a prism: C(3, 2) = 3 tetrahedra on 6 vertices
    prism = staircase_product(from_maximal_simplices([[1, 2, 3]]), from_maximal_simplices([[1, 2]]))
    assert [len(prism.simplices_of_dim(d)) for d in range(4)] == [6, 12, 10, 3]
    assert prism.euler_characteristic() == 1


@pytest.mark.parametrize("orders, factors", [
    ([], ()), ([1, 1], ()), ([6, 4], (2, 12)), ([2, 3], (6,)), ([4, 2, 2], (2, 2, 4)),
    ([12, 18], (6, 36)),
])
def test_invariant_factors(orders, factors):
    assert invariant_factors(orders) == factors
