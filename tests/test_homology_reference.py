"""`homology`, which reduces each boundary matrix once, agrees with the
two-decompositions-per-degree code kept in `reference_homology`: the
same Betti numbers, torsion, generators, coordinate rows and kernels at
every degree lo-1..hi+1, asked in ascending and in descending order, on
the chain and cochain complexes of every fixture surface and of every
pair model (absolute and relative) at sd^0..sd^2, on their shifts at
sd^0 and sd^1, and on the mapping cones of the subdivision and
last-vertex maps from sd^0 to sd^1."""

import pytest

import reference_homology as ref
from capstar import bridge
from capstar.bridge import chain_complex_of, cochain_complex
from capstar.chains import chain_complex, cone, dual_map, homology, shift
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.fixtures import pair_models, surfaces

FIXTURES = {**{n: (x, None) for n, x in surfaces().items()},
            **{n: (m.ambient, m.boundary) for n, m in pair_models().items()}}


def _fresh(k):
    """A copy of `k` with nothing derived yet."""
    return chain_complex(k.diff_degree, k.ranks, k.sparse)


def assert_same_homology(k):
    lo, hi = k.degree_span()
    degrees = range(lo - 1, hi + 2)
    want = {n: ref.homology(k, n) for n in degrees}
    for order in (degrees, reversed(degrees)):
        fresh = _fresh(k)
        got = {n: homology(fresh, n) for n in order}
        for n in degrees:
            g, w = got[n], want[n]
            assert (g.degree, g.betti, g.torsion) == (w.degree, w.betti, w.torsion), n
            assert g._gens == w._gens and g._coords == w._coords, n
            assert g._kernel == w._kernel and g._cycle_test == w._cycle_test, n
        # every kept decomposition has been taken by its second reader
        assert set(fresh._derived) == set(degrees)


def _ladder(x, y):
    """(complex, subcomplex or None) at sd^0, sd^1 and sd^2."""
    out = [(x, y)]
    for _ in range(2):
        sd = barycentric_subdivide(x)
        x, y = sd.complex, None if y is None else induced_subdivision(sd, y)
        out.append((x, y))
    return out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_homology_matches_the_reference(name):
    for x, y in _ladder(*FIXTURES[name]):
        ks = [chain_complex_of(x), cochain_complex(x)]
        if y is not None:
            ks += [chain_complex_of(x, y), cochain_complex(x, y)]
        for k in ks:
            assert_same_homology(k)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_shifts_and_cones_match_the_reference(name):
    x, y = FIXTURES[name]
    sd = barycentric_subdivide(x)
    for x, y in [(x, y), (sd.complex, None if y is None else induced_subdivision(sd, y))]:
        for k in (chain_complex_of(x, y), cochain_complex(x, y)):
            for n in (1, -2):
                assert_same_homology(shift(k, n))
    f = bridge.subdivision_chain_map(sd, FIXTURES[name][1])
    for u in (f, dual_map(f), bridge.last_vertex_chain_map(sd)):
        assert_same_homology(cone(u).complex)
