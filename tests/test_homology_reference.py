"""`homology`, which reduces each boundary matrix once, agrees with the
cache-free definition kept in `reference_homology`: the same Betti
numbers, torsion, generators and coordinate rows at every degree
lo-1..hi+1, asked in ascending, descending and seeded random
orders, on the chain and cochain complexes of every fixture surface and
of every pair model (absolute and relative) at sd^0..sd^2, on their
shifts at sd^0 and sd^1, and on the mapping cones of the subdivision and
last-vertex maps from sd^0 to sd^1, and on the chain and cochain
complexes of the pseudo-projective planes P_2..P_7 at sd^0 and of P_3 at
sd^1, whose torsion Z/p goes beyond Z/2.  On the fixture complexes at
sd^0..sd^2, the library's basis and that of the two-decompositions-per-
degree definition each are cycles and span, with the boundaries,
exactly the lattice of `kernel_basis`, and the groups agree."""

import random

import pytest

import reference_homology as ref
from capstar import bridge
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of, cochain_complex
from capstar.chains import chain_complex, cone, dual_map, homology, shift
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.fixtures import pair_models, surfaces
from helpers import pseudo_projective_plane

FIXTURES = {**{n: (x, None) for n, x in surfaces().items()},
            **{n: (m.ambient, m.boundary) for n, m in pair_models().items()}}


def _fresh(k):
    """A copy of `k` with nothing derived yet."""
    return chain_complex(k.diff_degree, k.ranks, k.sparse)


def _orders(degrees, seed=0):
    """Ascending, descending and two seeded random orders."""
    rng = random.Random(seed)
    shuffled = [rng.sample(degrees, len(degrees)) for _ in range(2)]
    return [list(degrees), list(reversed(degrees))] + shuffled


def assert_same_homology(k):
    lo, hi = k.degree_span()
    degrees = range(lo - 1, hi + 2)
    want = {n: ref.homology(k, n) for n in degrees}
    for order in _orders(degrees):
        fresh = _fresh(k)
        got = {n: homology(fresh, n) for n in order}
        for n in degrees:
            g, w = got[n], want[n]
            assert (g.degree, g.betti, g.torsion) == (w.degree, w.betti, w.torsion), n
            assert g._gens == w._gens and g._coords == w._coords, n
            assert g._cycle_test == w._cycle_test, n
        # every kept decomposition has been taken by the group that reads it
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


@pytest.mark.parametrize("p, times", [(p, 0) for p in range(2, 8)] + [(3, 1)],
                         ids=[f"P{p}-sd0" for p in range(2, 8)] + ["P3-sd1"])
def test_pseudo_projective_planes_match_the_reference(p, times):
    x = pseudo_projective_plane(p)
    for _ in range(times):
        x = barycentric_subdivide(x).complex
    chains, cochains = chain_complex_of(x), cochain_complex(x)
    for k in (chains, cochains):
        assert_same_homology(k)
    assert homology(chains, 1).torsion == (p,) and homology(cochains, 2).torsion == (p,)


def assert_basis_spans_the_cycles(k, n, g):
    """The generators are cycles, and with the boundaries they span
    exactly the lattice of `kernel_basis`."""
    assert not (k.sparse_d(n) @ g._gens.T).any(), n
    spanned = la._hstack(g._gens.T, k.sparse_d(n - k.diff_degree))
    assert la.lattices_equal(spanned, la.kernel_basis(k.sparse_d(n))), n


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_both_definitions_span_the_cycles_with_the_same_groups(name):
    for x, y in _ladder(*FIXTURES[name]):
        ks = [chain_complex_of(x), cochain_complex(x)]
        if y is not None:
            ks += [chain_complex_of(x, y), cochain_complex(x, y)]
        for k in ks:
            lo, hi = k.degree_span()
            for n in range(lo - 1, hi + 2):
                got, old = homology(k, n), ref.homology_two_decompositions(k, n)
                assert (got.betti, got.torsion) == (old.betti, old.torsion), n
                for g in (got, old):
                    assert_basis_spans_the_cycles(k, n, g)
