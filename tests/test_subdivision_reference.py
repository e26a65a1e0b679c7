"""Barycentric subdivision, the subdivision chain map's flag formula and
the one-vertex test of induced subdivisions agree with the recursions
kept in `reference_subdivision`, on every fixture complex and pair at
sd^0 and sd^1."""

import pytest

import reference_subdivision as ref
from capstar import bridge
from capstar.complexes import barycentric_subdivide, closed_star, induced_subdivision
from capstar.fixtures import pair_models, surfaces

FIXTURES = [*surfaces(), *pair_models()]


def _case(name, level):
    """(complex, boundary subcomplex or None) of the named surface or
    pair at sd^level, subdivided by the reference code."""
    if name in surfaces():
        x, y = surfaces()[name], None
    else:
        model = pair_models()[name]
        x, y = model.ambient, model.boundary
    for _ in range(level):
        sd = ref.barycentric_subdivide(x)
        x, y = sd.complex, None if y is None else ref.induced_subdivision(sd, y)
    return x, y


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", FIXTURES)
def test_subdivision_matches_the_reference(name, level):
    x, y = _case(name, level)
    new, old = barycentric_subdivide(x), ref.barycentric_subdivide(x)
    assert new.complex.vertex_order == old.complex.vertex_order
    assert new.complex.simplices_by_dim == old.complex.simplices_by_dim
    assert new.complex.name == old.complex.name
    assert list(new.barycenter_of.items()) == list(old.barycenter_of.items())
    assert list(new.parent_of.items()) == list(old.parent_of.items())

    expansions = ref.subdivision_expansions(old)
    for s in x.all_simplices():
        assert bridge._subdivided(new, s) == expansions[s], s

    first_vertex = x.subcomplex_closure([x.simplices_of_dim(0)[0]])
    subs = [closed_star(x, first_vertex)] + ([] if y is None else [y])
    for z in subs:
        got = induced_subdivision(new, z)
        assert got.simplices == ref.induced_subdivision(old, z).simplices
        assert induced_subdivision(new, z) is got
