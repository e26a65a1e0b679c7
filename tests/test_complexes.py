import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_subdivision
from capstar.complexes import (
    SimplicialComplex,
    barycentric_subdivide,
    closed_star,
    from_maximal_simplices,
    induced_subdivision,
    last_vertex_approximation,
    nonmeeting_complement,
)
from capstar.errors import ValidationError
from capstar.io import serialize_complex
from capstar.fixtures import (
    circle,
    pair_models,
    simplex_pair,
    solid_simplex,
    sphere,
    surfaces,
    torus,
)


def test_face_closure_of_full_triangle():
    x = from_maximal_simplices([[1, 2, 3]])
    assert set(x.all_simplices()) == {
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    }


def test_single_vertex():
    x = from_maximal_simplices([[1]])
    assert x.dimension == 0
    assert x.simplices_of_dim(0) == ((1,),)


def test_hollow_triangle_has_no_top_cell():
    x = from_maximal_simplices([[1, 2], [2, 3], [1, 3]])
    assert len(x.simplices_of_dim(0)) == 3
    assert len(x.simplices_of_dim(1)) == 3
    assert x.dimension == 1


def test_duplicate_vertex_rejected():
    with pytest.raises(ValidationError):
        from_maximal_simplices([[1, 1, 2]])


def test_unordered_input_is_sorted():
    x = from_maximal_simplices([[3, 1, 2]])
    assert (1, 2, 3) in x


def test_empty_complex():
    x = from_maximal_simplices([])
    assert x.dimension == -1
    assert x.num_simplices() == 0
    sd = barycentric_subdivide(x)
    assert sd.complex.num_simplices() == 0


def test_closed_star_of_everything_and_nothing():
    x = circle()
    assert closed_star(x, x.full_subcomplex()).simplices == frozenset(x.all_simplices())
    assert closed_star(x, x.empty_subcomplex()).is_empty()
    assert nonmeeting_complement(x, x.empty_subcomplex()).simplices == frozenset(x.all_simplices())
    assert nonmeeting_complement(x, x.full_subcomplex()).is_empty()


def test_closed_star_of_path_midpoint():
    x = from_maximal_simplices([["a", "b"], ["b", "c"]])
    z = x.subcomplex_closure([("b",)])
    star = closed_star(x, z)
    assert star.simplices == frozenset(x.all_simplices())


def test_complement_of_vertex_in_hollow_triangle():
    x = circle()
    z = x.subcomplex_closure([(1,)])
    comp = nonmeeting_complement(x, z)
    assert comp.simplices == frozenset({(2,), (3,), (2, 3)})


def test_star_and_complement_cover(surfaces):
    for x in surfaces.values():
        z = x.subcomplex_closure(list(x.simplices_of_dim(0))[:1])
        star = closed_star(x, z)
        comp = nonmeeting_complement(x, z)
        for s in x.all_simplices():
            assert s in star or s in comp
        assert not (comp.simplices & z.simplices)


def test_subdivision_counts_full_triangle():
    x = from_maximal_simplices([[1, 2, 3]])
    sd = barycentric_subdivide(x)
    assert [len(sd.complex.simplices_of_dim(d)) for d in range(3)] == [7, 12, 6]
    assert sd.complex.euler_characteristic() == 1


def test_subdivision_of_vertex_and_edge():
    v = from_maximal_simplices([["a"]])
    assert barycentric_subdivide(v).complex.simplices_of_dim(0) == (("a",),)
    e = from_maximal_simplices([["a", "b"]])
    sd = barycentric_subdivide(e)
    assert len(sd.complex.simplices_of_dim(0)) == 3
    assert len(sd.complex.simplices_of_dim(1)) == 2
    assert sd.barycenter_of[("a", "b")] == "b(a.b)"


def test_subdivision_refuses_a_vertex_named_like_a_barycenter():
    x = from_maximal_simplices([[1, 2], ["b(1.2)"]])
    with pytest.raises(ValidationError,
                       match=r"^barycenter token 'b\(1\.2\)' collides with an existing vertex$"):
        barycentric_subdivide(x)


def test_subdivision_preserves_euler(surfaces):
    for x in surfaces.values():
        sd = barycentric_subdivide(x)
        assert sd.complex.euler_characteristic() == x.euler_characteristic()


def test_subdivision_vertices_biject_with_parent_simplices(surfaces):
    x = surfaces["rp2"]
    sd = barycentric_subdivide(x)
    assert len(sd.complex.simplices_of_dim(0)) == x.num_simplices()


def test_last_vertex_rule():
    x = from_maximal_simplices([[1, 2, 3]])
    sd = barycentric_subdivide(x)
    f = last_vertex_approximation(sd)
    assert f[sd.barycenter_of[(1, 2)]] == 2
    assert f[sd.barycenter_of[(1, 2, 3)]] == 3
    assert f[1] == 1


def test_last_vertex_is_simplicial(surfaces):
    for x in surfaces.values():
        sd = barycentric_subdivide(x)
        f = last_vertex_approximation(sd)
        for s in sd.complex.all_simplices():
            image = tuple(sorted({f[v] for v in s}, key=x.rank_of))
            assert image in x


def test_induced_subdivision_is_subdivision_of_subcomplex():
    x = sphere()
    z = x.subcomplex_closure([(1, 2, 3)])
    sd = barycentric_subdivide(x)
    sz = induced_subdivision(sd, z)
    sub_alone = barycentric_subdivide(z.as_complex())
    assert len(sz.simplices) == sub_alone.complex.num_simplices()


def test_subcomplex_must_be_face_closed():
    x = torus()
    with pytest.raises(ValidationError):
        x.subcomplex([(0, 1)])  # missing the vertices


def test_closed_surfaces_have_edges_in_two_triangles(surfaces):
    closed = {"sphere", "torus7", "rp2", "klein"}
    for name in closed:
        x = surfaces[name]
        for edge in x.simplices_of_dim(1):
            cofaces = [t for t in x.simplices_of_dim(2) if set(edge) <= set(t)]
            assert len(cofaces) == 2, (name, edge)


def test_moebius_boundary_is_one_circle(surfaces):
    x = surfaces["moebius"]
    boundary_edges = [
        e for e in x.simplices_of_dim(1)
        if sum(1 for t in x.simplices_of_dim(2) if set(e) <= set(t)) == 1
    ]
    assert len(boundary_edges) == 5
    # the boundary edges form a single closed walk through all 5 vertices
    adj = {}
    for a, b in boundary_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    assert all(len(v) == 2 for v in adj.values())
    start = boundary_edges[0][0]
    seen = {start}
    cur, prev = adj[start][0], start
    while cur != start:
        seen.add(cur)
        nxt = [v for v in adj[cur] if v != prev]
        prev, cur = cur, nxt[0]
    assert len(seen) == 5


# -- the order in which subdivision visits the parent simplices -----------


@st.composite
def hand_built_complexes(draw):
    """A complex built by hand: a closed random complex whose levels are
    shuffled, and whose vertex order may be shuffled too, so that its
    simplices need not be listed, or spelled, in rank order."""
    simplex = st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)
    x = from_maximal_simplices(draw(st.lists(simplex, min_size=1, max_size=6)))
    order = draw(st.permutations(x.vertex_order)) if draw(st.booleans()) else x.vertex_order
    levels = tuple(tuple(draw(st.permutations(level))) for level in x.simplices_by_dim)
    return SimplicialComplex(vertex_order=tuple(order), simplices_by_dim=levels)


@given(hand_built_complexes())
def test_subdivision_order_matches_the_sorted_order(x):
    new, old = barycentric_subdivide(x), reference_subdivision.barycentric_subdivide(x)
    assert new.complex.vertex_order == old.complex.vertex_order
    assert new.complex.simplices_by_dim == old.complex.simplices_by_dim
    assert list(new.barycenter_of.items()) == list(old.barycenter_of.items())
    assert list(new.parent_of.items()) == list(old.parent_of.items())


def test_subdivision_of_a_vertex_outside_the_order_is_rejected():
    x = SimplicialComplex(vertex_order=(1, 2), simplices_by_dim=(((2,), (1,), (3,)),))
    for subdivide in (barycentric_subdivide, reference_subdivision.barycentric_subdivide):
        with pytest.raises(ValidationError, match=r"^unknown vertex token 3$"):
            subdivide(x)


@given(hand_built_complexes())
def test_serialized_simplices_are_sorted_by_dimension_then_ranks(x):
    want = sorted(x.maximal_simplices(), key=lambda s: (len(s), x.sort_key(s)))
    assert json.loads(serialize_complex(x))["simplices"] == [list(s) for s in want]


def test_serializing_a_vertex_outside_the_order_is_rejected():
    x = SimplicialComplex(vertex_order=(1, 2), simplices_by_dim=(((2,), (1,), (3,)),))
    with pytest.raises(ValidationError, match=r"^unknown vertex token 3$"):
        serialize_complex(x)


# -- maximal simplices ---------------------------------------------------------


def _not_a_proper_face(x):
    """The simplices of `x` that are no proper face of any simplex."""
    proper = {f for s in x.all_simplices() for k in range(1, len(s))
              for f in itertools.combinations(s, k)}
    return tuple(s for s in x.all_simplices() if s not in proper)


def _maximal_cases():
    cases = dict(surfaces())
    cases["solid3"] = solid_simplex(3)
    for name, model in pair_models().items():
        cases[name] = model.ambient
        cases[name + "/boundary"] = model.boundary.as_complex()
    cases["mixed"] = from_maximal_simplices(
        [[1, 2, 3, 4], [4, 5], [5, 6, 7], [8], [6, 9], ["a", 9], ["b"]])
    return cases


@pytest.mark.parametrize("name", sorted(_maximal_cases()))
def test_maximal_simplices_are_those_no_simplex_has_as_a_proper_face(name):
    x = _maximal_cases()[name]
    assert x.maximal_simplices() == _not_a_proper_face(x)


def test_maximal_simplices_of_disk3_sd3():
    x = simplex_pair(3).ambient
    for _ in range(3):
        x = barycentric_subdivide(x).complex
    maximal = x.maximal_simplices()
    assert maximal == _not_a_proper_face(x) and len(maximal) == len(x.simplices_of_dim(3))


@given(hand_built_complexes())
def test_maximal_simplices_of_a_hand_built_complex(x):
    assert x.maximal_simplices() == _not_a_proper_face(x)
