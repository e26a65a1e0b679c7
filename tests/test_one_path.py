"""Absolute is relative with an empty subcomplex: one chain-complex
assembly, one supported-cap body, one sparse vector type."""

import random

import pytest

from capstar import intlinalg as la
from capstar.bridge import (
    CochainFunctional,
    SimplicialChain,
    SimplicialCochain,
    apply_chain_map,
    chain_complex_of,
    chain_to_vector,
    inclusion_chain_map,
    relative_chain_complex,
    relative_inclusion_chain_map,
    subdivision_chain_map,
    vector_to_chain,
)
from capstar.complexes import SimplicialComplex, barycentric_subdivide, induced_subdivision
from capstar.errors import ValidationError
from capstar.fixtures import circle, cylinder_pair, interval_pair, solid_simplex, torus
from capstar.products import relative_supported_cap, supported_cap
from capstar.verify import _random_cocycle_vanishing_off_star, _random_cycle, _random_subcomplex


def _all_fixtures(surfaces, pairs):
    out = dict(surfaces)
    for name, model in pairs.items():
        out[name] = model.ambient
        out[name + "-boundary"] = model.boundary.as_complex(name + "-boundary")
    out["disk3"] = solid_simplex(3)
    return out


def test_chain_complex_of_empty_subcomplex_is_absolute(surfaces, pairs):
    for name, x in _all_fixtures(surfaces, pairs).items():
        assert chain_complex_of(x, x.empty_subcomplex()) == chain_complex_of(x), name


def test_relative_chain_complex_is_the_assembly_plus_projection(pairs):
    for name, model in pairs.items():
        x, y = model.ambient, model.boundary
        rel, proj = relative_chain_complex(x, y)
        assert rel == chain_complex_of(x, y), name
        assert proj.source == chain_complex_of(x), name
        for d in range(x.dimension + 1):
            p = proj.sparse_matrix(d)
            assert p @ p.T == la.sparse_identity(rel.rank(d)), (name, d)


def test_chain_complex_of_rejects_a_foreign_subcomplex():
    with pytest.raises(ValidationError):
        chain_complex_of(circle(), torus().empty_subcomplex())


def test_relative_inclusion_rejects_a_simplex_that_collapses_only_in_the_target():
    model = interval_pair()
    x, y = model.ambient, model.boundary
    with pytest.raises(ValidationError) as err:
        relative_inclusion_chain_map(x, x.empty_subcomplex(), x, y)
    assert "collapses in the target pair but not the source pair" in str(err.value)


def test_inclusion_rejects_a_simplex_outside_the_target():
    with pytest.raises(ValidationError, match=r"simplex \(1, 2, 3\) not in complex"):
        inclusion_chain_map(solid_simplex(2), circle())


def test_a_complex_that_is_not_face_closed_has_no_chain_complex():
    # the edge (2, 3) without its vertex (3,); the constructor does not check closure
    x = SimplicialComplex(vertex_order=(2, 3), simplices_by_dim=(((2,),), ((2, 3),)))
    with pytest.raises(ValidationError, match=r"simplex \(3,\) not in complex"):
        chain_complex_of(x)


def test_relative_subdivision_map_is_the_projected_absolute_map(pairs):
    for name, model in pairs.items():
        x, y = model.ambient, model.boundary
        for _ in range(2):
            sd = barycentric_subdivide(x)
            sd_y = induced_subdivision(sd, y)
            p_cur = relative_chain_complex(x, y)[1]
            p_next = relative_chain_complex(sd.complex, sd_y)[1]
            absolute, relative = subdivision_chain_map(sd), subdivision_chain_map(sd, y)
            assert relative.source == chain_complex_of(x, y), name
            assert relative.target == chain_complex_of(sd.complex, sd_y), name
            for d in range(x.dimension + 1):
                want = (p_next.sparse_matrix(d) @ absolute.sparse_matrix(d)
                        @ p_cur.sparse_matrix(d).T)
                assert relative.sparse_matrix(d) == want, (name, d)
            x, y = sd.complex, sd_y


def test_inclusion_is_the_pair_inclusion_with_empty_subcomplexes():
    x = torus()
    z = x.subcomplex_closure([(0, 1), (1, 3)]).as_complex("z")
    assert inclusion_chain_map(z, x) == relative_inclusion_chain_map(
        z, z.empty_subcomplex(), x, x.empty_subcomplex()
    )


def test_quotient_vectors_lift_along_the_projection_transpose(pairs):
    rng = random.Random(31)
    for name, model in pairs.items():
        x, y = model.ambient, model.boundary
        _, proj = relative_chain_complex(x, y)
        for d in range(x.dimension + 1):
            v = [rng.randint(-3, 3) for _ in range(proj.target.rank(d))]
            lift = vector_to_chain(x, d, v, y)
            assert all(s not in y for s in lift.coefficients), (name, d)
            assert chain_to_vector(lift) == proj.sparse_matrix(d).T.apply(v), (name, d)
            assert chain_to_vector(lift, y) == v, (name, d)


def test_supported_cap_is_the_relative_cap_with_empty_boundary(surfaces):
    rng = random.Random(32)
    seen = 0
    for x in surfaces.values():
        for _ in range(6):
            z = _random_subcomplex(rng, x)
            m = rng.randint(1, x.dimension)
            p = rng.randint(0, m)
            u = _random_cocycle_vanishing_off_star(rng, x, z, p)
            alpha = _random_cycle(rng, x, m)
            if u is None or alpha is None:
                continue
            rel = relative_supported_cap(x, x.empty_subcomplex(), z, u, alpha)
            if rel.class_in_z is None:
                continue
            res = supported_cap(x, z, u, alpha)
            assert res.chain_image == rel.chain_image
            assert res.class_in_z == rel.class_in_z
            assert res.class_in_pair == rel.class_in_pair
            assert res.support_group == rel.support_group
            seen += 1
    assert seen > 0


def test_one_sparse_vector_type():
    x = circle()
    assert SimplicialCochain is SimplicialChain and CochainFunctional is SimplicialChain
    u = SimplicialCochain(x, 1, {(1, 2): 2, (2, 3): 0})
    assert u.values is u.coefficients == {(1, 2): 2}
    with pytest.raises(AttributeError):
        u.values = {}
    alpha = SimplicialChain(x, 1, {(1, 2): 3, (1, 3): 1})
    assert u.evaluate(alpha) == alpha.evaluate(u) == 6
    with pytest.raises(ValidationError):
        u.evaluate(SimplicialChain(x, 0, {(1,): 1}))


def test_apply_chain_map_refuses_a_map_of_relative_chains():
    # the map's matrix indexes simplices outside the rim, not simplices of X
    for model, s in [(cylinder_pair(), ("a0", "a1")), (interval_pair(), ("m",))]:
        x, rim = model.ambient, model.boundary
        sd = barycentric_subdivide(x)
        chain = SimplicialChain(x, len(s) - 1, {s: 1})
        with pytest.raises(ValidationError, match="not on the absolute chains"):
            apply_chain_map(subdivision_chain_map(sd, rim), chain, x, sd.complex)
    x = cylinder_pair().ambient
    sd = barycentric_subdivide(x)
    image = apply_chain_map(subdivision_chain_map(sd), SimplicialChain(x, 1, {("a0", "a1"): 1}),
                            x, sd.complex)
    assert image.coefficients == {("a0", "b(a0.a1)"): 1, ("a1", "b(a0.a1)"): -1}
