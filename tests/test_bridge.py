import random

import numpy as np
import pytest

from capstar import intlinalg as la
from capstar.bridge import (
    SimplicialChain,
    SimplicialCochain,
    apply_chain_map,
    boundary_of,
    chain_complex_of,
    chain_to_vector,
    coboundary_of,
    cochain_complex,
    cochain_pullback,
    last_vertex_chain_map,
    relative_chain_complex,
    relative_cochain_complex,
    subdivision_chain_map,
    xi_pairing,
)
from capstar.chains import homology, induced_map_on_homology, is_quasi_isomorphism
from capstar.complexes import barycentric_subdivide, from_maximal_simplices
from capstar.errors import ValidationError
from capstar.fixtures import circle, sphere, surfaces
from capstar.verify import _random_chain, _random_cochain


def test_single_vertex_chain_complex():
    k = chain_complex_of(from_maximal_simplices([["p"]]))
    assert k.ranks == {0: 1}
    assert not k.d(0).any()


def test_edge_boundary():
    x = from_maximal_simplices([["a", "b"]])
    c = SimplicialChain(x, 1, {("a", "b"): 1})
    b = boundary_of(c)
    assert b.coefficients == {("b",): 1, ("a",): -1}


def test_boundary_squares_to_zero_on_fixtures():
    for x in surfaces().values():
        k = chain_complex_of(x)
        for n in range(x.dimension + 1):
            assert not (k.sparse_d(n - 1) @ k.sparse_d(n)).any()


def test_relative_complex_of_empty_is_absolute():
    x = circle()
    rel, proj = relative_chain_complex(x, x.empty_subcomplex())
    assert rel == chain_complex_of(x)
    assert proj.sparse_matrix(1) == la.sparse_identity(3)


def test_relative_complex_of_everything_is_zero():
    x = circle()
    rel, _ = relative_chain_complex(x, x.full_subcomplex())
    assert rel.total_rank() == 0


def test_relative_interval_mod_endpoints():
    x = from_maximal_simplices([["a", "m"], ["b", "m"]])
    y = x.subcomplex_closure([("a",), ("b",)])
    rel, _ = relative_chain_complex(x, y)
    h = homology(rel, 1)
    assert h.group_str() == "Z^1"
    # the generator is the full path (both edges, compatibly oriented)
    gen = h.cycle_basis[0]
    assert sorted(abs(int(v)) for v in gen) == [1, 1]


def test_cochain_coboundary_sign():
    x = from_maximal_simplices([["a", "b"]])
    u = SimplicialCochain(x, 0, {("a",): 1})
    du = coboundary_of(u)
    assert du.values == {("a", "b"): 1}
    assert coboundary_of(SimplicialCochain(x, 0, {})).is_zero()


def test_relative_cochains_of_full_subcomplex_vanish():
    x = circle()
    rel = relative_cochain_complex(x, x.full_subcomplex())
    assert rel.total_rank() == 0


def test_cochain_complex_matches_dual_sign():
    x = sphere()
    c = cochain_complex(x)
    k = chain_complex_of(x)
    for p in range(2):
        assert np.array_equal(c.d(p), ((-1) ** (p + 1)) * k.d(p + 1).T)


def test_subdivision_chain_map_on_vertex_and_edge():
    x = from_maximal_simplices([["a", "b"]])
    sd = barycentric_subdivide(x)
    f = subdivision_chain_map(sd)
    av = chain_to_vector(SimplicialChain(x, 0, {("a",): 1}))
    image = f.sparse_matrix(0).apply(av)
    chain = {sd.complex.simplices_of_dim(0)[i]: v for i, v in enumerate(image) if v}
    assert chain == {("a",): 1}
    edge = apply_chain_map(f, SimplicialChain(x, 1, {("a", "b"): 1}), x, sd.complex)
    mid = sd.barycenter_of[("a", "b")]
    # the cone recursion gives [a,m] - [b,m]; its boundary is [b] - [a]
    assert edge.coefficients == {("a", mid): 1, ("b", mid): -1}
    assert boundary_of(edge).coefficients == {("b",): 1, ("a",): -1}


def test_subdivision_chain_map_commutes_with_boundary():
    x = from_maximal_simplices([[1, 2, 3]])
    sd = barycentric_subdivide(x)
    f = subdivision_chain_map(sd)  # constructor validates exactly
    alpha = SimplicialChain(x, 2, {(1, 2, 3): 1})
    lhs = boundary_of(apply_chain_map(f, alpha, x, sd.complex))
    rhs = apply_chain_map(f, boundary_of(alpha), x, sd.complex)
    assert (lhs - rhs).is_zero()


def test_last_vertex_chain_map_values():
    x = from_maximal_simplices([["a", "b"]])
    sd = barycentric_subdivide(x)
    pi = last_vertex_chain_map(sd)
    mid = sd.barycenter_of[("a", "b")]
    # [mid, b] maps to [b, b] hence zero; [a, mid] maps to [a, b]
    collapsing = SimplicialChain(sd.complex, 1, {("b", mid): 1})
    assert apply_chain_map(pi, collapsing, sd.complex, x).is_zero()
    surviving = SimplicialChain(sd.complex, 1, {("a", mid): 1})
    image = apply_chain_map(pi, surviving, sd.complex, x)
    assert image.coefficients == {("a", "b"): 1}


def test_subdivision_round_trip_identity_on_homology(surfaces):
    for name, x in surfaces.items():
        sd = barycentric_subdivide(x)
        f = subdivision_chain_map(sd)
        pi = last_vertex_chain_map(sd)
        assert is_quasi_isomorphism(f)[0], name
        assert is_quasi_isomorphism(pi)[0], name
        rt = pi.compose(f)
        for n in range(x.dimension + 1):
            ind = induced_map_on_homology(rt, n)
            assert ind.sparse == la.sparse_identity(ind.source_group.dim)


def test_cochain_pullback_is_transpose():
    x = circle()
    sd = barycentric_subdivide(x)
    pi = last_vertex_chain_map(sd)
    u = SimplicialCochain(x, 1, {(1, 2): 3})
    pulled = cochain_pullback(sd, u)
    for s in sd.complex.simplices_of_dim(1):
        chain = SimplicialChain(sd.complex, 1, {s: 1})
        assert pulled(s) == u.evaluate(apply_chain_map(pi, chain, sd.complex, x))


def test_pullback_of_closed_is_closed():
    x = sphere()
    sd = barycentric_subdivide(x)
    u = SimplicialCochain(x, 2, {(1, 2, 3): 1})
    assert coboundary_of(u).is_zero()
    assert coboundary_of(cochain_pullback(sd, u)).is_zero()


def test_xi_pairing_signs():
    x = from_maximal_simplices([["a", "b"]])
    a0 = SimplicialChain(x, 0, {("a",): 1})
    u0 = SimplicialCochain(x, 0, {("a",): 1})
    assert xi_pairing(a0, u0) == 1
    a1 = SimplicialChain(x, 1, {("a", "b"): 1})
    u1 = SimplicialCochain(x, 1, {("a", "b"): 1})
    assert xi_pairing(a1, u1) == -1
    assert xi_pairing(a1, SimplicialCochain(x, 1, {})) == 0


def test_xi_pairing_degree_mismatch():
    x = from_maximal_simplices([["a", "b"]])
    with pytest.raises(ValidationError):
        xi_pairing(
            SimplicialChain(x, 0, {("a",): 1}),
            SimplicialCochain(x, 1, {("a", "b"): 1}),
        )


def test_xi_is_chain_map_random(surfaces):
    rng = random.Random(11)
    for x in surfaces.values():
        for _ in range(60):
            m = rng.randint(1, x.dimension)
            alpha = _random_chain(rng, x, m)
            u = _random_cochain(rng, x, m - 1)
            assert xi_pairing(boundary_of(alpha), u) == -coboundary_of(u).evaluate(alpha)


def test_pairing_adjoint_identity(surfaces):
    rng = random.Random(12)
    for x in surfaces.values():
        for _ in range(60):
            p = rng.randint(0, x.dimension - 1)
            u = _random_cochain(rng, x, p)
            a = _random_chain(rng, x, p + 1)
            assert coboundary_of(u).evaluate(a) == ((-1) ** (p + 1)) * u.evaluate(boundary_of(a))


def test_relative_short_exact_rank_additivity(surfaces):
    rng = random.Random(13)
    for x in surfaces.values():
        for _ in range(5):
            pool = list(x.all_simplices())
            y = x.subcomplex_closure(rng.sample(pool, 3))
            rel, _ = relative_chain_complex(x, y)
            cy = chain_complex_of(y.as_complex())
            k = chain_complex_of(x)
            for n in range(x.dimension + 1):
                assert cy.rank(n) + rel.rank(n) == k.rank(n)
