import random

import pytest

from capstar.bm import (
    OpenSpaceModel,
    bm_homology,
    bm_supported_cap,
    pair_long_exact_sequence,
    subdivision_invariance_check,
)
from capstar.bridge import SimplicialChain, SimplicialCochain, chain_complex_of, vector_to_chain
from capstar.chains import homology
from capstar.complexes import from_maximal_simplices
from capstar.errors import ValidationError
from capstar.fixtures import (
    circle,
    cylinder_pair,
    interval_pair,
    simplex_pair,
    solid_simplex,
    torus,
)
from capstar.products import supported_cap


def test_interval_pair_models_the_line():
    model = interval_pair()
    assert bm_homology(model, 1).group_str() == "Z^1"
    assert bm_homology(model, 0).is_trivial()


def test_empty_boundary_gives_ordinary_homology():
    x = circle()
    model = OpenSpaceModel(ambient=x, boundary=x.empty_subcomplex())
    k = chain_complex_of(x)
    for n in range(2):
        assert bm_homology(model, n).group_str() == homology(k, n).group_str()


def test_cylinder_pair_models_open_cylinder():
    model = cylinder_pair()
    got = [bm_homology(model, n).group_str() for n in range(3)]
    assert got == ["0", "Z^1", "Z^1"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disk_pairs_model_euclidean_space(n):
    model = simplex_pair(n)
    for d in range(n + 1):
        h = bm_homology(model, d)
        if d == n:
            assert h.group_str() == "Z^1"
        else:
            assert h.is_trivial()


def test_pair_les_degenerates_for_empty_boundary():
    x = circle()
    rep = pair_long_exact_sequence(x, x.empty_subcomplex())
    assert rep.passed


def test_pair_les_full_triangle_mod_boundary():
    x = solid_simplex(2)
    y = x.subcomplex_closure([(1, 2), (1, 3), (2, 3)])
    rep = pair_long_exact_sequence(x, y)
    assert rep.passed
    rel = bm_homology(OpenSpaceModel(ambient=x, boundary=y), 2)
    assert rel.group_str() == "Z^1"


def test_pair_les_interval():
    model = interval_pair()
    assert pair_long_exact_sequence(model.ambient, model.boundary).passed


def test_pair_les_all_fixture_pairs(pairs):
    for name, model in pairs.items():
        assert pair_long_exact_sequence(model.ambient, model.boundary).passed, name


def test_pair_les_random_subcomplexes(surfaces):
    rng = random.Random(31)
    for x in surfaces.values():
        pool = list(x.all_simplices())
        y = x.subcomplex_closure(rng.sample(pool, min(4, len(pool))))
        assert pair_long_exact_sequence(x, y).passed


def test_subdivision_invariance_small_pairs_twice(pairs):
    for name in ("interval", "disk2"):
        rep = subdivision_invariance_check(pairs[name], times=2)
        assert rep.passed, (name, rep.rows)


def test_subdivision_invariance_larger_pairs_once(pairs):
    for name in ("disk3", "cylinder"):
        rep = subdivision_invariance_check(pairs[name], times=1)
        assert rep.passed, (name, rep.rows)


def test_subdivision_invariance_absolute():
    x = circle()
    model = OpenSpaceModel(ambient=x, boundary=x.empty_subcomplex())
    assert subdivision_invariance_check(model, times=2).passed


def test_subdivision_invariance_single_vertex():
    x = from_maximal_simplices([["p"]])
    model = OpenSpaceModel(ambient=x, boundary=x.empty_subcomplex())
    assert subdivision_invariance_check(model, times=3).passed


def test_bm_supported_cap_interval_midpoint():
    model = interval_pair()
    x = model.ambient
    z = x.subcomplex_closure([("m",)])
    u = SimplicialCochain(x, 1, {("a", "m"): 1})
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    res = bm_supported_cap(model, z, u, alpha)
    assert res.chain_image.coefficients == {("m",): 1}
    assert res.class_in_z is not None
    assert res.class_in_z.coords == (1,)
    assert res.class_in_z.group.group_str() == "Z^1"


def test_bm_supported_cap_zero_cochain():
    model = interval_pair()
    x = model.ambient
    z = x.subcomplex_closure([("m",)])
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    res = bm_supported_cap(model, z, SimplicialCochain(x, 1, {}), alpha)
    assert res.chain_image.is_zero()
    assert res.class_in_pair.is_zero()


def test_bm_supported_cap_agrees_with_absolute_when_boundary_empty():
    x = circle()
    model = OpenSpaceModel(ambient=x, boundary=x.empty_subcomplex())
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    rel = bm_supported_cap(model, z, u, alpha)
    absolute = supported_cap(x, z, u, alpha)
    assert rel.class_in_z is not None
    assert rel.class_in_z.coords == absolute.class_in_z.coords


def test_bm_supported_cap_returns_when_the_retract_condition_fails():
    # H_0(Z) = Z^2 for two vertices, H_0(N) = Z for their connected star
    x = torus()
    model = OpenSpaceModel(ambient=x, boundary=x.subcomplex_closure([(6,)]))
    z = x.subcomplex_closure([(0,), (1,)])
    u = SimplicialCochain(x, 2, {(0, 1, 3): 1})
    alpha = vector_to_chain(x, 2, homology(chain_complex_of(x), 2).cycle_basis[0])
    res = bm_supported_cap(model, z, u, alpha)
    assert res.class_in_z is None
    assert res.support_group.degree == res.class_in_pair.group.degree == 0
    assert (res.support_group.group_str(), res.class_in_pair.group.group_str()) == ("Z^2", "Z^1")


def test_bm_supported_cap_transports_a_presubdivided_cap():
    x = circle()
    model = OpenSpaceModel(ambient=x, boundary=x.subcomplex([(3,)]))
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    res = bm_supported_cap(model, z, u, alpha, presubdivide=1)
    assert res.class_in_z.coords == (1,)


def test_model_requires_subcomplex_of_ambient():
    x = circle()
    other = from_maximal_simplices([[1, 2]])
    with pytest.raises(ValidationError):
        OpenSpaceModel(ambient=x, boundary=other.full_subcomplex())
