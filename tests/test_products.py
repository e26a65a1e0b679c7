import random

import pytest

from capstar.bridge import (
    SimplicialChain,
    SimplicialCochain,
    boundary_of,
    coboundary_of,
    xi_functional,
)
from capstar.complexes import closed_star, from_maximal_simplices, nonmeeting_complement
from capstar.errors import RetractConditionError, ValidationError
from capstar.fixtures import circle, interval_pair, sphere, torus
from capstar.products import (
    cap,
    cup,
    dual_cap,
    relative_supported_cap,
    supported_cap,
)
from capstar.verify import (
    _random_chain,
    _random_cochain,
    _random_cycle,
)


def test_cup_with_zero():
    x = circle()
    u = SimplicialCochain(x, 0, {})
    v = SimplicialCochain(x, 1, {(1, 2): 1})
    assert cup(u, v).is_zero()


def test_cup_front_back_on_full_triangle():
    x = from_maximal_simplices([[1, 2, 3]])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    v = SimplicialCochain(x, 1, {(2, 3): 1})
    w = cup(u, v)
    assert w.values == {(1, 2, 3): 1}


def test_cup_degree_zero_front():
    x = from_maximal_simplices([[1, 2, 3]])
    u = SimplicialCochain(x, 0, {(1,): 5})
    v = SimplicialCochain(x, 2, {(1, 2, 3): 1})
    assert cup(u, v).values == {(1, 2, 3): 5}
    v2 = SimplicialCochain(x, 1, {(2, 3): 1})
    # front vertex of (2,3) is 2, not 1
    assert cup(u, v2).is_zero()


def test_cap_top_degree_keeps_last_vertex():
    x = from_maximal_simplices([[1, 2, 3]])
    alpha = SimplicialChain(x, 2, {(1, 2, 3): 1})
    u = SimplicialCochain(x, 2, {(1, 2, 3): 7})
    assert cap(alpha, u).coefficients == {(3,): 7}


def test_cap_edge_example():
    x = from_maximal_simplices([[1, 2]])
    alpha = SimplicialChain(x, 1, {(1, 2): 1})
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    assert cap(alpha, u).coefficients == {(2,): 1}


def test_cap_with_zero_cochain():
    x = circle()
    alpha = SimplicialChain(x, 1, {(1, 2): 1})
    assert cap(alpha, SimplicialCochain(x, 1, {})).is_zero()


def test_cap_degree_error():
    x = circle()
    alpha = SimplicialChain(x, 0, {(1,): 1})
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    with pytest.raises(ValidationError):
        cap(alpha, u)


def test_dual_cap_zero():
    x = circle()
    f = xi_functional(SimplicialChain(x, 1, {(1, 2): 1}))
    assert dual_cap(f, SimplicialCochain(x, 1, {})).is_zero()


def test_dual_cap_without_a_star_builds_no_subcomplex(monkeypatch):
    def refuse(self):
        raise AssertionError("dual_cap copied the whole complex")

    x = circle()
    monkeypatch.setattr(type(x), "full_subcomplex", refuse)
    f = xi_functional(SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1}))
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    g = dual_cap(f, u)
    for v in (SimplicialCochain(x, 0, {(1,): 1}), SimplicialCochain(x, 0, {(2,): 3})):
        assert g.evaluate(v) == -f.evaluate(cup(v, u))


def test_dual_cap_degree_zero_sign_free():
    x = from_maximal_simplices([["a", "b"]])
    alpha = SimplicialChain(x, 0, {("a",): 1})
    f = xi_functional(alpha)
    u = SimplicialCochain(x, 0, {("a",): 1, ("b",): 1})
    g = dual_cap(f, u)
    v = SimplicialCochain(x, 0, {("a",): 1})
    assert g.evaluate(v) == f.evaluate(cup(v, u))


def test_identity_suite_random(surfaces):
    rng = random.Random(21)
    for x in surfaces.values():
        dim = x.dimension
        for _ in range(40):
            p = rng.randint(0, dim)
            q = rng.randint(0, dim - p)
            u = _random_cochain(rng, x, p)
            v = _random_cochain(rng, x, q)
            lhs = coboundary_of(cup(u, v))
            rhs = cup(coboundary_of(u), v).scaled((-1) ** q) + cup(u, coboundary_of(v))
            assert (lhs - rhs).is_zero()
            m = rng.randint(1, dim)
            p2 = rng.randint(0, m - 1)
            alpha = _random_chain(rng, x, m)
            u2 = _random_cochain(rng, x, p2)
            lhs_b = boundary_of(cap(alpha, u2))
            rhs_b = cap(boundary_of(alpha), u2).scaled((-1) ** p2) + cap(alpha, coboundary_of(u2))
            assert (lhs_b - rhs_b).is_zero()
            v2 = _random_cochain(rng, x, m - p2)
            assert v2.evaluate(cap(alpha, u2)) == cup(u2, v2).evaluate(alpha)


def test_cap_is_a_cup_module_action(surfaces):
    # (a cap u) cap v = a cap (u cup v), exactly at chain level
    rng = random.Random(26)
    for x in surfaces.values():
        dim = x.dimension
        for _ in range(30):
            m = rng.randint(0, dim)
            p = rng.randint(0, m)
            q = rng.randint(0, m - p)
            alpha = _random_chain(rng, x, m)
            u = _random_cochain(rng, x, p)
            v = _random_cochain(rng, x, q)
            lhs = cap(cap(alpha, u), v)
            rhs = cap(alpha, cup(u, v))
            assert (lhs - rhs).is_zero()


def test_cup_strictly_associative(surfaces):
    rng = random.Random(22)
    for x in surfaces.values():
        dim = x.dimension
        for _ in range(30):
            p = rng.randint(0, dim)
            q = rng.randint(0, dim - p)
            r = rng.randint(0, dim - p - q)
            u = _random_cochain(rng, x, p)
            v = _random_cochain(rng, x, q)
            w = _random_cochain(rng, x, r)
            assert (cup(cup(u, v), w) - cup(u, cup(v, w))).is_zero()


# -- the hollow triangle desk instance ---------------------------------


def hollow_triangle_instance():
    x = circle()
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    return x, z, u, alpha


def test_supported_cap_hollow_triangle():
    x, z, u, alpha = hollow_triangle_instance()
    res = supported_cap(x, z, u, alpha)
    assert res.chain_image.coefficients == {(2,): 1}
    assert res.class_in_z.group.group_str() == "Z^1"
    assert res.class_in_z.coords == (1,)
    assert res.diagnostics.inclusion_is_isomorphism


def test_supported_cap_zero_cochain():
    x, z, _, alpha = hollow_triangle_instance()
    res = supported_cap(x, z, SimplicialCochain(x, 1, {}), alpha)
    assert res.chain_image.is_zero()
    assert res.class_in_z.is_zero()


def test_supported_cap_full_support_reduces_to_plain_cap():
    x, _, u, alpha = hollow_triangle_instance()
    res = supported_cap(x, x.full_subcomplex(), u, alpha)
    plain = cap(alpha, u)
    assert res.chain_image.coefficients == plain.coefficients
    # class in H_0(X) of a point is the generator
    assert res.class_in_z.coords == (1,)


def test_supported_cap_rejects_bad_support():
    x, z, _, alpha = hollow_triangle_instance()
    bad = SimplicialCochain(x, 1, {(2, 3): 1})  # lives on the complement
    with pytest.raises(ValidationError):
        supported_cap(x, z, bad, alpha)


def test_supported_cap_rejects_non_cycle():
    x, z, u, _ = hollow_triangle_instance()
    not_cycle = SimplicialChain(x, 1, {(1, 2): 1})
    with pytest.raises(ValidationError):
        supported_cap(x, z, u, not_cycle)


def test_supported_cap_rejects_non_closed_cochain():
    x = sphere()
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})  # du != 0 on the sphere
    alpha = _random_cycle(random.Random(1), x, 2)
    with pytest.raises(ValidationError) as err:
        supported_cap(x, z, u, alpha)
    assert "closed" in str(err.value)


def test_supported_cap_image_always_in_star(surfaces):
    from capstar.verify import _random_cocycle_vanishing_off_star, _random_subcomplex

    rng = random.Random(23)
    for x in surfaces.values():
        for _ in range(15):
            z = _random_subcomplex(rng, x)
            m = rng.randint(1, x.dimension)
            p = rng.randint(0, m)
            u = _random_cocycle_vanishing_off_star(rng, x, z, p)
            alpha = _random_cycle(rng, x, m)
            if u is None or alpha is None:
                continue
            star = closed_star(x, z)
            assert all(s in star for s in cap(alpha, u).coefficients)


def test_supported_cap_cocycle_representative_independence():
    rng = random.Random(24)
    x = torus()
    z = x.subcomplex_closure([(0,)])
    comp = nonmeeting_complement(x, z)
    # supported closed 1-cochains: coboundaries of supported 0-cochains
    for _ in range(10):
        w_vals = {}
        for s in x.simplices_of_dim(0):
            if s not in comp and rng.random() < 0.7:
                c = rng.randint(-2, 2)
                if c:
                    w_vals[s] = c
        w = SimplicialCochain(x, 0, w_vals)
        u = coboundary_of(w)
        if any(s in comp for s in u.values):
            continue
        alpha = _random_cycle(rng, x, 1)
        if alpha is None:
            continue
        base = supported_cap(x, z, u, alpha)
        shifted = supported_cap(x, z, u + coboundary_of(w), alpha)
        # u and u + dw represent the same class; results agree
        assert base.class_in_z.coords == shifted.class_in_z.coords


def test_supported_cap_compatible_with_enlarging_support():
    from capstar.chains import induced_map_on_homology
    from capstar.products import inclusion_chain_map

    x, z, u, alpha = hollow_triangle_instance()
    z_big = x.subcomplex_closure([(1, 2)])
    small = supported_cap(x, z, u, alpha)
    big = supported_cap(x, z_big, u, alpha)
    inc = inclusion_chain_map(z.as_complex("support"), z_big.as_complex("support"))
    ind = induced_map_on_homology(
        inc, 0, source_group=small.class_in_z.group, target_group=big.class_in_z.group
    )
    assert ind.apply(small.class_in_z).coords == big.class_in_z.coords


def test_supported_cap_transports_torsion_classes():
    # full-support cap with the unit 0-cocycle is the identity, so the
    # class of a torsion cycle must come back as the torsion generator
    from capstar.bridge import chain_complex_of, vector_to_chain
    from capstar.chains import homology
    from capstar.fixtures import projective_plane

    x = projective_plane()
    k = chain_complex_of(x)
    h1 = homology(k, 1)
    assert h1.group_str() == "Z/2"

    alpha = vector_to_chain(x, 1, h1.cycle_basis[0])
    u = SimplicialCochain(x, 0, {s: 1 for s in x.simplices_of_dim(0)})
    assert coboundary_of(u).is_zero()
    res = supported_cap(x, x.full_subcomplex(), u, alpha)
    assert res.class_in_z.group.group_str() == "Z/2"
    assert res.class_in_z.coords == (1,)
    # doubling the cycle lands on the trivial class
    res2 = supported_cap(x, x.full_subcomplex(), u, alpha + alpha)
    assert res2.class_in_z.is_zero()


def test_supported_cap_presubdivide_path():
    x, z, u, alpha = hollow_triangle_instance()
    base = supported_cap(x, z, u, alpha)
    for k in (1, 2):
        res = supported_cap(x, z, u, alpha, presubdivide=k)
        # the support is a single vertex, fixed by subdivision, so the
        # transported class lives in the same group and must agree
        assert res.class_in_z.group.group_str() == base.class_in_z.group.group_str()
        assert res.class_in_z.coords == base.class_in_z.coords


def test_presubdivide_can_break_support_of_spread_cochains():
    # a locally constant 0-cochain can only be supported everywhere; its
    # last-vertex pullback smears onto the complement once the star of a
    # larger support shrinks, and the precondition check reports it
    x = circle()
    z = x.subcomplex_closure([(2, 3)])
    u = SimplicialCochain(x, 0, {s: 1 for s in x.simplices_of_dim(0)})
    assert coboundary_of(u).is_zero()
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    with pytest.raises(ValidationError) as err:
        supported_cap(x, z, u, alpha, presubdivide=0)
    assert "vanish" in str(err.value)
    with pytest.raises(ValidationError):
        supported_cap(x, z, u, alpha, presubdivide=2)


def test_supported_cap_retract_error_mentions_presubdivide():
    # an annulus-like support whose star is the whole circle: H(Z) = Z but
    # the star picks up the full S^1 homology in degree 1
    x = circle()
    z = x.subcomplex_closure([(1,), (2,), (3,)])  # three isolated vertices
    u = SimplicialCochain(x, 0, {(1,): 1, (2,): 1, (3,): 1})  # closed 0-cochain
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    with pytest.raises(RetractConditionError) as err:
        supported_cap(x, z, u, alpha)
    assert "presubdivide" in str(err.value)


# -- relative instances --------------------------------------------------


def test_relative_supported_cap_reduces_to_absolute_when_boundary_empty():
    x, z, u, alpha = hollow_triangle_instance()
    rel = relative_supported_cap(x, x.empty_subcomplex(), z, u, alpha)
    absolute = supported_cap(x, z, u, alpha)
    assert rel.class_in_z is not None
    assert rel.class_in_z.coords == absolute.class_in_z.coords
    assert rel.chain_image.coefficients == absolute.chain_image.coefficients


def test_relative_cap_with_unit_zero_cocycle_is_identity():
    model = interval_pair()
    x, y = model.ambient, model.boundary
    u = SimplicialCochain(x, 0, {s: 1 for s in x.simplices_of_dim(0)})
    assert coboundary_of(u).is_zero()
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    res = relative_supported_cap(x, y, x.full_subcomplex(), u, alpha)
    assert res.chain_image.coefficients == alpha.coefficients
    assert res.class_in_pair.coords == (1,) or res.class_in_pair.coords == (-1,)


def test_relative_supported_cap_interval_midpoint():
    model = interval_pair()
    x, y = model.ambient, model.boundary
    z = x.subcomplex_closure([("m",)])
    u = SimplicialCochain(x, 1, {("a", "m"): 1})
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    res = relative_supported_cap(x, y, z, u, alpha)
    assert res.chain_image.coefficients == {("m",): 1}
    assert res.class_in_z is not None
    assert res.class_in_z.group.group_str() == "Z^1"
    assert res.class_in_z.coords == (1,)


def test_relative_supported_cap_representative_independence():
    # cylinder pair: the boundary circles carry edges, so changing the
    # relative representative by boundary chains is a real perturbation
    from capstar.fixtures import cylinder_pair
    from capstar.verify import _random_cocycle_vanishing_off_star

    model = cylinder_pair()
    x, y = model.ambient, model.boundary
    z = x.subcomplex_closure([("a0",)])
    rng = random.Random(25)
    u = _random_cocycle_vanishing_off_star(rng, x, z, 1)
    assert u is not None and not u.is_zero()
    alpha = SimplicialChain(x, 1, {("a0", "a1"): 1})  # relative 1-cycle mod Y
    assert all(s in y for s in boundary_of(alpha).coefficients)
    res = relative_supported_cap(x, y, z, u, alpha)
    moved = 0
    for _ in range(12):
        vals = {}
        for s in y.simplices:
            if len(s) == 2:
                c = rng.randint(-2, 2)
                if c:
                    vals[s] = c
        gamma = SimplicialChain(x, 1, vals)
        if gamma.is_zero():
            continue
        moved += 1
        res2 = relative_supported_cap(x, y, z, u, alpha + gamma)
        assert res2.class_in_pair.coords == res.class_in_pair.coords
    assert moved > 0
