import random

import numpy as np
import pytest

import oracle
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of
from capstar.chains import (
    chain_complex,
    chain_map,
    cone,
    cone_dual_iso,
    dual_hom_z,
    homology,
    identity_map,
    induced_map_on_homology,
    is_quasi_isomorphism,
    shift,
    uct_check,
)
from capstar.errors import ValidationError
from capstar.fixtures import circle, projective_plane, sphere
from capstar.complexes import from_maximal_simplices
from helpers import dense, pseudo_projective_plane, random_chain_maps, random_complex


def test_d_squared_enforced():
    with pytest.raises(ValidationError):
        chain_complex(-1, {0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})


def test_homology_of_hollow_tetrahedron():
    x = sphere()
    k = chain_complex_of(x)
    assert homology(k, 0).group_str() == "Z^1"
    assert homology(k, 1).is_trivial()
    assert homology(k, 2).group_str() == "Z^1"


def test_homology_of_hollow_triangle():
    k = chain_complex_of(circle())
    assert homology(k, 0).group_str() == "Z^1"
    assert homology(k, 1).group_str() == "Z^1"


def test_homology_of_projective_plane():
    k = chain_complex_of(projective_plane())
    assert homology(k, 1).group_str() == "Z/2"
    assert homology(k, 2).is_trivial()


@pytest.mark.parametrize("p", range(2, 8))
def test_homology_of_pseudo_projective_planes(p):
    # torsion beyond Z/2: the boundary circle wraps p times
    k = chain_complex_of(pseudo_projective_plane(p))
    groups = [homology(k, n) for n in range(3)]
    assert [(g.betti, g.torsion) for g in groups] == [(1, ()), (0, (p,)), (0, ())]
    for g in groups:
        for i, rep in enumerate(g.cycle_basis):
            assert g.coords_of(rep) == tuple(int(i == j) for j in range(g.dim))


def test_homology_against_oracle_random_complexes():
    rng = random.Random(3)
    for _ in range(60):
        k = random_complex(rng)
        for n in k.degrees():
            h = homology(k, n)
            d_out = [[int(v) for v in row] for row in k.d(n)]
            d_in = [[int(v) for v in row] for row in k.d(n + 1)]
            kernel = k.rank(n) - oracle.rank_over_q(d_out)
            betti = kernel - oracle.rank_over_q(d_in)
            torsion = sorted(f for f in oracle.smith_diagonal(d_in) if f > 1)
            assert h.betti == betti
            assert sorted(h.torsion) == torsion


def test_homology_representatives_are_cycles_with_right_orders():
    rng = random.Random(4)
    for _ in range(30):
        k = random_complex(rng)
        for n in k.degrees():
            h = homology(k, n)
            for i, g in enumerate(h.cycle_basis):
                assert not any(k.sparse_d(n).apply(list(g)))
                coords = h.coords_of(g)
                expected = [0] * h.dim
                expected[i] = 1
                assert list(coords) == expected
            # each torsion representative times its order bounds
            for j, t in enumerate(h.torsion):
                g = h.cycle_basis[h.betti + j]
                scaled = [[t * e] for e in g]
                assert la.solve_integer(la.smith_normal_form(k.sparse_d(n + 1)), scaled) is not None


def test_degree_outside_range_is_zero_group():
    k = chain_complex_of(circle())
    assert homology(k, 5).is_trivial()
    assert homology(k, -2).is_trivial()


def test_class_coords_independent_of_representative():
    rng = random.Random(41)
    for _ in range(25):
        k = random_complex(rng)
        for n in k.degrees():
            h = homology(k, n)
            if h.is_trivial():
                continue
            kb = la.kernel_basis(k.sparse_d(n))
            if kb.shape[1] == 0:
                continue
            z = kb.apply([rng.randint(-2, 2) for _ in range(kb.shape[1])])
            b_in = k.sparse_d(n + 1)
            w = b_in.apply([rng.randint(-2, 2) for _ in range(b_in.shape[1])])
            assert h.coords_of(z) == h.coords_of([a + b for a, b in zip(z, w)])


def test_dual_of_zero_complex():
    z = chain_complex(-1, {}, {})
    assert dual_hom_z(z).total_rank() == 0


def test_dual_of_times_two():
    k = chain_complex(-1, {0: 1, 1: 1}, {1: [[2]]})
    d = dual_hom_z(k)
    assert d.diff_degree == 1
    assert d.d(0)[0, 0] == -2
    assert homology(d, 1).group_str() == "Z/2"


def test_double_dual_ranks_for_zero_differential():
    k = chain_complex(-1, {0: 3, 2: 1}, {})
    dd = dual_hom_z(dual_hom_z(k))
    assert dd.cohomological_ranks() == k.cohomological_ranks()


def test_shift_identities():
    k = chain_complex_of(circle())
    assert shift(k, 0) == k
    assert shift(shift(k, 1), -1) == k
    s = shift(k, 1)
    # differential is negated at the shifted index
    assert np.array_equal(s.d(2), -k.d(1))


def test_cone_of_identity_is_acyclic():
    k = chain_complex_of(sphere())
    c = cone(identity_map(k)).complex
    lo, hi = c.degree_span()
    for n in range(lo - 1, hi + 2):
        assert homology(c, n).is_trivial()


def test_cone_of_zero_map_is_direct_sum_of_shift_and_target():
    rng = random.Random(5)
    k = random_complex(rng)
    l = random_complex(rng)
    zero = chain_map(k, l, {})
    c = cone(zero).complex
    sh = shift(k, 1)
    for n in set(c.ranks) | set(sh.ranks) | set(l.ranks):
        assert c.rank(n) == sh.rank(n) + l.rank(n)


def test_cone_of_times_two():
    a = chain_complex(-1, {0: 1}, {})
    u = chain_map(a, a, {0: [[2]]})
    c = cone(u).complex
    assert homology(c, 0).group_str() == "Z/2"
    assert homology(c, 1).is_trivial()


def test_cone_canonical_maps_commute():
    rng = random.Random(6)
    k = random_complex(rng)
    maps = random_chain_maps(rng, k, k, count=1)
    res = cone(maps[0])
    # constructors validate the chain-map identity; spot-check shapes
    assert res.include_target.target == res.complex
    assert res.project_source.sign == -1


def test_cone_dual_iso_identity_rank_one():
    a = chain_complex(-1, {0: 1}, {})
    iso = cone_dual_iso(identity_map(a))
    ok, _ = is_quasi_isomorphism(iso)
    assert ok
    for m in iso.sparse.values():
        assert abs(int(np.linalg.det(np.array(dense(m), dtype=float)))) == 1


def test_cone_dual_iso_zero_map_signs():
    a = chain_complex(-1, {0: 1}, {})
    b = chain_complex(-1, {0: 1}, {})
    iso = cone_dual_iso(chain_map(a, b, {}))
    # degreewise a signed permutation
    for m in iso.sparse.values():
        for row in m.rows:
            assert len(row) == 1 and all(v in (-1, 1) for v in row.values())


def test_cone_dual_iso_random_exact():
    rng = random.Random(7)
    for _ in range(25):
        base = rng.randint(-2, 2)
        eps = rng.choice([1, -1])
        k = random_complex(rng, length=3, max_rank=3, diff_degree=eps, base_degree=base)
        l = random_complex(rng, length=3, max_rank=3, diff_degree=eps, base_degree=base)
        for f in random_chain_maps(rng, k, l, count=2):
            iso = cone_dual_iso(f)  # constructor checks iso . d == d . iso
            for n in iso.sparse:
                s = la.smith_normal_form(iso.sparse_matrix(n))
                assert all(v == 1 for v in s.invariant_factors())
                assert s.rank == iso.source.rank(n) == iso.target.rank(n)


def test_induced_map_identity():
    k = chain_complex_of(projective_plane())
    for n in range(3):
        ind = induced_map_on_homology(identity_map(k), n)
        assert ind.sparse == la.sparse_identity(ind.source_group.dim)
        assert ind.is_isomorphism()


def test_induced_map_hollow_into_full_triangle():
    from capstar.products import inclusion_chain_map

    hollow = circle()
    full = from_maximal_simplices([[1, 2, 3]], name="full")
    incl = inclusion_chain_map(hollow, full)
    ind = induced_map_on_homology(incl, 1)
    assert ind.source_group.group_str() == "Z^1"
    assert ind.target_group.is_trivial()
    assert not ind.is_isomorphism()


def test_rotation_of_circle_acts_by_identity_on_h1():
    x = circle()
    k = chain_complex_of(x)
    # vertex rotation 1 -> 2 -> 3 -> 1 induces a chain map
    perm = {1: 2, 2: 3, 3: 1}
    mats = {}
    for d in range(2):
        basis = x.simplices_of_dim(d)
        m = [[0] * len(basis) for _ in basis]
        for j, s in enumerate(basis):
            image = tuple(sorted((perm[v] for v in s)))
            sign = 1
            raw = tuple(perm[v] for v in s)
            if raw != image:
                sign = -1 if len(s) == 2 else 1
            m[x.index_of(image)][j] = sign
        mats[d] = m
    f = chain_map(k, k, mats)
    ind = induced_map_on_homology(f, 1)
    assert dense(ind.sparse) in ([[1]], [[-1]])
    assert ind.is_isomorphism()


def test_quasi_isomorphism_detection():
    k = chain_complex_of(circle())
    ok, report = is_quasi_isomorphism(identity_map(k))
    assert ok
    zero = chain_map(k, k, {})
    ok, report = is_quasi_isomorphism(zero)
    assert not ok


def test_uct_on_fixture_complexes():
    for x in (circle(), sphere(), projective_plane()):
        assert uct_check(chain_complex_of(x)).passed


def test_uct_example_rows():
    k = chain_complex(-1, {0: 1, 1: 1}, {1: [[2]]})
    rep = uct_check(k)
    assert rep.passed
    assert any(row[0] == 1 and row[1] == "Z/2" for row in rep.rows)
    hollow = chain_complex_of(circle())
    rep = uct_check(hollow)
    assert rep.passed


def test_uct_zero_differential():
    k = chain_complex(-1, {0: 2, 1: 3}, {})
    rep = uct_check(k)
    assert rep.passed
    assert any(row[0] == 1 and row[1] == "Z^3" for row in rep.rows)


def test_uct_random_complexes():
    rng = random.Random(8)
    for _ in range(60):
        assert uct_check(random_complex(rng)).passed


def test_uct_random_cochain_complexes_off_origin():
    rng = random.Random(18)
    for _ in range(40):
        k = random_complex(
            rng, diff_degree=rng.choice([1, -1]), base_degree=rng.randint(-3, 3)
        )
        assert uct_check(k).passed


def test_cone_long_exact_sequence_random():
    # ranks and torsion fit exactness at each node of the triangle
    from capstar.bm import _exact_at

    rng = random.Random(9)
    for _ in range(15):
        k = random_complex(rng, length=3, max_rank=3)
        l = random_complex(rng, length=3, max_rank=3)
        f = random_chain_maps(rng, k, l)[0]
        res = cone(f)
        c = res.complex
        degrees = sorted(set(c.ranks) | set(k.ranks) | set(l.ranks))
        for n in degrees:
            hk = homology(k, n)
            hl = homology(l, n)
            hc = homology(c, n)
            hk_prev = homology(k, n - 1)
            hl_prev = homology(l, n - 1)
            f_n = induced_map_on_homology(f, n)
            i_n = induced_map_on_homology(res.include_target, n)
            p_n = induced_map_on_homology(res.project_source, n)
            f_prev = induced_map_on_homology(f, n - 1)
            assert _exact_at(f_n.sparse, hl, i_n.sparse, hc)
            assert _exact_at(i_n.sparse, hc, p_n.sparse, hk_prev)
            assert _exact_at(p_n.sparse, hk_prev, f_prev.sparse, hl_prev)
