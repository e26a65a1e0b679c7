"""Acceptance suite: one check per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Everything here is exact integer arithmetic; the homology corpus is
cross-checked against the independent brute-force oracle in oracle.py.
"""

import random
import time
from contextlib import contextmanager

import oracle
from capstar import intlinalg as la
from capstar.bm import (
    OpenSpaceModel,
    bm_homology,
    bm_supported_cap,
    pair_long_exact_sequence,
)
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
    subdivision_chain_map,
    vector_to_chain,
    vector_to_cochain,
    xi_functional,
)
from capstar.chains import dual_hom_z, homology, uct_check
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.fixtures import (
    circle,
    cylinder_pair,
    interval_pair,
    pair_models,
    simplex_pair,
    sphere,
    surfaces,
    torus,
)
from capstar.products import cap, cup, dual_cap, supported_cap
from capstar.verify import _random_chain, _random_cochain, _random_closed_cochain, _random_cycle
from helpers import random_chain_maps, random_complex

FIXTURES = surfaces()  # circle, sphere, torus7, rp2, klein, moebius


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_sign_identity_suite():
    with criterion(1, "sign-identity-suite"):
        started = time.monotonic()
        rng = random.Random(101)
        trials = 300
        for name, x in FIXTURES.items():
            dim = x.dimension
            for _ in range(trials):
                # Leibniz: d(u cup v) = (-1)^q (du) cup v + u cup (dv)
                p = rng.randint(0, dim)
                q = rng.randint(0, dim - p)
                u = _random_cochain(rng, x, p)
                v = _random_cochain(rng, x, q)
                lhs = coboundary_of(cup(u, v))
                rhs = cup(coboundary_of(u), v).scaled((-1) ** q) + cup(u, coboundary_of(v))
                assert (lhs - rhs).is_zero(), name
                # boundary-cap: d(a cap u) = (-1)^p (da) cap u + a cap (du)
                m = rng.randint(1, dim)
                p2 = rng.randint(0, m - 1)
                alpha = _random_chain(rng, x, m)
                u2 = _random_cochain(rng, x, p2)
                lhs_b = boundary_of(cap(alpha, u2))
                rhs_b = cap(boundary_of(alpha), u2).scaled((-1) ** p2)
                rhs_b = rhs_b + cap(alpha, coboundary_of(u2))
                assert (lhs_b - rhs_b).is_zero(), name
                # adjunction: v(a cap u) = (u cup v)(a)
                p3 = rng.randint(0, m)
                u3 = _random_cochain(rng, x, p3)
                v3 = _random_cochain(rng, x, m - p3)
                assert v3.evaluate(cap(alpha, u3)) == cup(u3, v3).evaluate(alpha), name
                # pairing: <du, a> = (-1)^(p+1) <u, da>
                p4 = rng.randint(0, dim - 1)
                u4 = _random_cochain(rng, x, p4)
                a4 = _random_chain(rng, x, p4 + 1)
                assert coboundary_of(u4).evaluate(a4) == ((-1) ** (p4 + 1)) * u4.evaluate(
                    boundary_of(a4)
                ), name
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"sign-identity suite took {elapsed:.1f}s"


EXPECTED_CORPUS = {
    "sphere": ["Z^1", "0", "Z^1"],
    "torus7": ["Z^1", "Z^2", "Z^1"],
    "rp2": ["Z^1", "Z/2", "0"],
    "klein": ["Z^1", "Z^1 + Z/2", "0"],
    "moebius": ["Z^1", "Z^1", "0"],
}


def test_criterion_2_homology_corpus_with_independent_oracle():
    with criterion(2, "homology-corpus"):
        for name, expected in EXPECTED_CORPUS.items():
            x = FIXTURES[name]
            k = chain_complex_of(x)
            got = [homology(k, n).group_str() for n in range(3)]
            assert got == expected, (name, got)
            # the independent oracle recomputes from the maximal simplices
            maximal = [list(s) for s in x.maximal_simplices()]
            oracle_types = oracle.homology_types(maximal, top_dim=2)
            for n in range(3):
                h = homology(k, n)
                betti, torsion = oracle_types[n]
                assert h.betti == betti, (name, n)
                assert sorted(h.torsion) == torsion, (name, n)


def test_criterion_3_universal_coefficients():
    with criterion(3, "universal-coefficients"):
        for name, x in FIXTURES.items():
            assert uct_check(chain_complex_of(x)).passed, name
        rng = random.Random(103)
        for _ in range(200):
            k = random_complex(rng, length=4, max_rank=5)
            assert uct_check(k).passed


def test_criterion_4_cone_dual_isomorphism():
    from capstar.chains import cone_dual_iso

    with criterion(4, "cone-dual-isomorphism"):
        rng = random.Random(104)
        checked = 0
        while checked < 100:
            k = random_complex(rng, length=3, max_rank=4)
            l = random_complex(rng, length=3, max_rank=4)
            for f in random_chain_maps(rng, k, l, count=2):
                # the constructor verifies iso . d == d . iso exactly
                iso = cone_dual_iso(f)
                for n in set(iso.source.ranks) | set(iso.target.ranks):
                    assert iso.source.rank(n) == iso.target.rank(n)
                    s = la.smith_normal_form(iso.sparse_matrix(n))
                    assert s.rank == iso.source.rank(n)
                    assert all(v == 1 for v in s.invariant_factors())
                checked += 1


def test_criterion_5_supported_cap_desk_instances():
    with criterion(5, "supported-cap-desk-instances"):
        # hollow triangle, support = vertex 1, u = dual of [1,2],
        # alpha = [1,2] + [2,3] - [1,3].  Hand expansion: [1,2] cap u =
        # u([1,2]) [2] = [2]; the other two terms die on u; class = the
        # generator of H_0({1}) = Z.
        x = circle()
        z = x.subcomplex_closure([(1,)])
        u = SimplicialCochain(x, 1, {(1, 2): 1})
        alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
        res = supported_cap(x, z, u, alpha)
        assert res.chain_image.coefficients == {(2,): 1}
        assert res.class_in_z.group.group_str() == "Z^1"
        assert res.class_in_z.coords == (1,)

        # interval a-m-b mod endpoints, support = midpoint, u = dual of
        # [a,m], alpha = [a,m] + [m,b] (stored as [a,m] - [b,m]).  Hand
        # expansion: [a,m] cap u = [m]; [m,b] cap u = 0; the class is the
        # generator of H^BM_0(point) = Z.
        model = interval_pair()
        xi = model.ambient
        zi = xi.subcomplex_closure([("m",)])
        ui = SimplicialCochain(xi, 1, {("a", "m"): 1})
        ai = SimplicialChain(xi, 1, {("a", "m"): 1, ("b", "m"): -1})
        resi = bm_supported_cap(model, zi, ui, ai)
        assert resi.chain_image.coefficients == {("m",): 1}
        assert resi.class_in_z is not None
        assert resi.class_in_z.group.group_str() == "Z^1"
        assert resi.class_in_z.coords == (1,)


def test_criterion_6_poincare_duality_on_torus():
    with criterion(6, "poincare-duality-torus"):
        x = torus()
        k = chain_complex_of(x)
        h2 = homology(k, 2)
        assert h2.group_str() == "Z^1"
        fundamental = vector_to_chain(x, 2, h2.cycle_basis[0])
        c = cochain_complex(x)
        h1_cochains = homology(c, 1)
        assert h1_cochains.group_str() == "Z^2"
        h1 = homology(k, 1)
        assert h1.group_str() == "Z^2"
        cols = []
        for g in h1_cochains.cycle_basis:
            u = vector_to_cochain(x, 1, g)
            image = cap(fundamental, u)
            cols.append(h1.coords_of(chain_to_vector(image)))
        mat = [[cols[j][i] for j in range(2)] for i in range(2)]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        assert abs(det) == 1, f"induced matrix {mat} not unimodular"


def _transport_once(x, z, u, alpha):
    sd = barycentric_subdivide(x)
    sdm = subdivision_chain_map(sd)
    return (
        sd,
        induced_subdivision(sd, z),
        cochain_pullback(sd, u),
        apply_chain_map(sdm, alpha, x, sd.complex),
    )


def _classes_correspond_under_subdivision(z, z_subdivided, res, res2):
    """Map the class's representative through the subdivision chain map
    of the support and compare against the recomputed class."""
    z_complex = z.as_complex("support")
    sd_z = barycentric_subdivide(z_complex)
    f = subdivision_chain_map(sd_z)
    group = res.class_in_z.group
    deg = group.degree
    rep = [0] * chain_complex_of(z_complex).rank(deg)
    for coeff, g in zip(res.class_in_z.coords, group.cycle_basis):
        rep = [r + coeff * e for r, e in zip(rep, list(g))]
    mapped = f.sparse_matrix(deg).apply(rep)
    # the subdivided support's simplex basis agrees either way it is built
    assert (
        sd_z.complex.simplices_of_dim(deg)
        == z_subdivided.as_complex("support").simplices_of_dim(deg)
    )
    target_group = res2.class_in_z.group
    return target_group.class_of(mapped) == res2.class_in_z


def test_criterion_7_triangulation_invariance():
    with criterion(7, "triangulation-invariance"):
        # hollow-triangle instance
        x = circle()
        z = x.subcomplex_closure([(1,)])
        u = SimplicialCochain(x, 1, {(1, 2): 1})
        alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
        res = supported_cap(x, z, u, alpha)
        sd, z2, u2, alpha2 = _transport_once(x, z, u, alpha)
        assert coboundary_of(u2).is_zero()
        res2 = supported_cap(sd.complex, z2, u2, alpha2)
        assert _classes_correspond_under_subdivision(z, z2, res, res2)

        # sphere instance: support = vertex 1, u = dual of [1,2,3]
        xs = sphere()
        zs = xs.subcomplex_closure([(1,)])
        us = SimplicialCochain(xs, 2, {(1, 2, 3): 1})
        h2 = homology(chain_complex_of(xs), 2)
        alphas = vector_to_chain(xs, 2, h2.cycle_basis[0])
        ress = supported_cap(xs, zs, us, alphas)
        assert [abs(c) for c in ress.class_in_z.coords] == [1]  # a generator
        sds, zs2, us2, alphas2 = _transport_once(xs, zs, us, alphas)
        ress2 = supported_cap(sds.complex, zs2, us2, alphas2)
        assert _classes_correspond_under_subdivision(zs, zs2, ress, ress2)


def test_criterion_8_localization_pairs():
    with criterion(8, "localization-pairs"):
        started = time.monotonic()
        for n in (1, 2, 3):
            model = simplex_pair(n)
            for d in range(n + 1):
                h = bm_homology(model, d)
                assert h.group_str() == ("Z^1" if d == n else "0"), (n, d)
        cyl = cylinder_pair()
        assert [bm_homology(cyl, n).group_str() for n in range(3)] == ["0", "Z^1", "Z^1"]
        for name, model in pair_models().items():
            assert pair_long_exact_sequence(model.ambient, model.boundary).passed, name
        # bm supported cap coincides with the absolute one when Y is empty
        x = circle()
        model = OpenSpaceModel(ambient=x, boundary=x.empty_subcomplex())
        z = x.subcomplex_closure([(1,)])
        u = SimplicialCochain(x, 1, {(1, 2): 1})
        alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
        rel = bm_supported_cap(model, z, u, alpha)
        absolute = supported_cap(x, z, u, alpha)
        assert rel.class_in_z is not None
        assert rel.class_in_z.coords == absolute.class_in_z.coords
        assert rel.chain_image.coefficients == absolute.chain_image.coefficients
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"localization suite took {elapsed:.1f}s"


def _functional_vector(f, complex_, degree):
    basis = complex_.simplices_of_dim(degree)
    v = [0] * len(basis)
    for s, c in f.coefficients.items():
        v[complex_.index_of(s)] = c
    return v


def test_criterion_9_xi_compatibility_on_homology():
    with criterion(9, "xi-compatibility"):
        rng = random.Random(109)
        for name, x in FIXTURES.items():
            dual = dual_hom_z(cochain_complex(x))
            done = 0
            while done < 100:
                m = rng.randint(0, x.dimension)
                p = rng.randint(0, m)
                alpha = _random_cycle(rng, x, m)
                u = _random_closed_cochain(rng, x, p)
                if alpha is None or u is None:
                    continue
                done += 1
                lhs = xi_functional(cap(alpha, u))
                rhs = dual_cap(xi_functional(alpha), u)
                h = homology(dual, -(m - p))
                c1 = h.coords_of(_functional_vector(lhs, x, m - p))
                c2 = h.coords_of(_functional_vector(rhs, x, m - p))
                assert c1 == c2, (name, m, p)
