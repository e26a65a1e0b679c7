"""Seeded verification suites behind the `verify` CLI command.

Every check applicable to the input complex runs and reports PASS or
FAIL; randomized checks draw from an explicit seed so runs reproduce
exactly.  `_corrupt` is an internal hook used by the test suite to
prove the checks can fail.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import intlinalg as la
from .bm import pair_long_exact_sequence
from .bridge import (
    SimplicialChain,
    SimplicialCochain,
    boundary_of,
    chain_complex_of,
    chain_to_vector,
    coboundary_of,
    cochain_complex,
    inclusion_chain_map,
    last_vertex_chain_map,
    subdivision_chain_map,
    vector_to_chain,
    xi_pairing,
)
from .chains import (
    cone,
    homology,
    identity_map,
    induced_map_on_homology,
    is_quasi_isomorphism,
    uct_check,
)
from .complexes import (
    SimplicialComplex,
    barycentric_subdivide,
    closed_star,
    nonmeeting_complement,
)
from .errors import RetractConditionError, ValidationError
from .intlinalg import smith_normal_form
from .products import cap, cup, supported_cap
from .records import Record

__all__ = ["CheckResult", "run_suite"]


class CheckResult(Record):
    _fields = ("name", "passed", "detail")
    _defaults = {"detail": ""}


def _cap_or_zero(alpha: SimplicialChain, u: SimplicialCochain) -> SimplicialChain:
    """Cap, with the convention that a cochain of too-high degree kills
    the chain (chains in negative degrees vanish)."""
    if u.degree > alpha.degree:
        return SimplicialChain(alpha.complex, alpha.degree - u.degree, {})
    return cap(alpha, u)


def _random_chain(rng, x, degree) -> SimplicialChain:
    """Random chain (or cochain): each simplex is in the support with
    probability 0.6, and then draws its coefficient from -3..3."""
    coeffs = {}
    for s in x.simplices_of_dim(degree):
        if rng.random() < 0.6:
            c = rng.randint(-3, 3)
            if c:
                coeffs[s] = c
    return SimplicialChain(x, degree, coeffs)


_random_cochain = _random_chain


def _random_subcomplex(rng, x):
    pool = list(x.all_simplices())
    if not pool:
        return x.empty_subcomplex()
    picks = rng.sample(pool, rng.randint(1, min(len(pool), 4)))
    return x.subcomplex_closure(picks)


def _random_closed(rng, k, x, degree, y=None):
    """Random integer combination of the generators and the boundaries,
    which span the cycles, with `k` a complex of (co)chains on `x` modulo
    `y`, as a (co)chain on `x`; None when there are none to combine."""
    span = la._hstack(homology(k, degree)._gens.T, k.sparse_d(degree - k.diff_degree))
    if span.shape[1] == 0:
        return None
    coeffs = [rng.randint(-2, 2) for _ in range(span.shape[1])]
    return vector_to_chain(x, degree, span.apply(coeffs), y)


def _random_cycle(rng, x, degree):
    return _random_closed(rng, chain_complex_of(x), x, degree)


def _random_closed_cochain(rng, x, degree):
    return _random_closed(rng, cochain_complex(x), x, degree)


def _random_cocycle_vanishing_off_star(rng, x, z, degree):
    """Random closed cochain vanishing on the non-meeting complement, or
    None when that space is trivial."""
    comp = nonmeeting_complement(x, z)
    return _random_closed(rng, cochain_complex(x, comp), x, degree, comp)


def _random_supported_cochain(rng, x, z, degree):
    """Random cochain vanishing on the non-meeting complement, or None
    when there is no such nonzero cochain in `degree`."""
    comp = nonmeeting_complement(x, z)
    # zero, in the coordinates of C(X)/C(comp): one draw per coordinate
    zero = chain_to_vector(SimplicialChain(x, degree, {}), comp)
    if not len(zero):
        return None
    return vector_to_chain(x, degree, [rng.randint(-2, 2) for _ in zero], comp)


def _is_coboundary(x, w: SimplicialCochain) -> bool:
    # a cocycle whose class in the kept cohomology group is zero
    return coboundary_of(w).is_zero() and not any(
        homology(cochain_complex(x), w.degree).coords_of(chain_to_vector(w)))


def _enlarged(rng, x, z):
    outside = [s for s in x.all_simplices() if s not in z]
    if not outside:
        return None
    extra = rng.choice(outside)
    return x.subcomplex_closure(list(z.simplices) + [extra])


def _cone_identity_acyclic(k) -> bool:
    c = cone(identity_map(k)).complex
    lo, hi = c.degree_span()
    return all(homology(c, n).is_trivial() for n in range(lo - 1, hi + 2))


def run_suite(x: SimplicialComplex, trials: int = 100, seed: int = 0,
              _corrupt: str | None = None) -> list[CheckResult]:
    """Run every applicable invariant check against one complex."""
    if la._entry(trials) < 1:
        raise ValidationError("trials must be >= 1")
    rng = random.Random(seed)
    results: list[CheckResult] = []

    def record(name, passed, detail=""):
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    dim = x.dimension
    k = chain_complex_of(x)

    # structural checks
    closure_ok = True
    for s in x.all_simplices():
        for j in range(1, len(s)):
            for f in combinations(s, j):
                if f not in x:
                    closure_ok = False
    record("face-closure", closure_ok)

    dd_ok = True
    for n in range(dim + 1):
        d_out = k.sparse_d(n)
        if _corrupt == "boundary" and n == dim and all(d_out.shape):
            top = dict(d_out._row_dicts[0])
            top[0] = top.get(0, 0) + 1
            top = {j: e for j, e in top.items() if e}
            d_out = la.SparseMatrix(d_out.shape, (top,) + d_out._row_dicts[1:])
        if (k.sparse_d(n - 1) @ d_out).any():
            dd_ok = False
    record("boundary-squares-to-zero", dd_ok)

    c = cochain_complex(x)
    record("cochain-d-squares-to-zero",
           all(not (c.sparse_d(p + 1) @ c.sparse_d(p)).any() for p in range(dim + 1)))

    # closed star against the non-meeting complement
    cover_ok = True
    for _ in range(min(trials, 20)):
        z = _random_subcomplex(rng, x)
        star = closed_star(x, z)
        comp = nonmeeting_complement(x, z)
        cover_ok = cover_ok and all(s in star or s in comp for s in x.all_simplices())
        cover_ok = cover_ok and not (comp.simplices & z.simplices)
    record("star-complement-cover", cover_ok)

    # barycentric subdivision and the two chain maps
    if x.num_simplices() > 0:
        sd = barycentric_subdivide(x)
        record("subdivision-euler",
               sd.complex.euler_characteristic() == x.euler_characteristic())
        sdm = subdivision_chain_map(sd)
        pi = last_vertex_chain_map(sd)
        round_trip = pi.compose(sdm)
        ident_ok = True
        for n in range(dim + 1):
            ind = induced_map_on_homology(round_trip, n)
            if ind.sparse != la.sparse_identity(ind.source_group.dim):
                ident_ok = False
        record("last-vertex-after-subdivision-is-identity", ident_ok)
        record("subdivision-map-quasi-iso", is_quasi_isomorphism(sdm)[0])
        record("last-vertex-map-quasi-iso", is_quasi_isomorphism(pi)[0])
    else:
        record("subdivision-euler", True, "empty complex")

    # sign identities for the pairing, cup, and cap
    pairing_ok = leibniz_ok = cap_bd_ok = adj_ok = assoc_ok = True
    for _ in range(trials):
        if dim < 0:
            break
        p = rng.randint(0, dim)
        if p + 1 <= dim:
            u = _random_cochain(rng, x, p)
            a = _random_chain(rng, x, p + 1)
            pairing_ok = pairing_ok and (
                coboundary_of(u).evaluate(a)
                == ((-1) ** (p + 1)) * u.evaluate(boundary_of(a))
            )
        q = rng.randint(0, max(dim - p, 0))
        if p + q <= dim:
            u = _random_cochain(rng, x, p)
            v = _random_cochain(rng, x, q)
            lhs = coboundary_of(cup(u, v))
            rhs = cup(coboundary_of(u), v).scaled((-1) ** q) + cup(u, coboundary_of(v))
            leibniz_ok = leibniz_ok and (lhs - rhs).is_zero()
        m = rng.randint(0, dim)
        p2 = rng.randint(0, m)
        alpha = _random_chain(rng, x, m)
        u2 = _random_cochain(rng, x, p2)
        lhs = boundary_of(_cap_or_zero(alpha, u2))
        rhs = _cap_or_zero(boundary_of(alpha), u2).scaled((-1) ** p2)
        if p2 + 1 <= dim:
            rhs = rhs + _cap_or_zero(alpha, coboundary_of(u2))
        cap_bd_ok = cap_bd_ok and (lhs - rhs).is_zero()
        v2 = _random_cochain(rng, x, m - p2)
        adj_ok = adj_ok and v2.evaluate(cap(alpha, u2)) == cup(u2, v2).evaluate(alpha)
        r = rng.randint(0, max(dim - p - q, 0))
        if p + q + r <= dim:
            u3 = _random_cochain(rng, x, p)
            v3 = _random_cochain(rng, x, q)
            w3 = _random_cochain(rng, x, r)
            assoc_ok = assoc_ok and (cup(cup(u3, v3), w3) - cup(u3, cup(v3, w3))).is_zero()
    record("pairing-adjoint-sign", pairing_ok)
    record("cup-leibniz", leibniz_ok)
    record("cap-boundary-identity", cap_bd_ok)
    record("cap-cup-adjunction", adj_ok)
    record("cup-associativity", assoc_ok)

    # graded commutativity only on cohomology
    comm_ok = True
    for _ in range(min(trials, 30)):
        if dim < 0:
            break
        p = rng.randint(0, dim)
        q = rng.randint(0, dim - p)
        u = _random_closed_cochain(rng, x, p)
        v = _random_closed_cochain(rng, x, q)
        if u is None or v is None:
            continue
        w = cup(u, v) - cup(v, u).scaled((-1) ** (p * q))
        comm_ok = comm_ok and _is_coboundary(x, w)
    record("cup-commutative-on-cohomology", comm_ok)

    # the evaluation pairing is a chain map into the dual
    xi_ok = True
    for _ in range(min(trials, 50)):
        if dim < 1:
            break
        m = rng.randint(1, dim)
        alpha = _random_chain(rng, x, m)
        u = _random_cochain(rng, x, m - 1)
        lhs = xi_pairing(boundary_of(alpha), u)
        rhs = -coboundary_of(u).evaluate(alpha)
        xi_ok = xi_ok and lhs == rhs
    record("xi-chain-map", xi_ok)

    record("uct-dual", uct_check(k).passed)

    # Smith normal form on random matrices
    snf_ok = True
    for _ in range(min(trials * 5, 500)):
        m = rng.randint(0, 8)
        n = rng.randint(0, 8)
        a = la.SparseMatrix.of(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], shape=(m, n)
        )
        snf = smith_normal_form(a)
        f = snf.sparse
        snf_ok = snf_ok and f.U @ a @ f.V == f.D
        snf_ok = snf_ok and f.U @ f.u_inv == la.sparse_identity(m)
        snf_ok = snf_ok and f.V @ f.v_inv == la.sparse_identity(n)
        facs = snf.invariant_factors()
        snf_ok = snf_ok and all(facs[i] % facs[i - 1] == 0 for i in range(1, len(facs)))
        snf_ok = snf_ok and all(set(row) <= {i} for i, row in enumerate(f.D.rows))
    record("smith-normal-form-random", snf_ok)

    record("cone-of-identity-acyclic", _cone_identity_acyclic(k))

    # supported cap properties
    sup_ok = indep_ok = enlarge_ok = True
    for _ in range(min(trials, 25)):
        if dim < 1:
            break
        z = _random_subcomplex(rng, x)
        m = rng.randint(1, dim)
        p = rng.randint(0, m)
        u = _random_cocycle_vanishing_off_star(rng, x, z, p)
        alpha = _random_cycle(rng, x, m)
        if u is None or alpha is None or u.is_zero():
            continue
        star = closed_star(x, z)
        sup_ok = sup_ok and all(s in star for s in cap(alpha, u).coefficients)
        try:
            res = supported_cap(x, z, u, alpha)
        except RetractConditionError:
            continue
        w = _random_supported_cochain(rng, x, z, p - 1)
        if w is not None:
            try:
                res2 = supported_cap(x, z, u + coboundary_of(w), alpha)
                indep_ok = indep_ok and res.class_in_z.coords == res2.class_in_z.coords
            except RetractConditionError:
                pass
        z_big = _enlarged(rng, x, z)
        if z_big is not None:
            try:
                res_big = supported_cap(x, z_big, u, alpha)
            except RetractConditionError:
                res_big = None
            if res_big is not None:
                inc = inclusion_chain_map(z.as_complex("support"), z_big.as_complex("support"))
                ind = induced_map_on_homology(inc, res.class_in_z.group.degree)
                enlarge_ok = enlarge_ok and (
                    ind.apply(res.class_in_z).coords == res_big.class_in_z.coords
                )
    record("supported-cap-image-in-star", sup_ok)
    record("supported-cap-cocycle-independence", indep_ok)
    record("supported-cap-enlarge-support", enlarge_ok)

    # long exact sequence of random pairs, plus rank additivity
    les_ok = True
    for _ in range(min(max(trials // 20, 1), 5)):
        y = _random_subcomplex(rng, x)
        les_ok = les_ok and pair_long_exact_sequence(x, y).passed
        rel = chain_complex_of(x, y)
        cy = chain_complex_of(y.as_complex())
        for n in range(dim + 1):
            if cy.rank(n) + rel.rank(n) != k.rank(n):
                les_ok = False
    record("pair-les-exact", les_ok)

    return results
