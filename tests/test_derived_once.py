"""Chain complexes and homology are computed once, on the object they
derive from, and shared read-only."""

import gc
import random
import sys
import weakref

import pytest

import capstar.bm as bm
import capstar.bridge as bridge
import capstar.chains as chains
import capstar.complexes as complexes
import capstar.elimination as elimination
import capstar.products as products
import capstar.verify as verify
from capstar import intlinalg as la
from capstar.bm import (
    OpenSpaceModel,
    bm_supported_cap,
    pair_long_exact_sequence,
    subdivision_invariance_check,
)
from capstar.bridge import SimplicialChain, SimplicialCochain, chain_complex_of, cochain_complex
from capstar.chains import dual_hom_z, homology, uct_check
from capstar.complexes import closed_star, from_maximal_simplices
from capstar.errors import InternalCheckError, ValidationError
from capstar.fixtures import circle, interval_pair, simplex_pair, torus
from capstar.products import supported_cap


def test_absolute_complex_is_kept_on_the_complex():
    x = torus()
    k = chain_complex_of(x)
    assert chain_complex_of(x) is k
    assert chain_complex_of(x, x.empty_subcomplex()) is k
    assert cochain_complex(x) is cochain_complex(x, x.empty_subcomplex())


def test_relative_complex_is_kept_on_the_subcomplex():
    x = torus()
    y = x.subcomplex_closure([(0, 1), (1, 3)])
    k = chain_complex_of(x, y)
    assert chain_complex_of(x, y) is k
    assert k is not chain_complex_of(x)
    assert cochain_complex(x, y) is cochain_complex(x, y)
    # the parent check runs before the lookup
    other = from_maximal_simplices([[0, 1, 3]])
    with pytest.raises(ValidationError):
        chain_complex_of(other, y)


def test_cochain_complex_is_the_dual_kept_on_the_chain_complex():
    x = torus()
    y = x.subcomplex_closure([(0, 1)])
    assert cochain_complex(x) is dual_hom_z(chain_complex_of(x))
    assert cochain_complex(x, y) is dual_hom_z(chain_complex_of(x, y))


def test_uct_check_reuses_the_kept_dual_and_its_groups(monkeypatch):
    x = torus()
    k, c = chain_complex_of(x), cochain_complex(x)
    for n in range(-2, 4):
        homology(k, n), homology(c, n)
    calls = []
    eliminate = chains.eliminate

    def counted(a):
        calls.append(a.shape)
        return eliminate(a)

    monkeypatch.setattr(chains, "eliminate", counted)
    assert uct_check(k).passed
    assert calls == []


def test_subdivision_invariance_assembles_each_pair_once(monkeypatch):
    assembled = []
    assemble = bridge._assemble

    def counted(x, y):
        assembled.append((x.num_simplices(), 0 if y is None else len(y.simplices)))
        return assemble(x, y)

    monkeypatch.setattr(bridge, "_assemble", counted)
    assert subdivision_invariance_check(simplex_pair(3), times=2).passed
    # the pair, its subdivision (149 cells, 74 in Y) and the second one
    assert assembled == [(15, 14), (149, 74), (2745, 434)]


def test_homology_is_computed_once_per_degree():
    k = chain_complex_of(torus())
    h = homology(k, 1)
    assert homology(k, 1) is h
    assert homology(k, 2) is not h


def test_differentials_are_read_only():
    x = torus()
    d1 = chain_complex_of(x).d(1)
    with pytest.raises(ValueError):
        d1[0, 0] += 1
    assert homology(chain_complex_of(x), 1).group_str() == "Z^2"


def test_sparse_lines_are_read_only():
    x = torus()
    k = chain_complex_of(x)
    f = bridge.last_vertex_chain_map(complexes.barycentric_subdivide(x))
    snf = la.smith_normal_form(k.sparse_d(1))
    for m in [k.sparse_d(1), f.sparse_matrix(1), *snf.sparse]:
        for line in (m.rows[0], m.cols[0]):
            with pytest.raises(TypeError, match="does not support item assignment"):
                line[0] = 5
            with pytest.raises(AttributeError):
                line.clear()
    assert homology(chain_complex_of(x), 1).group_str() == "Z^2"


def test_cycle_representatives_are_read_only():
    k = chain_complex_of(torus())
    h = homology(k, 1)
    before = [list(rep) for rep in h.cycle_basis]
    for rep in h.cycle_basis:
        with pytest.raises(TypeError):
            rep[0] += 1
        rep *= 2  # a tuple: this rebinds the local name, the group is unchanged
    again = homology(k, 1)
    assert again is h and again.group_str() == "Z^2"
    assert [list(rep) for rep in again.cycle_basis] == before
    assert [again.coords_of(rep) for rep in again.cycle_basis] == [(1, 0), (0, 1)]


def test_cache_does_not_change_equality_or_hashing():
    x = torus()
    twin = torus()
    chain_complex_of(x)
    cochain_complex(x)
    assert x == twin and hash(x) == hash(twin)
    y = x.subcomplex_closure([(0, 1)])
    chain_complex_of(x, y)
    assert y == x.subcomplex_closure([(0, 1)])


def test_cache_dies_with_its_complex():
    x = torus()
    y = x.subcomplex_closure([(0, 1)])
    homology(chain_complex_of(x), 1)
    homology(chain_complex_of(x, y), 1)
    pair_long_exact_sequence(x, y)
    x_ref, y_ref = weakref.ref(x), weakref.ref(y)
    k_ref = weakref.ref(chain_complex_of(x))
    del x, y
    gc.collect()
    assert x_ref() is None and y_ref() is None and k_ref() is None


def test_pair_sequence_nodes_in_order():
    model = interval_pair()
    report = pair_long_exact_sequence(model.ambient, model.boundary)
    assert report.passed
    assert report.nodes == (
        ("H_1(Y)", True), ("H_1(X)", True), ("H_1(X,Y)", True),
        ("H_0(Y)", True), ("H_0(X)", True), ("H_0(X,Y)", True),
    )


def test_pair_sequence_failure_names_every_failing_node(monkeypatch):
    monkeypatch.setattr(bm, "_exact_at", lambda *args: False)
    x = from_maximal_simplices([[1, 2]])
    with pytest.raises(InternalCheckError) as err:
        pair_long_exact_sequence(x, x.subcomplex([(1,)]))
    assert str(err.value) == (
        "pair sequence not exact at "
        "['H_1(Y)', 'H_1(X)', 'H_1(X,Y)', 'H_0(Y)', 'H_0(X)', 'H_0(X,Y)']"
    )


# -- the supported cap's support data -------------------------------------


def _circle_cap_instance():
    x = circle()
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    return x, z, u, alpha


@pytest.fixture
def homology_eliminations(monkeypatch):
    """A list that collects one entry per elimination that `homology`
    runs (other callers of the same function are not counted)."""
    calls = []
    eliminate = chains.eliminate

    def counted(a):
        if sys._getframe(1).f_code is homology.__code__:
            calls.append(a.shape)
        return eliminate(a)

    monkeypatch.setattr(chains, "eliminate", counted)
    return calls


def test_supported_cap_builds_no_nonmeeting_complement(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cap built the non-meeting complement")

    monkeypatch.setattr(complexes, "nonmeeting_complement", refuse)
    monkeypatch.setattr(products, "nonmeeting_complement", refuse, raising=False)
    x, z, u, alpha = _circle_cap_instance()
    assert supported_cap(x, z, u, alpha).class_in_z.coords == (1,)
    off_star = SimplicialCochain(x, 1, {(2, 3): 1})
    with pytest.raises(ValidationError, match=r"vanish.*\(at \(2, 3\)\)"):
        supported_cap(x, z, off_star, alpha)


def test_closed_star_and_support_complexes_are_kept_on_the_subcomplex():
    x = torus()
    z = x.subcomplex_closure([(0, 1)])
    assert closed_star(x, z) is closed_star(x, z)
    support = z.as_complex("support")
    assert z.as_complex("support") is support
    assert z.as_complex("star") is not support
    assert z.as_complex("star") == z.as_complex("star")
    # the parent check runs before the lookup
    with pytest.raises(ValidationError):
        closed_star(from_maximal_simplices([[0, 1]]), z)


def test_second_cap_on_the_same_support_runs_no_homology_reduction(homology_eliminations):
    x, z, u, alpha = _circle_cap_instance()
    first = supported_cap(x, z, u, alpha)
    assert homology_eliminations
    homology_eliminations.clear()
    second = supported_cap(x, z, u + u, alpha)
    assert homology_eliminations == []
    assert second.class_in_z.group is first.class_in_z.group
    assert second.class_in_z.coords == (2,)


def test_bm_supported_cap_subdivides_each_level_once(monkeypatch):
    made = []
    subdivide = complexes.barycentric_subdivide

    def counted(x):
        made.append((x, subdivide(x)))
        return made[-1][1]

    monkeypatch.setattr(products, "barycentric_subdivide", counted)
    x, z, u, alpha = _circle_cap_instance()
    model = OpenSpaceModel(ambient=x, boundary=x.subcomplex([(3,)]))
    assert bm_supported_cap(model, z, u, alpha, presubdivide=2).class_in_z.coords == (1,)
    # one subdivision per level, each of the complex the level before made
    assert len(made) == 2
    (first_parent, first), (second_parent, _) = made
    assert first_parent is x and second_parent is first.complex


def test_an_empty_subcomplex_shares_the_absolute_subdivision_map():
    x = torus()
    sd = complexes.barycentric_subdivide(x)
    f = bridge.subdivision_chain_map(sd)
    # an empty Y is no Y, as in `chain_complex_of`: one map, kept once
    assert bridge.subdivision_chain_map(sd, x.empty_subcomplex()) is f
    assert bridge.subdivision_chain_map(complexes.barycentric_subdivide(x)) is f
    y = x.subcomplex_closure([(0, 1)])
    g = bridge.subdivision_chain_map(sd, y)
    assert g is not f and bridge.subdivision_chain_map(sd, y) is g
    with pytest.raises(ValidationError):
        bridge.subdivision_chain_map(sd, from_maximal_simplices([[0, 1]]).empty_subcomplex())


def test_supported_draws_build_one_nonmeeting_complement_per_support(monkeypatch):
    built, assembled = [], []
    complement, assemble = complexes.nonmeeting_complement, bridge._assemble

    def counted(x, z):
        built.append((id(x), id(z), id(complement(x, z))))
        return complement(x, z)

    def counted_assembly(x, y):
        assembled.append(None if y is None else len(y.simplices))
        return assemble(x, y)

    monkeypatch.setattr(verify, "nonmeeting_complement", counted)
    monkeypatch.setattr(bridge, "_assemble", counted_assembly)
    x = torus()
    rng = random.Random(3)
    for z in (x.subcomplex_closure([(0,)]), x.subcomplex_closure([(1, 2)])):
        for _ in range(3):
            verify._random_cocycle_vanishing_off_star(rng, x, z, 1)
            verify._random_supported_cochain(rng, x, z, 0)
    # six draws per support, one complement and one relative complex each
    assert len(built) == 12 and len(set(built)) == 2
    assert len(assembled) == 2 and None not in assembled


def test_support_caches_die_with_the_subcomplex():
    x = torus()
    z = x.subcomplex_closure([(0,)])
    h = hash(z)
    star = weakref.ref(closed_star(x, z))
    view = weakref.ref(z.as_complex("support"))
    chain_complex_of(view())
    assert z == x.subcomplex_closure([(0,)]) and hash(z) == h
    assert star() is not None and view() is not None
    del z
    gc.collect()
    assert star() is None and view() is None


def test_generators_lie_in_the_kernel_basis_lattice(surfaces, pairs):
    ks = [f(x) for x in surfaces.values() for f in (chain_complex_of, cochain_complex)]
    ks += [f(m.ambient, m.boundary) for m in pairs.values()
                   for f in (chain_complex_of, cochain_complex)]
    for k in ks:
        lo, hi = k.degree_span()
        for n in range(lo - 1, hi + 2):
            gens, kernel = homology(k, n)._gens, la.kernel_basis(k.sparse_d(n))
            assert la.lattice_contains(kernel, gens.T)
            # every line of either view refuses an edit
            for line in gens.rows + gens.cols:
                with pytest.raises(TypeError, match="does not support item assignment"):
                    line[0] = 2


def _record_lines(rec):
    """Every line an elimination record holds: L, E and, with a residue,
    the block and its five factors."""
    lines = list(rec.L + rec.E)
    if rec.residue is not None:
        for m in (rec.block, *rec.residue.sparse):
            lines += m._row_dicts + m._col_dicts
    return lines


def test_kept_coordinate_rows_own_their_data(surfaces, pairs, monkeypatch):
    records = []
    eliminate = chains.eliminate

    def kept(a):
        out = eliminate(a)
        records.append(out)
        return out

    monkeypatch.setattr(chains, "eliminate", kept)
    ks = [f(x) for x in surfaces.values() for f in (chain_complex_of, cochain_complex)]
    ks += [f(m.ambient, m.boundary) for m in pairs.values()
           for f in (chain_complex_of, cochain_complex)]
    for k in ks:
        # a fresh complex, so that its groups are computed here
        k = chains.chain_complex(k.diff_degree, k.ranks, k.sparse)
        lo, hi = k.degree_span()
        records.clear()
        for n in range(lo - 1, hi + 2):
            kept = {key: rec for key, rec in k._derived.items() if isinstance(key, tuple)}
            h = homology(k, n)
            # every record made or taken from `k` so far: a call may
            # build the groups on its walk, or find its group built
            records += [rec for key, rec in kept.items() if key not in k._derived]
            coords = h._coords
            # one dim x rank C_n matrix, sharing no line with a record
            lines = {id(line) for rec in records for line in _record_lines(rec)}
            assert not lines & {id(row) for row in coords._row_dicts}
            for line in coords.rows + coords.cols:
                with pytest.raises(TypeError, match="does not support item assignment"):
                    line[0] = 1
            with pytest.raises(AttributeError):
                coords._rows = ()
            assert coords.shape == (h.dim, k.rank(n))
            reps = la.SparseMatrix.of(h.cycle_basis, (h.dim, k.rank(n))).T
            assert coords @ reps == la.sparse_identity(h.dim)
        # the records of the complex's nonzero differentials hold lines
        assert lines or not k.sparse


def test_each_boundary_matrix_is_reduced_once(homology_eliminations):
    k = chain_complex_of(torus())
    d1, d2 = k.sparse_d(1), k.sparse_d(2)
    for n in range(3):
        homology(k, n)
    # d_0 (zero), d_1 (shared by degrees 0 and 1), d_2 in the kernel
    # coordinates of degree 1 (shared by degrees 1 and 2), and d_3 (zero)
    # in those of degree 2; d_2 is never reduced as itself
    r1 = la.smith_normal_form(d1).rank
    assert len(homology_eliminations) == 4 and homology_eliminations.count(d1.shape) == 1
    assert homology_eliminations.count((d2.shape[0] - r1, d2.shape[1])) == 1
    assert d2.shape not in homology_eliminations


@pytest.mark.parametrize("first", [0, 1])
def test_d1_is_reduced_once_whichever_degree_comes_first(homology_eliminations, first):
    k = chain_complex_of(torus())
    homology(k, first)
    # asking degree 1 walks to degree 0 and computes its group on the way
    assert (0 in k._derived) and (("snf", 1) in k._derived) == (first == 0)
    homology(k, 1 - first)
    assert ("snf", 1) not in k._derived
    assert homology_eliminations.count(k.sparse_d(1).shape) == 1


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_cochain_complex_reduces_its_top_coboundary_once(homology_eliminations, order):
    k = cochain_complex(torus())
    assert 1 in k.sparse and 2 not in k.sparse
    for n in order:
        homology(k, n)
    assert homology_eliminations.count(k.sparse_d(1).shape) == 1
    assert ("snf", 1) not in k._derived


def test_no_decomposition_outlives_its_second_reader(surfaces, pairs):
    ks = [f(x) for x in surfaces.values() for f in (chain_complex_of, cochain_complex)]
    ks += [f(m.ambient, m.boundary) for m in pairs.values()
           for f in (chain_complex_of, cochain_complex)]
    for k in ks:
        k = chains.chain_complex(k.diff_degree, k.ranks, k.sparse)
        lo, hi = k.degree_span()
        for n in range(lo - 1, hi + 2):
            homology(k, n)
        assert not [v for v in k._derived.values() if isinstance(v, elimination.Elimination)]


def test_each_nonzero_differential_is_reduced_once_in_any_order(surfaces, pairs, monkeypatch):
    nonzero = []
    eliminate = chains.eliminate
    monkeypatch.setattr(chains, "eliminate", lambda a: nonzero.append(a.any()) or eliminate(a))
    ks = [f(x) for x in surfaces.values() for f in (chain_complex_of, cochain_complex)]
    ks += [f(m.ambient, m.boundary) for m in pairs.values()
           for f in (chain_complex_of, cochain_complex)]
    for k in ks:
        lo, hi = k.degree_span()
        degrees = list(range(lo - 1, hi + 2))
        rng = random.Random(hi)
        for order in (degrees, degrees[::-1], rng.sample(degrees, len(degrees))):
            nonzero.clear()
            fresh = chains.chain_complex(k.diff_degree, k.ranks, k.sparse)
            for n in order:
                homology(fresh, n)
            assert nonzero.count(True) == len(fresh.sparse), order


@pytest.mark.parametrize("build, degree", [(chain_complex_of, 0), (cochain_complex, 2)])
def test_a_zero_outgoing_differential_hands_on_the_incoming_one(monkeypatch, build, degree):
    # v_inv is the identity there, so the boundaries need no change of coordinates
    seen = []
    eliminate = chains.eliminate
    monkeypatch.setattr(chains, "eliminate", lambda a: seen.append(a) or eliminate(a))
    k = build(torus())
    k = chains.chain_complex(k.diff_degree, k.ranks, k.sparse)
    assert degree not in k.sparse
    homology(k, degree)
    incoming = k.sparse_d(degree - k.diff_degree)
    assert len(seen) == 2 and seen[1].shape == incoming.shape
    assert all(a is b for a, b in zip(seen[1]._row_dicts, incoming._row_dicts))


@pytest.mark.parametrize("eps", [-1, 1])
@pytest.mark.parametrize("ends", [(0, 2999), (2999, 0)])
def test_a_long_complex_is_walked_without_recursion(eps, ends):
    # 3,000 degrees of rank 2, each differential e_1 -> e_0: the walk from
    # one end to the other is longer than the default recursion limit
    size = 3000
    nilpotent = [[0, 1], [0, 0]]
    k = chains.chain_complex(eps, {n: 2 for n in range(size)},
                             {n: nilpotent for n in range(size) if 0 <= n + eps < size})
    for n in ends:
        assert homology(k, n).group_str() == "Z^1"
    for n in random.Random(size).sample(range(size), size):
        assert homology(k, n).group_str() == ("Z^1" if n in ends else "0")
    assert not [key for key in k._derived if isinstance(key, tuple)]
