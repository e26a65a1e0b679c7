"""Chain complexes and homology are computed once, on the object they
derive from, and shared read-only."""

import gc
import sys
import weakref

import numpy as np
import pytest

import capstar.bm as bm
import capstar.chains as chains
import capstar.complexes as complexes
import capstar.products as products
from capstar import intlinalg as la
from capstar.bm import OpenSpaceModel, bm_supported_cap, pair_long_exact_sequence
from capstar.bridge import SimplicialChain, SimplicialCochain, chain_complex_of, cochain_complex
from capstar.chains import homology
from capstar.complexes import closed_star, from_maximal_simplices
from capstar.errors import InternalCheckError, ValidationError
from capstar.fixtures import circle, interval_pair, torus
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


def test_cycle_representatives_are_read_only():
    k = chain_complex_of(torus())
    h = homology(k, 1)
    before = [rep.copy() for rep in h.cycle_basis]
    for rep in h.cycle_basis:
        with pytest.raises(ValueError):
            rep[0] += 1
        with pytest.raises(ValueError):
            rep *= 2
    again = homology(k, 1)
    assert again is h and again.group_str() == "Z^2"
    assert all(np.array_equal(a, b) for a, b in zip(again.cycle_basis, before))
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
def homology_snf_calls(monkeypatch):
    """A list that collects one entry per Smith decomposition that
    `homology` runs (other callers of the same function are not counted)."""
    calls = []
    snf = chains.smith_normal_form

    def counted(a):
        if sys._getframe(1).f_code is homology.__code__:
            calls.append(a.shape)
        return snf(a)

    monkeypatch.setattr(chains, "smith_normal_form", counted)
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


def test_second_cap_on_the_same_support_runs_no_homology_reduction(homology_snf_calls):
    x, z, u, alpha = _circle_cap_instance()
    first = supported_cap(x, z, u, alpha)
    assert homology_snf_calls
    homology_snf_calls.clear()
    second = supported_cap(x, z, u + u, alpha)
    assert homology_snf_calls == []
    assert second.class_in_z.group is first.class_in_z.group
    assert second.class_in_z.coords == (2,)


def test_bm_cross_check_reuses_the_relative_groups(monkeypatch, homology_snf_calls):
    x, z, u, alpha = _circle_cap_instance()
    absolute_calls = []

    def absolute(*args):
        before = len(homology_snf_calls)
        res = supported_cap(*args)
        absolute_calls.append(len(homology_snf_calls) - before)
        return res

    monkeypatch.setattr(bm, "supported_cap", absolute)
    model = OpenSpaceModel(ambient=x, boundary=x.subcomplex([(3,)]))
    res = bm_supported_cap(model, z, u, alpha)
    assert res.class_in_z.coords == (1,)
    assert absolute_calls == [0]


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


def test_kept_kernel_is_the_kernel_basis(surfaces, pairs):
    ks = [f(x) for x in surfaces.values() for f in (chain_complex_of, cochain_complex)]
    ks += [f(m.ambient, m.boundary) for m in pairs.values()
                   for f in (chain_complex_of, cochain_complex)]
    for k in ks:
        lo, hi = k.degree_span()
        for n in range(lo - 1, hi + 2):
            kept, fresh = homology(k, n)._kernel, la.kernel_basis(k.d(n))
            assert kept.shape == fresh.shape and np.array_equal(kept, fresh)
            with pytest.raises(ValueError):
                kept[..., :1] *= 2
