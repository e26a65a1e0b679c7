"""Chain complexes and homology are computed once, on the object they
derive from, and shared read-only."""

import gc
import weakref

import numpy as np
import pytest

import capstar.bm as bm
from capstar.bm import pair_long_exact_sequence
from capstar.bridge import chain_complex_of, cochain_complex
from capstar.chains import homology
from capstar.complexes import from_maximal_simplices
from capstar.errors import InternalCheckError, ValidationError
from capstar.fixtures import interval_pair, torus


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
