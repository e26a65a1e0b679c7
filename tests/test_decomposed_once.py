"""Each supported cap decomposes what it has not decomposed before, and
nothing twice: an induced map keeps the one Smith decomposition that
`is_isomorphism` and `solve` both read, a chain map keeps its induced
maps, and a support keeps its pairs for each boundary subcomplex, so a
repeated cap decomposes nothing.  Also the public `HomologyGroup`
constructor, the rows of a matrix and the matrices capstar builds
itself."""

import gc
import re
import weakref

import numpy as np
import pytest

from capstar import chains, verify
from capstar import intlinalg as la
from capstar.bridge import (
    SimplicialChain,
    SimplicialCochain,
    chain_complex_of,
    coboundary_of,
    cochain_complex,
    last_vertex_chain_map,
    relative_chain_complex,
    subdivision_chain_map,
    vector_to_chain,
)
from capstar.chains import (
    HomologyClass,
    HomologyGroup,
    chain_complex,
    homology,
    identity_map,
    induced_map_on_homology,
    uct_check,
)
from capstar.complexes import (
    barycentric_subdivide,
    closed_star,
    induced_subdivision,
    nonmeeting_complement,
)
from capstar.errors import RetractConditionError, ValidationError
from capstar.fixtures import interval_pair, projective_plane, torus
from capstar.io import parse_cochain
from capstar.products import RelativeSupportedCapResult, relative_supported_cap, supported_cap
from capstar.verify import _is_coboundary


@pytest.fixture
def snf_calls(monkeypatch):
    """One entry per Smith decomposition or `homology` elimination,
    whichever module runs it."""
    calls = []
    snf, eliminate = la.smith_normal_form, chains.eliminate

    def counted(a):
        calls.append(a.shape)
        return snf(a)

    def counted_elimination(a):
        calls.append(a.shape)
        return eliminate(a)

    monkeypatch.setattr(chains, "eliminate", counted_elimination)
    monkeypatch.setattr(chains, "smith_normal_form", counted)
    monkeypatch.setattr(la, "smith_normal_form", counted)
    monkeypatch.setattr(verify, "smith_normal_form", counted)
    return calls


def _counts(calls, cap, times=3):
    counts, classes = [], []
    for _ in range(times):
        calls.clear()
        res = cap()
        counts.append(len(calls))
        classes.append(res.class_in_z.coords)
    return counts, classes


def _torus_cap():
    """A one-vertex support, a top-cell cochain at it and the
    fundamental class of the torus."""
    x = torus()
    z = x.subcomplex_closure([x.simplices_of_dim(0)[0]])
    top = next(s for s in x.simplices_of_dim(2) if z.vertices() & set(s))
    u = SimplicialCochain(x, 2, {top: 1})
    fundamental = homology(chain_complex_of(x), 2)._gens.rows[0]
    alpha = SimplicialChain(x, 2, {x.simplices_of_dim(2)[j]: e for j, e in fundamental.items()})
    return x, z, u, alpha


def test_a_repeated_absolute_cap_decomposes_once_more_each_time(snf_calls):
    # the name is older than the count: a repeated cap now decomposes nothing
    x, z, u, alpha = _torus_cap()
    counts, classes = _counts(snf_calls, lambda: supported_cap(x, z, u, alpha))
    assert counts == [5, 0, 0]
    assert classes == [(-1,)] * 3


@pytest.mark.parametrize("support, coords", [([("a", "m")], ()), ([("m",)], (1,))],
                         ids=["meets-y", "misses-y"])
def test_repeated_relative_caps_reuse_their_pairs(snf_calls, support, coords):
    model = interval_pair()
    x, y = model.ambient, model.boundary
    z = x.subcomplex_closure(support)
    u = SimplicialCochain(x, 1, {("a", "m"): 1})
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    counts, classes = _counts(snf_calls, lambda: relative_supported_cap(x, y, z, u, alpha))
    assert counts == [5, 0, 0]
    assert classes == [coords] * 3
    first, second = (relative_supported_cap(x, y, z, u, alpha) for _ in range(2))
    assert second.star_boundary is first.star_boundary
    assert second.class_in_pair.group is first.class_in_pair.group


def test_is_isomorphism_then_solve_decompose_once(snf_calls):
    k = chain_complex_of(torus())
    target = HomologyClass(homology(k, 1), (1, -1))
    induced = induced_map_on_homology(identity_map(k), 1)
    snf_calls.clear()
    assert induced.is_isomorphism()
    assert induced.solve(target) == target
    assert induced.is_isomorphism() and induced.solve(target) == target
    assert len(snf_calls) == 1


@pytest.mark.parametrize("factor, iso", [(3, True), (2, False)])
def test_the_kept_decomposition_reads_torsion(factor, iso):
    k = chain_complex_of(projective_plane())
    h1 = homology(k, 1)
    assert h1.torsion == (2,)
    induced = induced_map_on_homology(identity_map(k).scale(factor), 1)
    assert induced.is_isomorphism() is iso
    target = HomologyClass(h1, (1,))
    assert induced.solve(target) == (target if iso else None)


def test_supported_cap_returns_the_relative_record():
    x, z, u, alpha = _torus_cap()
    res = supported_cap(x, z, u, alpha)
    assert type(res) is RelativeSupportedCapResult
    n = res.star.as_complex("star")
    assert res.star_boundary.is_empty() and res.star_boundary.parent is n
    assert res.chain_image.complex is n
    assert res.class_in_pair.group is homology(chain_complex_of(n), 0)
    assert res.class_in_pair.coords == (-1,)
    assert res == relative_supported_cap(x, x.empty_subcomplex(), z, u, alpha)
    assert res.support_group is homology(chain_complex_of(z.as_complex("support")), 0)


def test_a_chain_map_keeps_its_induced_maps():
    k = chain_complex_of(torus())
    f = identity_map(k)
    h1 = induced_map_on_homology(f, 1)
    assert induced_map_on_homology(f, 1) is h1
    assert induced_map_on_homology(f, np.int64(1)) is h1
    assert induced_map_on_homology(f, 2) is not h1
    assert h1.source_group is homology(k, 1)
    # nothing kept on `f` refers back to it, so it goes with its last reference
    gone = weakref.ref(f)
    del f
    assert gone() is None


def _owners_used_once() -> dict:
    """Weak references to a torus and what it derives, each used once in
    every way that keeps data, and no strong reference left."""
    x, z, u, alpha = _torus_cap()
    k, c = chain_complex_of(x), cochain_complex(x)
    for n in range(3):
        homology(k, n), homology(c, n)
    sd = barycentric_subdivide(x)
    induced_subdivision(sd, z)
    up, down = subdivision_chain_map(sd), last_vertex_chain_map(sd)
    assert induced_map_on_homology(down.compose(up), 2).is_isomorphism()
    closed_star(x, z), nonmeeting_complement(x, z)
    values = {",".join(map(str, s)): e for s, e in u.coefficients.items()}
    assert parse_cochain({"degree": 2, "values": values}, x) == u
    caps = [supported_cap(x, z, u, alpha, presubdivide=p) for p in (0, 1)]
    assert [cap.class_in_z.coords for cap in caps] == [(-1,), (-1,)]
    owners = {"x": x, "k": k, "c": c, "sd": sd, "sd.complex": sd.complex, "z": z,
              "subdivision map": up, "last vertex map": down, "cap": caps[0],
              "presubdivided cap": caps[1]}
    return {name: weakref.ref(owner) for name, owner in owners.items()}


def test_every_owner_is_freed_by_reference_counting_alone():
    # with the cyclic collector off, a kept value that referred back to
    # its owner would keep both alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = _owners_used_once()
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_the_retract_condition_error_names_both_groups():
    # H_0(Z) = Z^2 for two vertices, H_0(N) = Z for their connected star
    x = torus()
    z = x.subcomplex_closure([(0,), (1,)])
    u = SimplicialCochain(x, 2, {(0, 1, 3): 1})
    alpha = vector_to_chain(x, 2, homology(chain_complex_of(x), 2).cycle_basis[0])
    text = ("retract condition failed: H_0(Z) = Z^2 -> H_0(N) = Z^1 is not an isomorphism; "
            "increase presubdivide")
    with pytest.raises(RetractConditionError, match=f"^{re.escape(text)}$"):
        supported_cap(x, z, u, alpha)


# -- verify's coboundary test --------------------------------------------------


def test_zero_and_coboundaries_are_coboundaries():
    x = torus()
    assert _is_coboundary(x, SimplicialCochain(x, 1, {}))
    assert _is_coboundary(x, coboundary_of(SimplicialCochain(x, 0, {(0,): 2, (3,): -1})))
    assert _is_coboundary(x, coboundary_of(SimplicialCochain(x, 1, {(0, 1): 1})))


def test_a_cocycle_with_a_nonzero_class_is_no_coboundary():
    x = torus()
    cocycle = vector_to_chain(x, 1, homology(cochain_complex(x), 1).cycle_basis[0])
    assert coboundary_of(cocycle).is_zero()
    assert not _is_coboundary(x, cocycle)


def test_a_non_cocycle_is_no_coboundary():
    x = torus()
    edge = SimplicialCochain(x, 1, {(0, 1): 1})
    assert not coboundary_of(edge).is_zero()
    assert not _is_coboundary(x, edge)


def test_is_coboundary_reuses_the_cohomology_group(snf_calls):
    x = torus()
    w = coboundary_of(SimplicialCochain(x, 0, {(0,): 1}))
    assert _is_coboundary(x, w)
    snf_calls.clear()
    assert _is_coboundary(x, w)
    cocycle = vector_to_chain(x, 1, homology(cochain_complex(x), 1).cycle_basis[0])
    snf_calls.clear()
    assert not _is_coboundary(x, cocycle)
    assert snf_calls == []


# -- the public HomologyGroup constructor -------------------------------------


def test_a_group_built_from_a_basis_has_no_coordinate_map():
    h1 = homology(chain_complex_of(torus()), 1)
    g = HomologyGroup(degree=1, betti=2, torsion=(), cycle_basis=h1.cycle_basis)
    assert g == h1
    for read in (g.coords_of, g.class_of):
        with pytest.raises(ValidationError, match="no coordinate map"):
            read(h1.cycle_basis[0])


def test_a_basis_given_to_a_group_is_read_into_int_tuples():
    rows = [[1, 0, 0]]
    g = HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=rows)
    rows[0][0] = 7  # the group kept none of the caller's rows
    assert g.cycle_basis == ((1, 0, 0),) and g._gens.rows == ({0: 1},)
    assert g == HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=[(1, 0, 0)])
    h = HomologyGroup(degree=0, betti=1, torsion=(),
                      cycle_basis=[np.array([0, 2, 0], dtype=np.int16)])
    assert h.cycle_basis == ((0, 2, 0),)
    assert type(h.cycle_basis[0]) is tuple and all(type(e) is int for e in h.cycle_basis[0])
    with pytest.raises(ValidationError, match="^entry 1.0 is not an integer$"):
        HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=[[1.0, 0]])


def test_a_nonzero_group_needs_a_basis():
    with pytest.raises(ValidationError, match="^a group of rank 1 needs a cycle basis$"):
        HomologyGroup(degree=0, betti=1, torsion=())
    with pytest.raises(ValidationError, match="rank 2"):
        HomologyGroup(degree=0, betti=1, torsion=(2,))
    zero = HomologyGroup(degree=3, betti=0, torsion=())
    assert zero.cycle_basis == () and zero.group_str() == "0"
    assert zero == homology(chain_complex_of(torus()), 3) == zero
    assert zero == HomologyGroup(degree=3, betti=0, torsion=(), cycle_basis=())


@pytest.mark.parametrize("build", [
    la.SparseMatrix.of, la.smith_normal_form,
    lambda rows: chain_complex(-1, {0: 2, 1: 2}, {1: rows}),
    lambda rows: HomologyGroup(degree=0, betti=2, torsion=(), cycle_basis=rows),
], ids=["SparseMatrix.of", "smith_normal_form", "chain_complex", "HomologyGroup"])
def test_ragged_rows_raise_validation_error(build):
    with pytest.raises(ValidationError, match="^ragged matrix rows$"):
        build([[1, 2], [3]])


def test_uct_check_builds_no_group_to_format_its_prediction(monkeypatch):
    k = chain_complex_of(torus())
    uct_check(k)
    built = []
    init = HomologyGroup.__init__
    monkeypatch.setattr(HomologyGroup, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    report = uct_check(k)
    assert report.passed and built == []
    assert [row[2] for row in report.rows] == ["Z^1", "Z^2", "Z^1"]


# -- matrices capstar builds itself -------------------------------------------


def test_matrices_built_from_a_complex_are_not_checked_again(monkeypatch):
    rechecked = []
    check = la.SparseMatrix.check

    def counted(self):
        if not self._checked:
            rechecked.append(self.shape)
        check(self)

    monkeypatch.setattr(la.SparseMatrix, "check", counted)
    x = torus()
    y = x.subcomplex_closure([(0, 1)])
    chain_complex_of(x)
    relative_chain_complex(x, y)
    sd = barycentric_subdivide(x)
    subdivision_chain_map(sd, y)
    last_vertex_chain_map(sd)
    assert rechecked == []
    # a matrix built by hand is still checked, as before
    with pytest.raises(ValidationError, match="not a nonzero integer"):
        chain_complex(-1, {0: 1, 1: 1}, {1: la.SparseMatrix((1, 1), ({0: np.int64(1)},))})
    assert rechecked == [(1, 1)]
