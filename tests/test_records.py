"""The traits of capstar's 18 immutable records, pinned one class at a
time: how each is built, positionally and by keyword; that it refuses
to be edited; how it compares and hashes; what its repr shows.

Three kinds of equality occur.  A value record equals a record of its
class whose compared fields are equal, and hashes as the tuple of those
fields (so a record holding a dict is unhashable).  `SparseMatrix`,
`HomologyGroup` and `HomologyClass` compare by their own `__eq__` and
are unhashable.  `SmithDecomposition` and `InducedMap` compare by
identity.  Fields kept out of equality (`_derived`, the cached views of
a group) are also kept out of the repr, which lists exactly the
compared fields."""

import copy
import pickle
import re

import pytest

from capstar.bm import ExactnessReport, InvarianceReport, OpenSpaceModel
from capstar.bridge import SimplicialChain, chain_complex_of
from capstar.chains import (
    ChainComplexZ,
    ChainMap,
    ConeResult,
    HomologyClass,
    HomologyGroup,
    InducedMap,
    UctReport,
    cone,
    homology,
    identity_map,
    induced_map_on_homology,
)
from capstar.complexes import (
    SimplicialComplex,
    Subcomplex,
    SubdivisionResult,
    barycentric_subdivide,
)
from capstar.errors import ValidationError
from capstar.fixtures import circle, interval_pair, torus
from capstar.intlinalg import SmithDecomposition, SparseMatrix, smith_normal_form
from capstar.products import (
    RelativeSupportedCapResult,
    relative_supported_cap,
)
from capstar.verify import CheckResult


def _case(kind, fields, built, unequal=(), uncompared=()):
    """`built`: records of one class with the same field values, built
    in the ways capstar builds them; `unequal`: records that differ from
    them in a compared field; `uncompared`: records that differ only in
    fields kept out of equality."""
    return {"kind": kind, "fields": fields, "built": built,
            "unequal": list(unequal), "uncompared": list(uncompared)}


def _kept(record, key, value):
    """`record`, with `value` kept under `key`."""
    record._kept_as(key, lambda: value)
    return record


def _cases():
    x = circle()
    levels = x.simplices_by_dim
    y = x.subcomplex_closure([(1,)])
    k = chain_complex_of(x)
    h1 = homology(k, 1)
    cases = {}

    rows = ({0: 1}, {})
    cases["SparseMatrix"] = _case("own", ("shape",), [
        SparseMatrix((2, 2), rows), SparseMatrix(shape=(2, 2), _rows=rows),
        SparseMatrix((2, 2), _cols=({0: 1}, {})), SparseMatrix((2, 2), rows, None, True),
    ], unequal=[SparseMatrix((2, 2))])

    f = smith_normal_form([[2, 0], [0, 3]]).sparse
    cases["SmithDecomposition"] = _case(
        "identity", ("sparse",), [SmithDecomposition(f), SmithDecomposition(sparse=f)])

    cases["ChainComplexZ"] = _case("value", ("diff_degree", "ranks", "sparse"), [
        ChainComplexZ(-1, {0: 1}, {}), ChainComplexZ(diff_degree=-1, ranks={0: 1}, sparse={}),
    ], unequal=[ChainComplexZ(1, {0: 1}, {}), ChainComplexZ(-1, {0: 2}, {})],
        uncompared=[_kept(ChainComplexZ(-1, {0: 1}, {}), "dual", None)])

    cases["ChainMap"] = _case("value", ("source", "target", "sparse", "shift", "sign"), [
        ChainMap(k, k, {}, 0, 1), ChainMap(source=k, target=k, sparse={}),
        ChainMap(k, k, {}, shift=0, sign=1),
    ], unequal=[ChainMap(k, k, {}, 1), ChainMap(k, k, {}, sign=-1)])

    gens, test, coords = h1._gens, h1._cycle_test, h1._coords
    cases["HomologyGroup"] = _case("own", ("degree", "betti", "torsion"), [
        HomologyGroup(degree=1, betti=1, torsion=(), _gens=gens, _cycle_test=test,
                      _coords=coords),
        HomologyGroup(1, 1, (), None, gens, test, coords),
        HomologyGroup(degree=1, betti=1, torsion=(), cycle_basis=h1.cycle_basis),
    ], unequal=[HomologyGroup(degree=1, betti=1, torsion=(), cycle_basis=()),
                HomologyGroup(degree=1, betti=1, torsion=(2,), _gens=gens)],
        uncompared=[HomologyGroup(degree=1, betti=1, torsion=(), _gens=gens)])

    cases["HomologyClass"] = _case("own", ("group", "coords"), [
        HomologyClass(h1, (1,)), HomologyClass(group=h1, coords=(1,)),
        h1.class_of(h1.cycle_basis[0]),
    ], unequal=[HomologyClass(h1, (2,))])

    c = cone(identity_map(k))
    cases["ConeResult"] = _case("value", ("complex", "include_target", "project_source"), [
        c, ConeResult(c.complex, c.include_target, c.project_source),
        ConeResult(complex=c.complex, include_target=c.include_target,
                   project_source=c.project_source),
    ], unequal=[ConeResult(c.complex, c.include_target, c.include_target)])

    ind = induced_map_on_homology(identity_map(k), 1)
    cases["InducedMap"] = _case("identity", ("source_group", "target_group", "sparse"), [
        InducedMap(h1, h1, ind.sparse),
        InducedMap(source_group=h1, target_group=h1, sparse=ind.sparse),
    ])

    cases["UctReport"] = _case("value", ("rows", "passed"), [
        UctReport(((0, "Z", "Z", True),), True),
        UctReport(rows=((0, "Z", "Z", True),), passed=True),
    ], unequal=[UctReport((), True)])

    cases["SimplicialComplex"] = _case("value", ("vertex_order", "simplices_by_dim", "name"), [
        SimplicialComplex((1, 2, 3), levels, "circle"),
        SimplicialComplex(vertex_order=(1, 2, 3), simplices_by_dim=levels, name="circle"),
        circle(),
    ], unequal=[SimplicialComplex((1, 2, 3), levels), SimplicialComplex((1, 2, 3), levels[:1],
                                                                         "circle")],
        uncompared=[_kept(SimplicialComplex((1, 2, 3), levels, "circle"), "sd", None)])

    cases["Subcomplex"] = _case("value", ("parent", "simplices"), [
        Subcomplex(x, frozenset({(1,)})), Subcomplex(parent=x, simplices=frozenset({(1,)})), y,
    ], unequal=[Subcomplex(x, frozenset())],
        uncompared=[_kept(Subcomplex(x, frozenset({(1,)})), "star", None)])

    sd = barycentric_subdivide(x)
    parts = (sd.parent, sd.complex, sd.barycenter_of, sd.parent_of)
    cases["SubdivisionResult"] = _case(
        "value", ("parent", "complex", "barycenter_of", "parent_of"), [
            sd, SubdivisionResult(*parts),
            SubdivisionResult(parent=x, complex=sd.complex, barycenter_of=sd.barycenter_of,
                              parent_of=sd.parent_of),
        ], unequal=[SubdivisionResult(x, sd.complex, {}, sd.parent_of)],
        uncompared=[_kept(SubdivisionResult(*parts), "last vertex map", None)])

    cases["SimplicialChain"] = _case("value", ("complex", "degree", "coefficients"), [
        SimplicialChain(x, 1, {(1, 2): 1}),
        SimplicialChain(complex=x, degree=1, coefficients={(1, 2): 1, (2, 3): 0}),
    ], unequal=[SimplicialChain(x, 1, {(1, 2): 2}), SimplicialChain(x, 0, {})])

    model = interval_pair()
    m = model.ambient
    rel = relative_supported_cap(m, model.boundary, m.subcomplex_closure([("m",)]),
                                 SimplicialChain(m, 1, {("a", "m"): 1}),
                                 SimplicialChain(m, 1, {("a", "m"): 1, ("b", "m"): -1}))
    fields = ("star", "star_boundary", "chain_image", "class_in_pair", "class_in_z",
              "support_group")
    values = [getattr(rel, f) for f in fields]
    cases["RelativeSupportedCapResult"] = _case("value", fields, [
        rel, RelativeSupportedCapResult(*values),
        RelativeSupportedCapResult(**dict(zip(fields, values))),
    ], unequal=[RelativeSupportedCapResult(*values[:4], None, values[5])])

    cases["OpenSpaceModel"] = _case("value", ("ambient", "boundary"), [
        OpenSpaceModel(x, y), OpenSpaceModel(ambient=x, boundary=y),
    ], unequal=[OpenSpaceModel(x, x.empty_subcomplex())])

    cases["ExactnessReport"] = _case("value", ("nodes", "passed"), [
        ExactnessReport((("H_0(X)", True),), True),
        ExactnessReport(nodes=(("H_0(X)", True),), passed=True),
    ], unequal=[ExactnessReport((("H_0(X)", True),), False)])

    cases["InvarianceReport"] = _case("value", ("rows", "passed"), [
        InvarianceReport(((0, "Z", "Z", True),), True),
        InvarianceReport(rows=((0, "Z", "Z", True),), passed=True),
    ], unequal=[InvarianceReport((), True)])

    cases["CheckResult"] = _case("value", ("name", "passed", "detail"), [
        CheckResult("sign", True, ""), CheckResult(name="sign", passed=True),
        CheckResult("sign", True),
    ], unequal=[CheckResult("sign", True, "why"), CheckResult("sign", False)])
    return cases


CASES = _cases()
NAMES = sorted(CASES)


def test_every_record_class_is_covered():
    assert len(NAMES) == 18
    for name, case in CASES.items():
        assert all(type(r).__name__ == name for r in case["built"] + case["unequal"]
                   + case["uncompared"])


@pytest.mark.parametrize("name", NAMES)
def test_records_built_each_way_hold_the_same_fields(name):
    case = CASES[name]
    first, *others = case["built"]
    for other in others:
        for f in case["fields"]:
            a, b = getattr(first, f), getattr(other, f)
            assert a is b or a == b, f


@pytest.mark.parametrize("name", NAMES)
def test_records_refuse_edits(name):
    record = CASES[name]["built"][0]
    slotted = name == "SparseMatrix"
    names = ("_rows", "_cols", "_checked") if slotted else ("_derived", "unheard_of")
    for f in CASES[name]["fields"] + names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field {re.escape(repr(f))}$"):
            setattr(record, f, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field {re.escape(repr(f))}$"):
            delattr(record, f)
    if slotted:
        # a name outside the slots: dataclasses' frozen check raised TypeError here
        with pytest.raises((AttributeError, TypeError)):
            record.unheard_of = None
    assert not hasattr(record, "unheard_of")


def _key(record, fields):
    return tuple(getattr(record, f) for f in fields)


@pytest.mark.parametrize("name", NAMES)
def test_record_equality_and_hashing(name):
    case = CASES[name]
    kind, built = case["kind"], case["built"]
    for a in built:
        for b in built:
            if kind == "identity":
                assert (a == b) is (a is b) and (a != b) is (a is not b)
            else:
                assert a == b and not a != b
        assert a != object() and not a == object()
        if kind == "own":
            with pytest.raises(TypeError, match="unhashable type"):
                hash(a)
        elif kind == "identity":
            assert hash(a) == object.__hash__(a)
        else:
            try:
                expected = hash(_key(a, case["fields"]))
            except TypeError:
                with pytest.raises(TypeError, match="unhashable type"):
                    hash(a)
            else:
                assert hash(a) == expected
    for other in case["unequal"]:
        assert other != built[0] and built[0] != other and not other == built[0]
    for other in case["uncompared"]:
        assert other == built[0] and built[0] == other
        if kind == "value":
            assert _key(other, case["fields"]) == _key(built[0], case["fields"])


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_exactly_the_compared_fields(name):
    case = CASES[name]
    for record in case["built"] + case["uncompared"]:
        body = ", ".join(f"{f}={getattr(record, f)!r}" for f in case["fields"])
        assert repr(record) == f"{name}({body})"


def test_sparse_matrix_has_slots_and_no_dict():
    m = CASES["SparseMatrix"]["built"][0]
    assert not hasattr(m, "__dict__")
    assert set(SparseMatrix.__slots__) == {"shape", "_rows", "_cols", "_checked"}
    zero = SparseMatrix((2, 3))
    assert zero.rows == ({}, {}) and not zero.any() and zero.cols == ({}, {}, {})


def test_defaults_and_derived_dicts():
    x = circle()
    assert SimplicialComplex(x.vertex_order, x.simplices_by_dim).name == ""
    for a, b in [(circle(), circle()), (x.subcomplex([(1,)]), x.subcomplex([(1,)])),
                 (ChainComplexZ(-1, {}, {}), ChainComplexZ(-1, {}, {}))]:
        # the store is made on first use, one per record, even for equal records
        assert "_derived" not in vars(a) and a == b
        assert a._derived == {} and a._derived is not b._derived
        built = []
        kept = a._kept_as("key", lambda: built.append(1) or [])
        assert a._kept_as("key", list) is kept and built == [1]
        assert b._kept_as("key", list) is not kept and a == b
    sd = barycentric_subdivide(x)
    assert sd._derived is barycentric_subdivide(x)._derived
    assert SubdivisionResult(sd.parent, sd.complex, sd.barycenter_of,
                             sd.parent_of)._derived is not sd._derived
    f = ChainMap(chain_complex_of(x), chain_complex_of(x), {})
    assert (f.shift, f.sign) == (0, 1)
    assert CheckResult("n", True).detail == ""
    assert SparseMatrix((1, 1))._checked is False


def test_constructors_still_check_and_normalise():
    x = circle()
    with pytest.raises(ValidationError, match="^duplicate vertex token in vertex order$"):
        SimplicialComplex((1, 1), ())
    assert SimplicialComplex((1, 2), (((1,), (2,)),))._index == {(1,): 0, (2,): 1}
    with pytest.raises(ValidationError, match="not face-closed"):
        Subcomplex(x, frozenset({(1, 2)}))
    with pytest.raises(ValidationError, match="^simplex \\(1, 4\\) not in parent complex$"):
        Subcomplex(x, frozenset({(1, 4)}))
    with pytest.raises(ValidationError, match="^boundary is not a subcomplex"):
        OpenSpaceModel(x, interval_pair().boundary)
    chain = SimplicialChain(x, 1, {(1, 2): True, (2, 3): 0})
    assert chain.coefficients == {(1, 2): 1} and type(chain.coefficients[(1, 2)]) is int
    with pytest.raises(ValidationError, match="^simplex \\(1,\\) is not 1-dimensional$"):
        SimplicialChain(x, 1, {(1,): 1})
    with pytest.raises(ValidationError, match="^simplex \\(1, 4\\) not in complex$"):
        SimplicialChain(x, 1, {(1, 4): 1})
    g = HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=([1, 0, 0],))
    assert g.cycle_basis == ((1, 0, 0),) and g._gens.rows == ({0: 1},)
    assert HomologyGroup(degree=0, betti=0, torsion=())._gens is None


STORING = ["ChainMap", "CheckResult", "ConeResult", "ExactnessReport",
           "InducedMap", "InvarianceReport", "RelativeSupportedCapResult", "SmithDecomposition",
           "SubdivisionResult", "UctReport"]


@pytest.mark.parametrize("name", STORING)
def test_records_that_only_store_refuse_a_misused_constructor(name):
    record = CASES[name]["built"][0]
    cls, fields = type(record), CASES[name]["fields"]
    assert "__init__" not in vars(cls)
    values = [getattr(record, f) for f in fields]
    first = repr(fields[0])
    for args, kwargs, named in [([], {}, first), (values, {"unheard_of": 1}, "'unheard_of'"),
                                (values, {fields[0]: values[0]}, first),
                                (values + [None], {}, f"{len(fields)} positional")]:
        with pytest.raises(TypeError, match=f"^{name}\\(\\) .*{re.escape(named)}"):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name", ["SparseMatrix", "SimplicialComplex", "Subcomplex",
                                  "SimplicialChain", "CheckResult"])
def test_records_copy_and_pickle(name):
    record = CASES[name]["built"][0]
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record) and other == record
        with pytest.raises(AttributeError):
            setattr(other, CASES[name]["fields"][0], None)


def test_kept_values_stay_behind_in_copies_and_pickles():
    fresh = len(pickle.dumps(torus()))
    x = torus()
    assert homology(chain_complex_of(x), 1).group_str() == "Z^2"
    barycentric_subdivide(x)
    assert {"chain", "sd"} <= set(x._derived)
    for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert other == x and other._derived == {} and other._derived is not x._derived
    assert len(pickle.dumps(x)) == fresh
    # a basis given to a group is read into a field, `_gens`: it travels
    g = HomologyGroup(degree=0, betti=1, torsion=(), cycle_basis=([1, 0, 0],))
    for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert other.cycle_basis == ((1, 0, 0),) and other == g
