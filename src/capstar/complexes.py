"""Finite abstract simplicial complexes and their combinatorics.

Vertices are opaque tokens (ints or strings) carrying a total order; a
simplex is the strictly increasing tuple of its vertices under that
order.  Complexes are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

from itertools import chain, combinations, filterfalse
from operator import add, lt
from typing import Iterable

from .errors import ValidationError
from .records import Record

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "Subcomplex",
    "SubdivisionResult",
    "default_token_order",
    "from_maximal_simplices",
    "closed_star",
    "nonmeeting_complement",
    "subcomplex_intersection",
    "barycentric_subdivide",
    "barycenter_token",
    "induced_subdivision",
    "last_vertex_approximation",
]

# A simplex is just a tuple of vertex tokens, strictly increasing in the
# owning complex's vertex order.
Simplex = tuple


def default_token_order(tokens: Iterable) -> tuple:
    """Deterministic order on mixed tokens: ints numerically, then
    strings lexicographically."""
    ints = sorted(t for t in tokens if isinstance(t, bool) is False and isinstance(t, int))
    strs = sorted(t for t in tokens if isinstance(t, str))
    rest = [t for t in tokens if not isinstance(t, (int, str))]
    if rest:
        raise ValidationError(f"unsupported vertex token type: {rest[0]!r}")
    return tuple(ints) + tuple(strs)


class SimplicialComplex(Record):
    """Face-closed finite set of simplices over an ordered vertex set."""

    _fields = ("vertex_order", "simplices_by_dim", "name")

    def __init__(self, vertex_order: tuple, simplices_by_dim: tuple, name: str = ""):
        # simplices_by_dim: tuple of tuples, index = dimension, each
        # sorted.  `_rank` and `_index` are built here
        rank = dict(zip(vertex_order, range(len(vertex_order))))
        if len(rank) != len(vertex_order):
            raise ValidationError("duplicate vertex token in vertex order")
        index = {}
        for simplices in simplices_by_dim:
            index.update(zip(simplices, range(len(simplices))))
        vars(self).update(vertex_order=vertex_order, simplices_by_dim=simplices_by_dim,
                          name=name, _rank=rank, _index=index)

    # -- basic queries -------------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.simplices_by_dim) - 1

    def rank_of(self, token) -> int:
        try:
            return self._rank[token]
        except KeyError:
            raise ValidationError(f"unknown vertex token {token!r}")

    def has_vertex(self, token) -> bool:
        return token in self._rank

    def simplices_of_dim(self, d: int) -> tuple:
        if 0 <= d < len(self.simplices_by_dim):
            return self.simplices_by_dim[d]
        return ()

    def all_simplices(self):
        for level in self.simplices_by_dim:
            yield from level

    def num_simplices(self) -> int:
        return sum(len(level) for level in self.simplices_by_dim)

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self._index

    def index_of(self, simplex) -> int:
        try:
            return self._index[tuple(simplex)]
        except KeyError:
            raise ValidationError(f"simplex {simplex!r} not in complex")

    def sort_key(self, simplex) -> tuple:
        return tuple(self.rank_of(v) for v in simplex)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.simplices_by_dim))

    def maximal_simplices(self) -> tuple:
        # face-closed: a d-simplex is a proper face iff it is a face of a (d+1)-simplex
        out = []
        for d, level in enumerate(self.simplices_by_dim):
            faces = set(chain.from_iterable(
                combinations(s, d + 1) for s in self.simplices_of_dim(d + 1)))
            out.extend(s for s in level if s not in faces)
        return tuple(out)

    def full_subcomplex(self) -> "Subcomplex":
        return Subcomplex(parent=self, simplices=frozenset(self.all_simplices()))

    def empty_subcomplex(self) -> "Subcomplex":
        return Subcomplex(parent=self, simplices=frozenset())

    def subcomplex(self, simplices) -> "Subcomplex":
        return Subcomplex(parent=self, simplices=frozenset(tuple(s) for s in simplices))

    def subcomplex_closure(self, simplices) -> "Subcomplex":
        """Face closure of the given simplices, as a subcomplex."""
        closed = set()
        for s in simplices:
            s = tuple(s)
            if s not in self:
                raise ValidationError(f"simplex {s!r} not in complex")
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        return Subcomplex(parent=self, simplices=frozenset(closed))


class Subcomplex(Record):
    """A face-closed subset of a parent complex's simplices."""

    _fields = ("parent", "simplices")

    def __init__(self, parent: SimplicialComplex, simplices: frozenset):
        for s in simplices:
            if s not in parent:
                raise ValidationError(f"simplex {s!r} not in parent complex")
            for k in range(1, len(s)):
                for f in combinations(s, k):
                    if f not in simplices:
                        raise ValidationError(
                            f"subcomplex not face-closed: missing {f!r} under {s!r}"
                        )
        vars(self).update(parent=parent, simplices=simplices)

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self.simplices

    def vertices(self) -> frozenset:
        return frozenset(s[0] for s in self.simplices if len(s) == 1)

    def is_empty(self) -> bool:
        return not self.simplices

    def as_complex(self, name: str = "") -> SimplicialComplex:
        """The subcomplex as a complex of its own, keeping the parent's
        vertex order (so orientations and signs agree); built once per
        name, since complexes with different names are not equal."""
        return self._kept_as(("complex", name), lambda: SimplicialComplex(
            vertex_order=self.parent.vertex_order,
            simplices_by_dim=_levels(self.simplices, self.parent._rank),
            name=name or self.parent.name,
        ))


def _levels(simplices, rank) -> tuple:
    """The simplices grouped by dimension, each level sorted by the
    ranks of its vertices."""
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, {})[tuple(map(rank.__getitem__, s))] = s
    levels = [by_dim.get(d, {}) for d in range(max(by_dim, default=-1) + 1)]
    return tuple(tuple(map(level.__getitem__, sorted(level))) for level in levels)


def _bad_simplex(vertices, rank):
    """Raise the error for an empty simplex or its first bad vertex."""
    if not vertices:
        raise ValidationError("empty vertex tuple")
    seen = set()
    for v in vertices:
        if v in seen:
            raise ValidationError(f"duplicate vertex {v!r} within one simplex")
        seen.add(v)
        if v not in rank:
            raise ValidationError(f"vertex {v!r} not in the declared order")


def _rank_columns(group, n, rank):
    """The n rank columns of simplices of n vertices, each row sorted, or
    None if a simplex is empty or has an unknown or repeated vertex."""
    try:
        ranks = list(map(rank.__getitem__, chain.from_iterable(group)))
    except (KeyError, TypeError):
        return None
    cols = [ranks[j::n] for j in range(n)]
    for _ in range(2):  # as given, then with each row sorted
        if n and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
            return cols
        cols = list(zip(*map(sorted, zip(*[iter(ranks)] * n))))


def _decode(keys, k, base, token) -> tuple:
    """Sorted keys of k-faces back to token tuples, a digit column at a time."""
    cols = []
    for p in range(k, -1, -1):
        digits = map((base ** p).__rfloordiv__, keys) if p else keys
        cols.append(map(token, map(base.__rmod__, digits) if p < k else digits))
    return tuple(zip(*cols))


def from_maximal_simplices(maximal, order=None, name: str = "") -> SimplicialComplex:
    """Face closure of the given vertex tuples.

    `order` fixes the global vertex order; when omitted it defaults to
    the deterministic token order (ints numerically, then strings).
    The closure runs on one int per face, its vertex ranks as digits in
    base `len(order)`, so each level sorts as its keys do.
    """
    maximal = [tuple(s) for s in maximal]
    if order is None:
        order = default_token_order(set(chain.from_iterable(maximal)))
    order = tuple(order)
    rank = dict(zip(order, range(len(order))))
    if len(rank) != len(order):
        raise ValidationError("duplicate vertex token in vertex order")

    lengths = set(map(len, maximal))
    by_len = {n: _rank_columns(maximal if len(lengths) == 1 else
                               [s for s in maximal if len(s) == n], n, rank) for n in lengths}
    if None in by_len.values():
        for s in maximal:  # the first bad simplex in file order
            _bad_simplex(s, rank)
    # the k-faces of all n-simplices at once, from k columns of their ranks
    base, levels = len(order), [set() for _ in range(max(lengths, default=0))]
    for n, cols in by_len.items():
        faces = list(enumerate(cols))  # (last column, keys) of each choice of k columns
        for level in levels[:n]:
            for _, keys in faces:
                level.update(keys)
            faces = [(j, list(map(add, map(base.__mul__, keys), cols[j])))
                     for i, keys in faces for j in range(i + 1, n)]
    by_dim = tuple(_decode(keys, k, base, order.__getitem__)
                   for k, keys in enumerate(map(sorted, levels)))
    return SimplicialComplex(vertex_order=order, simplices_by_dim=by_dim, name=name)


def closed_star(x: SimplicialComplex, z: Subcomplex) -> Subcomplex:
    """Face closure of every simplex of `x` having a vertex in `z`;
    computed once and kept on `z`."""
    if z.parent is not x and z.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    return z._kept_as("star", lambda: x.subcomplex_closure(
        filterfalse(z.vertices().isdisjoint, x.all_simplices())))


def nonmeeting_complement(x: SimplicialComplex, z: Subcomplex) -> Subcomplex:
    """Simplices of `x` with no vertex in `z`; automatically face-closed.
    Computed once and kept on `z`."""
    if z.parent is not x and z.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    return z._kept_as("complement", lambda: x.subcomplex(
        filter(z.vertices().isdisjoint, x.all_simplices())))


def subcomplex_intersection(a: Subcomplex, b: Subcomplex) -> Subcomplex:
    if a.parent != b.parent:
        raise ValidationError("subcomplexes of different parents")
    return Subcomplex(parent=a.parent, simplices=a.simplices & b.simplices)


class SubdivisionResult(Record):
    """One barycentric subdivision together with its bookkeeping.

    Vertices of `complex` are in bijection with the simplices of
    `parent`; k-simplices correspond to strictly increasing chains of
    faces of the parent.
    """

    # barycenter_of: parent simplex -> new vertex token; parent_of: new
    # vertex token -> parent simplex.  Every result for one parent shares
    # one store: the induced subdivisions built so far, keyed by the
    # simplices of the subcomplex of `parent` they subdivide, and the
    # subdivision and last-vertex chain maps
    _fields = ("parent", "complex", "barycenter_of", "parent_of")


def barycenter_token(simplex: Simplex):
    """Vertices keep their token; higher simplices get b(v1.v2...)."""
    if len(simplex) == 1:
        return simplex[0]
    return "b(" + ".".join(str(v) for v in simplex) + ")"


def barycentric_subdivide(x: SimplicialComplex) -> SubdivisionResult:
    """sd X: one vertex b(s) per simplex s of X, and one simplex
    [b(s_0), ..., b(s_k)] per flag s_0 < ... < s_k of faces.  The new
    vertices are ordered by parent dimension, then by parent tuple.
    Built once: `x` keeps every part of the result and the result's store,
    but not the result itself, which refers back to `x`."""
    *parts, kept = x._kept_as("sd", lambda: (*_subdivide(x), {}))
    sd = SubdivisionResult(x, *parts)
    vars(sd)["_derived"] = kept
    return sd


def _subdivide(x: SimplicialComplex) -> tuple:
    """The complex, `barycenter_of` and `parent_of` of sd X."""
    barycenter_of = {}
    parent_of = {}
    # parent -> the sd simplices whose last vertex is its barycenter; a
    # parent comes after its faces, so theirs are listed already
    flags_ending = {}
    # by dimension, then by vertex ranks: (len(s), *ranks) sorts natively
    try:
        ranked = {(len(s), *map(x._rank.__getitem__, s)): s for s in x.all_simplices()}
    except KeyError as missing:
        x.rank_of(missing.args[0])
    for s in map(ranked.__getitem__, sorted(ranked)):
        tok = barycenter_token(s)
        if len(s) > 1 and x.has_vertex(tok):
            raise ValidationError(
                f"barycenter token {tok!r} collides with an existing vertex"
            )
        barycenter_of[s] = tok
        parent_of[tok] = s
        flags_ending[s] = [(tok,)] + [
            flag + (tok,)
            for k in range(1, len(s)) for f in combinations(s, k) for flag in flags_ending[f]
        ]
    new_order = tuple(parent_of)
    rank = {v: i for i, v in enumerate(new_order)}
    sd = SimplicialComplex(
        vertex_order=new_order,
        simplices_by_dim=_levels([f for flags in flags_ending.values() for f in flags], rank),
        name=(x.name + "/sd") if x.name else "sd",
    )
    return sd, barycenter_of, parent_of


def induced_subdivision(sd: SubdivisionResult, z: Subcomplex) -> Subcomplex:
    """The subdivision of `z` as a subcomplex of the subdivided complex:
    the sd simplices whose last vertex is the barycenter of a simplex of
    `z` (that simplex is their largest face, and `z` is face-closed).
    Built once per `z` and kept on `sd`."""
    if z.parent != sd.parent:
        raise ValidationError("subcomplex does not belong to the subdivided complex")
    return sd._kept_as(z.simplices, lambda: Subcomplex(parent=sd.complex, simplices=frozenset(
        s for s in sd.complex.all_simplices() if sd.parent_of[s[-1]] in z.simplices)))


def last_vertex_approximation(sd: SubdivisionResult) -> dict:
    """Simplicial approximation to the identity: each barycenter goes to
    the largest vertex of its parent simplex."""
    x = sd.parent
    out = {}
    for tok, parent in sd.parent_of.items():
        out[tok] = max(parent, key=x.rank_of)
    return out
