"""Finite abstract simplicial complexes and their combinatorics.

Vertices are opaque tokens (ints or strings) carrying a total order; a
simplex is the strictly increasing tuple of its vertices under that
order.  Complexes are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

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

    def __init__(self, vertex_order: tuple, simplices_by_dim: tuple, name: str = "",
                 _derived: dict = None):
        # simplices_by_dim: tuple of tuples, index = dimension, each
        # sorted.  `_rank` and `_index` are built here.  _derived: data
        # derived from this complex on first use
        # (its chain complex, its barycentric subdivision), kept out of
        # equality; it lives and dies with the complex
        rank = dict(zip(vertex_order, range(len(vertex_order))))
        if len(rank) != len(vertex_order):
            raise ValidationError("duplicate vertex token in vertex order")
        index = {}
        for simplices in simplices_by_dim:
            index.update(zip(simplices, range(len(simplices))))
        vars(self).update(vertex_order=vertex_order, simplices_by_dim=simplices_by_dim,
                          name=name, _rank=rank, _index=index,
                          _derived={} if _derived is None else _derived)

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
        proper_faces = set()
        for s in self.all_simplices():
            for k in range(1, len(s)):
                proper_faces.update(combinations(s, k))
        return tuple(s for s in self.all_simplices() if s not in proper_faces)

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

    def __init__(self, parent: SimplicialComplex, simplices: frozenset, _derived: dict = None):
        # _derived: data derived from this subcomplex on first use, kept
        # out of equality: the pair (parent, self)'s chain complex, its
        # closed star and non-meeting complement in the parent and its
        # `as_complex` views by name; it lives and dies with the subcomplex
        for s in simplices:
            if s not in parent:
                raise ValidationError(f"simplex {s!r} not in parent complex")
            for k in range(1, len(s)):
                for f in combinations(s, k):
                    if f not in simplices:
                        raise ValidationError(
                            f"subcomplex not face-closed: missing {f!r} under {s!r}"
                        )
        vars(self).update(parent=parent, simplices=simplices,
                          _derived={} if _derived is None else _derived)

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
        key = ("complex", name)
        if key in self._derived:
            return self._derived[key]
        self._derived[key] = SimplicialComplex(
            vertex_order=self.parent.vertex_order,
            simplices_by_dim=_levels(self.simplices, self.parent._rank),
            name=name or self.parent.name,
        )
        return self._derived[key]


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


def from_maximal_simplices(maximal, order=None, name: str = "") -> SimplicialComplex:
    """Face closure of the given vertex tuples.

    `order` fixes the global vertex order; when omitted it defaults to
    the deterministic token order (ints numerically, then strings).
    The closure runs on the sorted rank tuples of the simplices.
    """
    maximal = [tuple(s) for s in maximal]
    if order is None:
        tokens = set()
        for s in maximal:
            tokens.update(s)
        order = default_token_order(tokens)
    order = tuple(order)
    rank = dict(zip(order, range(len(order))))
    if len(rank) != len(order):
        raise ValidationError("duplicate vertex token in vertex order")

    by_len = {}
    for s in maximal:
        try:
            r = tuple(sorted(map(rank.__getitem__, s)))
        except (KeyError, TypeError):
            r = ()
        if not r or len(set(r)) != len(s):
            _bad_simplex(s, rank)
        by_len.setdefault(len(r), []).append(r)
    # the k-faces of all n-simplices at once, from k columns of their ranks
    levels = [set() for _ in range(max(by_len, default=0))]
    for n, ranked in by_len.items():
        for k in range(1, n + 1):
            for cols in combinations(zip(*ranked), k):
                levels[k - 1].update(zip(*cols))
    # each sorted level back to tokens, a column of vertices at a time
    token = order.__getitem__
    by_dim = tuple(tuple(zip(*[map(token, c) for c in zip(*sorted(level))])) for level in levels)
    return SimplicialComplex(vertex_order=order, simplices_by_dim=by_dim, name=name)


def closed_star(x: SimplicialComplex, z: Subcomplex) -> Subcomplex:
    """Face closure of every simplex of `x` having a vertex in `z`;
    computed once and kept on `z`."""
    if z.parent is not x and z.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    if "star" not in z._derived:
        zv = z.vertices()
        meeting = [s for s in x.all_simplices() if not zv.isdisjoint(s)]
        z._derived["star"] = x.subcomplex_closure(meeting)
    return z._derived["star"]


def nonmeeting_complement(x: SimplicialComplex, z: Subcomplex) -> Subcomplex:
    """Simplices of `x` with no vertex in `z`; automatically face-closed.
    Computed once and kept on `z`."""
    if z.parent is not x and z.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    if "complement" not in z._derived:
        zv = z.vertices()
        z._derived["complement"] = x.subcomplex(
            s for s in x.all_simplices() if zv.isdisjoint(s))
    return z._derived["complement"]


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

    _fields = ("parent", "complex", "barycenter_of", "parent_of")

    def __init__(self, parent: SimplicialComplex, complex: SimplicialComplex,
                 barycenter_of: Mapping, parent_of: Mapping, _derived: dict = None):
        # barycenter_of: parent simplex -> new vertex token; parent_of: new
        # vertex token -> parent simplex; _derived, kept out of equality:
        # the induced subdivisions built so far, keyed by the simplices of
        # the subcomplex of `parent` they subdivide, and the subdivision
        # and last-vertex chain maps
        vars(self).update(parent=parent, complex=complex, barycenter_of=barycenter_of,
                          parent_of=parent_of, _derived={} if _derived is None else _derived)


def barycenter_token(simplex: Simplex):
    """Vertices keep their token; higher simplices get b(v1.v2...)."""
    if len(simplex) == 1:
        return simplex[0]
    return "b(" + ".".join(str(v) for v in simplex) + ")"


def barycentric_subdivide(x: SimplicialComplex) -> SubdivisionResult:
    """sd X: one vertex b(s) per simplex s of X, and one simplex
    [b(s_0), ..., b(s_k)] per flag s_0 < ... < s_k of faces.  The new
    vertices are ordered by parent dimension, then by parent tuple.
    Built once: `x` keeps every part of the result but the result itself,
    which refers back to `x`; a reference cycle would keep them all alive
    after their last use, until the cyclic garbage collector runs."""
    if "sd" in x._derived:
        return SubdivisionResult(x, *x._derived["sd"])
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
    x._derived["sd"] = (sd, barycenter_of, parent_of, {})
    return SubdivisionResult(x, *x._derived["sd"])


def induced_subdivision(sd: SubdivisionResult, z: Subcomplex) -> Subcomplex:
    """The subdivision of `z` as a subcomplex of the subdivided complex:
    the sd simplices whose last vertex is the barycenter of a simplex of
    `z` (that simplex is their largest face, and `z` is face-closed).
    Built once per `z` and kept on `sd`."""
    if z.parent != sd.parent:
        raise ValidationError("subcomplex does not belong to the subdivided complex")
    if z.simplices not in sd._derived:
        sd._derived[z.simplices] = Subcomplex(parent=sd.complex, simplices=frozenset(
            s for s in sd.complex.all_simplices() if sd.parent_of[s[-1]] in z.simplices
        ))
    return sd._derived[z.simplices]


def last_vertex_approximation(sd: SubdivisionResult) -> dict:
    """Simplicial approximation to the identity: each barycenter goes to
    the largest vertex of its parent simplex."""
    x = sd.parent
    out = {}
    for tok, parent in sd.parent_of.items():
        out[tok] = max(parent, key=x.rank_of)
    return out
