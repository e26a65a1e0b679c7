"""Finite abstract simplicial complexes and their combinatorics.

Vertices are opaque tokens (ints or strings) carrying a total order; a
simplex is the strictly increasing tuple of its vertices under that
order.  Complexes are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

from .errors import ValidationError

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


@dataclass(frozen=True)
class SimplicialComplex:
    """Face-closed finite set of simplices over an ordered vertex set."""

    vertex_order: tuple
    simplices_by_dim: tuple  # tuple of tuples, index = dimension, each sorted
    name: str = ""
    _rank: Mapping = field(default=None, repr=False, compare=False)
    _index: Mapping = field(default=None, repr=False, compare=False)
    # data derived from this complex on first use (its chain and
    # cochain complexes); lives and dies with the complex
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        rank = {v: i for i, v in enumerate(self.vertex_order)}
        if len(rank) != len(self.vertex_order):
            raise ValidationError("duplicate vertex token in vertex order")
        index = {}
        for d, simplices in enumerate(self.simplices_by_dim):
            for i, s in enumerate(simplices):
                index[s] = i
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_index", index)

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


@dataclass(frozen=True)
class Subcomplex:
    """A face-closed subset of a parent complex's simplices."""

    parent: SimplicialComplex
    simplices: frozenset
    # data derived from this subcomplex on first use: the pair (parent,
    # self)'s chain and cochain complexes, its closed star in the parent
    # and its `as_complex` views by name; lives and dies with the subcomplex
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for s in self.simplices:
            if s not in self.parent:
                raise ValidationError(f"simplex {s!r} not in parent complex")
            for k in range(1, len(s)):
                for f in combinations(s, k):
                    if f not in self.simplices:
                        raise ValidationError(
                            f"subcomplex not face-closed: missing {f!r} under {s!r}"
                        )

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
        by_dim = {}
        for s in self.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        dim = max(by_dim) if by_dim else -1
        levels = tuple(
            tuple(sorted(by_dim.get(d, ()), key=self.parent.sort_key))
            for d in range(dim + 1)
        )
        self._derived[key] = SimplicialComplex(
            vertex_order=self.parent.vertex_order,
            simplices_by_dim=levels,
            name=name or self.parent.name,
        )
        return self._derived[key]


def _normalize_tuple(vertices, rank) -> Simplex:
    vs = list(vertices)
    if not vs:
        raise ValidationError("empty vertex tuple")
    seen = set()
    for v in vs:
        if v in seen:
            raise ValidationError(f"duplicate vertex {v!r} within one simplex")
        seen.add(v)
        if v not in rank:
            raise ValidationError(f"vertex {v!r} not in the declared order")
    return tuple(sorted(vs, key=rank.__getitem__))


def from_maximal_simplices(maximal, order=None, name: str = "") -> SimplicialComplex:
    """Face closure of the given vertex tuples.

    `order` fixes the global vertex order; when omitted it defaults to
    the deterministic token order (ints numerically, then strings).
    """
    maximal = [tuple(s) for s in maximal]
    if order is None:
        tokens = set()
        for s in maximal:
            tokens.update(s)
        order = default_token_order(tokens)
    order = tuple(order)
    rank = {v: i for i, v in enumerate(order)}
    if len(rank) != len(order):
        raise ValidationError("duplicate vertex token in vertex order")

    closed = set()
    for s in maximal:
        s = _normalize_tuple(s, rank)
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    by_dim = {}
    for s in closed:
        by_dim.setdefault(len(s) - 1, []).append(s)
    dim = max(by_dim) if by_dim else -1
    levels = tuple(
        tuple(sorted(by_dim.get(d, ()), key=lambda s: tuple(rank[v] for v in s)))
        for d in range(dim + 1)
    )
    return SimplicialComplex(vertex_order=order, simplices_by_dim=levels, name=name)


def closed_star(x: SimplicialComplex, z: Subcomplex) -> Subcomplex:
    """Face closure of every simplex of `x` having a vertex in `z`;
    computed once and kept on `z`."""
    if z.parent is not x and z.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    if "star" not in z._derived:
        zv = z.vertices()
        meeting = [s for s in x.all_simplices() if any(v in zv for v in s)]
        z._derived["star"] = x.subcomplex_closure(meeting)
    return z._derived["star"]


def nonmeeting_complement(x: SimplicialComplex, z: Subcomplex) -> Subcomplex:
    """Simplices of `x` with no vertex in `z`; automatically face-closed."""
    if z.parent is not x and z.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    zv = z.vertices()
    return x.subcomplex(s for s in x.all_simplices() if not any(v in zv for v in s))


def subcomplex_intersection(a: Subcomplex, b: Subcomplex) -> Subcomplex:
    if a.parent != b.parent:
        raise ValidationError("subcomplexes of different parents")
    return Subcomplex(parent=a.parent, simplices=a.simplices & b.simplices)


@dataclass(frozen=True)
class SubdivisionResult:
    """One barycentric subdivision together with its bookkeeping.

    Vertices of `complex` are in bijection with the simplices of
    `parent`; k-simplices correspond to strictly increasing chains of
    faces of the parent.
    """

    parent: SimplicialComplex
    complex: SimplicialComplex
    barycenter_of: Mapping  # parent simplex -> new vertex token
    parent_of: Mapping  # new vertex token -> parent simplex


def barycenter_token(simplex: Simplex):
    """Vertices keep their token; higher simplices get b(v1.v2...)."""
    if len(simplex) == 1:
        return simplex[0]
    return "b(" + ".".join(str(v) for v in simplex) + ")"


def barycentric_subdivide(x: SimplicialComplex) -> SubdivisionResult:
    barycenter_of = {}
    parent_of = {}
    parents_sorted = sorted(x.all_simplices(), key=lambda s: (len(s), x.sort_key(s)))
    for s in parents_sorted:
        tok = barycenter_token(s)
        if len(s) > 1 and x.has_vertex(tok):
            raise ValidationError(
                f"barycenter token {tok!r} collides with an existing vertex"
            )
        barycenter_of[s] = tok
        parent_of[tok] = s
    # order: by parent dimension, then lexicographically by parent tuple
    new_order = tuple(barycenter_of[s] for s in parents_sorted)

    # chains of proper-face inclusions, keyed by their top simplex
    chains_ending = {}

    def chains(s):
        if s in chains_ending:
            return chains_ending[s]
        out = [(s,)]
        for k in range(1, len(s)):
            for f in combinations(s, k):
                for c in chains(f):
                    out.append(c + (s,))
        chains_ending[s] = out
        return out

    by_dim = {}
    for s in x.all_simplices():
        for chain in chains(s):
            simplex = tuple(barycenter_of[f] for f in chain)
            by_dim.setdefault(len(simplex) - 1, []).append(simplex)
    rank = {v: i for i, v in enumerate(new_order)}
    dim = max(by_dim) if by_dim else -1
    levels = tuple(
        tuple(sorted(by_dim.get(d, ()), key=lambda s: tuple(rank[v] for v in s)))
        for d in range(dim + 1)
    )
    sd = SimplicialComplex(
        vertex_order=new_order,
        simplices_by_dim=levels,
        name=(x.name + "/sd") if x.name else "sd",
    )
    return SubdivisionResult(parent=x, complex=sd, barycenter_of=barycenter_of, parent_of=parent_of)


def induced_subdivision(sd: SubdivisionResult, z: Subcomplex) -> Subcomplex:
    """The subdivision of `z` as a subcomplex of the subdivided complex."""
    if z.parent != sd.parent:
        raise ValidationError("subcomplex does not belong to the subdivided complex")
    keep = frozenset(
        s for s in sd.complex.all_simplices()
        if all(sd.parent_of[v] in z.simplices for v in s)
    )
    return Subcomplex(parent=sd.complex, simplices=keep)


def last_vertex_approximation(sd: SubdivisionResult) -> dict:
    """Simplicial approximation to the identity: each barycenter goes to
    the largest vertex of its parent simplex."""
    x = sd.parent
    out = {}
    for tok, parent in sd.parent_of.items():
        out[tok] = max(parent, key=x.rank_of)
    return out
