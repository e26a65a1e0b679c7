"""The face closure as it was before it ran in rank space, kept verbatim
as the reference the test suite compares the library against:
`from_maximal_simplices` normalises each maximal simplex token by token,
closes it over tokens, and `_levels` sorts each level with a per-simplex
rank key.  Vertex order, levels and the order within each level must
agree exactly."""

from itertools import combinations

from capstar.complexes import SimplicialComplex, Simplex, default_token_order
from capstar.errors import ValidationError


def _levels(simplices, rank) -> tuple:
    """The simplices grouped by dimension, each level sorted by the
    ranks of its vertices."""
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return tuple(
        tuple(sorted(by_dim.get(d, ()), key=lambda s: tuple(rank[v] for v in s)))
        for d in range(max(by_dim, default=-1) + 1)
    )


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
    return SimplicialComplex(vertex_order=order, simplices_by_dim=_levels(closed, rank), name=name)
