"""Barycentric subdivision as it was before the flag formula, kept
verbatim as the reference the test suite compares the library against:
the face recursion that lists the simplices of sd X, the memoised
cone-on-the-barycenter recursion that gives the subdivision chain map's
signs, and the all-vertices test for induced subdivisions."""

from itertools import combinations

from capstar.complexes import (
    SimplicialComplex,
    Subcomplex,
    SubdivisionResult,
    _levels,
    barycenter_token,
)
from capstar.errors import ValidationError


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

    new_simplices = [
        tuple(barycenter_of[f] for f in chain)
        for s in x.all_simplices() for chain in chains(s)
    ]
    rank = {v: i for i, v in enumerate(new_order)}
    sd = SimplicialComplex(
        vertex_order=new_order,
        simplices_by_dim=_levels(new_simplices, rank),
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


def _cone_on_barycenter(terms: dict, b) -> dict:
    """Append the (largest) barycenter vertex to each increasing tuple;
    moving it from the front costs (-1)^len."""
    out = {}
    for t, c in terms.items():
        out[t + (b,)] = c * ((-1) ** len(t))
    return out


def subdivision_expansions(sd: SubdivisionResult) -> dict:
    """parent simplex -> dict of subdivided simplices with signs, via the
    cone-over-the-barycenter recursion."""
    memo = {}

    def expand(s):
        if s in memo:
            return memo[s]
        if len(s) == 1:
            out = {(sd.barycenter_of[s],): 1}
        else:
            acc = {}
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                fsign = (-1) ** i
                for t, c in _cone_on_barycenter(expand(face), sd.barycenter_of[s]).items():
                    acc[t] = acc.get(t, 0) + fsign * c
            out = {t: c for t, c in acc.items() if c}
        memo[s] = out
        return out

    for s in sd.parent.all_simplices():
        expand(s)
    return memo
