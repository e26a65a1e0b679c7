"""Borel-Moore homology of open complements, modeled as compact pairs.

The open space U = X - Y is represented by the pair (X, Y); its
Borel-Moore homology is the homology of C(X)/C(Y).  The long exact
sequence of the pair and invariance under barycentric subdivision
certify the model.  The supported cap on U is the relative supported
cap of the pair, which checks that the class it transports to the
support maps back onto the cap class.
"""

from __future__ import annotations

from . import intlinalg as la
from .bridge import (
    SimplicialChain,
    SimplicialCochain,
    _lift,
    boundary_of,
    chain_complex_of,
    chain_to_vector,
    inclusion_chain_map,
    relative_chain_complex,
    subdivision_chain_map,
)
from .chains import (
    HomologyGroup,
    homology,
    induced_map_on_homology,
    is_quasi_isomorphism,
)
from .complexes import (
    SimplicialComplex,
    Subcomplex,
    barycentric_subdivide,
    induced_subdivision,
)
from .errors import InternalCheckError, ValidationError
from .products import RelativeSupportedCapResult, relative_supported_cap
from .records import Record

__all__ = [
    "OpenSpaceModel",
    "bm_homology",
    "pair_long_exact_sequence",
    "ExactnessReport",
    "subdivision_invariance_check",
    "InvarianceReport",
    "bm_supported_cap",
]


class OpenSpaceModel(Record):
    """Pair model (ambient, boundary) of the open complement
    ambient - boundary."""

    _fields = ("ambient", "boundary")

    def __init__(self, ambient: SimplicialComplex, boundary: Subcomplex):
        if boundary.parent != ambient:
            raise ValidationError("boundary is not a subcomplex of the ambient complex")
        vars(self).update(ambient=ambient, boundary=boundary)


def bm_homology(model: OpenSpaceModel, degree: int) -> HomologyGroup:
    """H of C(X)/C(Y) at one degree, read as the Borel-Moore homology of
    the open complement."""
    return homology(chain_complex_of(model.ambient, model.boundary), degree)


# -- long exact sequence of the pair ------------------------------------


class ExactnessReport(Record):
    _fields = ("nodes", "passed")  # nodes: (label, exact?) per checked node


def _exact_at(prev_matrix, here: HomologyGroup, next_matrix, nxt: HomologyGroup) -> bool:
    """Exactness at `here`: image of the incoming map equals the kernel
    of the outgoing map, as subgroups in canonical coordinates.  The
    maps are SparseMatrix or anything `SparseMatrix.of` reads."""
    n = here.dim
    rel_here = here._relations()
    image_gens = la._hstack(la.SparseMatrix.of(prev_matrix), rel_here)
    # kernel of (next o quotient): x with next_matrix @ x in relations of nxt
    stacked = la._hstack(la.SparseMatrix.of(next_matrix), nxt._relations().scaled(-1))
    ker = la.kernel_basis(stacked)
    ker_x = la.SparseMatrix((n, ker.shape[1]), _cols=tuple(
        {i: e for i, e in col.items() if i < n} for col in ker._col_dicts))
    return la.lattices_equal(image_gens, la._hstack(ker_x, rel_here))


def pair_long_exact_sequence(x: SimplicialComplex, y: Subcomplex) -> ExactnessReport:
    """... -> H_n(Y) -> H_n(X) -> H_n(X, Y) -> H_{n-1}(Y) -> ...

    The connecting map lifts a relative cycle to X, takes its boundary
    into Y.  Verifies image = kernel at every node, torsion included;
    a failure raises InternalCheckError since it can only mean a bug.
    """
    if y.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    y_complex = y.as_complex("pair-boundary")
    rel, proj = relative_chain_complex(x, y)
    incl = inclusion_chain_map(y_complex, x)
    cy, cx = incl.source, incl.target

    top = x.dimension
    # (label, group, outgoing map) from H_top(Y) down to H_0(X, Y),
    # between the zero map in from H_{top+1}(X, Y) = 0 and H_{-1}(Y) = 0
    seq = [(None, None, la.SparseMatrix((homology(cy, top).dim, 0)))]
    for n in range(top, -1, -1):
        # the connecting map, in canonical coordinates: lift a relative
        # cycle to X along the projection's transpose, take its boundary in Y
        hrel, below = homology(rel, n), homology(cy, n - 1)
        conn = []
        for g in hrel._gens._row_dicts:
            db = boundary_of(_lift(x, n, g, y))
            if any(s not in y for s in db.coefficients):
                raise InternalCheckError("relative cycle boundary escaped the subcomplex")
            c = below.coords_of(chain_to_vector(SimplicialChain(y_complex, n - 1, db.coefficients)))
            conn.append({i: v for i, v in enumerate(c) if v})
        seq += [(f"H_{n}(Y)", homology(cy, n), induced_map_on_homology(incl, n).sparse),
                (f"H_{n}(X)", homology(cx, n), induced_map_on_homology(proj, n).sparse),
                (f"H_{n}(X,Y)", hrel, la.SparseMatrix((below.dim, hrel.dim), _cols=tuple(conn)))]
    seq.append((None, homology(cy, -1), None))
    nodes = [(label, _exact_at(into, here, out, nxt))
             for (_, _, into), (label, here, out), (_, nxt, _) in zip(seq, seq[1:], seq[2:])]
    passed = all(ok for _, ok in nodes)
    if not passed:
        failing = [label for label, good in nodes if not good]
        raise InternalCheckError(f"pair sequence not exact at {failing}")
    return ExactnessReport(nodes=tuple(nodes), passed=passed)


# -- subdivision invariance ---------------------------------------------


class InvarianceReport(Record):
    _fields = ("rows", "passed")  # rows: (degree, original type, subdivided type, iso?)


def subdivision_invariance_check(model: OpenSpaceModel, times: int = 1) -> InvarianceReport:
    """H(X, Y) must map isomorphically to H(sd^k X, sd^k Y) under the
    relative subdivision chain map: the composite of `times` subdivision
    steps must be a quasi-isomorphism.  The rows are
    `is_quasi_isomorphism`'s report, which leaves out the degrees where
    both groups are 0."""
    if la._entry(times) < 1:
        raise ValidationError("times must be >= 1")
    x, y = model.ambient, model.boundary
    rel_map = None
    for _ in range(times):
        sd = barycentric_subdivide(x)
        step = subdivision_chain_map(sd, y)
        rel_map = step if rel_map is None else step.compose(rel_map)
        x, y = sd.complex, induced_subdivision(sd, y)
    passed, rows = is_quasi_isomorphism(rel_map)
    return InvarianceReport(rows=tuple(rows), passed=passed)


# -- supported cap on the open complement -------------------------------


def bm_supported_cap(model: OpenSpaceModel, z: Subcomplex, u: SimplicialCochain,
                     alpha: SimplicialChain, presubdivide: int = 0) -> RelativeSupportedCapResult:
    """Supported cap on the Borel-Moore homology of the complement: the
    relative supported cap of the pair."""
    return relative_supported_cap(
        model.ambient, model.boundary, z, u, alpha, presubdivide=presubdivide
    )
