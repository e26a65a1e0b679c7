"""From simplicial complexes to integer chain complexes.

Boundary convention: d[v_0,...,v_m] = sum_i (-1)^i [v_0,...,^v_i,...,v_m]
on increasing tuples.  Cochain complexes are the integer duals, so the
coboundary out of degree p is the transpose of the boundary scaled by
(-1)^(p+1) -- note the extra sign relative to the common convention.

Absolute is relative with an empty subcomplex: C(X)/C(Y) has the basis
of simplices outside Y in the order of X, and every complex, vector
conversion, inclusion and subdivision map here takes an optional Y.
One builder, `_matrix`, fills every matrix into such a quotient.  The
chain complex of X, or of a pair (X, Y) with Y non-empty, is assembled
once and kept on X, respectively on Y; the cochain complex is its dual,
kept on it.  A vector is a list of Python ints; nothing here loads
numpy.
"""

from __future__ import annotations

from itertools import permutations
from typing import Mapping

from . import intlinalg as la
from .chains import ChainComplexZ, ChainMap, chain_complex, chain_map, dual_hom_z
from .complexes import (
    SimplicialComplex,
    Subcomplex,
    SubdivisionResult,
    induced_subdivision,
    last_vertex_approximation,
)
from .errors import ValidationError
from .records import Record

__all__ = [
    "SimplicialChain",
    "SimplicialCochain",
    "CochainFunctional",
    "chain_complex_of",
    "relative_chain_complex",
    "cochain_complex",
    "relative_cochain_complex",
    "chain_to_vector",
    "vector_to_chain",
    "vector_to_cochain",
    "boundary_of",
    "coboundary_of",
    "inclusion_chain_map",
    "relative_inclusion_chain_map",
    "subdivision_chain_map",
    "apply_chain_map",
    "last_vertex_chain_map",
    "cochain_pullback",
    "xi_pairing",
    "xi_functional",
]


def _validated_support(complex: SimplicialComplex, degree: int, coefficients: Mapping) -> dict:
    out = {}
    for s, c in coefficients.items():
        if type(s) is not tuple:
            s = tuple(s)
        if type(c) is not int:
            c = la._entry(c)
        if c == 0:
            continue
        if len(s) - 1 != degree:
            raise ValidationError(f"simplex {s!r} is not {degree}-dimensional")
        if s not in complex._index:
            raise ValidationError(f"simplex {s!r} not in complex")
        out[s] = c
    return out


class SimplicialChain(Record):
    """Sparse integer vector in one degree of a fixed complex.

    One type serves as a chain, as a cochain (its value on each simplex)
    and as a functional on cochains (its value on each dual basis
    cochain); `SimplicialCochain` and `CochainFunctional` name it too.
    Coefficients are ints, bools or numpy integers; anything else, a
    float or a Fraction included, raises ValidationError.  Chains are
    sparse and never load numpy.
    """

    _fields = ("complex", "degree", "coefficients")

    def __init__(self, complex: SimplicialComplex, degree: int, coefficients: Mapping):
        vars(self).update(complex=complex, degree=degree,
                          coefficients=_validated_support(complex, degree, coefficients))

    @classmethod
    def _trusted(cls, complex: SimplicialComplex, degree: int, coefficients: dict):
        """The chain of `coefficients` as they are: nonzero Python ints on
        `degree`-simplices of `complex`, which the caller has checked."""
        chain = cls.__new__(cls)
        vars(chain).update(complex=complex, degree=degree, coefficients=coefficients)
        return chain

    @property
    def values(self) -> dict:
        """The coefficients, under their cochain name."""
        return self.coefficients

    def __call__(self, simplex) -> int:
        return self.coefficients.get(tuple(simplex), 0)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other):
        _same_home(self, other)
        out = dict(self.coefficients)
        for s, c in other.coefficients.items():
            out[s] = out.get(s, 0) + c
        return SimplicialChain(self.complex, self.degree, out)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c: int):
        return SimplicialChain(self.complex, self.degree,
                               {s: c * v for s, v in self.coefficients.items()})

    def evaluate(self, other: "SimplicialChain") -> int:
        """The plain pairing sum of products of coefficients: a cochain
        on a chain, or a functional on a cochain."""
        _same_home(self, other)
        theirs = other.coefficients
        return sum(c * theirs.get(s, 0) for s, c in self.coefficients.items())

    def format(self) -> str:
        return _format_combination(self.complex, self.coefficients)


SimplicialCochain = SimplicialChain
CochainFunctional = SimplicialChain


def _same_home(a, b):
    if a.complex != b.complex:
        raise ValidationError("operands live on different complexes")
    if a.degree != b.degree:
        raise ValidationError("operands have different degrees")


def _format_combination(complex: SimplicialComplex, coeffs: dict) -> str:
    if not coeffs:
        return "0"
    parts = []
    for s in sorted(coeffs, key=complex.sort_key):
        c = coeffs[s]
        body = "[" + ",".join(str(v) for v in s) + "]"
        if c == 1:
            term = body
        elif c == -1:
            term = "-" + body
        else:
            term = f"{c}*{body}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


# -- chain complexes of complexes and pairs ------------------------------


def _basis(x: SimplicialComplex, y: Subcomplex | None, d: int):
    """The d-simplices of `x` outside `y`, in the order of `x`: the
    degree-d basis of C(X)/C(Y), which is C_d(X) when `y` is None."""
    level = x.simplices_of_dim(d)
    if y is None:
        return level
    if y.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    if not y.simplices:
        return level
    return [s for s in level if s not in y.simplices]


def chain_complex_of(x: SimplicialComplex, y: Subcomplex | None = None) -> ChainComplexZ:
    """Oriented simplicial chain complex C(X)/C(Y) on the simplices
    outside `y` (C(X) itself when `y` is None or empty); diff_degree -1,
    degrees 0..dim.  Assembled on first use and kept on `y` when it is
    non-empty, on `x` otherwise."""
    if y is not None and y.parent != x:
        raise ValidationError("subcomplex does not belong to the given complex")
    owner = y if y is not None and y.simplices else x
    return owner._kept_as("chain", lambda: _assemble(x, y))


def _matrix(cols, x: SimplicialComplex, y: Subcomplex | None, d: int, image) -> la.SparseMatrix:
    """The sparse matrix into degree d of C(X)/C(Y) whose column j is
    `image(cols[j])`, a dict {simplex: nonzero int}: a simplex in `y` is
    zero there, and any other simplex outside `x` raises ValidationError.
    Built from the complex's own simplices, it is built checked."""
    row = {s: i for i, s in enumerate(_basis(x, y, d))}
    out = []
    for s in cols:
        col = {}
        for t, c in image(s).items():
            i = row.get(t)
            if i is not None:
                col[i] = c
            elif y is None or t not in y:
                raise ValidationError(f"simplex {t!r} not in complex")
        out.append(col)
    return la.SparseMatrix((len(row), len(cols)), _cols=tuple(out), _checked=True)


def _faces(s) -> dict:
    return {s[:i] + s[i + 1:]: (-1) ** i for i in range(len(s))}


def _assemble(x: SimplicialComplex, y: Subcomplex | None) -> ChainComplexZ:
    basis = {d: _basis(x, y, d) for d in range(x.dimension + 1)}
    diffs = {m: _matrix(basis[m], x, y, m - 1, _faces) for m in range(1, x.dimension + 1)}
    return chain_complex(-1, {d: len(level) for d, level in basis.items()}, diffs)


def relative_chain_complex(x: SimplicialComplex, y: Subcomplex):
    """C(X)/C(Y), as `chain_complex_of(x, y)`, plus the quotient chain
    map from C(X); its transpose lifts quotient coordinates to C(X)."""
    rel = chain_complex_of(x, y)
    full = chain_complex_of(x)
    proj = {d: _matrix(x.simplices_of_dim(d), x, y, d, lambda s: {s: 1})
            for d in range(x.dimension + 1)}
    return rel, chain_map(full, rel, proj, shift=0, sign=1)


def cochain_complex(x: SimplicialComplex, a: Subcomplex | None = None) -> ChainComplexZ:
    """Integer dual of C(X)/C(A): the cochains vanishing on `a` (all
    cochains when `a` is None), on the basis of simplices outside `a`;
    degrees 0..dim, diff_degree +1.  The dual kept on `chain_complex_of(x, a)`."""
    return dual_hom_z(chain_complex_of(x, a))


relative_cochain_complex = cochain_complex


def relative_inclusion_chain_map(inner: SimplicialComplex, inner_sub: Subcomplex | None,
                                 outer: SimplicialComplex, outer_sub: Subcomplex | None) -> ChainMap:
    """C(inner)/C(inner_sub) -> C(outer)/C(outer_sub) for inclusions of
    pairs where inner simplices outside inner_sub stay outside
    outer_sub (the vertex orders must agree where they overlap)."""
    src = chain_complex_of(inner, inner_sub)
    tgt = chain_complex_of(outer, outer_sub)

    def image(s):
        if outer_sub is not None and s in outer_sub:
            raise ValidationError(
                f"simplex {s!r} collapses in the target pair but not the source pair")
        return {s: 1}

    mats = {d: _matrix(_basis(inner, inner_sub, d), outer, outer_sub, d, image)
            for d in range(inner.dimension + 1)}
    return chain_map(src, tgt, mats, shift=0, sign=1)


def inclusion_chain_map(inner: SimplicialComplex, outer: SimplicialComplex) -> ChainMap:
    """C(inner) -> C(outer) for a complex whose simplices all belong to
    `outer`: the inclusion of pairs with empty subcomplexes."""
    return relative_inclusion_chain_map(inner, None, outer, None)


# -- vector conversions -------------------------------------------------


def chain_to_vector(c: SimplicialChain, y: Subcomplex | None = None) -> list:
    """Coordinates of `c` in the basis of C(X)/C(Y): its coefficients on
    the simplices outside `y` (on all of them when `y` is None)."""
    coeffs = c.coefficients
    return [coeffs.get(s, 0) for s in _basis(c.complex, y, c.degree)]


def vector_to_chain(x: SimplicialComplex, degree: int, v,
                    y: Subcomplex | None = None) -> SimplicialChain:
    """The chain with coordinates `v`, one per basis element, in the basis
    of C(X)/C(Y), lifted to C(X) by zero on `y`: the transpose of the
    quotient projection."""
    basis = _basis(x, y, degree)
    v = la._vector(v)
    if len(v) != len(basis):
        raise ValidationError(f"vector has {len(v)} entries for {len(basis)} basis elements")
    return SimplicialChain(x, degree, dict(zip(basis, v)))


vector_to_cochain = vector_to_chain


def _lift(x: SimplicialComplex, degree: int, coords: dict,
          y: Subcomplex | None = None) -> SimplicialChain:
    """`vector_to_chain` for sparse coordinates {position: value}."""
    basis = _basis(x, y, degree)
    return SimplicialChain(x, degree, {basis[i]: c for i, c in sorted(coords.items())})


def boundary_of(c: SimplicialChain) -> SimplicialChain:
    out = {}
    for s, coeff in c.coefficients.items():
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face:
                out[face] = out.get(face, 0) + coeff
            coeff = -coeff
    return SimplicialChain(c.complex, c.degree - 1, out)


def coboundary_of(u: SimplicialCochain) -> SimplicialCochain:
    """(du)(x) = (-1)^(p+1) u(boundary x)."""
    x = u.complex
    p = u.degree
    values = u.coefficients
    sign = (-1) ** (p + 1)
    out = {}
    for s in x.simplices_of_dim(p + 1):
        acc = 0
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            acc += ((-1) ** i) * values.get(face, 0)
        if acc:
            out[s] = sign * acc
    return SimplicialCochain(x, p + 1, out)


# -- subdivision and last-vertex chain maps ----------------------------


def _sorted_with_sign(tokens, rank_of):
    """Sort a repetition-free tuple, returning (sorted tuple, parity)."""
    keyed = [(rank_of(t), t) for t in tokens]
    inversions = 0
    for i in range(len(keyed)):
        for j in range(i + 1, len(keyed)):
            if keyed[i][0] > keyed[j][0]:
                inversions += 1
    return tuple(t for _, t in sorted(keyed)), (-1) ** inversions


def _subdivided(sd: SubdivisionResult, s) -> dict:
    """The column of `s` in the subdivision chain map: {flag: sgn(pi)}
    for every order pi of the vertices of `s`."""
    rank_of = sd.parent.rank_of
    out = {}
    for order in permutations(s):
        flag = tuple(sd.barycenter_of[_sorted_with_sign(order[:k], rank_of)[0]]
                     for k in range(1, len(s) + 1))
        out[flag] = _sorted_with_sign(order, rank_of)[1]
    return out


def subdivision_chain_map(sd: SubdivisionResult, y: Subcomplex | None = None) -> ChainMap:
    """C(X)/C(Y) -> C(sd X)/C(sd Y) (C(X) -> C(sd X) when `y` is None):
    each simplex s goes to the sum, over the orders pi in which its
    vertices can be added, of sgn(pi) times the flag of barycenters
    [b(v_pi0), b(v_pi0 v_pi1), ..., b(s)].  The target pair is the
    induced subdivision kept on `sd`.  Built once per `y`, an empty `y`
    being no `y`, and kept on `sd`."""
    x = sd.parent
    sd_y = None if y is None else induced_subdivision(sd, y)

    def build():
        mats = {d: _matrix(_basis(x, y, d), sd.complex, sd_y, d, lambda s: _subdivided(sd, s))
                for d in range(x.dimension + 1)}
        return chain_map(chain_complex_of(x, y), chain_complex_of(sd.complex, sd_y),
                         mats, shift=0, sign=1)
    return sd._kept_as(("subdivision map", frozenset() if y is None else y.simplices), build)


def last_vertex_chain_map(sd: SubdivisionResult) -> ChainMap:
    """C(sd X) -> C(X) induced by the last-vertex approximation; sd
    simplices with a repeated image vertex go to zero.  Built once and
    kept on `sd`."""
    return sd._kept_as("last vertex map", lambda: _last_vertex_map(sd))


def _last_vertex_map(sd: SubdivisionResult) -> ChainMap:
    x = sd.parent
    vertex_map = last_vertex_approximation(sd)

    def image(s):
        vertices = tuple(vertex_map[v] for v in s)
        if len(set(vertices)) != len(vertices):
            return {}
        sorted_image, sign = _sorted_with_sign(vertices, x.rank_of)
        return {sorted_image: sign}

    mats = {d: _matrix(sd.complex.simplices_of_dim(d), x, None, d, image)
            for d in range(sd.complex.dimension + 1)}
    return chain_map(chain_complex_of(sd.complex), chain_complex_of(x), mats, shift=0, sign=1)


def _through(lines, c: SimplicialChain) -> dict:
    """The sparse coordinates sum over s of c(s) * lines[index of s]: a
    matrix applied to `c` through its columns, or its transpose through
    its rows, at a cost that follows the support of `c`."""
    out = {}
    for s, coeff in c.coefficients.items():
        for i, e in lines[c.complex.index_of(s)].items():
            out[i] = out.get(i, 0) + coeff * e
    return out


def apply_chain_map(f: ChainMap, chain: SimplicialChain,
                    source: SimplicialComplex, target: SimplicialComplex) -> SimplicialChain:
    """The image of `chain` under a map of the absolute chains C(source)
    -> C(target); a map of relative chains raises ValidationError, since
    its matrix does not index simplices by their place in `source`."""
    if chain.complex != source:
        raise ValidationError("chain does not live on the map's source complex")
    n, m = chain.degree, chain.degree + f.shift
    if (f.source.rank(n) != len(source.simplices_of_dim(n))
            or f.target.rank(m) != len(target.simplices_of_dim(m))):
        raise ValidationError("chain map is not on the absolute chains of source and target")
    w = _through(f.sparse_matrix(n)._col_dicts, chain)
    return _lift(target, m, w)


def cochain_pullback(sd: SubdivisionResult, u: SimplicialCochain) -> SimplicialCochain:
    """Transpose of the last-vertex chain map: transports a cochain on
    the parent to the subdivision."""
    if u.complex != sd.parent:
        raise ValidationError("cochain does not live on the parent complex")
    m = last_vertex_chain_map(sd).sparse_matrix(u.degree)
    return _lift(sd.complex, u.degree, _through(m._row_dicts, u))


# -- the evaluation pairing ---------------------------------------------


def xi_pairing(alpha: SimplicialChain, u: SimplicialCochain) -> int:
    """Sign-twisted evaluation (-1)^m * u(alpha) identifying degree-m
    chains with functionals on degree-m cochains."""
    if alpha.complex != u.complex:
        raise ValidationError("chain and cochain live on different complexes")
    if alpha.degree != u.degree:
        raise ValidationError("degree mismatch in pairing")
    return ((-1) ** alpha.degree) * u.evaluate(alpha)


def xi_functional(alpha: SimplicialChain) -> CochainFunctional:
    return alpha.scaled((-1) ** alpha.degree)
