"""Finitely generated free integer chain complexes and their homology.

A ChainComplexZ stores one sparse integer matrix per degree, the map
OUT of that degree (`d(n)` gives it dense); `diff_degree` is +1 for
cochain-style grading and -1 for chain-style grading.  Duals, shifts
and cones follow the conventions:

  * dual:   D(K)^p is the integer dual of K^{-p} (cochain grading) or
            of K_p (chain grading); the dual differential is the
            transpose scaled by (-1)^(p+1).
  * shift:  (K[1])^i = K^{i+1} with differential -d.
  * cone:   Cone(u: K -> L) in degree n is K^{n+e} + L^n (e = the
            common diff_degree) with differential (k, l) |->
            (-dk, u k + dl).

Everything is exact integer arithmetic; homology groups come with
explicit cycle representatives and coordinate maps so induced maps on
homology (including torsion) can be computed and compared.  A complex's
differentials never change and its homology is computed once per
degree, then shared by every caller.

`homology` reads the record of each elimination (`elimination`), not
five Smith factors, and certifies on every call exactly what it reads.
At degree n, with a the differential out of it, b the one into it, A
the matrix eliminated for a (a itself, or a in the kernel coordinates
of the degree it maps into) and S the residue columns of A's record:

  1. A == L W on every row (`_certify_elimination`), with L triangular
     with ±1 on its diagonal and W the pivot rows E, each with a 1 at
     its pivot and zeros at the earlier pivots, over the residue block
     B, which has its own certificate.  So the pivot columns of A are
     independent, rank A = r0 + rank B, and a vector of ker A is fixed
     by its part on S, which lies in ker B: ker A has one Z-basis K,
     V_B's columns past B's rank on S (the identity without a residue).
  2. a b == 0, checked once, when the complex is built (`ChainComplexZ`).
     So b lies in ker a, which ker A contains, and its coordinates in K
     are read off S: a row selection of b, through v_inv_B with a
     residue.  That is the matrix C eliminated next.
  3. y C is the residue row for every row y built from L
     (`_certify_left_rows`): zero without a residue, so each free
     coordinate row kills the boundaries.  E has full row rank, so y
     is a row of L^-1 P, and the coordinate rows U[keep] are those of
     the unimodular U; with u_inv's selections of the residue rows they
     invert the generators.
  4. a g == 0 for every generator g, free and torsion
     (`_certify_kernel`).  The columns of u_inv outside `keep` have
     invariant factor 1, so lie in im C: the generators and the
     boundaries span ker A, and both lie in ker a, so ker A = ker a.

So H_n = ker a / im b, which is coker C, is Z^betti plus Z/t_i for the
invariant factors t_i > 1 of C, with generators K u_inv[:, keep], read
as u_inv[:, keep] on S (through V_B) and back-substituted through E,
never forming K, and coordinates U[keep] v_inv[r:].
"""

from __future__ import annotations

from . import elimination
from . import intlinalg as la
from .elimination import eliminate
from .errors import InternalCheckError, ValidationError
from .intlinalg import smith_normal_form
from .records import Record

__all__ = [
    "ChainComplexZ",
    "ChainMap",
    "HomologyGroup",
    "HomologyClass",
    "InducedMap",
    "ConeResult",
    "chain_complex",
    "homology",
    "dual_hom_z",
    "shift",
    "cone",
    "dual_map",
    "cone_dual_iso",
    "induced_map_on_homology",
    "is_quasi_isomorphism",
    "uct_check",
]


class ChainComplexZ(Record):
    """Graded free Z-modules with differentials of degree +1 or -1, d o d = 0."""

    # ranks: degree -> rank (> 0 entries only); sparse: degree -> nonzero
    # SparseMatrix out of that degree.  Kept: the homology group at each
    # degree (keyed by the degree), the integer dual ("dual") and, until
    # degree j's group takes it, the elimination record of d_j in the
    # kernel coordinates of the degree it maps into (("snf", j))
    _fields = ("diff_degree", "ranks", "sparse")

    def __init__(self, diff_degree: int, ranks: dict, sparse: dict):
        super().__init__(diff_degree, ranks, sparse)
        for n in ranks:
            # exact, a row of the product at a time, so memory stays one row
            if not la._vanishes(self.sparse_d(n + diff_degree), self.sparse_d(n)):
                raise ValidationError(f"d o d != 0 out of degree {n}")

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def degrees(self) -> tuple:
        return tuple(sorted(self.ranks))

    def degree_span(self) -> tuple:
        if not self.ranks:
            return (0, -1)
        return (min(self.ranks), max(self.ranks))

    def sparse_d(self, n: int) -> la.SparseMatrix:
        """Differential out of degree n (a zero matrix when absent)."""
        m = self.sparse.get(n)
        if m is None:
            return la.SparseMatrix((self.rank(n + self.diff_degree), self.rank(n)))
        return m

    def d(self, n: int):
        """`sparse_d(n)` as a read-only dense matrix, built on request."""
        m = self.sparse_d(n).toarray()
        m.flags.writeable = False
        return m

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def cohomological_ranks(self) -> dict:
        """Ranks re-indexed so the differential raises degree."""
        if self.diff_degree == 1:
            return dict(self.ranks)
        return {-n: r for n, r in self.ranks.items()}


def chain_complex(diff_degree: int, ranks: dict, differentials: dict) -> ChainComplexZ:
    if diff_degree not in (1, -1):
        raise ValidationError("diff_degree must be +1 or -1")
    given, ranks = ranks, {}
    for n, r in given.items():
        n, r = la._entry(n), la._entry(r)
        if r < 0:
            raise ValidationError(f"rank {r} at degree {n} is negative")
        if r:
            ranks[n] = r
    diffs = _graded(differentials, lambda n: (ranks.get(n + diff_degree, 0), ranks.get(n, 0)),
                    "differential")
    return ChainComplexZ(diff_degree=diff_degree, ranks=ranks, sparse=diffs)


def _graded(matrices: dict, shape_at, what: str) -> dict:
    """The nonzero matrices of a graded family, each read by
    `SparseMatrix.of` at its degree n, which must have the shape
    `shape_at(n)`; `what` names the family in the refusal."""
    out = {}
    for n, m in matrices.items():
        n = la._entry(n)
        expected = shape_at(n)
        m = la.SparseMatrix.of(m, shape=expected)
        if m.shape != expected:
            raise ValidationError(f"{what} at degree {n} has shape {m.shape}, expected {expected}")
        if m.any():
            out[n] = m
    return out


class ChainMap(Record):
    """Graded map f with f d = sign * d f, degree shift in stored indices."""

    # sparse: degree n -> nonzero SparseMatrix source_n -> target_{n+shift};
    # kept: the induced map on homology at each degree asked for
    _fields = ("source", "target", "sparse", "shift", "sign")
    _defaults = {"shift": 0, "sign": 1}

    def sparse_matrix(self, n: int) -> la.SparseMatrix:
        m = self.sparse.get(n)
        if m is None:
            return la.SparseMatrix((self.target.rank(n + self.shift), self.source.rank(n)))
        return m

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply `other` first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("chain maps not composable")
        mats = {}
        for n in other.source.degrees():
            m = self.sparse_matrix(n + other.shift) @ other.sparse_matrix(n)
            if m.any():
                mats[n] = m
        return chain_map(
            other.source, self.target, mats,
            shift=self.shift + other.shift, sign=self.sign * other.sign,
        )

    def scale(self, c: int) -> "ChainMap":
        mats = {n: m.scaled(c) for n, m in self.sparse.items()}
        return ChainMap(self.source, self.target, mats, shift=self.shift, sign=self.sign)


def chain_map(source, target, matrices, shift=0, sign=1) -> ChainMap:
    if source.diff_degree != target.diff_degree:
        raise ValidationError("source and target have different differential degrees")
    shift, sign = la._entry(shift), la._entry(sign)
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    mats = _graded(matrices, lambda n: (target.rank(n + shift), source.rank(n)),
                   "chain map matrix")
    f = ChainMap(source=source, target=target, sparse=mats, shift=shift, sign=sign)
    eps = source.diff_degree
    for n in set(source.ranks) | {k - eps for k in source.ranks}:
        lhs = f.sparse_matrix(n + eps) @ source.sparse_d(n)
        rhs = (target.sparse_d(n + shift) @ f.sparse_matrix(n)).scaled(sign)
        if lhs != rhs:
            raise ValidationError(f"map does not commute with differentials at degree {n}")
    return f


def identity_map(k: ChainComplexZ) -> ChainMap:
    return ChainMap(k, k, {n: la.sparse_identity(r) for n, r in k.ranks.items()})


# -- homology ---------------------------------------------------------


class HomologyGroup(Record):
    """Z^betti + sum Z/t_i with explicit cycle representatives.

    Coordinates (and `cycle_basis`) list the free generators first and
    the torsion generators after, torsion orders increasing along the
    divisibility chain.  The generators are kept sparse, as the rows of
    `_gens`; `cycle_basis` is their tuple of tuples of Python ints,
    built on first request and kept.  A group built from a `cycle_basis`
    reads each row once, as integers, into `_gens`, and has no
    coordinate map; only the zero group may be built without generators.
    """

    _fields = ("degree", "betti", "torsion")

    def __init__(self, degree: int, betti: int, torsion: tuple, cycle_basis: tuple = None,
                 _gens: la.SparseMatrix = None, _cycle_test: la.SparseMatrix = None,
                 _coords: la.SparseMatrix = None):
        # _gens, rows: the generators in chain coordinates, dim x rank of
        # the degree; _coords, rows: the canonical coordinates of a cycle,
        # dim x rank of the degree
        if cycle_basis is not None:
            # each row read once, as Python ints: the caller's rows are not kept
            _gens = la.SparseMatrix.of(cycle_basis)
        vars(self).update(degree=degree, betti=betti, torsion=torsion, _gens=_gens,
                          _cycle_test=_cycle_test, _coords=_coords)
        if _gens is None and self.dim:
            raise ValidationError(f"a group of rank {self.dim} needs a cycle basis")

    @property
    def cycle_basis(self) -> tuple:
        return self._kept_as("cycle basis", self._int_basis)

    def _int_basis(self) -> tuple:
        if self._gens is None:
            return ()
        width, out = self._gens.shape[1], []
        for row in self._gens._row_dicts:
            dense = [0] * width
            for j, e in row.items():
                dense[j] = e
            out.append(tuple(dense))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, HomologyGroup):
            return NotImplemented
        if (self.degree, self.betti, self.torsion) != (other.degree, other.betti, other.torsion):
            return False
        gens = [g for g in (self._gens, other._gens) if g is not None and g.shape[0]]
        return not gens or len(gens) == 2 and gens[0] == gens[1]

    @property
    def dim(self) -> int:
        return self.betti + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.dim == 0

    def same_type(self, other: "HomologyGroup") -> bool:
        return self.betti == other.betti and self.torsion == other.torsion

    def group_str(self) -> str:
        return _group_str(self.betti, self.torsion)

    def coords_of(self, cycle) -> tuple:
        """Canonical coordinates of a cycle's homology class; `cycle` is a
        vector of integers (a `cycle_basis` tuple, a list, or a 1-d array
        read through its `tolist()`)."""
        if self._coords is None:
            raise ValidationError("a group built from a cycle basis has no coordinate map")
        z = la._vector(cycle)
        if self._cycle_test.shape[1] != len(z):
            raise ValidationError("cycle has the wrong length")
        if any(self._cycle_test.apply(z)):
            raise ValidationError("vector is not a cycle")
        return self.reduce_coords(self._coords.apply(z))

    def class_of(self, cycle) -> "HomologyClass":
        return HomologyClass(group=self, coords=self.coords_of(cycle))

    def _relations(self) -> la.SparseMatrix:
        """Relations among the canonical coordinates (torsion orders), as
        columns."""
        return la.SparseMatrix((self.dim, len(self.torsion)), _cols=tuple(
            {self.betti + j: t} for j, t in enumerate(self.torsion)))

    def reduce_coords(self, coords) -> tuple:
        out = [int(c) for c in coords]
        for j, t in enumerate(self.torsion):
            out[self.betti + j] %= t
        return tuple(out)


def _group_str(betti: int, torsion: tuple) -> str:
    """Z^betti + Z/t_1 + ..., or 0."""
    parts = [f"Z^{betti}"] if betti else []
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


class HomologyClass(Record):
    _fields = ("group", "coords")

    def __init__(self, group: HomologyGroup, coords: tuple):
        fields = vars(self)
        fields["group"], fields["coords"] = group, coords

    def __eq__(self, other):
        if not isinstance(other, HomologyClass):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def format(self, label: str = "") -> str:
        terms = [f"{c}*g{i}" for i, c in enumerate(self.coords) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"{body} in {label} = {self.group.group_str()}" if label else body


def homology(k: ChainComplexZ, degree: int) -> HomologyGroup:
    """Isomorphism type + representatives at one degree, computed on the
    first call for `k` and `degree`, then shared.

    Each d_j is eliminated once, in the kernel coordinates of the degree
    j + e it maps into (e = `diff_degree`): its record F_j is that of
    v_inv[r:] d_j, with v_inv and r from F_{j+e}, or of d_j itself where
    the differential out of j + e is zero; either way it has the kernel
    and rank of d_j.  Degree n reads its cycles from F_n (E and
    v_inv[r:]) and its generators and coordinates from F_{n-e} (rows
    of U and columns of u_inv past the rank, and the invariant
    factors), so the basis depends on the complex alone.  The walk goes
    toward the degree each differential maps into, to a zero
    differential or to the F_j that the group above left on `k` as
    ("snf", j), and builds every group on its way back."""
    degree, kept = la._entry(degree), k._derived
    if degree in kept:
        return kept[degree]
    eps = k.diff_degree
    path = [degree]
    while path[-1] in k.sparse and ("snf", path[-1]) not in kept:
        path.append(path[-1] + eps)
    rec_a = kept.pop(("snf", path[-1]), None)
    for j in reversed(path):
        a = k.sparse_d(j)  # out of the degree
        b = k.sparse_d(j - eps)  # into the degree
        if rec_a is None:  # a is zero: the kernel coordinates are the chain ones
            rec_a = eliminate(a)
            elimination._certify_elimination(rec_a, a)
        else:
            b = rec_a.kernel_coordinates(b)
        rec_c = eliminate(b)
        elimination._certify_elimination(rec_c, b)
        left_rows = rec_c.left_rows()
        elimination._certify_left_rows(rec_c, left_rows, b)
        r_a, r_c, n = rec_a.rank, rec_c.rank, k.rank(j)
        factors = rec_c.invariant_factors()
        free_idx = list(range(r_c, n - r_a))
        tors_idx = [i for i in range(r_c) if factors[i] > 1]
        keep = free_idx + tors_idx
        gens = rec_a.kernel(rec_c.u_inv_columns(keep))  # columns: K u_inv[:, keep]
        elimination._certify_kernel(a, gens)
        coords = rec_a.kernel_coordinate_rows()
        kept[j] = HomologyGroup(
            degree=j,
            betti=len(free_idx),
            torsion=tuple(factors[i] for i in tors_idx),
            _gens=la.SparseMatrix((len(keep), n), la._transposed(gens._row_dicts, len(keep))),
            _cycle_test=a,
            _coords=la.SparseMatrix((len(keep), n), tuple(
                la._times(row, coords) for row in rec_c.u_rows(keep, left_rows))),
        )
        rec_a = rec_c
    if degree - eps in k.sparse:
        kept[("snf", degree - eps)] = rec_a
    return kept[degree]


def _sign(n: int) -> int:
    """(-1)^n as an int; `(-1) ** n` is a float for negative n."""
    return -1 if n % 2 else 1


# -- duals, shifts, cones ---------------------------------------------


def _dual_degree(eps: int, n: int) -> int:
    """The degree of the integer dual that dualizes degree n of a complex
    with diff_degree `eps` (-n under cochain grading, n under chain
    grading), and back: the rule is its own inverse."""
    return -n if eps == 1 else n


def dual_hom_z(k: ChainComplexZ) -> ChainComplexZ:
    """Integer dual with differential (-1)^(p+1) * transpose.

    Output degree p dualizes K^{-p} (cochain grading) respectively K_p
    (chain grading); the result always has diff_degree +1.  Built on
    first use and kept on `k`.
    """
    return k._kept_as("dual", lambda: _dual(k))


def _dual(k: ChainComplexZ) -> ChainComplexZ:
    eps = k.diff_degree
    ranks = {_dual_degree(eps, n): r for n, r in k.ranks.items()}
    diffs = {p: k.sparse_d(_dual_degree(eps, p + 1)).T.scaled(_sign(p + 1)) for p in ranks}
    return chain_complex(1, ranks, diffs)


def dual_map(f: ChainMap) -> ChainMap:
    """Functorial dual Hom(f, Z): runs from dual(target) to dual(source)."""
    if f.shift != 0 or f.sign != 1:
        raise ValidationError("dual_map expects a plain degree-0 chain map")
    eps = f.source.diff_degree
    src_d = dual_hom_z(f.target)
    tgt_d = dual_hom_z(f.source)
    mats = {_dual_degree(eps, n): m.T for n, m in f.sparse.items()}
    return chain_map(src_d, tgt_d, mats, shift=0, sign=1)


def shift(k: ChainComplexZ, n: int) -> ChainComplexZ:
    """(K[n])^i = K^{i+n} with differential scaled by (-1)^n; stated in
    cohomological indices and translated for chain grading."""
    eps = k.diff_degree
    step = n * eps
    ranks = {i - step: r for i, r in k.ranks.items()}
    sgn = _sign(n)
    diffs = {i - step: m.scaled(sgn) for i, m in k.sparse.items()}
    return chain_complex(eps, ranks, diffs)


class ConeResult(Record):
    # include_target: L -> Cone, degree 0; project_source: Cone -> K,
    # shifts by the diff degree, sign -1
    _fields = ("complex", "include_target", "project_source")


def cone(u: ChainMap) -> ConeResult:
    """Mapping cone of a degree-0 chain map, with its canonical maps.

    Degree n of the cone is K_{n+e} + L_n (K-block first); the
    differential sends (k, l) to (-dk, u k + dl).
    """
    if u.shift != 0 or u.sign != 1:
        raise ValidationError("cone expects a degree-0 chain map commuting on the nose")
    k, l = u.source, u.target
    eps = k.diff_degree
    ranks = {}
    degrees = set()
    for n in k.ranks:
        degrees.add(n - eps)
    degrees.update(l.ranks)
    for n in degrees:
        r = k.rank(n + eps) + l.rank(n)
        if r:
            ranks[n] = r
    diffs = {}
    for n in ranks:
        off = k.rank(n + eps)  # the K-block's columns come first
        bottom = tuple({**f, **{off + j: e for j, e in d.items()}} for f, d in
                       zip(u.sparse_matrix(n + eps).rows, l.sparse_d(n).rows))
        top = k.sparse_d(n + eps).scaled(-1).rows
        diffs[n] = la.SparseMatrix((len(top) + len(bottom), ranks[n]), top + bottom)
    c = chain_complex(eps, ranks, diffs)
    # L_n comes after the K-block of degree n; the projection keeps that block
    incl = {n: la.SparseMatrix((c.rank(n), r), _cols=tuple(
                {k.rank(n + eps) + i: 1} for i in range(r))) for n, r in l.ranks.items()}
    proj = {n: la.SparseMatrix((k.rank(n + eps), r), la.sparse_identity(k.rank(n + eps)).rows)
            for n, r in c.ranks.items()}
    return ConeResult(
        complex=c,
        include_target=chain_map(l, c, incl, shift=0, sign=1),
        project_source=chain_map(c, k, proj, shift=eps, sign=-1),
    )


def cone_dual_iso(u: ChainMap) -> ChainMap:
    """The isomorphism D(Cone(u)[-1]) -> Cone(-u') of complexes.

    Composite of the two component isomorphisms: in degree n it sends a
    pair (g, h), with g a functional on the K-block and h on the
    L-block, to ((-1)^(n+1) h, g).
    """
    k, l = u.source, u.target
    eps = k.diff_degree
    lhs = dual_hom_z(shift(cone(u).complex, -1))
    minus_dual = dual_map(u).scale(-1)
    rhs = cone(minus_dual).complex
    dk = dual_hom_z(k)
    dl = dual_hom_z(l)
    mats = {}
    for n in lhs.ranks:
        g_rank = dk.rank(n)
        h_rank = dl.rank(n + 1)
        if g_rank + h_rank != lhs.rank(n) or rhs.rank(n) != h_rank + g_rank:
            raise InternalCheckError("cone dual blocks do not line up")
        s = _sign(n + 1)
        rows = tuple({g_rank + i: s} for i in range(h_rank)) + tuple({i: 1} for i in range(g_rank))
        mats[n] = la.SparseMatrix((h_rank + g_rank, g_rank + h_rank), rows)
    return chain_map(lhs, rhs, mats, shift=0, sign=1)


# -- induced maps and reports -----------------------------------------


class InducedMap(Record):
    # sparse: canonical target coords x canonical source coords
    _fields = ("source_group", "target_group", "sparse")
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def _snf(self) -> la.SmithDecomposition:
        """The Smith decomposition of the matrix with the target's torsion
        relations as extra columns, built on first use and kept."""
        return self._kept_as("snf", lambda: smith_normal_form(
            la._hstack(self.sparse, self.target_group._relations())))

    def apply(self, cls: HomologyClass) -> HomologyClass:
        if cls.group != self.source_group:
            raise ValidationError("class does not live in the source group")
        vec = self.sparse.apply(cls.coords)
        return HomologyClass(self.target_group, self.target_group.reduce_coords(vec))

    def is_isomorphism(self) -> bool:
        # onto when the augmented matrix has one unit invariant factor per
        # target coordinate; for finitely generated abelian groups of
        # equal type, a surjection is automatically injective
        return self.source_group.same_type(self.target_group) and (
            self._snf.invariant_factors() == (1,) * self.target_group.dim)

    def solve(self, target_class: HomologyClass):
        """A preimage class, or None when the class is not in the image."""
        t = self.target_group
        if target_class.group != t:
            raise ValidationError("class does not live in the target group")
        rhs = la.SparseMatrix.of([[c] for c in target_class.coords], (t.dim, 1))
        sol = la.solve_integer(self._snf, rhs)
        if sol is None:
            return None
        coords = (row.get(0, 0) for row in sol._row_dicts[: self.source_group.dim])
        return HomologyClass(self.source_group, self.source_group.reduce_coords(coords))


def induced_map_on_homology(f: ChainMap, degree: int) -> InducedMap:
    """The map f induces on homology at `degree`, built on the first call
    for a degree and kept on `f`."""
    degree = la._entry(degree)
    return f._kept_as(degree, lambda: _induced(f, degree))


def _induced(f: ChainMap, degree: int) -> InducedMap:
    hs = homology(f.source, degree)
    ht = homology(f.target, degree + f.shift)
    m = f.sparse_matrix(degree)
    rank = hs._gens.shape[1]
    cols = (ht.coords_of(m.apply([g.get(j, 0) for j in range(rank)])) for g in hs._gens._row_dicts)
    mat = la.SparseMatrix((ht.dim, hs.dim), _cols=tuple(
        {i: v for i, v in enumerate(c) if v} for c in cols))
    return InducedMap(source_group=hs, target_group=ht, sparse=mat)


def _around(degrees) -> list:
    """Every degree within one of the given ones, in increasing order:
    the degrees a check probes around where complexes live, since each
    differential moves degree by one."""
    return sorted({n + e for n in degrees for e in (-1, 0, 1)})


def is_quasi_isomorphism(f: ChainMap) -> tuple[bool, list]:
    """Whether f induces isomorphisms in every degree; with a report of
    (degree, source type, target type, iso?) rows."""
    report = []
    ok = True
    for n in _around(set(f.source.ranks) | {m - f.shift for m in f.target.ranks}):
        ind = induced_map_on_homology(f, n)
        if ind.source_group.is_trivial() and ind.target_group.is_trivial():
            continue
        iso = ind.is_isomorphism()
        ok = ok and iso
        report.append((n, ind.source_group.group_str(), ind.target_group.group_str(), iso))
    return ok, report


class UctReport(Record):
    _fields = ("rows", "passed")  # rows: (dual degree, computed type, predicted type, ok)


def uct_check(k: ChainComplexZ) -> UctReport:
    """Isomorphism-type comparison of H^p of the integer dual against
    Ext of the homology one step below plus Hom of the homology at the
    matching degree."""
    d = dual_hom_z(k)
    eps = k.diff_degree
    rows = []
    passed = True
    for p in _around(d.ranks):
        got = homology(d, p)
        hom_side = homology(k, _dual_degree(eps, p))
        ext_side = homology(k, _dual_degree(eps, p - 1))
        predicted_betti = hom_side.betti
        predicted_torsion = ext_side.torsion
        ok = got.betti == predicted_betti and got.torsion == predicted_torsion
        passed = passed and ok
        if got.dim or predicted_betti or predicted_torsion:
            rows.append((p, got.group_str(), _group_str(predicted_betti, predicted_torsion), ok))
    return UctReport(rows=tuple(rows), passed=passed)
