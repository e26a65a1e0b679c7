"""Finitely generated free integer chain complexes and their homology.

A ChainComplexZ stores one integer matrix per degree, the map OUT of
that degree; `diff_degree` is +1 for cochain-style grading and -1 for
chain-style grading.  Duals, shifts and cones follow the conventions:

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
differentials are read-only and its homology is computed once per
degree, then shared by every caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import intlinalg as la
from .errors import InternalCheckError, ValidationError
from .intlinalg import smith_normal_form

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


@dataclass(frozen=True, eq=False)
class ChainComplexZ:
    """Graded free Z-modules with differentials of degree +1 or -1."""

    diff_degree: int
    ranks: dict  # degree -> rank (> 0 entries only)
    differentials: dict  # degree -> matrix out of that degree
    _homology: dict = field(default_factory=dict, repr=False, compare=False)  # degree -> group

    def __eq__(self, other):
        if not isinstance(other, ChainComplexZ):
            return NotImplemented
        if self.diff_degree != other.diff_degree or self.ranks != other.ranks:
            return False
        degs = set(self.differentials) | set(other.differentials)
        return all(np.array_equal(self.d(n), other.d(n)) for n in degs)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def degrees(self) -> tuple:
        return tuple(sorted(self.ranks))

    def degree_span(self) -> tuple:
        if not self.ranks:
            return (0, -1)
        return (min(self.ranks), max(self.ranks))

    def d(self, n: int) -> np.ndarray:
        """Differential out of degree n (a zero matrix when absent)."""
        m = self.differentials.get(n)
        if m is None:
            return la.zeros(self.rank(n + self.diff_degree), self.rank(n))
        return m

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def cohomological_ranks(self) -> dict:
        """Ranks re-indexed so the differential raises degree."""
        if self.diff_degree == 1:
            return dict(self.ranks)
        return {-n: r for n, r in self.ranks.items()}


def chain_complex(diff_degree: int, ranks: dict, differentials: dict, check: bool = True) -> ChainComplexZ:
    if diff_degree not in (1, -1):
        raise ValidationError("diff_degree must be +1 or -1")
    ranks = {int(n): int(r) for n, r in ranks.items() if r}
    diffs = {}
    for n, m in differentials.items():
        m = la.as_matrix(m, shape=(ranks.get(n + diff_degree, 0), ranks.get(n, 0)))
        expected = (ranks.get(n + diff_degree, 0), ranks.get(n, 0))
        if m.shape != expected:
            raise ValidationError(
                f"differential at degree {n} has shape {m.shape}, expected {expected}"
            )
        if m.any():
            # a read-only view: the homology kept on the complex cannot go
            # stale through an in-place edit, and the caller's array stays writeable
            m = m.view()
            m.flags.writeable = False
            diffs[int(n)] = m
    k = ChainComplexZ(diff_degree=diff_degree, ranks=ranks, differentials=diffs)
    if check:
        for n in ranks:
            prod = la.matmul(k.d(n + diff_degree), k.d(n))
            if prod.any():
                raise ValidationError(f"d o d != 0 out of degree {n}")
    return k


@dataclass(frozen=True, eq=False)
class ChainMap:
    """Graded map f with f d = sign * d f, degree shift in stored indices."""

    source: ChainComplexZ
    target: ChainComplexZ
    matrices: dict  # degree n -> matrix source_n -> target_{n+shift}
    shift: int = 0
    sign: int = 1

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if (self.shift, self.sign) != (other.shift, other.sign):
            return False
        if self.source != other.source or self.target != other.target:
            return False
        degs = set(self.matrices) | set(other.matrices)
        return all(np.array_equal(self.matrix(n), other.matrix(n)) for n in degs)

    def matrix(self, n: int) -> np.ndarray:
        m = self.matrices.get(n)
        if m is None:
            return la.zeros(self.target.rank(n + self.shift), self.source.rank(n))
        return m

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (apply `other` first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("chain maps not composable")
        mats = {}
        for n in other.source.degrees():
            m = la.matmul(self.matrix(n + other.shift), other.matrix(n))
            if m.any():
                mats[n] = m
        return chain_map(
            other.source, self.target, mats,
            shift=self.shift + other.shift, sign=self.sign * other.sign,
        )

    def scale(self, c: int) -> "ChainMap":
        mats = {n: c * m for n, m in self.matrices.items()}
        return ChainMap(self.source, self.target, mats, shift=self.shift, sign=self.sign)


def chain_map(source, target, matrices, shift=0, sign=1, check=True) -> ChainMap:
    if source.diff_degree != target.diff_degree:
        raise ValidationError("source and target have different differential degrees")
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    mats = {}
    for n, m in matrices.items():
        m = la.as_matrix(m, shape=(target.rank(n + shift), source.rank(n)))
        expected = (target.rank(n + shift), source.rank(n))
        if m.shape != expected:
            raise ValidationError(
                f"chain map matrix at degree {n} has shape {m.shape}, expected {expected}"
            )
        if m.any():
            mats[int(n)] = m
    f = ChainMap(source=source, target=target, matrices=mats, shift=shift, sign=sign)
    if check:
        eps = source.diff_degree
        for n in set(source.ranks) | {k - eps for k in source.ranks}:
            lhs = la.matmul(f.matrix(n + eps), source.d(n))
            rhs = sign * la.matmul(target.d(n + shift), f.matrix(n))
            if not np.array_equal(lhs, rhs):
                raise ValidationError(f"map does not commute with differentials at degree {n}")
    return f


def identity_map(k: ChainComplexZ) -> ChainMap:
    return ChainMap(k, k, {n: la.identity(r) for n, r in k.ranks.items()})


# -- homology ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HomologyGroup:
    """Z^betti + sum Z/t_i with explicit cycle representatives.

    Coordinates (and `cycle_basis`) list the free generators first and
    the torsion generators after, torsion orders increasing along the
    divisibility chain.
    """

    degree: int
    betti: int
    torsion: tuple
    cycle_basis: tuple  # column vectors in chain coordinates
    _cycle_test: np.ndarray = field(repr=False, compare=False, default=None)
    _to_kernel: np.ndarray = field(repr=False, compare=False, default=None)
    _uc: np.ndarray = field(repr=False, compare=False, default=None)
    _factors: tuple = field(repr=False, compare=False, default=())
    # columns: a basis of the cycles, V[:, r:] of the first Smith decomposition
    _kernel: np.ndarray = field(repr=False, compare=False, default=None)

    def __eq__(self, other):
        if not isinstance(other, HomologyGroup):
            return NotImplemented
        if (self.degree, self.betti, self.torsion) != (other.degree, other.betti, other.torsion):
            return False
        if len(self.cycle_basis) != len(other.cycle_basis):
            return False
        return all(
            np.array_equal(a, b) for a, b in zip(self.cycle_basis, other.cycle_basis)
        )

    @property
    def dim(self) -> int:
        return self.betti + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.dim == 0

    def same_type(self, other: "HomologyGroup") -> bool:
        return self.betti == other.betti and self.torsion == other.torsion

    def group_str(self) -> str:
        parts = []
        if self.betti:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def coords_of(self, cycle) -> tuple:
        """Canonical coordinates of a cycle's homology class."""
        z = np.asarray(cycle, dtype=object).reshape(-1)
        if self._cycle_test.shape[1] != z.shape[0]:
            raise ValidationError("cycle has the wrong length")
        if la.matmul(self._cycle_test, z.reshape(-1, 1)).any():
            raise ValidationError("vector is not a cycle")
        ck = la.matmul(self._to_kernel, z.reshape(-1, 1))
        y = la.matmul(self._uc, ck)[:, 0]
        r = len(self._factors)
        free = tuple(int(v) for v in y[r:])
        tors = tuple(
            int(y[i]) % d for i, d in enumerate(self._factors) if d > 1
        )
        return free + tors

    def class_of(self, cycle) -> "HomologyClass":
        return HomologyClass(group=self, coords=self.coords_of(cycle))

    def relation_matrix(self) -> np.ndarray:
        """Relations among the canonical coordinates (torsion orders)."""
        n = self.dim
        rel = la.zeros(n, len(self.torsion))
        for j, t in enumerate(self.torsion):
            rel[self.betti + j, j] = t
        return rel

    def reduce_coords(self, coords) -> tuple:
        out = [int(c) for c in coords]
        for j, t in enumerate(self.torsion):
            out[self.betti + j] %= t
        return tuple(out)


@dataclass(frozen=True, eq=False)
class HomologyClass:
    group: HomologyGroup
    coords: tuple

    def __eq__(self, other):
        if not isinstance(other, HomologyClass):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        if other.group is not self.group and other.group != self.group:
            raise ValidationError("classes in different groups")
        return HomologyClass(
            self.group,
            self.group.reduce_coords(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self):
        return HomologyClass(self.group, self.group.reduce_coords(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def format(self, label: str = "") -> str:
        terms = [f"{c}*g{i}" for i, c in enumerate(self.coords) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"{body} in {label} = {self.group.group_str()}" if label else body


def homology(k: ChainComplexZ, degree: int) -> HomologyGroup:
    """Isomorphism type + representatives at one degree, via two Smith
    decompositions (cycles, then boundaries in kernel coordinates);
    computed on the first call for `k` and `degree`, then shared."""
    if degree in k._homology:
        return k._homology[degree]
    eps = k.diff_degree
    n = k.rank(degree)
    a = k.d(degree)  # out of the degree
    b = k.d(degree - eps)  # into the degree
    snf_a = smith_normal_form(a)
    r_a = snf_a.rank
    kernel_cols = snf_a.V[:, r_a:].copy()  # a copy: the group need not keep all of V
    kernel_cols.flags.writeable = False
    to_kernel = snf_a.v_inv[r_a:, :]
    kdim = n - r_a
    coords_b = la.matmul(snf_a.v_inv, b)
    if coords_b[:r_a, :].any():
        raise InternalCheckError("boundaries are not cycles; d o d != 0")
    c = coords_b[r_a:, :]
    snf_c = smith_normal_form(c)
    r_c = snf_c.rank
    factors = tuple(int(snf_c.D[i, i]) for i in range(r_c))
    gens = la.matmul(kernel_cols, snf_c.u_inv)
    free_idx = list(range(r_c, kdim))
    tors_idx = [i for i in range(r_c) if factors[i] > 1]
    basis = tuple(gens[:, i].copy() for i in free_idx + tors_idx)
    for rep in basis:
        # every caller shares this group: no in-place edit may change it
        rep.flags.writeable = False
    k._homology[degree] = HomologyGroup(
        degree=degree,
        betti=len(free_idx),
        torsion=tuple(factors[i] for i in tors_idx),
        cycle_basis=basis,
        _cycle_test=a,
        _to_kernel=to_kernel,
        _uc=snf_c.U,
        _factors=factors,
        _kernel=kernel_cols,
    )
    return k._homology[degree]


def _sign(n: int) -> int:
    """(-1)^n as an int; `(-1) ** n` is a float for negative n."""
    return -1 if n % 2 else 1


# -- duals, shifts, cones ---------------------------------------------


def dual_hom_z(k: ChainComplexZ) -> ChainComplexZ:
    """Integer dual with differential (-1)^(p+1) * transpose.

    Output degree p dualizes K^{-p} (cochain grading) respectively K_p
    (chain grading); the result always has diff_degree +1.
    """
    eps = k.diff_degree
    dual_degree_of = (lambda n: -n) if eps == 1 else (lambda n: n)
    ranks = {dual_degree_of(n): r for n, r in k.ranks.items()}
    diffs = {}
    for p in list(ranks):
        s = -(p + 1) if eps == 1 else p + 1
        m = k.d(s)
        if m.any():
            diffs[p] = _sign(p + 1) * m.T
    return chain_complex(1, ranks, diffs, check=False)


def dual_map(f: ChainMap) -> ChainMap:
    """Functorial dual Hom(f, Z): runs from dual(target) to dual(source)."""
    if f.shift != 0 or f.sign != 1:
        raise ValidationError("dual_map expects a plain degree-0 chain map")
    eps = f.source.diff_degree
    src_d = dual_hom_z(f.target)
    tgt_d = dual_hom_z(f.source)
    dual_degree_of = (lambda n: -n) if eps == 1 else (lambda n: n)
    mats = {}
    for n in f.source.degrees():
        m = f.matrix(n)
        if m.any():
            mats[dual_degree_of(n)] = m.T.copy()
    return chain_map(src_d, tgt_d, mats, shift=0, sign=1)


def shift(k: ChainComplexZ, n: int) -> ChainComplexZ:
    """(K[n])^i = K^{i+n} with differential scaled by (-1)^n; stated in
    cohomological indices and translated for chain grading."""
    eps = k.diff_degree
    step = n * eps
    ranks = {i - step: r for i, r in k.ranks.items()}
    sgn = _sign(n)
    diffs = {i - step: sgn * m for i, m in k.differentials.items()}
    return chain_complex(eps, ranks, diffs, check=False)


@dataclass(frozen=True)
class ConeResult:
    complex: ChainComplexZ
    include_target: ChainMap  # L -> Cone, degree 0
    project_source: ChainMap  # Cone -> K, shifts by the diff degree, sign -1


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
        rk_top = k.rank(n + 2 * eps)
        rl_top = l.rank(n + eps)
        top = np.concatenate(
            [-k.d(n + eps), la.zeros(rk_top, l.rank(n))], axis=1
        )
        bottom = np.concatenate([u.matrix(n + eps), l.d(n)], axis=1)
        m = np.concatenate([top, bottom], axis=0)
        if m.any():
            diffs[n] = m
    c = chain_complex(eps, ranks, diffs)
    incl = {}
    for n, r in l.ranks.items():
        m = la.zeros(c.rank(n), r)
        off = k.rank(n + eps)
        for i in range(r):
            m[off + i, i] = 1
        incl[n] = m
    proj = {}
    for n in c.ranks:
        rk = k.rank(n + eps)
        if rk:
            m = la.zeros(rk, c.rank(n))
            for i in range(rk):
                m[i, i] = 1
            proj[n] = m
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
        m = la.zeros(h_rank + g_rank, g_rank + h_rank)
        s = _sign(n + 1)
        for i in range(h_rank):
            m[i, g_rank + i] = s
        for i in range(g_rank):
            m[h_rank + i, i] = 1
        mats[n] = m
    return chain_map(lhs, rhs, mats, shift=0, sign=1)


# -- induced maps and reports -----------------------------------------


@dataclass(frozen=True, eq=False)
class InducedMap:
    source_group: HomologyGroup
    target_group: HomologyGroup
    matrix: np.ndarray  # canonical target coords x canonical source coords

    def apply(self, cls: HomologyClass) -> HomologyClass:
        if cls.group != self.source_group:
            raise ValidationError("class does not live in the source group")
        vec = la.matmul(self.matrix, np.array(cls.coords, dtype=object).reshape(-1, 1))
        return HomologyClass(self.target_group, self.target_group.reduce_coords(vec[:, 0]))

    def is_surjective(self) -> bool:
        t = self.target_group
        aug = np.concatenate([self.matrix, t.relation_matrix()], axis=1)
        snf = smith_normal_form(aug)
        return snf.rank == t.dim and all(f == 1 for f in snf.invariant_factors())

    def is_isomorphism(self) -> bool:
        # for finitely generated abelian groups of equal type, a
        # surjection is automatically injective
        return self.source_group.same_type(self.target_group) and self.is_surjective()

    def solve(self, target_class: HomologyClass):
        """A preimage class, or None when the class is not in the image."""
        t = self.target_group
        if target_class.group != t:
            raise ValidationError("class does not live in the target group")
        aug = np.concatenate([self.matrix, t.relation_matrix()], axis=1)
        rhs = np.array(target_class.coords, dtype=object)
        sol = la.solve_integer(aug, rhs)
        if sol is None:
            return None
        coords = sol[: self.source_group.dim]
        return HomologyClass(self.source_group, self.source_group.reduce_coords(coords))


def induced_map_on_homology(f: ChainMap, degree: int,
                            source_group: HomologyGroup | None = None,
                            target_group: HomologyGroup | None = None) -> InducedMap:
    hs = source_group or homology(f.source, degree)
    ht = target_group or homology(f.target, degree + f.shift)
    if hs.degree != degree or ht.degree != degree + f.shift:
        raise ValidationError("precomputed groups are at the wrong degrees")
    m = f.matrix(degree)
    cols = []
    for g in hs.cycle_basis:
        img = la.matmul(m, g.reshape(-1, 1))[:, 0]
        cols.append(ht.coords_of(img))
    mat = la.zeros(ht.dim, hs.dim)
    for j, c in enumerate(cols):
        for i, v in enumerate(c):
            mat[i, j] = v
    return InducedMap(source_group=hs, target_group=ht, matrix=mat)


def is_quasi_isomorphism(f: ChainMap) -> tuple[bool, list]:
    """Whether f induces isomorphisms in every degree; with a report of
    (degree, source type, target type, iso?) rows."""
    degs = set(f.source.ranks) | {n - f.shift for n in f.target.ranks}
    extra = set()
    for n in degs:
        extra.add(n + f.source.diff_degree)
        extra.add(n - f.source.diff_degree)
    report = []
    ok = True
    for n in sorted(degs | extra):
        ind = induced_map_on_homology(f, n)
        if ind.source_group.is_trivial() and ind.target_group.is_trivial():
            continue
        iso = ind.is_isomorphism()
        ok = ok and iso
        report.append((n, ind.source_group.group_str(), ind.target_group.group_str(), iso))
    return ok, report


@dataclass(frozen=True)
class UctReport:
    rows: tuple  # (dual degree, computed type, predicted type, ok)
    passed: bool


def uct_check(k: ChainComplexZ) -> UctReport:
    """Isomorphism-type comparison of H^p of the integer dual against
    Ext of the homology one step below plus Hom of the homology at the
    matching degree."""
    d = dual_hom_z(k)
    eps = k.diff_degree
    degree_back = (lambda p: -p) if eps == 1 else (lambda p: p)
    probe = set(d.ranks)
    for p in list(probe):
        probe.add(p + 1)
        probe.add(p - 1)
    rows = []
    passed = True
    for p in sorted(probe):
        got = homology(d, p)
        hom_side = homology(k, degree_back(p))
        ext_side = homology(k, degree_back(p - 1) if eps == 1 else p - 1)
        predicted_betti = hom_side.betti
        predicted_torsion = ext_side.torsion
        ok = got.betti == predicted_betti and got.torsion == predicted_torsion
        passed = passed and ok
        if got.dim or predicted_betti or predicted_torsion:
            pred_str = HomologyGroup(
                degree=p, betti=predicted_betti, torsion=predicted_torsion, cycle_basis=()
            ).group_str()
            rows.append((p, got.group_str(), pred_str, ok))
    return UctReport(rows=tuple(rows), passed=passed)
