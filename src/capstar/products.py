"""Cup and cap products, and the supported cap through closed stars.

Conventions: (u cup v)(sigma) = u(front) * v(back) where the front face
keeps the first p+1 vertices; sigma cap u = u(front) * back, so the
cochain always eats the front face.  The dual-side cap twists the
pullback along "cup with u on the right" by (-1)^(|f|*|u|); see the
notes on `dual_cap`.
"""

from __future__ import annotations

from . import intlinalg as la
from .bridge import (
    CochainFunctional,
    SimplicialChain,
    SimplicialCochain,
    _coordinates,
    apply_chain_map,
    boundary_of,
    coboundary_of,
    cochain_pullback,
    inclusion_chain_map,
    relative_inclusion_chain_map,
    subdivision_chain_map,
)
from .chains import induced_map_on_homology
from .complexes import (
    SimplicialComplex,
    Subcomplex,
    barycentric_subdivide,
    closed_star,
    induced_subdivision,
    subcomplex_intersection,
)
from .errors import InternalCheckError, RetractConditionError, ValidationError
from .records import Record

__all__ = [
    "cup",
    "cap",
    "dual_cap",
    "RelativeSupportedCapResult",
    "supported_cap",
    "relative_supported_cap",
    "inclusion_chain_map",
    "relative_inclusion_chain_map",
]


def cup(u: SimplicialCochain, v: SimplicialCochain) -> SimplicialCochain:
    """(u cup v)(sigma) = u(first p+1 vertices) * v(last q+1 vertices)."""
    if u.complex != v.complex:
        raise ValidationError("cochains live on different complexes")
    x = u.complex
    p, q = u.degree, v.degree
    front, back = u.coefficients, v.coefficients
    out = {}
    for s in x.simplices_of_dim(p + q):
        val = front.get(s[: p + 1], 0)
        if val:
            val *= back.get(s[p:], 0)
        if val:
            out[s] = val
    return SimplicialCochain(x, p + q, out)


def cap(alpha: SimplicialChain, u: SimplicialCochain) -> SimplicialChain:
    """sigma cap u = u(front p-face) * (back (m-p)-face), extended
    linearly."""
    if alpha.complex != u.complex:
        raise ValidationError("chain and cochain live on different complexes")
    m, p = alpha.degree, u.degree
    if m < 0 or p < 0:
        raise ValidationError(f"cannot cap in negative degrees (chain {m}, cochain {p})")
    if p > m:
        raise ValidationError(f"cannot cap a degree-{m} chain with a degree-{p} cochain")
    values = u.coefficients
    out = {}
    for s, c in alpha.coefficients.items():
        val = c * values.get(s[: p + 1], 0)
        if val:
            back = s[p:]
            out[back] = out.get(back, 0) + val
    return SimplicialChain(alpha.complex, m - p, out)


def dual_cap(f: CochainFunctional, u: SimplicialCochain) -> CochainFunctional:
    """Cap on the dual side: <f cap u, v> = (-1)^(|f|*|u|) <f, v cup u>.

    The capping cochain is cupped on the right (it eats back faces
    here), which is what makes the evaluation pairing compatible with
    the chain-level cap on homology.
    """
    x = f.complex
    m, p = f.degree, u.degree
    if u.complex != x:
        raise ValidationError("functional and cochain live on different complexes")
    if p > m:
        raise ValidationError("cochain degree exceeds the functional degree")
    sign = (-1) ** (m * p)
    vdeg = m - p
    out = {}
    for s, c in f.coefficients.items():
        uval = u.coefficients.get(s[vdeg:], 0)
        if uval:
            front = s[: vdeg + 1]
            out[front] = out.get(front, 0) + sign * c * uval
    return CochainFunctional(x, vdeg, out)


class RelativeSupportedCapResult(Record):
    # star: N, the closed star of Z in X; star_boundary: N', the closed
    # star of Y cap Z inside Y; chain_image: alpha cap u on the star's
    # complex; class_in_pair: in H(N, N'); class_in_z: in H(Z, Z cap Y)
    # when the inclusion of pairs is an isomorphism there, else None;
    # support_group: H(Z, Z cap Y) in the degree of the chain image
    _fields = ("star", "star_boundary", "chain_image", "class_in_pair", "class_in_z",
               "support_group")


def _check_supported_cocycle(x, z, u):
    if u.complex != x:
        raise ValidationError("cochain does not live on the ambient complex")
    zv = z.vertices()
    for s in u.coefficients:
        if zv.isdisjoint(s):
            raise ValidationError(
                f"cochain does not vanish on the non-meeting complement (at {s!r})"
            )
    if not coboundary_of(u).is_zero():
        raise ValidationError("cochain is not closed (du != 0)")


def _presubdivide(x, y, z, u, alpha, times):
    """Transport (X, Y, Z, u, alpha) through `times` barycentric
    subdivisions: u by cochain pullback along the last-vertex map, alpha
    by the subdivision chain map, Y and Z by their induced subdivisions."""
    for _ in range(times):
        sd = barycentric_subdivide(x)
        u = cochain_pullback(sd, u)
        alpha = apply_chain_map(subdivision_chain_map(sd), alpha, x, sd.complex)
        y, z = induced_subdivision(sd, y), induced_subdivision(sd, z)
        x = sd.complex
    return x, y, z, u, alpha


def supported_cap(x: SimplicialComplex, z: Subcomplex, u: SimplicialCochain,
                  alpha: SimplicialChain, presubdivide: int = 0) -> RelativeSupportedCapResult:
    """Cap a cycle with a closed cochain vanishing off the star of `z`,
    land in chains on the star, and transport the class back to `z`
    through the inclusion-induced isomorphism: the relative supported
    cap with an empty boundary subcomplex, so N' is empty and
    `class_in_pair` lies in H(N).

    Raises RetractConditionError when H(Z) -> H(N) fails to be an
    isomorphism in the relevant degree; subdividing first (the
    `presubdivide` count) is the standard fix.
    """
    res = relative_supported_cap(x, x.empty_subcomplex(), z, u, alpha, presubdivide)
    if res.class_in_z is None:
        n = res.chain_image.degree
        raise RetractConditionError(
            f"retract condition failed: H_{n}(Z) = {res.support_group.group_str()} -> "
            f"H_{n}(N) = {res.class_in_pair.group.group_str()} is not an isomorphism; "
            "increase presubdivide"
        )
    return res


def relative_supported_cap(x: SimplicialComplex, y: Subcomplex, z: Subcomplex,
                           u: SimplicialCochain, alpha: SimplicialChain,
                           presubdivide: int = 0) -> RelativeSupportedCapResult:
    """Supported cap for a relative cycle mod `y`: lands in chains on
    the star N modulo N', the closed star of Y cap Z inside Y, and is
    transported to H(Z, Z cap Y) when the inclusion of pairs induces an
    isomorphism there.  The transported class is accepted only when the
    inclusion maps it back onto the cap class."""
    if la._entry(presubdivide) < 0:
        raise ValidationError("presubdivide must be >= 0")
    if alpha.complex != x:
        raise ValidationError("chain does not live on the ambient complex")
    if y.parent != x:
        raise ValidationError("boundary subcomplex does not belong to the ambient complex")
    if presubdivide:
        x, y, z, u, alpha = _presubdivide(x, y, z, u, alpha, presubdivide)
    star = closed_star(x, z)
    _check_supported_cocycle(x, z, u)
    for s in boundary_of(alpha).coefficients:
        if s not in y:
            raise ValidationError(
                "chain is not a relative cycle mod the boundary subcomplex"
                if y.simplices else "chain is not a cycle"
            )

    # N' in the star's complex and (Z, Z cap Y) -> (N, N'): kept on `z` for each Y
    def pairs():
        y_and_z = subcomplex_intersection(y, z)
        yzv = y_and_z.vertices()
        n_complex = star.as_complex("star")
        star_boundary = n_complex.subcomplex_closure(
            s for s in y.simplices if not yzv.isdisjoint(s))
        z_complex = z.as_complex("support")
        z_boundary = Subcomplex(parent=z_complex, simplices=y_and_z.simplices)
        return star_boundary, relative_inclusion_chain_map(
            z_complex, z_boundary, n_complex, star_boundary)
    star_boundary, incl = z._kept_as(("pairs", y.simplices), pairs)

    image = cap(alpha, u)
    for s in image.coefficients:
        if s not in star:
            raise InternalCheckError(f"cap image escaped the closed star at {s!r}")
    for s in boundary_of(image).coefficients:
        if s not in star_boundary:
            raise InternalCheckError(
                f"boundary of the cap image escaped the inner star at {s!r}"
            )

    beta = SimplicialChain(star_boundary.parent, image.degree, image.coefficients)
    induced = induced_map_on_homology(incl, image.degree)
    class_in_pair = induced.target_group.class_of(_coordinates(beta, star_boundary))
    class_in_z = None
    if induced.is_isomorphism():
        class_in_z = induced.solve(class_in_pair)
        if class_in_z is None or induced.apply(class_in_z) != class_in_pair:
            raise InternalCheckError("isomorphism failed to invert on the cap class")
    return RelativeSupportedCapResult(
        star=star,
        star_boundary=star_boundary,
        chain_image=beta,
        class_in_pair=class_in_pair,
        class_in_z=class_in_z,
        support_group=induced.source_group,
    )
