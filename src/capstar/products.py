"""Cup and cap products, and the supported cap through closed stars.

Conventions: (u cup v)(sigma) = u(front) * v(back) where the front face
keeps the first p+1 vertices; sigma cap u = u(front) * back, so the
cochain always eats the front face.  The dual-side cap twists the
pullback along "cup with u on the right" by (-1)^(|f|*|u|); see the
notes on `dual_cap`.
"""

from __future__ import annotations

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
    "SupportedCapResult",
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


def dual_cap(f: CochainFunctional, u: SimplicialCochain,
             star: Subcomplex | None = None) -> CochainFunctional:
    """Cap on the dual side: <f cap u, v> = (-1)^(|f|*|u|) <f, v cup u>.

    The capping cochain is cupped on the right (it eats back faces
    here), which is what makes the evaluation pairing compatible with
    the chain-level cap on homology.  With a `star` whose complement
    misses the support of `u`, the result is a functional on the star's
    cochains, with v extended by zero off the star.
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
        if not uval:
            continue
        front = s[: vdeg + 1]
        if star is None or front in star:
            out[front] = out.get(front, 0) + sign * c * uval
    if star is None:
        return CochainFunctional(x, vdeg, out)
    return CochainFunctional(star.as_complex(), vdeg, out)


class CapDiagnostics(Record):
    _fields = ("degree", "inclusion_is_isomorphism", "star_group", "support_group")


class SupportedCapResult(Record):
    # chain_image: alpha cap u, on the star's complex
    _fields = ("star", "chain_image", "class_in_z", "diagnostics")


class RelativeSupportedCapResult(Record):
    # star: N, the closed star of Z in X; star_boundary: N', the closed
    # star of Y cap Z inside Y; chain_image: alpha cap u on the star's
    # complex; class_in_pair: in H(N, N'); class_in_z: in H(Z, Z cap Y)
    # when transportable, else None
    _fields = ("star", "star_boundary", "chain_image", "class_in_pair", "class_in_z",
               "diagnostics")


def _check_supported_cocycle(x, z, u):
    if u.complex != x:
        raise ValidationError("cochain does not live on the ambient complex")
    if z.parent != x:
        raise ValidationError("support subcomplex does not belong to the ambient complex")
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
                  alpha: SimplicialChain, presubdivide: int = 0) -> SupportedCapResult:
    """Cap a cycle with a closed cochain vanishing off the star of `z`,
    land in chains on the star, and transport the class back to `z`
    through the inclusion-induced isomorphism: the relative supported
    cap with an empty boundary subcomplex.

    Raises RetractConditionError when H(Z) -> H(N) fails to be an
    isomorphism in the relevant degree; subdividing first (the
    `presubdivide` count) is the standard fix.
    """
    res = relative_supported_cap(x, x.empty_subcomplex(), z, u, alpha, presubdivide)
    diag = res.diagnostics
    if res.class_in_z is None:
        raise RetractConditionError(
            f"retract condition failed: H_{diag.degree}(Z) = {diag.support_group} -> "
            f"H_{diag.degree}(N) = {diag.star_group} is not an isomorphism; increase presubdivide"
        )
    return SupportedCapResult(
        star=res.star, chain_image=res.chain_image, class_in_z=res.class_in_z, diagnostics=diag
    )


def relative_supported_cap(x: SimplicialComplex, y: Subcomplex, z: Subcomplex,
                           u: SimplicialCochain, alpha: SimplicialChain,
                           presubdivide: int = 0) -> RelativeSupportedCapResult:
    """Supported cap for a relative cycle mod `y`: lands in chains on
    the star N modulo N', the closed star of Y cap Z inside Y, and is
    transported to H(Z, Z cap Y) when the inclusion of pairs induces an
    isomorphism there."""
    if presubdivide < 0:
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

    y_and_z = subcomplex_intersection(y, z)
    y_complex = y.as_complex("boundary")
    star_prime_in_y = closed_star(
        y_complex, Subcomplex(parent=y_complex, simplices=y_and_z.simplices)
    )

    image = cap(alpha, u)
    for s in image.coefficients:
        if s not in star:
            raise InternalCheckError(f"cap image escaped the closed star at {s!r}")
    for s in boundary_of(image).coefficients:
        if s not in star_prime_in_y.simplices:
            raise InternalCheckError(
                f"boundary of the cap image escaped the inner star at {s!r}"
            )

    n_complex = star.as_complex("star")
    star_boundary = Subcomplex(parent=n_complex, simplices=star_prime_in_y.simplices)
    beta = SimplicialChain(n_complex, image.degree, image.coefficients)
    deg = image.degree

    z_complex = z.as_complex("support")
    z_boundary = Subcomplex(parent=z_complex, simplices=y_and_z.simplices)
    incl = relative_inclusion_chain_map(z_complex, z_boundary, n_complex, star_boundary)
    induced = induced_map_on_homology(incl, deg)
    h_z_pair, h_pair = induced.source_group, induced.target_group
    class_in_pair = h_pair.class_of(_coordinates(beta, star_boundary))
    iso = induced.is_isomorphism()
    diagnostics = CapDiagnostics(
        degree=deg,
        inclusion_is_isomorphism=iso,
        star_group=h_pair.group_str(),
        support_group=h_z_pair.group_str(),
    )
    class_in_z = None
    if iso:
        class_in_z = induced.solve(class_in_pair)
        if class_in_z is None:
            raise InternalCheckError("isomorphism failed to invert on the cap class")
    return RelativeSupportedCapResult(
        star=star,
        star_boundary=star_boundary,
        chain_image=beta,
        class_in_pair=class_in_pair,
        class_in_z=class_in_z,
        diagnostics=diagnostics,
    )
