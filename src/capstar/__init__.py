"""capstar: simplicial homology, cup/cap products with closed-star
supports, and Borel-Moore homology of pairs, all over exact integer
arithmetic."""

from .bm import (
    OpenSpaceModel,
    bm_homology,
    bm_supported_cap,
    pair_long_exact_sequence,
    subdivision_invariance_check,
)
from .bridge import (
    SimplicialChain,
    SimplicialCochain,
    boundary_of,
    chain_complex_of,
    coboundary_of,
    cochain_complex,
    cochain_pullback,
    last_vertex_chain_map,
    relative_chain_complex,
    relative_cochain_complex,
    subdivision_chain_map,
    xi_functional,
    xi_pairing,
)
from .chains import (
    ChainComplexZ,
    ChainMap,
    HomologyClass,
    HomologyGroup,
    chain_complex,
    chain_map,
    cone,
    cone_dual_iso,
    dual_hom_z,
    dual_map,
    homology,
    identity_map,
    induced_map_on_homology,
    is_quasi_isomorphism,
    shift,
    uct_check,
)
from .complexes import (
    SimplicialComplex,
    Subcomplex,
    SubdivisionResult,
    barycentric_subdivide,
    closed_star,
    from_maximal_simplices,
    last_vertex_approximation,
    nonmeeting_complement,
)
from .errors import InternalCheckError, RetractConditionError, ValidationError
from .intlinalg import SmithDecomposition, smith_normal_form
from .products import (
    RelativeSupportedCapResult,
    cap,
    cup,
    dual_cap,
    relative_supported_cap,
    supported_cap,
)

__version__ = "0.1.0"
