"""derlab: a desk-scale laboratory for the stable homotopy theory of
diagrams over a self-injective finite-dimensional algebra.

Exact linear algebra over a prime field underpins everything: modules,
diagram categories with their degreewise exact structure, Gorenstein
recognition and approximation, partial Kan extensions, unbounded complexes
of projectives, weighted homotopy (co)limits over free linear categories,
and cross-checks between the two models of homotopy Kan extensions.
"""

from .field import DerlabError, Mat, rref, solve, kernel_basis, rank
from .algebra import (
    Algebra,
    AlgebraError,
    algebra_from_dict,
    dual_numbers,
    ground_field,
    group_algebra_c2,
    is_self_injective,
    require_self_injective,
    upper_triangular_2x2,
    validate_algebra,
)
from .modules import (
    Conflation,
    Module,
    ModuleMap,
    cosyzygy,
    dual_module,
    free_cover,
    hom_space,
    injective_embed,
    is_projective,
    is_injective,
    is_stable_iso,
    pullback,
    pushout,
    regular_module,
    stable_hom,
    syzygy,
    zero_module,
)
from .cats import (
    CatFunctor,
    CategoryError,
    DirectCategory,
    analyze_components,
    arrow_category,
    cospan_category,
    disjoint_union,
    is_cosieve,
    is_sieve,
    object_functor,
    opposite_category,
    product_category,
    punctured_slice,
    slice_category,
    span_category,
    square_category,
    terminal_category,
)
from .diagrams import (
    Diagram,
    DiagramConflation,
    DiagramMap,
    dual_diagram,
    ext1,
    hom_space_diagrams,
    injective_embed_diagram,
    pointwise_left_kan,
    pointwise_right_kan,
    projective_cover_diagram,
    restrict,
    restrict_map,
    stalk_diagram,
)
from .gorenstein import (
    ApproximationTriple,
    PreconditionError,
    VerificationError,
    approx_gproj,
    colim_gproj,
    colim_gproj_on_map,
    embed_gproj_into_proj,
    ginj_right_kan,
    gproj_left_kan,
    hull_ginj,
    is_ginj,
    is_gproj,
    is_injective_diagram,
    is_projective_diagram,
    is_wtriv,
    latching,
    matching,
    stable_equiv_on_map,
    stalk_presentation,
)
from .homotopy import (
    is_stable_iso_diagrams,
    is_weak_equivalence,
    lift_to_arrow_diagram,
    loop,
    loop_via_square,
    stable_hom_diagrams,
    suspension,
    suspension_on_map,
    triangle_from_conflation,
)
from .complexes import (
    ComplexMap,
    LazyComplex,
    complete_resolution,
    cone,
    dual_complex,
    is_quasi_iso_on,
    is_termwise_contractible,
    shift,
    sod_decompose,
    z0,
)
from .dgkan import (
    cone_weight,
    crosscheck_kan,
    der4_check,
    ho_left_kan,
    ho_right_kan,
    minimal_resolution,
    representable_weight,
    restriction_weight,
    shift_weight,
    weighted_hocolim,
    weighted_holim,
)
from .verdict import Verdict

__version__ = "0.1.0"
