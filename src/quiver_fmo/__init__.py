"""Exact symbolic computation with dressed monopole operators on the Coulomb
branches of quiver gauge theories: birational coordinates, restriction maps
between slices and zastava spaces, and the monopole-formula Hilbert series.
"""

from .multipoly import (
    GKLOElement,
    MPoly,
    ParseError,
    PartialSymPoly,
    RatFunc,
    SymmetryError,
    check_symmetric,
    parse_poly,
    poly_text,
    ratfunc_text,
    restrict_to_gamma,
    tilde,
    uv,
    wv,
    ZVAR,
)
from .quiver import (
    AffineData,
    DimData,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_classify,
    affine_sl2_quiver,
    cartan_matrix,
    check_conicity,
    check_good,
    mu_pairing,
    two_delta_minuscule,
)
from .gklo import (
    GKLOContext,
    chevalley,
    d_identity_check,
    dressing_basis,
    fmo,
    fmo_minus,
    fmo_plus,
    lagrange_charge,
    make_context,
    orientation_flip_sign,
    q_image,
)
from .defect_embed import (
    DefectSplit,
    phi,
    restrict_fmo_slice,
    slice_target_context,
    verify_adding_defect_theorem,
    verify_restriction,
)
from .km_embedding import (
    ChainState,
    ConicityError,
    DressedMMO,
    compose_embedding,
    forget_matter_step,
    fourier_step,
    split_and_project,
)
from .monopole_hilbert import (
    BadTheoryError,
    TruncSeries,
    classify_theory,
    fmo_degree,
    hilbert_series,
    stabilizer_poincare,
    two_delta_general,
)
