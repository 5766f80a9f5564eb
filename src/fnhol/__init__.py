"""Holonomy cocycles of pants-decomposed hyperbolic surfaces.

Builds the normalized holonomy cocycle of a closed hyperbolic surface
from Fenchel-Nielsen coordinates on a pants decomposition, computes its
first variations, evaluates the Weil-Petersson symplectic pairing by a
cellular cup product (reproducing the twist-length formula), and
enumerates and assembles the determinant-one spin lifts.
"""

from .mat2 import (
    Mat2,
    TracelessMat2,
    ad_action,
    nearest_point_on_imaginary_axis,
    translation_length,
)
from .pants import (
    PantsLengths,
    bc_magnitude,
    bc_magnitude_minus_one,
    gauge_transform,
    pants_cocycle,
    seam_matrix,
    standardize,
)
from .surface import (
    CellComplex,
    Curve,
    FNPoint,
    SurfaceCocycle,
    SurfaceSpec,
    assemble_cocycle,
    build_complex,
    extract_fn,
    holonomy,
    validate_surface,
)
from .variation import (
    TangentVector,
    VariationCocycle,
    check_cocycle_condition,
    coboundary,
    fd_variation,
    grad_log_bc,
    variation_cocycle,
)
from .wp import (
    diagonal_chain,
    killing_form,
    pair_on_face,
    wolpert_reference,
    wp_matrix,
    wp_pairing,
)
from .spin import (
    SpinSurfaceCocycle,
    assemble_spin,
    enumerate_spin,
    rot2,
    sl2_pants_cocycle,
)

__version__ = "0.1.0"
