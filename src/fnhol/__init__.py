"""Holonomy cocycles of pants-decomposed hyperbolic surfaces.

Builds the normalized holonomy cocycle of a closed hyperbolic surface
from Fenchel-Nielsen coordinates on a pants decomposition, computes its
first variations, evaluates the Weil-Petersson symplectic pairing by a
cellular cup product (reproducing the twist-length formula), and
enumerates and assembles the determinant-one spin lifts.

Importing the package loads none of its modules: each name below loads
the module that defines it on first use (PEP 562), so a program that
only represents a point never compiles the pairing, the variations or
the spin lifts.  A name is looked up in its module on every access and
never bound here, so rebinding a module's function is seen through the
package too.
"""

from importlib import import_module

_EXPORTS = {
    "mat2": (
        "Mat2",
        "TracelessMat2",
        "ad_action",
        "nearest_point_on_imaginary_axis",
        "translation_length",
    ),
    "pants": (
        "PantsLengths",
        "bc_magnitude",
        "bc_magnitude_minus_one",
        "gauge_transform",
        "pants_cocycle",
        "seam_matrix",
        "standardize",
    ),
    "surface": (
        "CellComplex",
        "Curve",
        "FNPoint",
        "SurfaceCocycle",
        "SurfaceSpec",
        "assemble_cocycle",
        "build_complex",
        "extract_fn",
        "holonomy",
        "validate_surface",
    ),
    "variation": (
        "TangentVector",
        "VariationCocycle",
        "check_cocycle_condition",
        "coboundary",
        "fd_variation",
        "grad_log_bc",
        "variation_cocycle",
    ),
    "wp": (
        "diagonal_chain",
        "killing_form",
        "pair_on_face",
        "wolpert_reference",
        "wp_matrix",
        "wp_pairing",
    ),
    "spin": (
        "SpinSurfaceCocycle",
        "assemble_spin",
        "enumerate_spin",
        "rot2",
        "sl2_pants_cocycle",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
