"""Exact toric resolutions of abelian Gorenstein quotient singularities.

Construct crepant and Hilbert-basis resolutions of C^n/G for finite
abelian diagonal G in SL(n, C), and certify that each exceptional divisor
is normally embedded with tubular neighborhood equal to the total space
of its weighted line bundle (the canonical bundle in the crepant case).
"""

from .divisors import class_group
from .errors import TorcrepError
from .exceptional import (
    EmbeddingCertificate,
    StarFan,
    SurfaceType,
    certify_normal_embedding,
    classify_surface,
    coverage_check,
    star_fan,
)
from .fans import (
    Cone,
    Fan,
    cone_index,
    fan_from_json,
    fan_to_json,
    is_terminal,
    make_cone,
    make_fan,
    sigma_fan,
    validate_fan,
)
from .groups import (
    GroupData,
    ObstructionReport,
    close_group,
    compact_juniors,
    crepant_obstructions,
    element_names,
)
from .hilbert import hilbert_basis
from .intlinalg import IntMatrix, hermite_normal_form
from .lattice import (
    LatticePoint,
    ScaledLattice,
    build_lattice,
    quotient_by_ray,
    unit_point,
)
from .resolve import (
    ResolutionResult,
    discrepancies,
    resolve,
    search_resolution,
)

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "EmbeddingCertificate",
    "Fan",
    "GroupData",
    "IntMatrix",
    "LatticePoint",
    "ObstructionReport",
    "ResolutionResult",
    "ScaledLattice",
    "StarFan",
    "SurfaceType",
    "TorcrepError",
    "build_lattice",
    "certify_normal_embedding",
    "class_group",
    "classify_surface",
    "close_group",
    "compact_juniors",
    "cone_index",
    "coverage_check",
    "crepant_obstructions",
    "discrepancies",
    "element_names",
    "fan_from_json",
    "fan_to_json",
    "hermite_normal_form",
    "hilbert_basis",
    "is_terminal",
    "make_cone",
    "make_fan",
    "quotient_by_ray",
    "resolve",
    "search_resolution",
    "sigma_fan",
    "star_fan",
    "unit_point",
    "validate_fan",
]
