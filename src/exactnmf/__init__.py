"""Exact nonnegative matrix factorization for rank-3 matrices, with
certified inner dimension at most ceil(6*min(m,n)/7), and compact lifted
descriptions of convex polygons built from it.

All arithmetic is exact rational; every factorization is a certificate
that reconstructs its input bit for bit.
"""

from .canonical import (
    CanonicalParams,
    MonomialMatrix,
    Rank6Certificate,
    canonical_matrix,
    factor_canonical,
    is_admissible,
)
from .cyclic import detect_cyclic_labeling, factor_cyclic, scale_to_canonical
from .driver import (
    Factorization,
    VerificationReport,
    inner_dimension_bound,
    nn_factor,
    verify_factorization,
)
from .errors import (
    CollinearVertices,
    DimensionError,
    DuplicateVertices,
    ExactNMFError,
    NegativeEntryError,
    NotAdmissible,
    NotConvex,
    NotFittedError,
    OutsidePolygon,
    ParseError,
    PatternError,
    RankError,
)
from .estimator import ExactNMF
from .linalg import Matrix, rank, solve
from .polygon import (
    ExtendedFormulation,
    Polygon,
    build_extension,
    polygon_from_points,
    slack_matrix,
    verify_extension,
)
from .rng import SplitMix64
from .section import (
    SectionPolygon,
    convex_coefficients,
    factor_low_rank,
    factor_seven_by_n,
    section_polygon,
)
from .validation import as_matrix

__version__ = "0.2.0"

__all__ = [
    "CanonicalParams",
    "CollinearVertices",
    "DimensionError",
    "DuplicateVertices",
    "ExactNMF",
    "ExactNMFError",
    "ExtendedFormulation",
    "Factorization",
    "Matrix",
    "MonomialMatrix",
    "NegativeEntryError",
    "NotAdmissible",
    "NotConvex",
    "NotFittedError",
    "OutsidePolygon",
    "ParseError",
    "PatternError",
    "Polygon",
    "Rank6Certificate",
    "RankError",
    "SectionPolygon",
    "SplitMix64",
    "VerificationReport",
    "as_matrix",
    "build_extension",
    "canonical_matrix",
    "convex_coefficients",
    "detect_cyclic_labeling",
    "factor_canonical",
    "factor_cyclic",
    "factor_low_rank",
    "factor_seven_by_n",
    "inner_dimension_bound",
    "is_admissible",
    "nn_factor",
    "polygon_from_points",
    "rank",
    "scale_to_canonical",
    "section_polygon",
    "slack_matrix",
    "solve",
    "verify_extension",
    "verify_factorization",
]
