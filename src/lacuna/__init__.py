"""Extreme and exposed points of the unit ball of lacunary polynomials.

The library decides, for a polynomial whose spectrum avoids a prescribed set
of exponents, whether the normalized polynomial is an extreme point of the
unit ball in L1 of the circle, and whether it is exposed.  Both questions
reduce to finite linear algebra on a constraint matrix built from the
cofactor left after removing zeros shared with the conjugate reciprocal.
"""

from .circle_analysis import NormResult, ZeroCluster, find_zeros, l1_norm
from .classifier import (
    ClassificationReport,
    ClassifyOptions,
    FullSpaceReport,
    Witness,
    classify,
    classify_full_space,
    infer_pattern,
    symbol_to_poly,
)
from .errors import (
    IllConditionedZeros,
    LacunaError,
    NotDivisible,
    NotHermitianSymmetric,
    ParseError,
    QuadratureBudgetExceeded,
    SolverStalled,
    SpectrumViolation,
    WitnessValidationFailed,
)
from .factorization import (
    CanonicalData,
    TildeData,
    canonical_factorization,
    real_symbol_on_circle,
    tilde_factorization,
)
from .matrix_builder import BlockMatrix, KernelBasis, build_matrix, rank_and_kernel
from .plus_cone import (
    CoefVector,
    certify_nonneg_exact,
    find_plus_in_slice,
    is_plus,
    plus_dimension,
)
from .poly_core import (
    ComplexPoly,
    GaussianRational,
    LacunaryPattern,
    conjugate_reciprocal,
    divide_exact,
    parse_poly,
    poly_to_json,
    spectrum,
    spectrum_in,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "CanonicalData",
    "ClassificationReport",
    "ClassifyOptions",
    "CoefVector",
    "ComplexPoly",
    "FullSpaceReport",
    "GaussianRational",
    "IllConditionedZeros",
    "KernelBasis",
    "LacunaError",
    "LacunaryPattern",
    "NormResult",
    "NotDivisible",
    "NotHermitianSymmetric",
    "ParseError",
    "QuadratureBudgetExceeded",
    "SolverStalled",
    "SpectrumViolation",
    "TildeData",
    "Witness",
    "WitnessValidationFailed",
    "ZeroCluster",
    "build_matrix",
    "canonical_factorization",
    "certify_nonneg_exact",
    "classify",
    "classify_full_space",
    "conjugate_reciprocal",
    "divide_exact",
    "find_plus_in_slice",
    "find_zeros",
    "infer_pattern",
    "is_plus",
    "l1_norm",
    "parse_poly",
    "plus_dimension",
    "poly_to_json",
    "rank_and_kernel",
    "real_symbol_on_circle",
    "spectrum",
    "spectrum_in",
    "symbol_to_poly",
    "tilde_factorization",
]
