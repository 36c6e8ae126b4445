"""Exact-arithmetic verification of the Canada Day theorem and the peakon
conservation laws it came from.

The identity: for T the lower-triangular matrix with entries 1 + sgn(i - j)
and X any symmetric matrix, the sum of the principal k x k minors of TX, the
sum of all k x k minors of X, and the interlacing-weighted sum
S = sum_{I <= J} 2^p(I,J) |X_IJ| are all equal.  The subpackages check this
three ways (exact determinants, planar path counting, matching flip orbits)
and watch it run live as the conserved quantities of the Novikov peakon ODEs.
"""

from .exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    Rational,
    determinant,
    k_subsets,
    load_matrix,
    minor,
    random_symmetric,
    submatrix,
    t_matrix,
)
from .lgv import build_network, count_disjoint_families, path_matrix
from .matchings import (
    Matching,
    decompose_clusters,
    enumerate_matchings,
    orbit,
    orbit_sum_identity,
)
from .minor_sums import (
    CanadaDayReport,
    SymmetryError,
    interlacing_sum,
    is_interlacing,
    p_value,
    sum_all_minors,
    sum_principal_minors,
    t_minor_formula,
    verify_canada_day,
)
from .peakon import PeakonState, char_poly_coefficients, constants_of_motion, simulate

__all__ = [
    "CanadaDayReport",
    "DimensionError",
    "ExactMatrix",
    "IndexSet",
    "Matching",
    "PeakonState",
    "Rational",
    "SymmetryError",
    "build_network",
    "char_poly_coefficients",
    "constants_of_motion",
    "count_disjoint_families",
    "decompose_clusters",
    "determinant",
    "enumerate_matchings",
    "interlacing_sum",
    "is_interlacing",
    "k_subsets",
    "load_matrix",
    "minor",
    "orbit",
    "orbit_sum_identity",
    "p_value",
    "path_matrix",
    "random_symmetric",
    "simulate",
    "submatrix",
    "sum_all_minors",
    "sum_principal_minors",
    "t_matrix",
    "t_minor_formula",
    "verify_canada_day",
]

__version__ = "0.1.0"
