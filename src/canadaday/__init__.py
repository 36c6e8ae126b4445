"""Exact-arithmetic verification of the Canada Day theorem and the peakon
conservation laws it came from.

The identity: for T the lower-triangular matrix with entries 1 + sgn(i - j)
and X any symmetric matrix, the sum of the principal k x k minors of TX, the
sum of all k x k minors of X, and the interlacing-weighted sum
S = sum_{I <= J} 2^p(I,J) |X_IJ| are all equal.  The subpackages check this
three ways (exact determinants, planar path counting, matching flip orbits)
and watch it run live as the conserved quantities of the Novikov peakon ODEs.

The public names are loaded on first use (PEP 562): importing the package
imports none of its modules, so a command pays only for the modules it runs,
and only `peakon` imports numpy.
"""

from importlib import import_module

# The home module of each public name.
_HOMES = {
    "exact_linalg": (
        "DimensionError", "ExactMatrix", "IndexSet", "Rational", "k_subsets", "load_matrix",
        "random_symmetric", "t_matrix",
    ),
    "lgv": ("build_network", "count_disjoint_families", "path_matrix"),
    "matchings": (
        "Matching", "decompose_clusters", "enumerate_matchings", "orbit", "orbit_sum_identity",
    ),
    "minor_sums": (
        "CanadaDayReport", "SymmetryError", "interlacing_sum", "is_interlacing", "p_value",
        "sum_all_minors", "sum_principal_minors", "t_minor_formula", "verify_canada_day",
    ),
    "peakon": ("PeakonState", "char_poly_coefficients", "constants_of_motion", "simulate"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(("cli", "lemmas", *_HOMES))

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
