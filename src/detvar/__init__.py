"""Determinantal-variety invariants of bipartite quantum mixed states.

The package computes, for a mixed state rho on an m x n system, the
projective algebraic set cut out by the n x n minors of the state's
pencil matrix.  That set is a local-unitary invariant (up to a linear
change of coordinates), must be a union of linear subspaces whenever the
state is separable, and for the cyclic 3x3 family carries an exact
plane-cubic moduli value that separates local-unitary orbits.
"""

from .scalars import ExactComplex, Tolerance, DEFAULT_TOL
from .linalg import (
    EigenResult,
    exact_matrix,
    det_exact,
    rank_exact,
    hermitian_eigen,
    partial_trace,
    partial_transpose,
    psd_check,
)
from .multipoly import (
    Poly,
    LinearForm,
    symbolic_det,
    minors,
    substitute_affine,
    restrict_to_line,
    univariate_roots,
    univariate_coeffs,
)
from .factorization import FactorList, linear_factors
from .states import (
    BipartiteState,
    LocalUnitaryPair,
    density_from_ensemble,
    ensemble_from_density,
    apply_local_unitary,
    ppt_check,
    entropy_and_spectra,
    random_mixed,
    random_separable,
    random_local_unitary,
)
from .variety import (
    PencilMatrix,
    Variety,
    VarietyVerdict,
    pencil_matrix,
    variety_of_state,
    variety_generators,
    membership,
    sample_points,
    tangent_form,
    linearity_decide,
    verify_lu_covariance,
)
from .moduli import HesseCubic, ModuliValue, hesse_reduce, moduli_value, lu_compare
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "ExactComplex", "Tolerance", "DEFAULT_TOL",
    "EigenResult", "exact_matrix", "det_exact", "rank_exact",
    "hermitian_eigen", "partial_trace", "partial_transpose",
    "psd_check",
    "Poly", "LinearForm", "symbolic_det", "minors",
    "substitute_affine", "restrict_to_line", "univariate_roots",
    "univariate_coeffs",
    "FactorList", "linear_factors",
    "BipartiteState", "LocalUnitaryPair", "density_from_ensemble",
    "ensemble_from_density", "apply_local_unitary", "ppt_check",
    "entropy_and_spectra", "random_mixed", "random_separable",
    "random_local_unitary",
    "PencilMatrix", "Variety", "VarietyVerdict", "pencil_matrix",
    "variety_of_state", "variety_generators", "membership", "sample_points", "tangent_form",
    "linearity_decide", "verify_lu_covariance",
    "HesseCubic", "ModuliValue", "hesse_reduce", "moduli_value", "lu_compare",
    "catalog",
]
