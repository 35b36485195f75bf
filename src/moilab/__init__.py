"""moilab: functional calculus for tuples of non-commuting Hermitian matrices.

Finite-spectrum operator functions are finite sums over spectral atoms, so
f(A), f(A, B) and f(A, B, C) are defined for arbitrary symbols.  On top of
that substrate the package provides divided-difference perturbation
identities, Littlewood-Paley band decompositions with a band majorant for
the reference cutoff, and a family of operator triples whose Schatten-norm
response to a rank-one perturbation grows like sqrt(N) while every
smoothness surrogate of the driving function stays bounded.
"""

__version__ = "0.1.0"

from .besov import (
    BandAboveNyquistError,
    GridFunction,
    NonpositiveArgumentError,
    band_piece,
    partition_check,
    psi_reference,
    psi_reference_grid,
    tensor_bound_kappa,
    window_w,
)
from .counterexample import (
    CounterexampleInstance,
    ExperimentRecord,
    InvalidEpsilonError,
    build_instance,
    dft_unitary,
    epsilon_scaling_run,
    eta,
    lipschitz_rank_bound_check,
    phi_symbol,
    rank_estimate_check_pairs,
)
from .linalg import (
    DimensionMismatchError,
    EigensolverError,
    HermitianOperator,
    InvalidSpectrumError,
    NotHermitianError,
    NotSquareError,
    SpectralAtom,
    SpectralMeasure,
    SvdError,
    ZeroDimensionError,
    hermitian_from_matrix,
    hermitian_from_spectrum,
    schatten_norm,
    singular_values,
    spectral_measure,
    zero_operator,
)
from .moi import (
    DividedDifference2,
    NonFiniteSymbolError,
    apply_function_pair,
    apply_function_single,
    apply_function_stack,
    apply_function_triple,
    argument_perturbation,
    double_operator_integral,
    perturbation_via_divided_difference,
    triple_operator_integral,
)

__all__ = [
    "BandAboveNyquistError",
    "CounterexampleInstance",
    "DimensionMismatchError",
    "DividedDifference2",
    "EigensolverError",
    "ExperimentRecord",
    "GridFunction",
    "HermitianOperator",
    "InvalidEpsilonError",
    "InvalidSpectrumError",
    "NonFiniteSymbolError",
    "NonpositiveArgumentError",
    "NotHermitianError",
    "NotSquareError",
    "SpectralAtom",
    "SpectralMeasure",
    "SvdError",
    "ZeroDimensionError",
    "apply_function_pair",
    "apply_function_single",
    "apply_function_stack",
    "apply_function_triple",
    "argument_perturbation",
    "band_piece",
    "build_instance",
    "dft_unitary",
    "double_operator_integral",
    "epsilon_scaling_run",
    "eta",
    "hermitian_from_matrix",
    "hermitian_from_spectrum",
    "lipschitz_rank_bound_check",
    "partition_check",
    "perturbation_via_divided_difference",
    "phi_symbol",
    "psi_reference",
    "psi_reference_grid",
    "rank_estimate_check_pairs",
    "schatten_norm",
    "singular_values",
    "spectral_measure",
    "tensor_bound_kappa",
    "triple_operator_integral",
    "window_w",
    "zero_operator",
]
