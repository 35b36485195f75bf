"""Multiple operator integrals for finitely atomic spectral measures.

Implements functional calculus f(A), f(A,B), f(A,B,C) for Hermitian
operators with finite spectra, the transformer forms that sandwich
arbitrary matrices between spectral projections, and the divided-difference
perturbation identities.

Symbols are plain callables.  They must accept numpy arrays and broadcast:
the atom grids are evaluated in one vectorized call, so ``lambda x, y:
np.sin(x) * y`` is fine while ``math.sin`` is not.

All sums are evaluated by transforming into the concatenated eigenbases of
the measures, so one call costs a handful of dense matrix products
regardless of the number of atoms.  The contraction order is fixed, which
keeps outputs bit-stable between runs.  A literal atom-by-atom loop lives
in :mod:`moilab.reference` for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DimensionMismatchError,
    HermitianOperator,
    SpectralMeasure,
    as_complex_matrix,
    spectral_measure,
    DEFAULT_GROUP_TOL,
)


@dataclass(frozen=True)
class DividedDifference2:
    """The two-variable symbol (f(x) - f(y)) / (x - y).

    On the diagonal x == y (exact float equality) the symbol returns
    ``diagonal_value``.  Perturbation sums are provably insensitive to this
    choice because the corresponding projection sandwiches vanish; the
    default 0 avoids requiring differentiability of ``base``.
    """

    base: Callable
    diagonal_value: complex = 0.0

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        den = x - y
        diag = den == 0
        num = np.asarray(self.base(x) - self.base(y), dtype=np.complex128)
        safe = np.where(diag, 1.0, den)
        return np.where(diag, self.diagonal_value, num / safe)


def _check_chain_dims(
    measures: Sequence[SpectralMeasure], operators: Sequence[np.ndarray]
) -> None:
    for t, T in enumerate(operators):
        left, right = measures[t].dim, measures[t + 1].dim
        if T.shape != (left, right):
            raise DimensionMismatchError(
                f"operator {t} has shape {T.shape}, expected ({left}, {right})"
            )


def _chain_integral(
    weights: np.ndarray,
    measures: Sequence[SpectralMeasure],
    operators: Sequence[np.ndarray],
) -> np.ndarray:
    """Sum of weights[i1..im] * P1_{i1} T1 P2_{i2} ... T_{m-1} Pm_{im}.

    Works in the concatenated eigenbases: transform every interleaved
    operator once, then accumulate over the atoms of the middle measures
    only.  The first and last atom indices act entrywise, as a generalized
    Schur multiplier.
    """
    _check_chain_dims(measures, operators)
    counts = tuple(len(E.atoms) for E in measures)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.complex128), counts)

    frames = [E.frame for E in measures]
    transformed = [
        frames[t].conj().T @ operators[t] @ frames[t + 1]
        for t in range(len(operators))
    ]
    g_first = measures[0].column_atom_index
    g_last = measures[-1].column_atom_index

    if len(measures) == 2:
        acc = weights[np.ix_(g_first, g_last)] * transformed[0]
    else:
        acc = np.zeros((measures[0].dim, measures[-1].dim), dtype=np.complex128)
        middle_slices = [E.column_slices for E in measures[1:-1]]
        for combo in itertools.product(*(range(n) for n in counts[1:-1])):
            block = transformed[0][:, middle_slices[0][combo[0]]]
            for t in range(1, len(combo)):
                block = block @ transformed[t][
                    middle_slices[t - 1][combo[t - 1]], middle_slices[t][combo[t]]
                ]
            block = block @ transformed[-1][middle_slices[-1][combo[-1]], :]
            w = weights[(slice(None), *combo, slice(None))]
            acc += w[np.ix_(g_first, g_last)] * block
    return frames[0] @ acc @ frames[-1].conj().T


def apply_function_single(f: Callable, E: SpectralMeasure) -> np.ndarray:
    """Sum of f(eigenvalue) * projection over the atoms of ``E``."""
    V = E.frame
    values = np.asarray(f(E.eigenvalues), dtype=np.complex128)
    values = np.broadcast_to(values, E.eigenvalues.shape)
    return (V * values[E.column_atom_index]) @ V.conj().T


def double_operator_integral(
    phi: Callable,
    E1: SpectralMeasure,
    T,
    E2: SpectralMeasure,
) -> np.ndarray:
    """Sum over atom pairs of phi(a_j, b_k) * P_j T Q_k."""
    T = as_complex_matrix(T)
    a = E1.eigenvalues
    b = E2.eigenvalues
    weights = phi(a[:, None], b[None, :])
    return _chain_integral(weights, (E1, E2), (T,))


def triple_operator_integral(
    phi: Callable,
    E1: SpectralMeasure,
    T1,
    E2: SpectralMeasure,
    T2,
    E3: SpectralMeasure,
) -> np.ndarray:
    """Sum over atom triples of phi(a_j, b_k, c_l) * P_j T1 Q_k T2 R_l."""
    T1 = as_complex_matrix(T1)
    T2 = as_complex_matrix(T2)
    a = E1.eigenvalues
    b = E2.eigenvalues
    c = E3.eigenvalues
    weights = phi(a[:, None, None], b[None, :, None], c[None, None, :])
    return _chain_integral(weights, (E1, E2, E3), (T1, T2))


def _identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def _same_dim(*ops: HermitianOperator) -> int:
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionMismatchError(f"operators have mixed dimensions {sorted(dims)}")
    return dims.pop()


def apply_function_pair(
    f: Callable,
    A: HermitianOperator,
    B: HermitianOperator,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> np.ndarray:
    """f(A, B) = sum of f(lambda_j, mu_k) P_j Q_k over both spectra."""
    dim = _same_dim(A, B)
    return double_operator_integral(
        f, spectral_measure(A, group_tol), _identity(dim), spectral_measure(B, group_tol)
    )


def apply_function_triple(
    f: Callable,
    A: HermitianOperator,
    B: HermitianOperator,
    C: HermitianOperator,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> np.ndarray:
    """f(A, B, C) = sum of f(lambda, mu, nu) E_A E_B E_C over the three spectra."""
    dim = _same_dim(A, B, C)
    eye = _identity(dim)
    return triple_operator_integral(
        f,
        spectral_measure(A, group_tol),
        eye,
        spectral_measure(B, group_tol),
        eye,
        spectral_measure(C, group_tol),
    )


def perturbation_via_divided_difference(
    f: Callable,
    A: HermitianOperator,
    B: HermitianOperator,
    diagonal_value: complex = 0.0,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> np.ndarray:
    """f(A) - f(B) as a double operator integral of the divided difference.

    The identity is exact for operators with finite spectra, for every
    function f and every choice of ``diagonal_value``.
    """
    _same_dim(A, B)
    dd = DividedDifference2(base=f, diagonal_value=diagonal_value)
    return double_operator_integral(
        dd,
        spectral_measure(A, group_tol),
        A.matrix - B.matrix,
        spectral_measure(B, group_tol),
    )


def argument_perturbation(
    f: Callable,
    index: int,
    X1: HermitianOperator,
    X2: HermitianOperator,
    Y: HermitianOperator,
    Z: HermitianOperator,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> np.ndarray:
    """Difference of triple functional calculus under a one-slot perturbation.

    ``(X1, X2)`` is the perturbed pair sitting in slot ``index`` of f;
    ``Y`` and ``Z`` fill the remaining slots in increasing position order.
    For index 0 this computes f(X1,Y,Z) - f(X2,Y,Z) as the four-measure sum

        sum over l1 != l2, mu, nu of
            [f(l1,mu,nu) - f(l2,mu,nu)] / (l1 - l2)
            * E_X1({l1}) (X1 - X2) E_X2({l2}) E_Y({mu}) E_Z({nu})

    and analogously for the middle and last slots.  The l1 != l2 test is
    exact float inequality of the grouped eigenvalues.
    """
    if index not in (0, 1, 2):
        raise ValueError("index must be 0, 1 or 2")
    dim = _same_dim(X1, X2, Y, Z)
    others = [spectral_measure(Y, group_tol), spectral_measure(Z, group_tol)]
    measures = (
        others[:index]
        + [spectral_measure(X1, group_tol), spectral_measure(X2, group_tol)]
        + others[index:]
    )
    # each measure's eigenvalues along its own axis of the 4-d weight tensor
    grids = [
        E.eigenvalues.reshape([-1 if axis == k else 1 for axis in range(4)])
        for k, E in enumerate(measures)
    ]
    fixed = grids[:index] + grids[index + 2 :]
    quotient = DividedDifference2(lambda t: f(*fixed[:index], t, *fixed[index:]))
    weights = quotient(grids[index], grids[index + 1])
    operators = [_identity(dim)] * 2
    operators.insert(index, X1.matrix - X2.matrix)
    return _chain_integral(weights, measures, operators)


def first_argument_perturbation(
    f: Callable,
    A1: HermitianOperator,
    A2: HermitianOperator,
    B: HermitianOperator,
    C: HermitianOperator,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> np.ndarray:
    """f(A1, B, C) - f(A2, B, C) via the divided-difference sum in the first slot."""
    return argument_perturbation(f, 0, A1, A2, B, C, group_tol=group_tol)
