"""Multiple operator integrals for finitely atomic spectral measures.

Implements functional calculus f(A), f(A,B), f(A,B,C) for Hermitian
operators with finite spectra, the transformer forms that sandwich
arbitrary matrices between spectral projections, and the divided-difference
perturbation identities.

Symbols are plain callables.  They must accept numpy arrays and broadcast:
the atom grids are evaluated in one vectorized call, so ``lambda x, y:
np.sin(x) * y`` is fine while ``math.sin`` is not.

All sums are evaluated in the concatenated eigenbases of the measures by
one engine for two, three and four measures.  The symbol is evaluated per
chunk of the last measure's atoms, one einsum per chunk contracts its
weights with the leading operators, and one dense matrix product per atom
of the last measure finishes the sum; no weight tensor over all atoms is
built, so a generic triple at dimension d holds O(d^2 * chunk) weights.
The contraction order depends only on the dimensions and atom counts,
which keeps outputs bit-stable between runs.  A literal atom-by-atom loop
lives in :mod:`moilab.reference` for cross-checking.

In the four-measure one-slot perturbation the symbol weights are the plain
differences ``high - low`` of f on the two perturbed measures.  The
inverse-gap kernel 1/(l1 - l2) of the divided difference touches only
those two measures, so it rides on the perturbation between them: it
multiplies the eigenbasis form of X1 - X2 entrywise, once per call, and no
weight is divided.

A symbol that returns NaN or infinity at some atom raises
:class:`NonFiniteSymbolError` instead of spreading through the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DimensionMismatchError,
    HermitianOperator,
    SpectralMeasure,
    as_complex_matrix,
    spectral_measure,
)


class NonFiniteSymbolError(ValueError):
    """A symbol returned NaN or infinity at some atom of its spectral measures."""


def _require_finite(
    values: np.ndarray, measures: Sequence[SpectralMeasure], start: int = 0
) -> None:
    """Raise :class:`NonFiniteSymbolError` naming one atom where ``values`` is not finite.

    ``values`` has one axis per measure, indexed by its atoms; the last
    axis starts at atom ``start`` (the first atom of a chunk).
    """
    if np.isfinite(values).all():
        return
    atom = np.argwhere(~np.isfinite(values))[0].tolist()
    atom[-1] += start
    at = ", ".join(repr(float(E.eigenvalues[i])) for E, i in zip(measures, atom))
    raise NonFiniteSymbolError(f"symbol is not finite at atom {tuple(atom)} (eigenvalues {at})")


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
        return _difference_quotient(
            self.base(x) - self.base(y), x - y, self.diagonal_value
        )


def _difference_quotient(num, den: np.ndarray, diagonal_value: complex = 0.0):
    """num / den, with ``diagonal_value`` wherever den == 0 exactly."""
    num = np.asarray(num, dtype=np.complex128)
    diag = den == 0
    if not diag.any():
        return num / den
    safe = np.where(diag, 1.0, den)
    return np.where(diag, diagonal_value, num / safe)


# Largest number of complex weight entries (4 MiB) one chunk of the last
# measure may hold once expanded to the column space of the head measures.
_CHUNK_ENTRIES = 2**18


def _check_chain_dims(
    measures: Sequence[SpectralMeasure], operators: Sequence[np.ndarray | None]
) -> None:
    for t, T in enumerate(operators):
        left, right = measures[t].dim, measures[t + 1].dim
        shape = (left, left) if T is None else T.shape
        if shape != (left, right):
            raise DimensionMismatchError(
                f"operator {t} has shape {shape}, expected ({left}, {right})"
            )


def _chain_integral(
    weights_of: Callable[[slice], np.ndarray],
    measures: Sequence[SpectralMeasure],
    operators: Sequence[np.ndarray | None],
    divided: int | None = None,
) -> np.ndarray:
    """Sum of w[i1..im] * P1_{i1} T1 P2_{i2} ... T_{m-1} Pm_{im}.

    An operator given as ``None`` is the identity; its transform is the
    frame product V_t* V_{t+1}, with no product by an identity matrix.

    ``weights_of(sl)`` returns the symbol weights w over every atom of the
    first m - 1 measures and the atoms ``sl`` of the last one (anything
    broadcastable to that shape).  A non-finite weight raises
    :class:`NonFiniteSymbolError`.

    With ``divided = t`` the sum carries the inverse-gap kernel of the two
    measures around operator t as well: each weight is multiplied by
    1/(l - l') for the atoms l of measure t and l' of measure t + 1, and by
    0 where l == l' exactly.  The kernel touches only those two measures,
    so it is folded into the transformed T_t once, as a Schur product:
    P_l (sum K P T Q) Q_l' = K(l, l') P_l T Q_l' by orthogonality of the
    atoms.  ``weights_of`` then returns undivided weights.  The kernel is
    applied in the eigenbasis and not in the original basis, where its
    1/gap-sized entries would pass through two more frame transforms and
    lose accuracy on clustered spectra.

    Works in the concatenated eigenbases: every interleaved operator is
    transformed once.  For m = 2 the weights act entrywise, as one Schur
    product.  For m >= 3 the last measure's atoms are taken in chunks whose
    weights, expanded to the column space of the first m - 1 measures, hold
    at most ``_CHUNK_ENTRIES`` entries (at least one atom per chunk).  Per
    chunk the symbol is called once, one einsum contracts the weights with
    the leading operators into G[j] for every last atom j of the chunk, and
    one matrix product G[j] @ T_last[:, block_j] fills that atom's columns,
    so a repeated last atom costs one product rather than one outer product
    per column.
    """
    _check_chain_dims(measures, operators)
    counts = tuple(len(E.eigenvalues) for E in measures)
    frames = [E.frame for E in measures]
    transformed = []
    for t, T in enumerate(operators):
        pre = frames[t].conj().T if T is None else frames[t].conj().T @ T
        transformed.append(pre @ frames[t + 1])
    if divided is not None:
        left, right = measures[divided], measures[divided + 1]
        gaps = left.eigenvalues[:, None] - right.eigenvalues[None, :]
        kernel = _difference_quotient(1.0, gaps)
        transformed[divided] = transformed[divided] * kernel[
            np.ix_(left.column_atom_index, right.column_atom_index)
        ]
    *head, last = measures

    def chunk_weights(sl: slice) -> np.ndarray:
        w = np.asarray(weights_of(sl), dtype=np.complex128)
        w = np.broadcast_to(w, (*counts[:-1], sl.stop - sl.start))
        _require_finite(w, measures, sl.start)
        return w

    if len(measures) == 2:
        w = chunk_weights(slice(0, counts[-1]))
        acc = w[np.ix_(head[0].column_atom_index, last.column_atom_index)] * transformed[0]
    else:
        # one letter per head measure's column axis, z for the chunk's last atoms
        axes = "abcdefgh"[: len(head)]
        subscripts = (
            f"{axes}z,"
            + ",".join(axes[t : t + 2] for t in range(len(head) - 1))
            + f"->z{axes[0]}{axes[-1]}"
        )
        repeated = any(E.dim > len(E.eigenvalues) for E in head)
        chunk = max(1, _CHUNK_ENTRIES // math.prod(E.dim for E in head))
        acc = np.empty((head[0].dim, last.dim), dtype=np.complex128)
        for lo in range(0, counts[-1], chunk):
            sl = slice(lo, min(lo + chunk, counts[-1]))
            w = chunk_weights(sl)
            if repeated:
                w = w[np.ix_(*(E.column_atom_index for E in head), np.arange(w.shape[-1]))]
            G = np.einsum(subscripts, w, *transformed[:-1])
            for j, block in enumerate(last.column_slices[sl]):
                acc[:, block] = G[j] @ transformed[-1][:, block]
    return frames[0] @ acc @ frames[-1].conj().T


def apply_function_single(f: Callable, E: SpectralMeasure) -> np.ndarray:
    """Sum of f(eigenvalue) * projection over the atoms of ``E``.

    Raises :class:`NonFiniteSymbolError` if f is NaN or infinite at an atom.
    """
    V = E.frame
    values = np.asarray(f(E.eigenvalues), dtype=np.complex128)
    values = np.broadcast_to(values, E.eigenvalues.shape)
    _require_finite(values, (E,))
    return (V * values[E.column_atom_index]) @ V.conj().T


def _atom_grids(measures: Sequence[SpectralMeasure]) -> list[np.ndarray]:
    """Each measure's eigenvalues along its own axis of the weight tensor."""
    m = len(measures)
    return [
        E.eigenvalues.reshape([-1 if axis == k else 1 for axis in range(m)])
        for k, E in enumerate(measures)
    ]


def _symbol_weights(phi: Callable, measures: Sequence[SpectralMeasure]) -> Callable:
    """The ``weights_of`` of :func:`_chain_integral` for phi on the atom grid."""
    *head, last = _atom_grids(measures)
    return lambda sl: phi(*head, last[..., sl])


def double_operator_integral(
    phi: Callable,
    E1: SpectralMeasure,
    T,
    E2: SpectralMeasure,
) -> np.ndarray:
    """Sum over atom pairs of phi(a_j, b_k) * P_j T Q_k."""
    measures = (E1, E2)
    return _chain_integral(_symbol_weights(phi, measures), measures, (as_complex_matrix(T),))


def triple_operator_integral(
    phi: Callable,
    E1: SpectralMeasure,
    T1,
    E2: SpectralMeasure,
    T2,
    E3: SpectralMeasure,
) -> np.ndarray:
    """Sum over atom triples of phi(a_j, b_k, c_l) * P_j T1 Q_k T2 R_l."""
    measures = (E1, E2, E3)
    operators = (as_complex_matrix(T1), as_complex_matrix(T2))
    return _chain_integral(_symbol_weights(phi, measures), measures, operators)


def _same_dim(*ops: HermitianOperator) -> None:
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionMismatchError(f"operators have mixed dimensions {sorted(dims)}")


def _apply_function(f: Callable, *ops: HermitianOperator) -> np.ndarray:
    """f(ops) as a chain over the operators' measures with identities between them."""
    _same_dim(*ops)
    measures = [spectral_measure(op) for op in ops]
    return _chain_integral(_symbol_weights(f, measures), measures, [None] * (len(ops) - 1))


def apply_function_pair(f: Callable, A: HermitianOperator, B: HermitianOperator) -> np.ndarray:
    """f(A, B) = sum of f(lambda_j, mu_k) P_j Q_k over both spectra."""
    return _apply_function(f, A, B)


def apply_function_triple(
    f: Callable,
    A: HermitianOperator,
    B: HermitianOperator,
    C: HermitianOperator,
) -> np.ndarray:
    """f(A, B, C) = sum of f(lambda, mu, nu) E_A E_B E_C over the three spectra."""
    return _apply_function(f, A, B, C)


def perturbation_via_divided_difference(
    f: Callable,
    A: HermitianOperator,
    B: HermitianOperator,
    diagonal_value: complex = 0.0,
) -> np.ndarray:
    """f(A) - f(B) as a double operator integral of the divided difference.

    The identity is exact for operators with finite spectra, for every
    function f and every choice of ``diagonal_value``.
    """
    _same_dim(A, B)
    dd = DividedDifference2(base=f, diagonal_value=diagonal_value)
    return double_operator_integral(
        dd, spectral_measure(A), A.matrix - B.matrix, spectral_measure(B)
    )


def argument_perturbation(
    f: Callable,
    index: int,
    X1: HermitianOperator,
    X2: HermitianOperator,
    Y: HermitianOperator,
    Z: HermitianOperator,
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

    The symbol weights are the plain differences high - low =
    f(l1,mu,nu) - f(l2,mu,nu), formed before any multiplication; the
    inverse-gap kernel 1/(l1 - l2), 0 on exact ties, rides on X1 - X2 in
    the eigenbases of X1 and X2 (see :func:`_chain_integral`), so no weight
    is divided.  A symbol that is not finite at some atom raises
    :class:`NonFiniteSymbolError`.
    """
    if index not in (0, 1, 2):
        raise ValueError("index must be 0, 1 or 2")
    _same_dim(X1, X2, Y, Z)
    others = [spectral_measure(Y), spectral_measure(Z)]
    measures = others[:index] + [spectral_measure(X1), spectral_measure(X2)] + others[index:]
    grids = _atom_grids(measures)
    rest = [k for k in range(4) if k not in (index, index + 1)]

    def f_on(k: int, g: list) -> np.ndarray:
        """f with the perturbed slot on measure k and the others on their own."""
        args = [g[r] for r in rest]
        args.insert(index, g[k])
        return f(*args)

    # in the last slot f(.., X1) does not involve the last measure, X2, so it
    # is evaluated once instead of once per chunk
    upper = f_on(index, grids) if index == 2 else None

    def weights_of(sl: slice) -> np.ndarray:
        g = grids[:3] + [grids[3][..., sl]]
        high = f_on(index, g) if upper is None else upper
        return high - f_on(index + 1, g)

    operators = [None, None]
    operators.insert(index, X1.matrix - X2.matrix)
    return _chain_integral(weights_of, measures, operators, divided=index)
