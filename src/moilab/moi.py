"""Multiple operator integrals for finitely atomic spectral measures.

Implements functional calculus f(A), f(A,B), f(A,B,C) for Hermitian
operators with finite spectra, the transformer forms that sandwich
arbitrary matrices between spectral projections, and the divided-difference
perturbation identities.

Symbols are plain callables.  They must accept numpy arrays and broadcast:
the atom grids are evaluated in one vectorized call, so ``lambda x, y:
np.sin(x) * y`` is fine while ``math.sin`` is not.

All sums are evaluated in the concatenated eigenbases of the measures by
one engine for two and three measures.  Every symbol table is built the
same way (:func:`_symbol_table`): one call of the symbol per chunk of one
measure's atoms, that chunk on axis 0 and the other measures' atoms behind
it, and :func:`_expand` repeats atoms to frame columns.  The table
multiplies a transformed operator entrywise; in a chain of three measures
the last one is chunked, and one dense matrix product per atom of the
chunk finishes the sum.  No weight tensor over all atoms is built, so a
generic triple at dimension d holds O(d^2 * chunk) weights.  The contraction order depends only on the
dimensions and atom counts, which keeps outputs bit-stable between runs.
A literal atom-by-atom loop lives in :mod:`moilab.reference` for
cross-checking.

The one-slot perturbation of a triple is a sum over four measures; it runs
as four three-measure chains of the same engine, stacked into one product
per atom of the chunked measure (see :func:`argument_perturbation`).

A symbol that returns NaN or infinity at some atom raises
:class:`NonFiniteSymbolError` instead of spreading through the sum.
"""

from __future__ import annotations

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
    values: np.ndarray, measures: Sequence[SpectralMeasure], start: int = 0, axis: int = -1
) -> None:
    """Raise :class:`NonFiniteSymbolError` naming one atom where ``values`` is not finite.

    ``values`` has one axis per measure, indexed by its atoms (length 1 for
    a measure the values do not depend on); axis ``axis`` starts at atom
    ``start`` (the first atom of a chunk).
    """
    if np.isfinite(values).all():
        return
    atom = np.argwhere(~np.isfinite(values))[0].tolist()
    atom[axis] += start
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
# measure may hold once expanded to the column space of the other measures.
_CHUNK_ENTRIES = 2**18

# The one-slot perturbation sizes its chunks so that all of its arrays that
# grow with the chunk fit in _CHUNK_ENTRIES together: at most this many
# dim x dim arrays per last atom.  The two symbol tables, the two gathered
# differences and the four blocks of the stacked product make 8; 2 more
# leave room for the symbol's own temporaries and for the copies that
# ``_expand`` makes when atoms repeat.
_PERTURBATION_ARRAYS = 10


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


def _transforms(
    measures: Sequence[SpectralMeasure], operators: Sequence[np.ndarray | None]
) -> list[np.ndarray]:
    """Each operator in the eigenbases around it, V_t* T_t V_{t+1}.

    ``None`` is the identity, whose transform is the frame product
    V_t* V_{t+1}, with no product by an identity matrix.
    """
    out = []
    for t, T in enumerate(operators):
        left = measures[t].frame.conj().T
        out.append((left if T is None else left @ T) @ measures[t + 1].frame)
    return out


def _chunks(count: int, entries_per_atom: int) -> list[slice]:
    """Consecutive slices of ``count`` atoms, each holding at most
    ``_CHUNK_ENTRIES // entries_per_atom`` of them (at least one)."""
    step = max(1, _CHUNK_ENTRIES // entries_per_atom)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _contract_last(
    products_of: Callable[[slice], np.ndarray],
    B: np.ndarray,
    last: SpectralMeasure,
    chunks: Sequence[slice],
    rows: int,
) -> np.ndarray:
    """Sum over the last measure's atoms j of G[j] @ B[:, block_j].

    ``products_of(sl)`` returns G, one ``rows``-row matrix per atom of the
    chunk ``sl``; atom j fills only its own column block, so a repeated last
    atom costs one matrix product rather than one outer product per column.
    """
    acc = np.empty((rows, last.dim), dtype=np.complex128)
    for sl in chunks:
        G = products_of(sl)
        for j, block in enumerate(last.column_slices[sl]):
            acc[:, block] = G[j] @ B[:, block]
    return acc


def _expand(w: np.ndarray, *measures: SpectralMeasure) -> np.ndarray:
    """Weights whose trailing axes, one atom axis per measure, are repeated
    to the measures' frame columns (no copy when every atom is simple)."""
    if all(E.dim == len(E.eigenvalues) for E in measures):
        return w
    return w[(..., *np.ix_(*(E.column_atom_index for E in measures)))]


def _symbol_table(
    f: Callable, measures: Sequence[SpectralMeasure], axes: Sequence[int], sl: slice
) -> np.ndarray:
    """f over the atoms of ``measures`` (its arguments), measure k along axis
    ``axes[k]``; the chunked measure, on axis 0, takes only its atoms ``sl``.
    ``table.transpose(axes)`` puts the axes back in argument order."""
    m = len(measures)
    shape = [0] * m
    grids = []
    for E, axis in zip(measures, axes):
        atoms = E.eigenvalues[sl] if axis == 0 else E.eigenvalues
        shape[axis] = len(atoms)
        grid = [1] * m
        grid[axis] = -1
        grids.append(atoms.reshape(grid))
    return np.broadcast_to(np.asarray(f(*grids), dtype=np.complex128), shape)


def _chain_integral(
    f: Callable,
    measures: Sequence[SpectralMeasure],
    operators: Sequence[np.ndarray | None],
) -> np.ndarray:
    """Sum of f(a1..am) * P1_{a1} T1 P2_{a2} ... T_{m-1} Pm_{am}, for m = 2 or 3.

    An operator given as ``None`` is the identity.  A symbol that is not
    finite at some atom raises :class:`NonFiniteSymbolError`.

    Works in the concatenated eigenbases: every interleaved operator is
    transformed once, and :func:`_expand` repeats the symbol table's atoms
    to frame columns.  For m = 2 the table is in chain order, all atoms of
    the first measure forming the one chunk on axis 0, and it acts
    entrywise, as one Schur product.  For m = 3 the last measure's atoms,
    on axis 0, are taken in chunks whose weights, expanded to the column
    space of the first two measures, hold at most ``_CHUNK_ENTRIES``
    entries (at least one atom per chunk).  Per chunk the symbol is called
    once, ``np.einsum("zab,ab->zab", w, T1)`` forms G[j] = w[j] * T1 for
    every last atom j of the chunk (C-contiguous when the first two
    measures have simple atoms; the ufunc ``*`` would round the complex
    products differently in the last bits), and :func:`_contract_last`
    finishes the sum against T2.
    """
    _check_chain_dims(measures, operators)
    transformed = _transforms(measures, operators)
    axes = (0, 1) if len(measures) == 2 else (1, 2, 0)

    def weights(sl: slice) -> np.ndarray:
        w = _symbol_table(f, measures, axes, sl)
        _require_finite(w.transpose(axes), measures, sl.start)
        return w

    if len(measures) == 2:
        first, last = measures
        acc = _expand(weights(slice(0, len(first.eigenvalues))), first, last) * transformed[0]
    else:
        first, middle, last = measures

        def products_of(sl: slice) -> np.ndarray:
            return np.einsum("zab,ab->zab", _expand(weights(sl), first, middle), transformed[0])

        chunks = _chunks(len(last.eigenvalues), first.dim * middle.dim)
        acc = _contract_last(products_of, transformed[1], last, chunks, first.dim)
    return measures[0].frame @ acc @ measures[-1].frame.conj().T


def apply_function_single(f: Callable, E: SpectralMeasure) -> np.ndarray:
    """Sum of f(eigenvalue) * projection over the atoms of ``E``.

    Raises :class:`NonFiniteSymbolError` if f is NaN or infinite at an atom.
    """
    V = E.frame
    values = _symbol_table(f, (E,), (0,), slice(0, len(E.eigenvalues)))
    _require_finite(values, (E,))
    return (V * values[E.column_atom_index]) @ V.conj().T


def double_operator_integral(
    phi: Callable,
    E1: SpectralMeasure,
    T,
    E2: SpectralMeasure,
) -> np.ndarray:
    """Sum over atom pairs of phi(a_j, b_k) * P_j T Q_k."""
    return _chain_integral(phi, (E1, E2), (as_complex_matrix(T),))


def triple_operator_integral(
    phi: Callable,
    E1: SpectralMeasure,
    T1,
    E2: SpectralMeasure,
    T2,
    E3: SpectralMeasure,
) -> np.ndarray:
    """Sum over atom triples of phi(a_j, b_k, c_l) * P_j T1 Q_k T2 R_l."""
    operators = (as_complex_matrix(T1), as_complex_matrix(T2))
    return _chain_integral(phi, (E1, E2, E3), operators)


def _same_dim(*ops: HermitianOperator) -> None:
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionMismatchError(f"operators have mixed dimensions {sorted(dims)}")


def _apply_function(f: Callable, *ops: HermitianOperator) -> np.ndarray:
    """f(ops) as a chain over the operators' measures with identities between them."""
    _same_dim(*ops)
    measures = [spectral_measure(op) for op in ops]
    return _chain_integral(f, measures, [None] * (len(ops) - 1))


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


def _nearest_pairs(first: SpectralMeasure, second: SpectralMeasure) -> tuple:
    """The nearest-atom maps between two measures and the atom pairs they mark.

    Returns pi (for each atom of ``first`` the nearest atom of ``second``),
    sigma (the reverse), and boolean atom masks: ``by_pi`` marks the pairs
    (a, pi(a)) and ``by_sigma`` the pairs (sigma(b), b) not already in
    ``by_pi``.
    """
    distance = np.abs(first.eigenvalues[:, None] - second.eigenvalues[None, :])
    pi = distance.argmin(axis=1)
    sigma = distance.argmin(axis=0)
    by_pi = np.zeros(distance.shape, dtype=bool)
    by_pi[np.arange(len(pi)), pi] = True
    by_sigma = np.zeros(distance.shape, dtype=bool)
    by_sigma[sigma, np.arange(len(sigma))] = True
    return pi, sigma, by_pi, by_sigma & ~by_pi


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

    The sum is exact, and it is evaluated as four three-measure chains, with
    no weight over four measures.  In the eigenbases, KT = (V1* (X1 - X2) V2)
    o K with the inverse-gap kernel K = 1/(l1 - l2), 0 on exact ties.  With
    h = f with X1 in the slot and l = f with X2 there (each over three
    measures), pi(a) the X2 atom nearest to X1 atom a and sigma(b) the X1
    atom nearest to X2 atom b, KT splits into N_pi (pairs b = pi(a)), N_sigma
    (pairs a = sigma(b) not in N_pi) and the rest F, and

        sum = C1(h; F) - C2(l; F) + C1(h - l o pi; N_pi) + C2(h o sigma - l; N_sigma)

    where C1 sums X2 out (its part of KT joins the transform to X2's right
    neighbour, or is appended when X2 is last) and C2 sums X1 out (joining
    from the left, or prepended when X1 is first).  Every pair that is
    nearest for one of its atoms therefore forms f(l1, ..) - f(l2, ..)
    before any multiplication, so clustered spectra keep that rounding.

    The last slot runs as the transpose of a chain with its measures
    reversed, so that the chunked measure is never a perturbed one: per
    chunk of its atoms h and l are evaluated once, l o pi and h o sigma are
    gathered from them, and every array that grows with the chunk stays
    within ``_CHUNK_ENTRIES`` entries together.

    The four chains share the chunked measure and run as one: per chunk
    their weights h, h - l o pi, l and h o sigma - l stack as four blocks
    along the pair axis and multiply one stacked operator M, and one product
    per last atom against R finishes all four.  With T0, T1, T2 the chain's
    transformed operators: when the pair leads, M = [KT_F T1; KT_pi T1; T1;
    T1] stacks by rows, R = T2, and the C2 blocks take -KT_F and KT_sigma
    from the left afterwards; otherwise M = [T0, T0, -T0 KT_F, T0 KT_sigma]
    and R = [KT_F T2; KT_pi T2; T2; T2].  A symbol that is not finite at
    some atom raises :class:`NonFiniteSymbolError` naming a four-measure
    atom tuple.
    """
    if index not in (0, 1, 2):
        raise ValueError("index must be 0, 1 or 2")
    _same_dim(X1, X2, Y, Z)
    E1, E2, EY, EZ = (spectral_measure(op) for op in (X1, X2, Y, Z))
    measures = [EY, EZ]
    measures[index:index] = [E1, E2]
    operators = [None, None]
    operators.insert(index, X1.matrix - X2.matrix)
    transformed = _transforms(measures, operators)
    kernel = _difference_quotient(1.0, E1.eigenvalues[:, None] - E2.eigenvalues[None, :])
    transformed[index] = transformed[index] * kernel[
        np.ix_(E1.column_atom_index, E2.column_atom_index)
    ]

    # layout axis of each slot in the symbol tables; axis 0 is the chunked
    # measure, Z, or Y in the last slot
    slot_axes = (0, 2, 1) if index == 2 else (1, 2, 0)

    def table(E: SpectralMeasure, sl: slice) -> np.ndarray:
        """f with E in the perturbed slot, over the chunk ``sl`` on axis 0."""
        operands = [EY, EZ]
        operands.insert(index, E)
        values = _symbol_table(f, operands, slot_axes, sl)
        # the chain position of the pair measure that E's table skips
        missing = index + 1 if E is E1 else index
        chain_order = np.expand_dims(values.transpose(slot_axes), missing)
        _require_finite(chain_order, measures, sl.start, axis=0 if index == 2 else -1)
        return values

    # The last slot runs transposed: the chain Y, Z, X1, X2 read backwards is
    # X2, X1, Z, Y, and its weights are l - h = -(h - l).  In either
    # orientation the pair is chain[q], chain[q + 1], the weight is
    # u(first atom) - v(second atom), and chain[3] is chunked.
    if index == 2:
        chain, q = measures[::-1], 0
        T0, T1, T2 = (T.T for T in transformed[::-1])
    else:
        chain, q = measures, index
        T0, T1, T2 = transformed
    first, second, last = chain[q], chain[q + 1], chain[3]
    other = chain[2 - 2 * q]  # the unperturbed measure that is not chunked
    pi, sigma, by_pi, by_sigma = _nearest_pairs(first, second)
    KT = (T0, T1)[q]
    columns = np.ix_(first.column_atom_index, second.column_atom_index)
    KT_pi = np.where(by_pi[columns], KT, 0.0)
    KT_sigma = np.where(by_sigma[columns], KT, 0.0)
    KT_far = np.where((by_pi | by_sigma)[columns], 0.0, KT)
    d = first.dim
    chunks = _chunks(len(last.eigenvalues), _PERTURBATION_ARRAYS * d * d)

    # the four chains as blocks along the pair axis; C2(l; F) is subtracted
    axis = 1 + q
    if q == 0:
        M = np.vstack([KT_far @ T1, KT_pi @ T1, T1, T1])
        R = T2
    else:
        M = np.hstack([T0, T0, -(T0 @ KT_far), T0 @ KT_sigma])
        R = np.vstack([KT_far @ T2, KT_pi @ T2, T2, T2])

    def products_of(sl: slice) -> np.ndarray:
        u, v = table(first, sl), table(second, sl)  # the pair measure on axis 1 + q
        weights = (u, u - np.take(v, pi, axis=axis), v, np.take(u, sigma, axis=axis) - v)
        blocks = [
            _expand(w, *((E, other) if q == 0 else (other, E)))
            for w, E in zip(weights, (first, first, second, second))
        ]
        G = np.concatenate(blocks, axis=axis)
        G *= M
        return G

    acc = _contract_last(products_of, R, last, chunks, M.shape[0])
    if q == 0:
        o0, o1, o2, o3 = np.split(acc, 4)
        acc = o0 + o1 - KT_far @ o2 + KT_sigma @ o3
    if index == 2:
        acc = -acc.T
    return measures[0].frame @ acc @ measures[-1].frame.conj().T
