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
chunk finishes the sum, or one stacked product when the chunk's atoms are
all simple.  No weight tensor over all atoms is built: every chain counts
the arrays that grow with its chunk and sizes the chunk so that all of
them together hold at most ``_CHUNK_ENTRIES`` entries, so a generic triple
at dimension d holds O(d^2 * chunk) weights.  The contraction order depends
only on the dimensions and atom counts, which keeps outputs bit-stable
between runs.  A literal atom-by-atom loop lives in :mod:`moilab.reference`
for cross-checking.

The engine takes a leading stack axis: :func:`apply_function_stack`
evaluates one symbol over several operator tuples of one dimension in one
call.  The members may differ in atom structure, so it builds each slot in
column form, every frame column its own atom; every array gains the stack
axis in front, and a chunk counts the weights of all members.

The one-slot perturbation of a triple is a sum over four measures; it runs
as four three-measure chains of the same engine, written as three blocks of
one product per atom of the chunked measure into a workspace allocated once
per call (see :func:`argument_perturbation`).

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
    ZeroDimensionError,
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
    a measure the values do not depend on), behind the stack axis when the
    measures have one; axis ``axis`` starts at atom ``start`` (the first
    atom of a chunk).  A stacked call names the stack member too.
    """
    if np.isfinite(values).all():
        return
    index = np.argwhere(~np.isfinite(values))[0].tolist()
    member = index[: values.ndim - len(measures)]
    atom = index[len(member) :]
    atom[axis] += start
    at = ", ".join(repr(float(E.eigenvalues[(*member, i)])) for E, i in zip(measures, atom))
    where = f"atom {tuple(atom)}" + (f" of stack member {member[0]}" if member else "")
    raise NonFiniteSymbolError(f"symbol is not finite at {where} (eigenvalues {at})")


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
    safe = np.where(diag, 1.0, den)
    return np.where(diag, diagonal_value, num / safe)


# Largest number of complex entries (4 MiB) that all arrays growing with one
# chunk of the last measure may hold together, in every chain: each chain
# counts its arrays per last atom, expanded to the column space of the
# other measures, and sizes its chunks by that count.
_CHUNK_ENTRIES = 2**18

# A three-measure chain holds this many such arrays per last atom: the
# symbol table, one full-size temporary inside the symbol, and the product G.
_CHAIN_ARRAYS = 3

# The one-slot perturbation holds at most this many dim x dim arrays per
# last atom.  The two symbol tables, the three blocks of the workspace and
# the scratch, which holds each gathered difference and the second product
# of a merged block, make 6; 4 more leave room for the symbol's own
# temporaries and for the copies that ``_expand`` makes when atoms repeat.
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
    V_t* V_{t+1}, with no product by an identity matrix.  A frame that is
    exactly the identity (:attr:`SpectralMeasure.identity_frame`) takes no
    product either; the transform is then the other factor, C-contiguous as
    a product would give it.  Stacked frames give one stack of transforms.
    """
    out = []
    for t, T in enumerate(operators):
        left, right = measures[t], measures[t + 1]
        X = T
        if not left.identity_frame:
            adjoint = np.conjugate(left.frame.swapaxes(-1, -2), order="C")
            X = adjoint if X is None else adjoint @ X
        if X is None or not right.identity_frame:
            X = right.frame if X is None else X @ right.frame
        out.append(np.ascontiguousarray(X))
    return out


def _from_eigenbases(first: SpectralMeasure, acc: np.ndarray, last: SpectralMeasure) -> np.ndarray:
    """V_first acc V_last*: a chain's sum, held in the eigenbases of its end
    measures, back in the standard basis.  An identity frame takes no
    product."""
    if not first.identity_frame:
        acc = first.frame @ acc
    if not last.identity_frame:
        acc = acc @ last.frame.conj().swapaxes(-1, -2)
    return acc


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
    atom costs one matrix product rather than one outer product per column,
    and none when its G is exactly zero, as the f_0 term of a difference
    symbol makes it: B is finite, so the block is then exactly 0.
    A chunk whose atoms are all simple takes one stacked product instead,
    matrix j against column j, with the bits of the per-atom loop.  G and
    B may carry the stack axis in front.
    """
    acc = np.empty((*B.shape[:-2], rows, last.dim), dtype=np.complex128)
    for sl in chunks:
        G = products_of(sl)
        blocks = last.column_slices[sl]
        columns = slice(blocks[0].start, blocks[-1].stop)
        if columns.stop - columns.start == len(blocks):
            vectors = B[..., columns].swapaxes(-1, -2)[..., None]
            acc[..., columns] = (G @ vectors)[..., 0].swapaxes(-1, -2)
        else:
            for j, block in enumerate(blocks):
                acc[..., block] = G[..., j, :, :] @ B[..., block] if G[..., j, :, :].any() else 0.0
        del G  # a chain's G is freed here; argument_perturbation's is a workspace view
    return acc


def _expand(w: np.ndarray, *measures: SpectralMeasure) -> np.ndarray:
    """Weights whose trailing axes, one atom axis per measure, are repeated
    to the measures' frame columns (no copy when every atom is simple)."""
    if all(E.dim == E.eigenvalues.shape[-1] for E in measures):
        return w
    return w[(..., *np.ix_(*(E.column_atom_index for E in measures)))]


def _symbol_table(
    f: Callable, measures: Sequence[SpectralMeasure], axes: Sequence[int], sl: slice
) -> np.ndarray:
    """f over the atoms of ``measures`` (its arguments), measure k along axis
    ``axes[k]``; the chunked measure, on axis 0, takes only its atoms ``sl``.
    ``table.transpose(axes)`` puts the axes back in argument order.  Stacked
    measures keep their stack axis in front of those, in one call of f."""
    m = len(measures)
    lead = measures[0].eigenvalues.shape[:-1]
    shape = [0] * m
    grids = []
    for E, axis in zip(measures, axes):
        atoms = E.eigenvalues[..., sl] if axis == 0 else E.eigenvalues
        shape[axis] = atoms.shape[-1]
        grid = [1] * m
        grid[axis] = -1
        grids.append(atoms.reshape(*lead, *grid))
    table = np.asarray(f(*grids), dtype=np.complex128)
    return table if table.shape == (*lead, *shape) else np.broadcast_to(table, (*lead, *shape))


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
    on axis 0, are taken in chunks whose ``_CHAIN_ARRAYS`` arrays (the
    table, the symbol's temporary and G), each expanded to the column space
    of the first two measures, hold at most ``_CHUNK_ENTRIES`` entries
    together (at least one atom per chunk).  Per chunk the symbol is called
    once, ``np.einsum("...zab,...ab->...zab", w, T1)`` forms G[j] = w[j] * T1
    for every last atom j of the chunk (C-contiguous when the first two
    measures have simple atoms; the ufunc ``*`` would round the complex
    products differently in the last bits), and :func:`_contract_last`
    finishes the sum against T2.

    Measures in column form (:func:`apply_function_stack`) carry the stack
    axis in front, and the sum runs for every member at once.
    """
    _check_chain_dims(measures, operators)
    transformed = _transforms(measures, operators)
    lead = measures[0].eigenvalues.shape[:-1]
    axes = (0, 1) if len(measures) == 2 else (1, 2, 0)
    order = (*range(len(lead)), *(len(lead) + axis for axis in axes))

    def weights(sl: slice) -> np.ndarray:
        w = _symbol_table(f, measures, axes, sl)
        _require_finite(w.transpose(order), measures, sl.start)
        return w

    if len(measures) == 2:
        first, last = measures
        acc = _expand(weights(slice(0, first.eigenvalues.shape[-1])), first, last) * transformed[0]
    else:
        first, middle, last = measures

        def products_of(sl: slice) -> np.ndarray:
            w = _expand(weights(sl), first, middle)
            return np.einsum("...zab,...ab->...zab", w, transformed[0])

        entries_per_atom = _CHAIN_ARRAYS * math.prod(lead) * first.dim * middle.dim
        chunks = _chunks(last.eigenvalues.shape[-1], entries_per_atom)
        acc = _contract_last(products_of, transformed[1], last, chunks, first.dim)
    del transformed  # freed before the change of basis, which lowers the peak
    return _from_eigenbases(measures[0], acc, measures[-1])


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


def apply_function_stack(f: Callable, eigenvalues, frames, members) -> np.ndarray:
    """f over a stack of pairs or triples drawn from k operators of one
    dimension d, given in column form: ``eigenvalues`` (k, d) holds the
    eigenvalue of every frame column and ``frames`` (k, d, d) the unitary
    eigenvector frames.  Row i of the integer table ``members`` (m, 2 or 3)
    names the operators of member i, slot by slot; the result is (m, d, d),
    empty for an empty table, which calls no symbol.

    Each slot becomes one measure stacked over the members, with every
    frame column its own atom, so members of different atom structure share
    one layout.  One engine call, with one symbol call per chunk, serves the
    stack; each member equals :func:`apply_function_pair` or
    :func:`apply_function_triple` on its own operators to rounding, not bit
    for bit.  A non-finite symbol raises :class:`NonFiniteSymbolError`
    naming the member.  A table that is not (m, 2) or (m, 3) integers in
    [0, k), or eigenvalues and frames of other shapes, raise ``ValueError``,
    and d = 0 raises :class:`~moilab.linalg.ZeroDimensionError`.
    """
    eigenvalues, frames, members = map(np.asarray, (eigenvalues, frames, members))
    k, d = eigenvalues.shape if eigenvalues.ndim == 2 else (-1, -1)
    table = members.ndim == 2 and members.shape[1] in (2, 3) and members.dtype.kind in "iu"
    if not table or frames.shape != (k, d, d) or ((members < 0) | (members >= k)).any():
        raise ValueError(
            "expected an integer table of 2 or 3 columns with entries in [0, k), "
            "eigenvalues (k, d) and frames (k, d, d)"
        )
    if not d:
        raise ZeroDimensionError("stacked operators have dimension at least 1")
    if not len(members):
        return np.empty((0, d, d), dtype=np.complex128)
    ones = np.ones(d, dtype=np.intp)
    measures = [SpectralMeasure(eigenvalues[slot], frames[slot], ones) for slot in members.T]
    return _chain_integral(f, measures, [None] * (members.shape[1] - 1))


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
    their weights h, h - l o pi, l and h o sigma - l multiply their
    operators entrywise into three blocks along the pair axis, the two
    chains that share R summed into one block, and one product per last
    atom against R finishes all four.  With T0, T1, T2 the chain's
    transformed operators: when the pair leads, the blocks are
    h (KT_F T1) + (h - l o pi) (KT_pi T1), l T1 and (h o sigma - l) T1 by
    rows, R = T2, and the last two take -KT_F and KT_sigma from the left
    afterwards; otherwise they are h T0, (h - l o pi) T0 and
    l (-T0 KT_F) + (h o sigma - l) (T0 KT_sigma) by columns, and
    R = [KT_F T2; KT_pi T2; T2].  The blocks are written in place into one
    workspace, sized by the widest chunk and allocated once per call, and
    the gathered differences into one scratch beside it; when atoms repeat,
    :func:`_expand` copies each weight to frame columns first.  A symbol
    that is not finite at some atom raises :class:`NonFiniteSymbolError`
    naming a four-measure atom tuple.
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

    # the four chains' operators, in the order of their weights h, h - l o pi,
    # l and h o sigma - l, and the block each fills: the two chains that share
    # R fill one block, and C2(l; F) is subtracted
    axis = 1 + q
    if q == 0:
        M, into = (KT_far @ T1, KT_pi @ T1, T1, T1), (0, 0, 1, 2)
        R = T2
    else:
        M, into = (T0, T0, -(T0 @ KT_far), T0 @ KT_sigma), (0, 1, 2, 2)
        R = np.vstack([KT_far @ T2, KT_pi @ T2, T2])
    width = chunks[0].stop
    work = np.empty((width, 3 * d, d) if q == 0 else (width, d, 3 * d), dtype=np.complex128)
    scratch = np.empty((width, d, d), dtype=np.complex128)

    def gathered(w: np.ndarray, atoms: np.ndarray) -> np.ndarray:
        """w at ``atoms`` along the pair axis, written into the scratch (into
        its first entries when atoms repeat, as the weight is then smaller)."""
        shape = list(w.shape)
        shape[axis] = len(atoms)
        out = scratch.reshape(-1)[: math.prod(shape)].reshape(shape)
        return np.take(w, atoms, axis=axis, out=out, mode="clip")

    def weights(sl: slice):
        """The four weights over the chunk ``sl``, each with its pair measure;
        a gathered difference lives in the scratch until the next is formed."""
        u, v = table(first, sl), table(second, sl)  # the pair measure on axis 1 + q
        yield u, first
        near = gathered(v, pi)
        yield np.subtract(u, near, out=near), first
        yield v, second
        far = gathered(u, sigma)
        yield np.subtract(far, v, out=far), second

    def products_of(sl: slice) -> np.ndarray:
        G, s = work[: sl.stop - sl.start], scratch[: sl.stop - sl.start]
        blocks = np.split(G, 3, axis=axis)
        filled = -1
        for (w, E), T, b in zip(weights(sl), M, into):
            w = _expand(w, *((E, other) if q == 0 else (other, E)))
            if b == filled:  # the block's second chain: its product in the scratch
                blocks[b] += np.multiply(w, T, out=s)
            else:
                np.multiply(w, T, out=blocks[b])
            filled = b
        return G

    acc = _contract_last(products_of, R, last, chunks, work.shape[1])
    if q == 0:
        o0, o1, o2 = np.split(acc, 3)
        acc = o0 - KT_far @ o1 + KT_sigma @ o2
    if index == 2:
        acc = -acc.T
    return _from_eigenbases(measures[0], acc, measures[-1])
