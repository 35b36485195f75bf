"""Dense complex linear algebra substrate.

Hermitian validation, spectral measures with eigenvalue grouping, singular
values and Schatten norms.  Everything is built on numpy's LAPACK bindings;
the contracts live in the grouping logic and in the tolerance conventions
below.

Operators come from one of two constructors.  :func:`hermitian_from_matrix`
validates a matrix, whose spectral measure ``eigh`` finds on first use.
:func:`hermitian_from_spectrum` takes a spectrum that is already known
(eigenvalues, an eigenvector frame and multiplicities) and validates it;
that operator is never decomposed, and its matrix is formed only when it is
first read.  A frame is the identity when it equals I exactly
(:attr:`SpectralMeasure.identity_frame`), the one test both this module and
the operator integrals read.

Conventions
-----------
* Inner products are conjugate-linear in the SECOND slot:
  (x, y) = sum_i x_i * conj(y_i).  Consequently the map w -> (w, v) u has
  the matrix u v*, ``np.outer(u, v.conj())``.
* Schatten indices are plain floats with ``math.inf`` as the operator-norm
  value; the infinite case is branched before any exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class NotSquareError(ValueError):
    """Matrix expected to be square."""


class NotHermitianError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class ZeroDimensionError(ValueError):
    """An operator, or a stack of them, of dimension 0."""


class EigensolverError(RuntimeError):
    """Eigenvalue iteration did not converge."""


class SvdError(RuntimeError):
    """Singular value decomposition did not converge."""


class InvalidSpectrumError(ValueError):
    """Eigenvalues, frame and multiplicities do not form a spectral measure."""


# Consecutive eigenvalues whose gap is at most this land in one atom, unless
# the spectrum's scale asks for more (:func:`_group_tolerance`).
_GROUP_TOL = 1e-8

# eigh leaves each eigenvalue within a few eps * dim * max|lambda| of the
# exact one; a gap within this many of those units also lands in one atom.
_GROUP_ROUNDING = 4.0

# Relative floor below which a singular value is treated as exactly zero
# before exponentiation (avoids 0**p noise for the finite-p norms).
_SINGULAR_VALUE_FLOOR = 1e-14


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce input to a 2-d complex128 array, rejecting non-finite entries."""
    return _complex_matrices(entries, stack=False)


def _complex_matrices(entries, stack: bool) -> np.ndarray:
    """:func:`as_complex_matrix`, which also takes a stack (..., m, n) when
    ``stack`` is true."""
    M = np.asarray(entries, dtype=np.complex128)
    if M.ndim != 2 and not (stack and M.ndim > 2):
        raise ValueError(f"expected a matrix, got an array of rank {M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return M


def hermitian_tolerance(M: np.ndarray) -> float:
    """Scale-aware tolerance for the M == M* check: 1e-10 * max(1, |M|_max)."""
    return 1e-10 * max(1.0, float(np.max(np.abs(M))))


def projection_tolerance(dim: int) -> float:
    """Tolerance for projection algebra and completeness checks: 1e-8 * dim."""
    return 1e-8 * dim


class HermitianOperator:
    """A square complex matrix equal to its conjugate transpose.

    ``HermitianOperator(M)`` holds ``M`` as given.  Construct through
    :func:`hermitian_from_matrix`, which validates and symmetrizes a matrix,
    or :func:`hermitian_from_spectrum`, which validates a known spectral
    measure and forms the matrix from it on the first read of
    :attr:`matrix`.  Instances are immutable.  The spectral measure
    (:func:`spectral_measure`) is computed once and cached; an operator built
    from its spectrum starts with it, and :attr:`dim` reads it.
    """

    def __init__(self, matrix: np.ndarray):
        vars(self)["matrix"] = matrix

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable HermitianOperator")

    @cached_property
    def matrix(self) -> np.ndarray:
        # reached only by an operator built from its spectrum
        return _spectrum_matrix(self._measure)

    @property
    def dim(self) -> int:
        formed = vars(self).get("matrix")
        return self._measure.dim if formed is None else formed.shape[0]

    @cached_property
    def _measure(self) -> "SpectralMeasure":
        return _decompose(self)


def hermitian_from_matrix(entries) -> HermitianOperator:
    """Validate Hermitian symmetry and return the symmetrized operator.

    The input must be square and satisfy |M - M*|_max <= hermitian_tolerance(M);
    the returned operator holds (M + M*)/2 so that the stored matrix is
    Hermitian to the last bit.

    Raises
    ------
    NotSquareError
        If the matrix is not square.
    ZeroDimensionError
        If the matrix is 0 x 0.
    NotHermitianError
        If the deviation from self-adjointness exceeds the tolerance.
    """
    M = as_complex_matrix(entries)
    if M.shape[0] != M.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {M.shape}")
    if not M.size:
        raise ZeroDimensionError("an operator has dimension at least 1")
    deviation, tol = float(np.max(np.abs(M - M.conj().T))), hermitian_tolerance(M)
    if deviation > tol:
        raise NotHermitianError(f"|M - M*|_max = {deviation:.3e} exceeds tolerance {tol:.3e}")
    return HermitianOperator((M + M.conj().T) / 2.0)


def hermitian_from_spectrum(eigenvalues, frame, multiplicities) -> HermitianOperator:
    """The operator with a known spectral measure, which it carries.

    ``eigenvalues`` are the atoms in strictly increasing order,
    ``multiplicities`` their eigenspace dimensions, and ``frame`` the
    dim x dim unitary whose consecutive column blocks of those widths span
    the eigenspaces.  Every check runs here; the matrix is formed on its
    first read (:func:`_spectrum_matrix`), and :attr:`HermitianOperator.dim`
    and :func:`spectral_measure` do not read it.  A frame that equals the
    identity exactly (:attr:`SpectralMeasure.identity_frame`) is unitary
    without a check; a frame merely close to the identity takes the unitary
    check.  The measure is stored on the operator, so
    :func:`spectral_measure` never runs ``eigh`` on it.

    Raises
    ------
    ZeroDimensionError
        If the frame is 0 x 0.
    InvalidSpectrumError
        If an eigenvalue is not real and finite or does not exceed the one
        before it by more than the grouping tolerance (``eigh`` would merge
        them), if a multiplicity is not an integer of at least 1 or they do
        not sum to the dimension, or if max|V*V - I| exceeds
        :func:`projection_tolerance`.
    """
    values = np.array(eigenvalues, ndmin=1)
    V = as_complex_matrix(frame)
    counts = np.array(multiplicities, ndmin=1)
    dim = V.shape[0]
    if V.shape != (dim, dim):
        raise InvalidSpectrumError(f"frame must be square, got shape {V.shape}")
    if not dim:
        raise ZeroDimensionError("an operator has dimension at least 1")
    real = values.dtype.kind in "iuf"
    values = values.astype(float, copy=False) if real else values
    finite = real and values.ndim == 1 and np.isfinite(values).all()
    tol = _group_tolerance(values, dim) if finite else _GROUP_TOL
    if not (finite and (np.diff(values) > tol).all()):
        raise InvalidSpectrumError(
            f"eigenvalues must be real, finite and increase by more than {tol:g}"
        )
    whole = counts.dtype.kind in "iu"
    if not whole or counts.shape != values.shape or (counts < 1).any() or counts.sum() != dim:
        raise InvalidSpectrumError(
            f"multiplicities {counts.tolist()} must be integers >= 1, one per eigenvalue, "
            f"and sum to {dim}"
        )
    measure = SpectralMeasure(values, V, counts.astype(np.int64))
    if not measure.identity_frame:
        deviation = float(np.max(np.abs(V.conj().T @ V - np.eye(dim))))
        if deviation > projection_tolerance(dim):
            raise InvalidSpectrumError(f"frame is not unitary: |V*V - I|_max = {deviation:.3e}")
    A = HermitianOperator.__new__(HermitianOperator)  # no matrix until it is read
    vars(A)["_measure"] = measure  # fill the cache, so A is never decomposed
    return A


def _spectrum_matrix(E: SpectralMeasure) -> np.ndarray:
    """The matrix of the measure ``E``: (V diag(lambda)) V*, symmetrized,
    formed from the columns whose eigenvalue is not zero only, so a rank-r
    operator costs a rank-r product.  On an identity frame it is
    diag(lambda), the same bits the product gives, and no dim^3 product
    runs."""
    weights = E.eigenvalues[E.column_atom_index]
    if E.identity_frame:
        return np.diag(weights).astype(np.complex128)
    nonzero = weights != 0.0  # a zero eigenvalue adds nothing to the sum
    W = E.frame[:, nonzero]
    M = (W * weights[nonzero]) @ W.conj().T
    M += M.conj().T  # symmetrized in place: the bits of (M + M*) / 2
    M /= 2.0
    return M


def _group_tolerance(values: np.ndarray, dim: int) -> float:
    """The gap at or below which consecutive eigenvalues of a dim x dim
    operator land in one atom: ``_GROUP_TOL``, or ``_GROUP_ROUNDING`` * eps
    * dim * max|lambda| when the spectrum's scale makes that larger."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return max(_GROUP_TOL, _GROUP_ROUNDING * float(np.finfo(float).eps) * dim * peak)


def identity_frame(dim: int) -> np.ndarray:
    """The dim x dim identity as a read-only view of 2 dim - 1 entries.

    Entry (i, j) is entry dim - 1 - i + j of a line of zeros with a 1 in the
    middle, so only the diagonal reads 1.  It passes
    :attr:`SpectralMeasure.identity_frame`, so no product by it runs, and it
    holds O(dim) memory instead of a dense identity's dim^2.
    """
    line = np.zeros(2 * dim - 1, dtype=np.complex128)
    line[dim - 1] = 1.0
    step = line.itemsize
    frame = np.ndarray((dim, dim), line.dtype, line, (dim - 1) * step, (-step, step))
    frame.flags.writeable = False
    return frame


def zero_operator(dim: int) -> HermitianOperator:
    """The dim x dim zero operator: one atom at 0 with the identity frame."""
    return hermitian_from_spectrum([0.0], identity_frame(dim), [dim])


@dataclass(frozen=True)
class SpectralAtom:
    """One atom of a finitely atomic spectral measure.

    ``basis`` holds orthonormal columns spanning the eigenspace; the dense
    orthogonal projection is materialized on demand.
    """

    eigenvalue: float
    basis: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    @property
    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True)
class SpectralMeasure:
    """Finitely atomic spectral measure held as one eigenvector frame.

    ``eigenvalues`` holds the atom values in strictly increasing order and
    ``multiplicities`` their eigenspace dimensions.  ``frame`` is the dim x dim
    unitary whose consecutive column blocks, of those widths, are the
    eigenspace bases, so the atoms' projections resolve the identity.  The
    operator-integral contractions read the frame directly; :attr:`atoms`
    is a per-atom view derived from it.  The engine's column form, which
    only :func:`moilab.moi.apply_function_stack` builds, stacks the measures
    of several operators in one: ``eigenvalues`` and ``frame`` then carry a
    leading stack axis, and each column is its own atom.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray
    multiplicities: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.shape[-1]

    @cached_property
    def identity_frame(self) -> bool:
        """True iff the frame equals the identity exactly, an O(dim^2) test
        made once per measure; False for a stacked (column-form) frame and
        for a frame merely close to I.  A product by such a frame returns
        its other factor's entries, so no product by it runs."""
        V = self.frame
        return V.ndim == 2 and bool((np.diagonal(V) == 1).all()) and np.count_nonzero(V) == self.dim

    @cached_property
    def atoms(self) -> tuple[SpectralAtom, ...]:
        """The per-atom view: each value with its column block of the frame,
        whose :attr:`SpectralAtom.projection` is the atom's projection."""
        return tuple(
            SpectralAtom(float(value), self.frame[:, block])
            for value, block in zip(self.eigenvalues, self.column_slices)
        )

    @cached_property
    def column_slices(self) -> tuple[slice, ...]:
        ends = np.cumsum(self.multiplicities).tolist()
        return tuple(slice(lo, hi) for lo, hi in zip([0, *ends], ends))

    @cached_property
    def column_atom_index(self) -> np.ndarray:
        """For each frame column, the index of the atom it belongs to."""
        return np.repeat(np.arange(len(self.eigenvalues)), self.multiplicities)


def spectral_measure(A: HermitianOperator) -> SpectralMeasure:
    """Eigendecompose ``A`` and merge nearly equal eigenvalues into atoms.

    Consecutive eigenvalues whose gap is at most 1e-8, or a few eps * dim *
    max|lambda| when that is larger, land in the same atom; the atom's
    eigenvalue is the group mean and its projection is the sum of the
    grouped rank-one eigenprojections.  The measure is
    cached on ``A``, so each operator is decomposed once; an operator from
    :func:`hermitian_from_spectrum` carries its measure and is never
    decomposed.

    Raises
    ------
    EigensolverError
        If the underlying eigenvalue iteration fails to converge.
    """
    return A._measure


def _decompose(A: HermitianOperator) -> SpectralMeasure:
    try:
        values, vectors = np.linalg.eigh(A.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(str(exc)) from exc
    tol = _group_tolerance(values, len(values))
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    multiplicities = np.diff(starts, append=len(values))
    eigenvalues = values[starts]
    for k in np.flatnonzero(multiplicities > 1):
        eigenvalues[k] = np.mean(values[starts[k] : starts[k] + multiplicities[k]])
    return SpectralMeasure(eigenvalues, vectors, multiplicities)


def singular_values(M) -> np.ndarray:
    """Singular values of ``M`` in descending order.

    ``M`` may be one matrix or a stack of shape (..., m, n).  A stack costs
    one numpy call, not one per matrix, and gives each of its matrices the
    singular values that matrix gives on its own, bit for bit, in an array
    of shape (..., min(m, n)).

    Raises
    ------
    ValueError
        If an entry is not finite, or ``M`` has fewer than two axes.
    SvdError
        If the SVD iteration fails to converge.
    """
    M = _complex_matrices(M, stack=True)
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(str(exc)) from exc


def hermitian_singular_values(A: HermitianOperator) -> np.ndarray:
    """Singular values of a Hermitian operator, read off its spectral measure.

    They are the absolute eigenvalues, each repeated by its multiplicity,
    in descending order, as :func:`singular_values` returns them.  No SVD
    runs, and an operator that carries its measure is not decomposed.
    """
    E = spectral_measure(A)
    return np.sort(np.abs(E.eigenvalues[E.column_atom_index]))[::-1]


def validate_schatten_index(p: float) -> float:
    """Check p >= 1 (math.inf allowed) and return it as a float."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(
            f"Schatten index must satisfy p >= 1 (math.inf for the operator norm), got {p}"
        )
    return p


def schatten_norm(M, p: float) -> float:
    """The l^p norm of the singular values; p = math.inf gives the operator norm.

    Singular values below 1e-14 times the largest are treated as exact
    zeros before exponentiation.  The sum is scaled by the leading singular
    value so extreme finite p cannot overflow.
    """
    p = validate_schatten_index(p)
    return float(norms_of_singular_values(singular_values(M), p))


def norms_of_singular_values(s: np.ndarray, p: float) -> np.ndarray:
    """:func:`schatten_norm` of every matrix of a stack, from its singular
    values ``s`` (..., n).

    ``s`` is descending on its last axis, as :func:`singular_values` returns
    it, and ``p`` has passed :func:`validate_schatten_index`.  One SVD then
    serves every index, and one call every matrix.  Each matrix's norm is
    formed from its own values only, so it has the same bits in any stack;
    the root is taken by Python's ``pow``, which numpy's vector loops do not
    match in the last bit.
    """
    s = np.asarray(s, dtype=float)
    top = s[..., :1] if s.shape[-1] else np.zeros((*s.shape[:-1], 1))
    if math.isinf(p):
        return top[..., 0]
    # a zero matrix divides by 1: its values are all 0 and none is kept
    scaled = np.where(s > _SINGULAR_VALUE_FLOOR * top, s, 0.0) / (top + (top == 0.0))
    sums = (scaled ** p).sum(axis=-1)
    roots = np.array([total ** (1.0 / p) for total in sums.ravel().tolist()])
    return top[..., 0] * roots.reshape(sums.shape)


def rank_of_singular_values(s: np.ndarray, rel_tol: float = 1e-10) -> int | np.ndarray:
    """Number of the descending singular values ``s`` above ``rel_tol`` times
    the largest: the numerical rank of their matrix.  A stack (..., n) of
    them gives one rank per matrix."""
    return np.count_nonzero(s > rel_tol * s[..., :1], axis=-1)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix with independent standard complex Gaussian entries."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary from the QR factorization of a complex Gaussian."""
    return unitary_from_gaussian(complex_gaussian(rng, dim, dim))


def unitary_from_gaussian(G: np.ndarray) -> np.ndarray:
    """The Q factor of ``G = QR``, its columns rotated so diag(R) is positive.

    ``G`` may be one square complex Gaussian matrix or a stack (..., dim,
    dim) of them.  A stack costs one numpy QR call, not one per matrix, and
    gives each matrix the unitary it gives on its own, bit for bit.
    """
    Q, R = np.linalg.qr(G)
    phases = np.diagonal(R, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return Q * phases.conj()[..., None, :]


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    G = complex_gaussian(rng, dim, dim)
    return HermitianOperator((G + G.conj().T) / 2.0)


def random_measure(
    rng: np.random.Generator, dim: int, n_atoms: int
) -> SpectralMeasure:
    """Spectral measure built by hand: a random unitary frame split into atoms.

    The frame's columns are cut at ``min(n_atoms, dim) - 1`` distinct random
    positions, and the atoms carry sorted uniform values from [-3, 3].
    """
    n_atoms = min(n_atoms, dim)
    U = random_unitary(rng, dim)
    cuts = (
        sorted(rng.choice(np.arange(1, dim), size=n_atoms - 1, replace=False))
        if n_atoms > 1
        else []
    )
    bounds = [0, *cuts, dim]
    values = np.sort(rng.uniform(-3.0, 3.0, size=n_atoms))
    return SpectralMeasure(values, U, np.diff(bounds))
