"""Dense complex linear algebra substrate.

Hermitian validation, spectral measures with eigenvalue grouping, singular
values and Schatten norms.  Everything is built on numpy's LAPACK bindings;
the contracts live in the grouping logic and in the tolerance conventions
below.

Operators come from one of two constructors.  :func:`hermitian_from_matrix`
validates a matrix, whose spectral measure ``eigh`` finds on first use.
:func:`hermitian_from_spectrum` takes a spectrum that is already known
(eigenvalues, an eigenvector frame and multiplicities), validates it and
forms the matrix, so that operator is never decomposed.

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


class EigensolverError(RuntimeError):
    """Eigenvalue iteration did not converge."""


class SvdError(RuntimeError):
    """Singular value decomposition did not converge."""


class InvalidSpectrumError(ValueError):
    """Eigenvalues, frame and multiplicities do not form a spectral measure."""


# Consecutive eigenvalues whose gap is at most this land in one atom.
_GROUP_TOL = 1e-8

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
    peak = float(np.max(np.abs(M))) if M.size else 0.0
    return 1e-10 * max(1.0, peak)


def projection_tolerance(dim: int) -> float:
    """Tolerance for projection algebra and completeness checks: 1e-8 * dim."""
    return 1e-8 * dim


@dataclass(frozen=True)
class HermitianOperator:
    """A square complex matrix equal to its conjugate transpose.

    Construct through :func:`hermitian_from_matrix`, which validates and
    symmetrizes a matrix, or :func:`hermitian_from_spectrum`, which forms
    the matrix from a known spectral measure; instances are treated as
    immutable.  The spectral measure (:func:`spectral_measure`) is computed
    once and cached; an operator built from its spectrum starts with it.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _measure(self) -> "SpectralMeasure":
        return _decompose(self)

    def scaled(self, factor: float) -> "HermitianOperator":
        """The operator multiplied by a real scalar (still Hermitian).

        A positive factor keeps the order of the atoms, so when this
        operator's measure is known the result carries ``factor *
        eigenvalues`` on the same frame and is never decomposed, unless the
        scaling brings two atoms within the grouping tolerance.  A zero or
        negative factor merges or reverses the atoms, and the result is
        decomposed on first use.
        """
        factor = float(factor)
        out = HermitianOperator(self.matrix * factor)
        E = self.__dict__.get("_measure")  # the measure, if known; never computed here
        if factor > 0.0 and E is not None:
            values = E.eigenvalues * factor
            if _separated(values):
                _seed_measure(out, SpectralMeasure(values, E.frame, E.multiplicities))
        return out


def _seed_measure(A: HermitianOperator, measure: "SpectralMeasure") -> None:
    """Fill the cached measure of ``A``, so it is never decomposed."""
    A.__dict__["_measure"] = measure


def _separated(values: np.ndarray) -> bool:
    """True when the values are finite and each exceeds the one before it by
    more than the grouping tolerance, so ``eigh`` would keep them as atoms."""
    return bool(np.isfinite(values).all() and (np.diff(values) > _GROUP_TOL).all())


def hermitian_from_matrix(entries) -> HermitianOperator:
    """Validate Hermitian symmetry and return the symmetrized operator.

    The input must be square and satisfy |M - M*|_max <= hermitian_tolerance(M);
    the returned operator holds (M + M*)/2 so that the stored matrix is
    Hermitian to the last bit.

    Raises
    ------
    NotSquareError
        If the matrix is not square.
    NotHermitianError
        If the deviation from self-adjointness exceeds the tolerance.
    """
    M = as_complex_matrix(entries)
    if M.shape[0] != M.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {M.shape}")
    deviation = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if deviation > hermitian_tolerance(M):
        raise NotHermitianError(
            f"|M - M*|_max = {deviation:.3e} exceeds tolerance "
            f"{hermitian_tolerance(M):.3e}"
        )
    return HermitianOperator((M + M.conj().T) / 2.0)


def hermitian_from_spectrum(eigenvalues, frame, multiplicities) -> HermitianOperator:
    """The operator with a known spectral measure, which it carries.

    ``eigenvalues`` are the atoms in strictly increasing order,
    ``multiplicities`` their eigenspace dimensions, and ``frame`` the
    dim x dim unitary whose consecutive column blocks of those widths span
    the eigenspaces.  The matrix is (V diag(lambda)) V*, symmetrized, formed
    from the columns whose eigenvalue is not zero only, so a rank-r operator
    costs a rank-r product and the zero operator none.  The measure is stored
    on the operator, so :func:`spectral_measure` never runs ``eigh`` on it.

    Raises
    ------
    InvalidSpectrumError
        If an eigenvalue is not finite or does not exceed the one before it
        by more than the grouping tolerance (``eigh`` would merge them), if
        a multiplicity is below 1 or they do not sum to the dimension, or if
        max|V*V - I| exceeds :func:`projection_tolerance`.
    """
    values = np.array(eigenvalues, dtype=float, ndmin=1)
    V = as_complex_matrix(frame)
    counts = np.array(multiplicities, dtype=np.int64, ndmin=1)
    dim = V.shape[0]
    if V.shape != (dim, dim):
        raise InvalidSpectrumError(f"frame must be square, got shape {V.shape}")
    if not _separated(values):
        raise InvalidSpectrumError(
            f"eigenvalues must be finite and increase by more than {_GROUP_TOL:g}"
        )
    if counts.shape != values.shape or (counts < 1).any() or counts.sum() != dim:
        raise InvalidSpectrumError(
            f"multiplicities {counts.tolist()} must be >= 1, one per eigenvalue, "
            f"and sum to {dim}"
        )
    deviation = float(np.max(np.abs(V.conj().T @ V - np.eye(dim))))
    if deviation > projection_tolerance(dim):
        raise InvalidSpectrumError(
            f"frame is not unitary: |V*V - I|_max = {deviation:.3e}"
        )
    measure = SpectralMeasure(values, V, counts)
    weights = values[measure.column_atom_index]
    nonzero = weights != 0.0  # a zero eigenvalue adds nothing to the sum
    W = V[:, nonzero]
    M = (W * weights[nonzero]) @ W.conj().T
    A = HermitianOperator((M + M.conj().T) / 2.0)
    _seed_measure(A, measure)
    return A


def zero_operator(dim: int) -> HermitianOperator:
    """The dim x dim zero operator: one atom at 0 with the identity frame."""
    return hermitian_from_spectrum([0.0], np.eye(dim, dtype=np.complex128), [dim])


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
    is a per-atom view derived from it.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray
    multiplicities: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @cached_property
    def atoms(self) -> tuple[SpectralAtom, ...]:
        """Per-atom view: each value with its column block of the frame."""
        return tuple(
            SpectralAtom(float(value), self.frame[:, block])
            for value, block in zip(self.eigenvalues, self.column_slices)
        )

    def projections(self) -> list[np.ndarray]:
        return [a.projection for a in self.atoms]

    @cached_property
    def column_slices(self) -> tuple[slice, ...]:
        ends = np.cumsum(self.multiplicities).tolist()
        return tuple(slice(lo, hi) for lo, hi in zip([0, *ends], ends))

    @cached_property
    def column_atom_index(self) -> np.ndarray:
        """For each frame column, the index of the atom it belongs to."""
        return np.repeat(np.arange(len(self.eigenvalues)), self.multiplicities)

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue * projection; recovers the source operator."""
        V = self.frame
        weights = self.eigenvalues[self.column_atom_index]
        return (V * weights) @ V.conj().T

    def deviations(self, source: HermitianOperator | None = None) -> dict[str, float]:
        """Max-entry deviations from the measure invariants.

        Orthonormality of the frame columns is equivalent to the projection
        algebra (idempotence, mutual orthogonality); completeness is frame
        surjectivity.  Keys: 'orthonormal', 'complete' and, when ``source``
        is given, 'reconstruction'.
        """
        V = self.frame
        eye = np.eye(self.dim)
        out = {
            "orthonormal": float(np.max(np.abs(V.conj().T @ V - eye))),
            "complete": float(np.max(np.abs(V @ V.conj().T - eye))),
        }
        if source is not None:
            out["reconstruction"] = float(
                np.max(np.abs(self.reconstruct() - source.matrix))
            )
        return out


def spectral_measure(A: HermitianOperator) -> SpectralMeasure:
    """Eigendecompose ``A`` and merge nearly equal eigenvalues into atoms.

    Consecutive eigenvalues whose gap is at most 1e-8 land in the same
    atom; the atom's eigenvalue is the group mean and its projection is
    the sum of the grouped rank-one eigenprojections.  The measure is
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
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > _GROUP_TOL)
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
    return norm_of_singular_values(singular_values(M), p)


def norm_of_singular_values(s: np.ndarray, p: float) -> float:
    """:func:`schatten_norm` of a matrix with singular values ``s``.

    ``s`` is in descending order, as :func:`singular_values` returns it, and
    ``p`` has passed :func:`validate_schatten_index`.  One SVD then serves
    every index.
    """
    top = float(s[0]) if s.size else 0.0
    if math.isinf(p) or top == 0.0:
        return top
    kept = s[s > _SINGULAR_VALUE_FLOOR * top]
    # the method skips np.sum's dispatch, which dominates on short vectors
    return top * float(((kept / top) ** p).sum()) ** (1.0 / p)


def rank_of_singular_values(s: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Number of the descending singular values ``s`` above ``rel_tol`` times
    the largest: the numerical rank of their matrix."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


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
