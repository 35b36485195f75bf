"""The square-root-of-N growth family and rank-based norm estimates.

Builds, for each size N, a triple of N x N Hermitian operators (A, B, C)
and a bandlimited symbol phi such that the three-variable function
f(x, y, z) = phi(x, y) psi(z) produces

    ||f(A, B, C) - f(A, B, 0)||_{S_p} = sqrt(N) * ||C||_{S_p}

for every Schatten index p, while the uniform norm of phi and the
smoothness surrogate of f stay bounded in N.  A and B have the integer
lattice spectra {2 pi j}, their eigenvector systems realize a unitary DFT
Gram matrix, and C is the rank-one averaging projection; the interaction
collapses phi(A, B) to a single rank-one term of norm sqrt(N).

The module also provides empirical checks of two rank-based estimates for
functions of operator tuples: the Hilbert-Schmidt vs S_p chain for pairs
(rate N^(1/2 - 1/p)) and the N^4 Lipschitz-type bound for triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, reduce
from typing import Callable, Sequence

import numpy as np

from .besov import GridFunction, psi_reference, psi_reference_grid, tensor_bound_kappa, window_w
from .linalg import (
    HermitianOperator,
    as_complex_matrix,
    hermitian_from_spectrum,
    hermitian_singular_values,
    identity_frame,
    norms_of_singular_values,
    rank_of_singular_values,
    schatten_norm,
    singular_values,
    spectral_measure,
    unitary_from_gaussian,
    validate_schatten_index,
)
from .moi import apply_function_stack, apply_function_triple


class InvalidEpsilonError(ValueError):
    """Scaling factor must lie in (0, 1]."""


DEFAULT_SEED = 20240501

RATIO_REL_TOL = 1e-8
"""Tolerance of the two ratio residuals in :data:`GROWTH_GATES`,
:attr:`ExperimentRecord.ratio_error` and
:attr:`ExperimentRecord.perturbation_error`."""

GROWTH_GATES = {
    # residual on ExperimentRecord: (the record value a failure quotes, tolerance)
    "ratio_error": ("ratio", RATIO_REL_TOL),
    "perturbation_error": ("perturbation", RATIO_REL_TOL),
    "zero_slot_error": ("base_peak", 1e-12),
    "factor_dev": ("factor_dev", 1e-10),
    "off_column": ("off_column", 0.0),
}
"""The one definition of every gate on a growth record: a record passes
iff each residual is at most its tolerance, so a NaN fails.  ``moilab
growth`` reports every failed gate, and the selfcheck's blowup,
factorization and zero-slot checks read their tolerances here."""

PHI_SUP = 1.0
"""Exact value of sup|phi_N| over the plane, the same for every N.

Proof.  eta >= 0, and under the convention (F f)(t) = integral of
f(x) exp(-i x t) dx its transform is F eta = 2 pi (1 - |t|)_+, which
vanishes at every nonzero integer.  Poisson summation therefore gives
sum over j in Z of eta(x - 2 pi j) == 1 for every real x.  The
coefficients theta = sqrt(N) conj(U) of a unitary DFT matrix all have
|theta_jk| = 1, so

    |phi_N(x, y)| <= (sum_j eta(x - 2 pi j)) (sum_k eta(y - 2 pi k)) = 1.

Equality holds on the lattice (2 pi j, 2 pi k), 1 <= j, k <= N, where
eta(0) = 1 and every other term vanishes.  :func:`phi_grid_sup` checks
this numerically; it is never needed to compute the bound.
"""

_ETA_SWITCH = 1e-2


def _worse(worst: float, value: float) -> float:
    """``max(worst, value)``, except that a NaN on either side wins.

    Plain ``max(0.0, nan)`` is ``0.0``, which would let a NaN deviation
    pass the check it feeds.
    """
    return value if math.isnan(value) or value > worst else worst


def eta(x):
    """2(1 - cos x) / x^2 with the removable singularity filled in.

    Even, equals 1 at 0, vanishes to second order at every nonzero multiple
    of 2 pi, and is bandlimited to [-1, 1].  Below |x| = 1e-2 the even
    Taylor polynomial is used to dodge the 1 - cos cancellation; the seam
    mismatch is far below machine precision.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sq = arr * arr
    small = np.abs(arr) <= _ETA_SWITCH
    with np.errstate(invalid="ignore", divide="ignore"):
        out = 2.0 * (1.0 - np.cos(arr)) / np.where(small, 1.0, sq)
    sq = sq[small]  # the series runs on the small arguments only
    out[small] = 1.0 + sq * (-1.0 / 12.0 + sq * (1.0 / 360.0 - sq / 20160.0))
    if scalar:
        return float(out[0])
    return out


def dft_unitary(size: int) -> np.ndarray:
    """The unitary matrix (1/sqrt(size)) exp(2 pi i j k / size), 1-based j, k.

    The integer product j*k is reduced mod size, so phases carry no drift
    at large sizes, and indexes the size roots of unity
    exp(2 pi i k / size) / sqrt(size): size complex exponentials instead of
    size^2, with the same bits as exponentiating every reduced phase.
    """
    if size < 1:
        raise ValueError("size must be a positive integer")
    idx = np.arange(1, size + 1, dtype=np.int64)
    phase = (idx[:, None] * idx[None, :]) % size
    roots = np.exp((2j * math.pi / size) * np.arange(size)) / math.sqrt(size)
    return roots[phase]


def phi_symbol(theta, size: int) -> Callable:
    """The bandlimited two-variable symbol
    sum over 1 <= j, k <= size of theta[j-1, k-1] eta(x - 2 pi j) eta(y - 2 pi k).

    The returned callable broadcasts.  Pairs are evaluated through a
    product table over the x and y values and gathered back, so mesh
    arguments (atom grids, sup scans) cost two matrix products instead of a
    full pointwise sum.

    The closure remembers its last table, with copies of the flattened x
    and y it was built from, and reuses it when the next call's flattened
    values are equal entry for entry; :func:`growth_records` builds the
    table by one call on A's and B's eigenvalue vectors, and every chunk of
    its triple f(A, B, C) evaluates phi on that A x B atom grid, so the
    table is built once.  A miss drops the old table before building the
    new one, so a chunked scan holds one table at a time.  Every call
    returns a fresh gather.
    """
    theta = np.ascontiguousarray(as_complex_matrix(theta))
    if theta.shape != (size, size):
        raise ValueError(f"theta must be {size} x {size}, got {theta.shape}")
    offsets = 2.0 * math.pi * np.arange(1, size + 1)
    last = None  # (x, y, table) of the last call

    def product_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        nonlocal last
        memo = last
        if memo is not None and np.array_equal(memo[0], xs) and np.array_equal(memo[1], ys):
            return memo[2]
        last = memo = None  # free the old table before building the new one
        rows = eta(xs[:, None] - offsets)
        cols = rows if np.array_equal(xs, ys) else eta(ys[:, None] - offsets)
        # eta's factors are real: each product runs as one real product on
        # the interleaved parts of its complex operand, half the flops
        left = (rows @ theta.view(float)).view(np.complex128)  # rows theta
        table = cols @ np.ascontiguousarray(left.T).view(float)  # (rows theta cols^T)^T
        table = np.ascontiguousarray(table.view(np.complex128).T)
        last = (xs.copy(), ys.copy(), table)
        return table

    def phi(x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(xa.shape, ya.shape)
        table = product_table(xa.reshape(-1), ya.reshape(-1))
        ix = np.broadcast_to(np.arange(xa.size).reshape(xa.shape), shape)
        iy = np.broadcast_to(np.arange(ya.size).reshape(ya.shape), shape)
        return table[ix, iy]

    return phi


@dataclass(frozen=True)
class CounterexampleInstance:
    """One size-N member of the growth family."""

    N: int
    A: HermitianOperator
    B: HermitianOperator
    C: HermitianOperator
    phi: Callable
    f: Callable

    @property
    def U(self) -> np.ndarray:
        """The unitary DFT matrix :func:`dft_unitary` (N), built afresh on every read."""
        return dft_unitary(self.N)

    def deviations(self) -> dict[str, float]:
        """Max-entry deviations from the construction identities.

        'gram' compares a fresh U with the Gram matrix (h_k, g_j) of the
        eigenvectors g_j of A and h_k of B, read off the frames the operators
        carry.
        """
        U = self.U
        gram = spectral_measure(self.A).frame.conj().T @ spectral_measure(self.B).frame
        C = self.C.matrix
        return {
            "unitary": float(np.max(np.abs(U.conj().T @ U - np.eye(self.N)))),
            "gram": float(np.max(np.abs(gram - U))),
            "c_norm": abs(schatten_norm(C, math.inf) - 1.0),
            "c_idempotent": float(np.max(np.abs(C @ C - C))),
            "c_trace": abs(float(np.trace(C).real) - 1.0),
        }


def build_instance(N: int) -> CounterexampleInstance:
    """Assemble the size-N operators, coefficients and symbols, in A's eigenbasis.

    A = sum 2 pi j (., g_j) g_j, B = sum 2 pi k (., h_k) h_k,
    C = (1/N)(., s) s with s the sum of the h_k, theta = sqrt(N) conj(U),
    and f(x, y, z) = phi(x, y) psi(z) with the reference cutoff psi.  Each
    operator is built from its closed-form spectral measure, never
    decomposed:

    * A: simple eigenvalues 2 pi j, j = 1..N, on the identity frame
      (:func:`~moilab.linalg.identity_frame`), so g_j = e_j;
    * B: the same eigenvalues on the frame U, so h_k is column k of U and
      the Gram matrix (h_k, g_j) is U;
    * C: atoms 0 and 1 of multiplicities N - 1 and 1 on the same identity
      frame (the single atom 1 for N = 1): s = U 1 = sqrt(N) e_N, so
      C = e_N e_N*.

    U is the one frame that takes the unitary check, and the instance keeps
    it only as B's frame.  theta_jk U_jk = 1/sqrt(N) and U 1 = sqrt(N) e_N
    give phi(A, B) = 1 e_N^T, so D = f(A, B, C) - f(A, B, 0) = phi(A, B) C
    = 1 e_N^T.  Every weight of C's atom 0 is exactly 0 and no change of
    basis acts on D's columns, so D is exactly zero outside its last column.
    """
    U, identity = dft_unitary(N), identity_frame(N)

    weights = 2.0 * math.pi * np.arange(1, N + 1)
    simple = np.ones(N, dtype=np.int64)
    A = hermitian_from_spectrum(weights, identity, simple)
    B = hermitian_from_spectrum(weights, U, simple)
    C = (
        hermitian_from_spectrum([0.0, 1.0], identity, [N - 1, 1])
        if N > 1
        else hermitian_from_spectrum([1.0], identity, [1])
    )

    phi = phi_symbol(math.sqrt(N) * U.conj(), N)
    psi = psi_reference()

    def f(x, y, z):
        return phi(x, y) * psi(z)

    return CounterexampleInstance(N=N, A=A, B=B, C=C, phi=phi, f=f)


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a growth experiment."""

    N: int
    p: float
    lhs: float
    perturbation: float
    besov_surrogate: float
    ratio: float
    base_peak: float  # |psi(0)|, the peak entry of f(A, B, 0) = psi(0) phi(A, B); it vanishes
    factor_dev: float  # max |D - eps 1 e_N^T|: D's deviation from phi(A, B) (eps C)
    off_column: float  # max |D| outside its last column, exactly 0
    eps: float = 1.0

    @property
    def ratio_error(self) -> float:
        """|ratio - sqrt(N)| / sqrt(N), the deviation gated at :data:`RATIO_REL_TOL`."""
        return abs(self.ratio - math.sqrt(self.N)) / math.sqrt(self.N)

    @property
    def perturbation_error(self) -> float:
        """|perturbation - eps| / eps: ||eps C||_{S_p} = eps, since C is a rank-one projection."""
        return abs(self.perturbation - self.eps) / self.eps

    @property
    def zero_slot_error(self) -> float:
        """base_peak / sqrt(N): f(A, B, 0) vanishes, since psi(0) = 0."""
        return self.base_peak / math.sqrt(self.N)


_SUP_CHUNK_ROWS = 512


def phi_grid_sup(phi: Callable, N: int, points_per_period: int = 32) -> float:
    """Grid maximum of |phi| over [0, 2 pi (N+1)]^2.

    A sampled *lower* estimate of sup|phi|, costing O(N^3).  It serves only
    to verify the proved value :data:`PHI_SUP` (the grid contains the
    lattice points where the bound is attained); the growth experiment
    uses the exact value instead.  The scan is chunked along rows so the
    pairwise table never exceeds a few tens of megabytes; a NaN in any
    chunk makes the result NaN.
    """
    points = (N + 1) * points_per_period + 1
    axis = np.linspace(0.0, 2.0 * math.pi * (N + 1), points)
    best = 0.0
    for start in range(0, points, _SUP_CHUNK_ROWS):
        block = axis[start : start + _SUP_CHUNK_ROWS]
        values = phi(block[:, None], axis[None, :])
        best = _worse(best, float(np.max(np.abs(values))))
    return best


def growth_records(
    N: int,
    p_list: Sequence[float],
    eps: float = 1.0,
    psi_grid: GridFunction | None = None,
) -> list[ExperimentRecord]:
    """Growth experiment rows for one size and several Schatten indices.

    Computes D = f(A, B, eps*C) - f(A, B, 0) as one triple, the one
    calculus call of a size, and reports ||D||_{S_p} / ||eps*C||_{S_p} per
    index.  D has the closed form phi(A, B) (eps C) = eps 1 e_N^T
    (:func:`build_instance`), and every record carries its residuals: D
    is zero outside its last column (``off_column``), D equals eps 1 e_N^T
    (``factor_dev``), and f(A, B, 0) = psi(0) phi(A, B) vanishes
    (``base_peak`` = |psi(0)| max|phi(A, B)| = |psi(0)|).  A failure there
    is an implementation bug; this function raises on none, and
    :data:`GROWTH_GATES` gates them with the ratio residuals, so a caller
    can report every failed gate.

    D is computed on the instance's own C by a change of variable in the
    symbol: f(A, B, e*C) = f_e(A, B, C) with f_e(x, y, z) = f(x, y, e*z), 0
    included, so neither eps*C nor a zero operator is formed.  D is one
    triple of f_eps - f_0, written phi(x, y) (psi(eps z) - psi(0 z)), with
    the bytes of subtracting the two triples on eps*C and the zero
    operator: e*z is the float the eigenvalue of eps*C would be, and every
    weight of f_0 is exactly 0.  One call on A's and B's eigenvalue vectors
    builds phi's table first, so the triple's chunks only gather from it.

    Each Schatten norm of D is its last column's 2-norm, summed without
    BLAS, so its bits do not depend on the thread count.  The singular
    values of eps*C are those of C times eps.  ``besov_surrogate`` is
    tensor_bound_kappa(PHI_SUP, psi_grid): the proved sup|phi_N| = 1 times
    psi_band_majorant(psi_grid), a grid estimate and not a certified
    bound, identical bit for bit for every N and computed once per grid.
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidEpsilonError(f"eps must lie in (0, 1], got {eps}")
    p_list = [validate_schatten_index(p) for p in p_list]
    inst = build_instance(N)
    A, B, C = inst.A, inst.B, inst.C
    psi = psi_reference()
    inst.phi(spectral_measure(A).eigenvalues, spectral_measure(B).eigenvalues)  # the table
    diff = apply_function_triple(
        lambda x, y, z: inst.phi(x, y) * (psi(eps * z) - psi(0.0 * z)), A, B, C
    )
    column = diff[:, -1]
    off_column = float(np.max(np.abs(diff[:, :-1]), initial=0.0))
    factor_dev = _worse(off_column, float(np.max(np.abs(column - eps))))
    lhs = math.sqrt(float(np.sum(column.real**2 + column.imag**2)))
    base_peak = float(abs(psi(0.0)))

    if psi_grid is None:
        psi_grid = psi_reference_grid()
    surrogate = tensor_bound_kappa(PHI_SUP, psi_grid)

    c_values = hermitian_singular_values(C) * eps
    records = []
    for p in p_list:
        perturbation = float(norms_of_singular_values(c_values, p))
        records.append(
            ExperimentRecord(
                N=N, p=p, lhs=lhs, perturbation=perturbation, besov_surrogate=surrogate,
                ratio=lhs / perturbation, base_peak=base_peak, factor_dev=factor_dev,
                off_column=off_column, eps=eps,
            )
        )
    return records


def quarter_root_rule(N: int) -> float:
    """The vanishing scaling eps = N^(-1/4)."""
    return float(N) ** -0.25


def epsilon_scaling_run(
    N_list: Sequence[int],
    eps_rule: Callable[[int], float],
    p_list: Sequence[float] = (2.0,),
    **kwargs,
) -> list[ExperimentRecord]:
    """Growth rows with the third-slot perturbation shrunk by eps_rule(N).

    The difference norm is eps * sqrt(N) against a perturbation of size
    eps, so a rule like N^(-1/4) sends the perturbation to zero while the
    difference still diverges.

    Raises
    ------
    InvalidEpsilonError
        If the rule produces a value outside (0, 1] (raised by
        :func:`growth_records`).
    """
    records = []
    for N in N_list:
        records.extend(growth_records(N, p_list, eps=float(eps_rule(N)), **kwargs))
    return records


def _rank_limited_draw(
    rng: np.random.Generator, dim: int, rank: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` operators Q Lambda Q*, each with its own unitary Q and
    ``rank`` uniform(-1, 1) eigenvalues, in column form: the eigenvalue of
    every frame column (count, dim), the frames (count, dim, dim) and the
    matrices (count, dim, dim).

    Per operator the generator gives the real and then the imaginary part
    of a complex Gaussian, each drawn in place into one (count, 2, dim,
    dim) buffer, then the ``rank`` values; one pass assembles the complex
    Gaussians, the bits of :func:`~moilab.linalg.complex_gaussian`.  One
    stacked QR turns every Gaussian into its unitary Q, so the draws equal,
    bit for bit, the same draws taken one at a time.  Column j < rank of Q
    carries drawn value j and the rest the value 0; a stable sort by value
    orders the columns.  The matrices are (W diag(w)) W* over the ``rank``
    drawn columns W in that order, one stacked product, symmetrized.
    """
    parts = np.empty((count, 2, dim, dim))
    drawn = np.empty((count, rank))
    for k in range(count):
        rng.standard_normal(out=parts[k, 0])
        rng.standard_normal(out=parts[k, 1])
        drawn[k] = rng.uniform(-1.0, 1.0, size=rank)
    gaussians = np.moveaxis(parts, 1, -1).copy().view(np.complex128)[..., 0]
    weights = np.pad(drawn, ((0, 0), (0, dim - rank)))
    columns = np.argsort(weights, axis=1, kind="stable")
    values = np.take_along_axis(weights, columns, axis=1)
    frames = np.take_along_axis(unitary_from_gaussian(gaussians), columns[:, None, :], axis=2)
    kept = np.nonzero(columns < rank)[1].reshape(count, rank)  # the drawn columns, in order
    W = np.take_along_axis(frames, kept[:, None, :], axis=2)
    M = (W * np.take_along_axis(values, kept, axis=1)[:, None, :]) @ W.conj().swapaxes(1, 2)
    return values, frames, (M + M.conj().swapaxes(1, 2)) / 2.0


_TRIG_MAX_DEGREE = 3
_TRIG_SPAN = np.arange(-_TRIG_MAX_DEGREE, _TRIG_MAX_DEGREE + 1)


def _leading(field, stack: int, ndim: int) -> np.ndarray:
    """A record's ``field`` whose first ``stack`` axes are the record's stack
    axes, with ones inserted behind them so that it broadcasts against
    ``ndim``-axis grids whose leading axes are the stack's."""
    shape = np.shape(field)
    return np.reshape(field, (*shape[:stack], *[1] * (ndim - stack), *shape[stack:]))


def _stacked(records: Sequence, repeats: int):
    """The records stacked into one record, field by field: its member
    ``i * repeats + j`` is ``records[i]`` for every j < ``repeats``."""
    first = records[0]
    return type(first)(
        *(
            np.repeat(np.stack([getattr(r, field.name) for r in records]), repeats, axis=0)
            for field in fields(first)
        )
    )


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class TrigPolynomial:
    """sum over |m|, |l| <= 3 of coeffs[m, l] e^{i(mx + ly)}.

    ``coeffs`` is (7, 7), or a stack (k, 7, 7) of k polynomials
    (:func:`_stacked`) whose member i is evaluated on the grids' leading
    index i; every member runs the operations it runs alone.
    """

    coeffs: np.ndarray

    def __call__(self, x, y):
        # e^{i(mx + ly)} = e^{imx} e^{ily}: one exponential per frequency and
        # argument value, the m sum as one product, the l sum over a trailing axis
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        # the product's row axis is x's last axis; its batch axes are the rest
        coeffs = _leading(self.coeffs, self.coeffs.ndim - 2, x.ndim - 1)
        ex = np.exp(1j * _TRIG_SPAN * x[..., None])
        ey = np.exp(1j * _TRIG_SPAN * y[..., None])
        return np.sum((ex @ coeffs) * ey, axis=-1)


def random_trig_polynomial(rng: np.random.Generator) -> tuple[TrigPolynomial, float]:
    """Random two-variable trigonometric polynomial plus a certified
    smoothness surrogate.

    Coefficients c_{ml} over |m|, |l| <= 3 are complex Gaussian.
    Each frequency pair contributes to the dyadic bands selected by
    w(|(m, l)|_2 / 2^n), so the triangle inequality certifies
    sum_n 2^n sup|f_n| <= sum_n 2^n sum_{ml} |c_ml| w(...), which is the
    returned bound.  The constant term never enters (w vanishes at 0).
    """
    size = _TRIG_SPAN.size
    coeffs = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    magnitudes = np.abs(coeffs)
    bound = 0.0
    for scale, window in _trig_band_windows():
        bound += scale * float(np.sum(magnitudes * window))
    return TrigPolynomial(coeffs), bound


@cache
def _trig_band_windows() -> tuple[tuple[float, np.ndarray], ...]:
    """(2^n, w(|(m, l)|_2 / 2^n)) over the frequency grid, for every band n
    that can meet it; the same for every draw, so computed once (read-only)."""
    radii = np.hypot(_TRIG_SPAN[:, None], _TRIG_SPAN[None, :])
    top_band = int(math.ceil(math.log2(max(float(np.max(radii)), 1.0)))) + 1
    bands = []
    for n in range(0, top_band + 1):
        window = window_w(radii / 2.0**n)
        window.setflags(write=False)
        bands.append((2.0**n, window))
    return tuple(bands)


_KINK_PIECES = 3


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class KinkFunction:
    """f(v) = a0 + a . v + sum_m c_m min(1, |b_m . v + d_m|) over three kinks m.

    The fields are a0, a (3,), c (3,), b (3, 3) and d (3,), or stacks of
    them over k functions (:func:`_stacked`) whose member i is evaluated on
    the grids' leading index i; every member runs the operations it runs
    alone.
    """

    a0: float | np.ndarray
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __call__(self, x, y, z):
        stack, ndim = np.ndim(self.a0), max(np.ndim(x), np.ndim(y), np.ndim(z))
        a0, a, c, b, d = (
            _leading(v, stack, ndim) for v in (self.a0, self.a, self.c, self.b, self.d)
        )
        total = a0 + a[..., 0] * x + a[..., 1] * y + a[..., 2] * z
        for m in range(_KINK_PIECES):
            linear = b[..., m, 0] * x + b[..., m, 1] * y + b[..., m, 2] * z + d[..., m]
            total = total + c[..., m] * np.minimum(1.0, np.abs(linear))
        return total


def random_kink_function(rng: np.random.Generator) -> tuple[KinkFunction, float]:
    """Random affine-plus-kinks function of three variables
    (:class:`KinkFunction`) with a certified Lipschitz seminorm.

    The returned seminorm |a|_2 + sum |c_m| |b_m|_2 dominates the true one,
    so bounds asserted with it remain consequences of the underlying
    estimate.
    """
    a0 = rng.uniform(-1.0, 1.0)
    a = rng.uniform(-1.0, 1.0, size=3)
    c = rng.uniform(-1.0, 1.0, size=_KINK_PIECES)
    b = rng.uniform(-1.0, 1.0, size=(_KINK_PIECES, 3))
    d = rng.uniform(-1.0, 1.0, size=_KINK_PIECES)
    seminorm = float(np.linalg.norm(a) + np.sum(np.abs(c) * np.linalg.norm(b, axis=1)))
    return KinkFunction(a0, a, c, b, d), seminorm


@dataclass(frozen=True)
class RankTrial:
    """One trial of a rank check at one p: the reported ratio and the verdict."""

    trial: int
    ratio: float
    ok: bool


@dataclass(frozen=True)
class RankCheckReport:
    """One rank check's trials at one (N, p); a trial's verdict is ``trial.ok``."""

    N: int
    p: float
    trials: tuple[RankTrial, ...]

    @property
    def all_passed(self) -> bool:
        return all(t.ok for t in self.trials)

    @property
    def max_ratio(self) -> float:
        return reduce(_worse, (t.ratio for t in self.trials), 0.0)


# Largest number of complex entries (128 KiB) the stacked operator matrices
# of one block of rank-check trials may hold; a block has at least one trial.
_BLOCK_ENTRIES = 2**13


def _rank_check(
    N: int,
    p_list: Sequence[float],
    trials: int,
    seed: int,
    count: int,
    draw_function: Callable,
    members: Sequence[Sequence[int]],
    differences: Callable,
    verdicts: Callable,
) -> list[RankCheckReport]:
    """The loop both rank checks share, run over blocks of trials.

    A trial takes ``count`` rank-N operators of dimension 2N and a test
    function ``draw_function(rng) -> (record, weight)``, a
    :class:`TrigPolynomial` or :class:`KinkFunction`.  Two generators
    spawned from ``seed`` feed them: one gives every operator and the other
    every test function.  Each block, of as many trials as keep its
    operator matrices within ``_BLOCK_ENTRIES`` entries,

    1. draws all of its operators in column form in one
       :func:`_rank_limited_draw` call, then each trial's test function;
    2. evaluates the terms of every trial in one stacked calculus call
       (:func:`~moilab.moi.apply_function_stack`): ``members`` names one
       trial's terms by its operators, trial i's rows offset by
       ``i * count`` in the block's table, and the block's records, stacked
       field by field and repeated per term (:func:`_stacked`), make one
       symbol call per chunk;
    3. forms the block's matrices in one ``differences(terms, matrices)``
       call, the terms as (trials, terms per trial, 2N, 2N) and the drawn
       matrices as (trials, count, 2N, 2N), and takes one
       :func:`~moilab.linalg.singular_values` call over them;
    4. reads every verdict of the block at once: ``verdicts(values,
       weights)`` gets the singular values as (trials, matrices per trial,
       2N) and the weights as (trials,), and gives one ``(ratios, oks)``
       pair of (trials,) arrays per entry of ``p_list``.

    Each stream is drawn in trial order whatever the block size; every
    member of the stacked call, every difference and the stacked SVD and
    norms give each trial the bits it has alone, so the reports do not
    depend on the block size.
    """
    if not p_list:
        return []
    operator_rng, function_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    dim = 2 * N
    members = np.asarray(members)
    per_block = max(1, _BLOCK_ENTRIES // (count * dim * dim))
    rows = [[] for _ in p_list]
    for start in range(0, trials, per_block):
        block = range(start, min(start + per_block, trials))
        values, frames, matrices = _rank_limited_draw(operator_rng, dim, N, count * len(block))
        functions = [draw_function(function_rng) for _ in block]
        table = members + count * np.arange(len(block))[:, None, None]
        record = _stacked([f for f, _ in functions], len(members))
        terms = apply_function_stack(record, values, frames, table.reshape(-1, members.shape[1]))
        shape = (len(block), -1, dim, dim)
        stack = differences(terms.reshape(shape), matrices.reshape(shape)).reshape(-1, dim, dim)
        singular = singular_values(stack).reshape(len(block), -1, dim)
        weights = np.array([weight for _, weight in functions])
        for p_rows, (ratios, oks) in zip(rows, verdicts(singular, weights)):
            p_rows.extend(map(RankTrial, block, ratios.tolist(), oks.tolist()))
        del values, frames, matrices, terms, stack  # freed before the next block is built
    return [RankCheckReport(N=N, p=p, trials=tuple(r)) for p, r in zip(p_list, rows)]


def _ratios(numerators: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """numerator / denominator where the denominator is positive, else 0."""
    positive = denominators > 0
    return np.where(positive, numerators, 0.0) / np.where(positive, denominators, 1.0)


def rank_estimate_check_pairs(
    N: int, p_list: Sequence[float], trials: int, seed: int = DEFAULT_SEED
) -> list[RankCheckReport]:
    """Numerical check of the Hilbert-Schmidt chain behind the
    N^(1/2 - 1/p) estimate for pairs; one report per entry of ``p_list``.

    For random rank-limited pairs and random trigonometric polynomials,
    asserts per trial that ||Df||_{S_p} <= ||Df||_{S_2} and that every
    rank-r difference satisfies ||X||_{S_2} <= r^(1/2 - 1/p) ||X||_{S_p},
    and reports the ratio of ||Df||_{S_p} to
    N^(1/2 - 1/p) * surrogate * max perturbation.

    A trial takes four operators from the operator stream and its
    polynomial from the function stream, and has three differences: Df,
    A1 - A2 and B1 - B2.  Its two terms are f(A1, B1) and f(A2, B2).
    :func:`_rank_check` draws, evaluates every term in one stacked call,
    takes the SVDs and reads the verdicts of a block of trials at once, and
    one SVD serves every index; so the draws, and each report, do not
    depend on the other entries of ``p_list``.

    Requires p >= 2 (the chain runs through the Hilbert-Schmidt norm).
    """
    p_list = [validate_schatten_index(p) for p in p_list]
    if any(p < 2.0 for p in p_list):
        raise ValueError("rank_estimate_check_pairs requires p >= 2")

    def differences(terms, matrices):
        # the operators are A1, B1, A2, B2 and the terms f(A1, B1), f(A2, B2)
        return np.concatenate(
            [terms[:, :1] - terms[:, 1:], matrices[:, :2] - matrices[:, 2:]], axis=1
        )

    def verdicts(values, surrogates):
        # per trial: Df's singular values, then those of the two perturbations X
        x_values = values[:, 1:]
        norms_2 = norms_of_singular_values(values, 2.0)
        ranks = rank_of_singular_values(x_values)
        for p in p_list:
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            norms_p = norms_of_singular_values(values, p)
            x_p = norms_p[:, 1:]
            chain = norms_2[:, 1:] <= ranks ** (0.5 - inv_p) * x_p + 1e-12
            oks = (norms_p[:, 0] <= norms_2[:, 0] + 1e-12) & chain.all(axis=1)
            denominators = N ** (0.5 - inv_p) * surrogates * x_p.max(axis=1, initial=0.0)
            yield _ratios(norms_p[:, 0], denominators), oks

    members = [(0, 1), (2, 3)]
    return _rank_check(
        N, p_list, trials, seed, 4, random_trig_polynomial, members, differences, verdicts
    )


def lipschitz_rank_bound_check(
    N: int, p_list: Sequence[float], trials: int, seed: int = DEFAULT_SEED
) -> list[RankCheckReport]:
    """Numerical check of the N^4 Lipschitz-type bound for triples; one
    report per entry of ``p_list``.

    Draws random rank-limited triples and kink test functions and asserts

        ||f(A1,B1,C1) - f(A2,B2,C2)||_{S_p}
            <= N^4 L (||dA||_{S_p} + ||dB||_{S_p} + ||dC||_{S_p}) + 1e-9

    together with the three telescoping one-slot steps it is assembled
    from.  A violation indicates an implementation bug, since the bound is
    a proven estimate.  A trial takes six operators from the operator
    stream and its kink function from the function stream; its terms are
    the four corners, and it has seven differences.  :func:`_rank_check`
    draws, evaluates every corner in one stacked call, takes the SVDs and
    reads the verdicts of a block of trials at once, and one SVD serves
    every index, so the draws do not depend on ``p_list``.
    """
    p_list = [validate_schatten_index(p) for p in p_list]
    slack = 1e-9

    def differences(corners, matrices):
        steps = matrices[:, :3] - matrices[:, 3:]
        return np.concatenate(
            [steps, corners[:, :-1] - corners[:, 1:], corners[:, :1] - corners[:, 3:]], axis=1
        )

    def verdicts(values, seminorms):
        # per trial: the three slot differences, the three steps, the total
        scales = N**4 * seminorms
        for p in p_list:
            norms = norms_of_singular_values(values, p)
            d_norms, step_norms, lhs = norms[:, :3], norms[:, 3:6], norms[:, 6]
            steps_ok = (step_norms <= scales[:, None] * d_norms + slack).all(axis=1)
            bounds = scales * (d_norms[:, 0] + d_norms[:, 1] + d_norms[:, 2])
            yield _ratios(lhs, bounds), (lhs <= bounds + slack) & steps_ok

    # corner k takes its first k slots from the second triple (operators 3 to 5)
    members = [(0, 1, 2), (3, 1, 2), (3, 4, 2), (3, 4, 5)]
    return _rank_check(
        N, p_list, trials, seed, 6, random_kink_function, members, differences, verdicts
    )
