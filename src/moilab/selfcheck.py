"""Runtime invariant suite: the one definition of every module's contract checks.

Each check recomputes one documented invariant from scratch and reports a
pass/fail with the observed deviation.  A randomized check takes its draw
parameters explicitly: the seed (used as given), the draw count, and where
callers differ the sizes or p-grid.  ``moilab selfcheck`` runs
:func:`run_selfcheck`; pytest runs the same call in
``tests/test_invariants.py``, and the acceptance criteria call the same
check functions at their own seeds and counts.  The grid-refinement checks
carry the ``grid-stability`` category: they are expected to degrade on
coarse grids, and the CLI can downgrade them to warnings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence

import numpy as np

from . import besov, counterexample as ce, linalg, moi, reference
from .counterexample import _worse


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    category: str = "core"


def _result(name, ok, detail, category="core"):
    return CheckResult(name=name, passed=bool(ok), detail=detail, category=category)


def _tol_text(tol: float) -> str:
    """Shortest spelling of a tolerance: 1e-9 and 2e-2 in (0, 0.1), plain 0 and 0.1 otherwise."""
    if 0.0 < tol < 0.1:
        return np.format_float_scientific(tol, trim="-", exp_digits=1)
    return f"{tol:g}"


def _within(name, label, observed, tol):
    """Pass iff ``observed <= tol`` (so NaN fails); the detail quotes both."""
    return _result(name, observed <= tol, f"{label} {observed:.3e} (tol {_tol_text(tol)})")


def _worst_within(name, label, deviations, tol, start=0.0):
    """:func:`_within` on the worst of ``deviations``, folded from ``start``
    with the NaN-keeping :func:`_worse`."""
    return _within(name, label, reduce(_worse, deviations, start), tol)


def _draws(seed, draws, draw):
    """The deviations of ``draws`` calls of ``draw(rng)``, each an iterable
    over one draw, all from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        yield from draw(rng)


# ---------------------------------------------------------------- linalg


def _reconstruction_residual(A: linalg.HermitianOperator) -> float:
    """max|sum of eigenvalue * projection - A|: the identity on A's measure
    against A's matrix."""
    identity = moi.apply_function_single(lambda x: x, linalg.spectral_measure(A))
    return float(np.max(np.abs(identity - A.matrix)))


def check_spectral_resolution(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        yield _reconstruction_residual(linalg.random_hermitian(rng, int(rng.integers(2, 17))))

    return _worst_within("linalg.spectral_resolution", "max dev", _draws(seed, draws, draw), 1e-10)


def check_projection_algebra(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        dim = int(rng.integers(2, 17))
        atoms = linalg.spectral_measure(linalg.random_hermitian(rng, dim)).atoms
        projections = [atom.projection for atom in atoms]
        for i, P in enumerate(projections):
            for j, Q in enumerate(projections):
                yield float(np.max(np.abs(P @ Q - (P if i == j else 0.0))))
        yield float(np.max(np.abs(sum(projections) - np.eye(dim))))

    return _worst_within("linalg.projection_algebra", "max dev", _draws(seed, draws, draw), 1e-10)


def check_schatten_monotonicity(
    seed: int, draws: int, p_grid: Sequence[float]
) -> CheckResult:
    def draw(rng):
        M = linalg.complex_gaussian(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        norms = [linalg.schatten_norm(M, p) for p in p_grid]
        for smaller, larger in zip(norms[1:], norms[:-1]):
            yield smaller - larger

    return _worst_within(
        "linalg.schatten_monotonicity", "max increase", _draws(seed, draws, draw), 1e-12,
        start=-math.inf,
    )


def check_unitary_invariance(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        dim = int(rng.integers(2, 9))
        M = linalg.complex_gaussian(rng, dim, dim)
        U = linalg.random_unitary(rng, dim)
        V = linalg.random_unitary(rng, dim)
        for p in (1.0, 2.0, 3.5, math.inf):
            yield abs(linalg.schatten_norm(U @ M @ V, p) - linalg.schatten_norm(M, p))

    return _worst_within("linalg.unitary_invariance", "max dev", _draws(seed, draws, draw), 1e-10)


def check_frobenius_identity(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        M = linalg.complex_gaussian(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        yield abs(linalg.schatten_norm(M, 2.0) ** 2 - float(np.sum(np.abs(M) ** 2)))

    return _worst_within("linalg.frobenius_identity", "max dev", _draws(seed, draws, draw), 1e-10)


def check_finite_rank_chain(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        dim = int(rng.integers(3, 13))
        rank = int(rng.integers(1, dim + 1))
        M = linalg.complex_gaussian(rng, dim, rank) @ linalg.complex_gaussian(rng, rank, dim)
        for p in (2.0, 3.0, 4.0, math.inf):
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            yield linalg.schatten_norm(M, 2.0) - rank ** (0.5 - inv_p) * linalg.schatten_norm(M, p)

    return _worst_within(
        "linalg.finite_rank_chain", "max excess", _draws(seed, draws, draw), 1e-12,
        start=-math.inf,
    )


def _measure_distance(E: linalg.SpectralMeasure, F: linalg.SpectralMeasure) -> float:
    """Largest gap between two measures' eigenvalues and projections, atom by
    atom; infinite when their atom counts differ."""
    if len(E.eigenvalues) != len(F.eigenvalues):
        return math.inf
    gaps = [float(np.max(np.abs(E.eigenvalues - F.eigenvalues)))]
    gaps += [float(np.max(np.abs(a.projection - b.projection))) for a, b in zip(E.atoms, F.atoms)]
    return max(gaps)


def check_constructed_spectrum(N_list: Sequence[int], seed: int, draws: int) -> CheckResult:
    """Every measure built by hand, never by ``eigh``, against ``eigh`` of its
    own matrix: the growth family's A, B, C and the zero operator at each
    size, and seeded rank-limited draws.  The atom counts must agree, the
    eigenvalues and projections to 1e-10, and the measure must reconstruct
    its matrix to 1e-12 times the dimension."""

    def operators():
        for N in N_list:
            inst = ce.build_instance(N)
            yield from (inst.A, inst.B, inst.C, linalg.zero_operator(N))
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            dim = int(rng.integers(2, 13))
            values, frames, _ = ce._rank_limited_draw(rng, dim, int(rng.integers(0, dim + 1)), 1)
            atoms, multiplicities = np.unique(values[0], return_counts=True)
            # skip a draw with atoms eigh would merge, which the constructor rejects
            if (np.diff(atoms) > linalg._group_tolerance(atoms, dim)).all():
                yield linalg.hermitian_from_spectrum(atoms, frames[0], multiplicities)

    spectral = residual = 0.0
    for op in operators():
        built = linalg.spectral_measure(op)
        spectral = _worse(spectral, _measure_distance(built, linalg._decompose(op)))
        residual = _worse(residual, _reconstruction_residual(op) / op.dim)
    spectral_tol, residual_tol = 1e-10, 1e-12
    return _result(
        "linalg.constructed_spectrum",
        spectral <= spectral_tol and residual <= residual_tol,
        f"max dev from eigh {spectral:.3e} (tol {_tol_text(spectral_tol)}), "
        f"max reconstruction residual / dim {residual:.3e} (tol {_tol_text(residual_tol)})",
    )


# ------------------------------------------------------------------- moi


def check_resolution_collapse(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        dim = int(rng.integers(2, 9))
        E1 = linalg.random_measure(rng, dim, int(rng.integers(1, 6)))
        E2 = linalg.random_measure(rng, dim, int(rng.integers(1, 6)))
        T = linalg.complex_gaussian(rng, dim, dim)
        first_only = lambda x, y: np.exp(1j * x) + 0.0 * y
        lhs = moi.double_operator_integral(first_only, E1, T, E2)
        rhs = moi.apply_function_single(lambda x: np.exp(1j * x), E1) @ T
        yield float(np.max(np.abs(lhs - rhs)))

    return _worst_within("moi.resolution_collapse", "max dev", _draws(seed, draws, draw), 1e-10)


def check_diagonal_policy_independence(seed: int, draws: int) -> CheckResult:
    f = lambda t: t**3 - t

    def draw(rng):
        dim = int(rng.integers(2, 8))
        # overlapping spectra: share eigenvalues through a common diagonal
        shared = np.sort(rng.uniform(-2.0, 2.0, size=dim))
        Q = linalg.random_unitary(rng, dim)
        simple = np.ones(dim, dtype=int)
        A = linalg.hermitian_from_spectrum(shared, Q, simple)
        B = linalg.hermitian_from_spectrum(shared, np.eye(dim), simple)
        one = moi.perturbation_via_divided_difference(f, A, B, diagonal_value=0.0)
        other = moi.perturbation_via_divided_difference(f, A, B, diagonal_value=7.5 - 2j)
        yield float(np.max(np.abs(one - other)))
        same = moi.perturbation_via_divided_difference(f, A, A, diagonal_value=3.0)
        yield float(np.max(np.abs(same)))

    return _worst_within(
        "moi.diagonal_policy_independence", "max dev", _draws(seed, draws, draw), 1e-12
    )


def check_single_slot_exactness(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        dim = int(rng.integers(2, 11))
        A = linalg.random_hermitian(rng, dim)
        B = linalg.random_hermitian(rng, dim)
        functions = [
            partial(np.polyval, rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 6)))),
            partial(np.polyval, rng.uniform(-1.0, 1.0, size=5)),
            lambda t: np.exp(1j * t),
        ]
        for f in functions:
            lhs = moi.perturbation_via_divided_difference(f, A, B)
            rhs = moi.apply_function_single(f, linalg.spectral_measure(A)) - \
                moi.apply_function_single(f, linalg.spectral_measure(B))
            yield float(np.max(np.abs(lhs - rhs)))

    return _worst_within("moi.single_slot_exactness", "max dev", _draws(seed, draws, draw), 1e-9)


def _slot_operands(index, perturbed, first, second):
    """``[first, second]`` with ``perturbed`` inserted at slot ``index``."""
    operands = [first, second]
    operands.insert(index, perturbed)
    return operands


def check_triple_slot_exactness(seed: int, draws: int) -> CheckResult:
    def draw(rng):
        dim = int(rng.integers(2, 11))
        X1, X2, Y, Z = (linalg.random_hermitian(rng, dim) for _ in range(4))
        c = rng.uniform(-1.0, 1.0, size=4)
        functions = [
            lambda x, y, z: np.sin(x) * np.cos(y) + z,
            lambda x, y, z: (x - y) * z + x * y,
            lambda x, y, z: np.exp(1j * (x + y - z)),
            lambda x, y, z: c[0] + c[1] * x * y + c[2] * z**2 + c[3] * x * y * z,
        ]
        for f, index in itertools.product(functions, (0, 1, 2)):
            lhs = moi.argument_perturbation(f, index, X1, X2, Y, Z)
            rhs = moi.apply_function_triple(
                f, *_slot_operands(index, X1, Y, Z)
            ) - moi.apply_function_triple(f, *_slot_operands(index, X2, Y, Z))
            yield float(np.max(np.abs(lhs - rhs)))

    return _worst_within("moi.triple_slot_exactness", "max dev", _draws(seed, draws, draw), 1e-9)


def check_commuting_diagonal(seed: int, draws: int) -> CheckResult:
    f = lambda x, y, z: np.cos(x) * y + z**2

    def draw(rng):
        dim = int(rng.integers(2, 9))
        diags = [np.sort(rng.uniform(-2.0, 2.0, size=dim)) for _ in range(3)]
        ops = [
            linalg.hermitian_from_matrix(np.diag(d).astype(complex)) for d in diags
        ]
        out = moi.apply_function_triple(f, *ops)
        expected = np.diag(f(diags[0], diags[1], diags[2]).astype(complex))
        yield float(np.max(np.abs(out - expected)))

    return _worst_within("moi.commuting_diagonal", "max dev", _draws(seed, draws, draw), 1e-12)


def check_naive_oracle_equivalence(seed: int, draws: int) -> CheckResult:
    phi = lambda x, y, z: np.exp(1j * (x - 2.0 * y)) + x * z

    def draw(rng):
        dim = int(rng.integers(3, 9))
        E1, E2, E3 = (linalg.random_measure(rng, dim, int(rng.integers(1, 6))) for _ in range(3))
        T1 = linalg.complex_gaussian(rng, dim, dim)
        T2 = linalg.complex_gaussian(rng, dim, dim)
        fast = moi.triple_operator_integral(phi, E1, T1, E2, T2, E3)
        slow = reference.naive_triple_operator_integral(phi, E1, T1, E2, T2, E3)
        yield float(np.max(np.abs(fast - slow)))

    return _worst_within(
        "moi.naive_oracle_equivalence", "max dev", _draws(seed, draws, draw), 1e-10
    )


def check_stack_member_equivalence(seed: int, draws: int) -> CheckResult:
    """The stacked calculus (:func:`moilab.moi.apply_function_stack`) member
    by member: per draw, a stack of three pairs with a random trigonometric
    polynomial and a stack of three triples with a random kink function,
    each member on its own operators, drawn in column form as the rank
    checks draw them.  Each member must equal
    :func:`~moilab.moi.apply_function_pair` or
    :func:`~moilab.moi.apply_function_triple` on the draw's own matrices,
    decomposed by ``eigh``, to 1e-12 times that result's largest entry; so
    the stack is checked against a route that reads neither the drawn
    eigenvalues nor the drawn frames, and drawn matrices that disagree with
    them fail too."""

    def draw(rng):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        for slots, function, single in (
            (2, ce.random_trig_polynomial, moi.apply_function_pair),
            (3, ce.random_kink_function, moi.apply_function_triple),
        ):
            members = np.arange(3 * slots).reshape(3, slots)
            values, frames, matrices = ce._rank_limited_draw(rng, dim, rank, members.size)
            operators = [linalg.hermitian_from_matrix(M) for M in matrices]
            f, _ = function(rng)
            stack = moi.apply_function_stack(f, values, frames, members)
            for member, result in zip(members, stack):
                own = single(f, *(operators[i] for i in member))
                peak = max(float(np.max(np.abs(own))), np.finfo(float).tiny)
                yield float(np.max(np.abs(result - own))) / peak

    return _worst_within(
        "moi.stack_member_equivalence", "max dev / max|entry|", _draws(seed, draws, draw), 1e-12
    )


def check_slot_reversal(seed: int, draws: int) -> CheckResult:
    """The adjoint reverses the slots: g(C, B, A) = f(A, B, C)* with
    g(x, y, z) = conj f(z, y, x), and g(B, A) = f(A, B)* with g(x, y) =
    conj f(y, x), on seeded Hermitian matrices of dimension 2 to 8, to
    1e-12 times the largest entry of f(A, B, C) or f(A, B).  An identity of
    the engine, so it needs no oracle; a chain that swaps its first two
    measures fails the triple."""
    triple = lambda x, y, z: (
        np.exp(1j * (x - 2.0 * y + z)) / (1.0 + x * x + y * y + z * z)
        + 0.3 * x * y * y
        - 0.7j * z * x
    )
    pair = lambda x, y: triple(x, y, 0.5)

    def draw(rng):
        dim = int(rng.integers(2, 9))
        A, B, C = (linalg.random_hermitian(rng, dim) for _ in range(3))
        for f, apply, slots in (
            (triple, moi.apply_function_triple, (A, B, C)),
            (pair, moi.apply_function_pair, (A, B)),
        ):
            forward = apply(f, *slots)
            backward = apply(lambda *v: np.conj(f(*v[::-1])), *slots[::-1])
            peak = max(float(np.max(np.abs(forward))), np.finfo(float).tiny)
            yield float(np.max(np.abs(backward - forward.conj().T))) / peak

    return _worst_within(
        "moi.slot_reversal", "max dev / max|entry|", _draws(seed, draws, draw), 1e-12
    )


def check_clustered_exactness(seed: int, draws: int) -> CheckResult:
    """The slot-blind zero on seeded clustered pairs X2 = X1 + delta G at
    dimension 12 and delta = 1e-4, 1e-8 and 1e-12: in every slot the symbol
    g(y) k(z) of the two unperturbed slots (g = e^{it}, k = 1/(1 + t^2))
    ignores the perturbed one, so the exact difference is 0, and
    ``argument_perturbation`` must stay within 1e-12 max|X1 - X2|.  Near
    pairs that keep their difference f(l1, ..) - f(l2, ..) form it as an
    exact 0; moved into the far split, each leaves two chain products that
    round apart, about eps against a difference of size delta."""

    def blind(index):
        def f(*args):
            y, z = (arg for slot, arg in enumerate(args) if slot != index)
            return np.exp(1j * y) / (1.0 + z * z) + 0.0 * args[index]

        return f

    def draw(rng):
        X1, Y, Z = (linalg.random_hermitian(rng, 12) for _ in range(3))
        G = linalg.random_hermitian(rng, 12).matrix
        for delta in (1e-4, 1e-8, 1e-12):
            X2 = linalg.hermitian_from_matrix(X1.matrix + delta * G)
            scale = float(np.max(np.abs(X1.matrix - X2.matrix)))
            for index in range(3):
                out = moi.argument_perturbation(blind(index), index, X1, X2, Y, Z)
                yield float(np.max(np.abs(out))) / scale

    return _worst_within(
        "moi.clustered_exactness", "max |out| / max|X1 - X2|", _draws(seed, draws, draw), 1e-12
    )


# ----------------------------------------------------------------- besov


def check_window_equation() -> CheckResult:
    s = np.linspace(1.0, 2.0, 10_000)
    dev = float(np.max(np.abs(besov.window_w(s) - 1.0 + besov.window_w(s / 2.0))))
    return _within("besov.window_equation", "max dev", dev, 1e-12)


def check_partition_of_unity() -> CheckResult:
    s = np.logspace(-10, 10, 1000, base=2.0)
    dev = float(np.max(np.abs(besov.partition_check(s) - 1.0)))
    return _within("besov.partition_of_unity", "max dev", dev, 1e-10)


def check_band_support(grid_half_width: float, grid_log2_size: int) -> CheckResult:
    psi = besov.psi_reference_grid(grid_half_width, grid_log2_size)
    freqs = np.abs(psi.frequencies())

    def leaks():
        for n in range(0, besov.max_resolvable_band(psi) + 1):
            spectrum = np.abs(np.fft.fft(besov.band_piece(psi, n).samples))
            peak = float(np.max(spectrum))
            if peak == 0.0:
                continue
            outside = (freqs < 2.0 ** (n - 1)) | (freqs > 2.0 ** (n + 1))
            yield float(np.max(spectrum[outside])) / peak if np.any(outside) else 0.0

    return _worst_within("besov.band_support", "max relative leak", leaks(), 1e-12)


def check_summability_tail(grid_half_width: float, grid_log2_size: int) -> CheckResult:
    coarse = besov.psi_reference_grid(grid_half_width, grid_log2_size)
    fine = besov.psi_reference_grid(grid_half_width, grid_log2_size + 1)
    top_coarse = besov.max_resolvable_band(coarse)
    weighted = [(2.0**n) * sup for n, sup in enumerate(fine._band_sups[1])]
    tail = sum(weighted[top_coarse + 1 :])
    total = besov.psi_band_majorant(fine)
    fraction = tail / total if total else math.nan  # a zero majorant fails
    decaying = all(
        weighted[i + 1] <= weighted[i] or weighted[i + 1] < 1e-12
        for i in range(3, len(weighted) - 1)
    )
    tol = 0.01
    return _result(
        "besov.summability_tail",
        fraction < tol and decaying,
        f"tail fraction {fraction:.3e} (tol {_tol_text(tol)}), weighted sups decay: {decaying}",
        category="grid-stability",
    )


def check_surrogate_refinement(grid_half_width: float, grid_log2_size: int) -> CheckResult:
    coarse = besov.psi_band_majorant(
        besov.psi_reference_grid(grid_half_width, grid_log2_size)
    )
    fine = besov.psi_band_majorant(
        besov.psi_reference_grid(grid_half_width, grid_log2_size + 1)
    )
    rel = abs(fine - coarse) / coarse if coarse else math.nan  # a zero majorant fails
    tol = 0.02
    return _result(
        "besov.surrogate_refinement",
        rel < tol,
        f"majorant {coarse:.6f} -> {fine:.6f}, rel change {rel:.3e} (tol {_tol_text(tol)})",
        category="grid-stability",
    )


# -------------------------------------------------------- counterexample


def _growth_gate(name, label, records, residual):
    """:func:`_worst_within` on one residual of the growth ``records``, at
    its :data:`counterexample.GROWTH_GATES` tolerance."""
    _, tol = ce.GROWTH_GATES[residual]
    return _worst_within(name, label, (getattr(record, residual) for record in records), tol)


def check_exact_blowup(records: Sequence[ce.ExperimentRecord]) -> CheckResult:
    return _growth_gate(
        "counterexample.exact_blowup", "max relative ratio error", records, "ratio_error"
    )


def check_factorization_identity(records: Sequence[ce.ExperimentRecord]) -> CheckResult:
    """D = eps 1 e_N^T entrywise, and exactly zero outside its last column."""
    name = "counterexample.factorization_identity"
    dev = _growth_gate(name, "max dev", records, "factor_dev")
    off = _growth_gate(name, "max off-column", records, "off_column")
    return _result(name, dev.passed and off.passed, f"{dev.detail}, {off.detail}")


def check_zero_slot(records: Sequence[ce.ExperimentRecord]) -> CheckResult:
    return _growth_gate(
        "counterexample.zero_slot", "max |f(A,B,0)|/sqrt(N)", records, "zero_slot_error"
    )


def check_rank_one_collapse(N_list: Sequence[int]) -> CheckResult:
    """The engine's phi(A, B) against its closed form 1 e_N^T, entrywise."""

    def deviations():
        for N in N_list:
            inst = ce.build_instance(N)
            phi = moi.apply_function_pair(inst.phi, inst.A, inst.B)
            phi[:, -1] -= 1.0
            yield float(np.max(np.abs(phi)))

    return _worst_within(
        "counterexample.rank_one_collapse", "max |phi(A,B) - 1 e_N^T|", deviations(), 1e-12
    )


def check_gram_fidelity(N_list: Sequence[int]) -> CheckResult:
    deviations = (ce.build_instance(N).deviations()["gram"] for N in N_list)
    return _worst_within("counterexample.gram_fidelity", "max dev", deviations, 1e-12)


def check_bounded_symbol(N_list: Sequence[int]) -> CheckResult:
    sups = [ce.phi_grid_sup(ce.build_instance(N).phi, N) for N in N_list]
    spread = max(sups) / min(sups) - 1.0 if min(sups) else math.nan  # a zero sup fails
    # the grid holds the lattice where the proved bound PHI_SUP is attained
    dev = reduce(_worse, (abs(s - ce.PHI_SUP) for s in sups))
    spread_tol, dev_tol = 0.1, 1e-12
    return _result(
        "counterexample.bounded_symbol",
        spread < spread_tol and dev <= dev_tol,
        f"sup range [{min(sups):.6f}, {max(sups):.6f}], spread {spread:.3e} "
        f"(tol {_tol_text(spread_tol)}), max |sup - PHI_SUP| {dev:.3e} (tol {_tol_text(dev_tol)})",
    )


def check_bounded_surrogate(
    records: Sequence[ce.ExperimentRecord], N_list: Sequence[int], psi_grid: besov.GridFunction
) -> CheckResult:
    """The records' surrogates, from a sweep over ``N_list`` on ``psi_grid``,
    against the tensor bound on that grid."""
    bound = besov.tensor_bound_kappa(ce.PHI_SUP, psi_grid)
    values = {record.besov_surrogate for record in records}
    return _result(
        "counterexample.bounded_surrogate",
        values == {bound},
        f"surrogate values {sorted(values)} over N in {tuple(N_list)}, "
        f"kappa(PHI_SUP, psi) = {bound!r} (bit-for-bit equality)",
    )


def _rank_reports(name, label, reports):
    """Pass iff every trial of every report passed; the detail quotes the worst ratio."""
    worst_ratio = reduce(_worse, (report.max_ratio for report in reports), 0.0)
    return _result(name, all(r.all_passed for r in reports), f"{label} {worst_ratio:.3e}")


def check_lipschitz_bound(trials: int, seed: int) -> CheckResult:
    reports = [
        report
        for N in (2, 3)
        for report in ce.lipschitz_rank_bound_check(
            N, (1.0, 2.0, math.inf), trials=trials, seed=seed
        )
    ]
    return _rank_reports(
        "counterexample.lipschitz_bound", "all trials within bound, max lhs/bound ratio", reports
    )


def check_pairs_chain(trials: int, seed: int) -> CheckResult:
    reports = ce.rank_estimate_check_pairs(4, (2.0, 3.0, math.inf), trials=trials, seed=seed)
    return _rank_reports(
        "counterexample.pairs_chain", "chain inequalities hold, max normalized ratio", reports
    )


DEFAULT_BLOWUP_N = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_BLOWUP_P = (1.0, 1.5, 2.0, 3.0, math.inf)
DEFAULT_TRIALS = 25
"""Rank-check trials per (N, p) in ``moilab selfcheck`` and ``moilab bounds``."""


def run_selfcheck(
    N_list: Sequence[int] = DEFAULT_BLOWUP_N,
    p_list: Sequence[float] = DEFAULT_BLOWUP_P,
    seed: int = ce.DEFAULT_SEED,
    grid_half_width: float = besov.DEFAULT_HALF_WIDTH,
    grid_log2_size: int = besov.DEFAULT_LOG2_SAMPLES,
    trials: int = DEFAULT_TRIALS,
) -> list[CheckResult]:
    """Run every invariant check and return the results in a fixed order.

    The growth sweep over ``N_list`` and ``p_list`` runs once; the blowup,
    factorization, surrogate and zero-slot checks read all of its records.
    A symbol that is not finite at some atom raises
    :class:`moilab.moi.NonFiniteSymbolError` from the sweep."""
    small_N = tuple(n for n in N_list if n <= 16) or tuple(N_list[:1])
    mid_N = tuple(n for n in N_list if n <= 64)
    psi_grid = besov.psi_reference_grid(grid_half_width, grid_log2_size)
    sweep = [record for N in N_list for record in ce.growth_records(N, p_list, psi_grid=psi_grid)]
    return [
        check_spectral_resolution(seed, 20),
        check_projection_algebra(seed + 1, 10),
        check_schatten_monotonicity(seed + 2, 20, (1.0, 1.3, 2.0, 2.7, 4.0, math.inf)),
        check_unitary_invariance(seed + 3, 15),
        check_frobenius_identity(seed + 4, 20),
        check_finite_rank_chain(seed + 5, 50),
        check_resolution_collapse(seed + 6, 15),
        check_diagonal_policy_independence(seed + 7, 15),
        check_single_slot_exactness(seed + 8, 100),
        check_triple_slot_exactness(seed + 9, 100),
        check_commuting_diagonal(seed + 10, 15),
        check_naive_oracle_equivalence(seed + 11, 50),
        check_window_equation(),
        check_partition_of_unity(),
        check_band_support(grid_half_width, grid_log2_size),
        check_summability_tail(grid_half_width, grid_log2_size),
        check_surrogate_refinement(grid_half_width, grid_log2_size),
        check_exact_blowup(sweep),
        check_factorization_identity(sweep),
        check_rank_one_collapse(small_N),
        check_gram_fidelity(small_N),
        check_bounded_symbol(mid_N or tuple(N_list[:1])),
        check_bounded_surrogate(sweep, N_list, psi_grid),
        check_lipschitz_bound(trials, seed),
        check_pairs_chain(trials, seed),
        check_constructed_spectrum(mid_N, seed + 12, 20),
        check_zero_slot(sweep),
        check_stack_member_equivalence(seed + 13, 20),
        check_slot_reversal(seed + 14, 20),
        check_clustered_exactness(seed + 15, 6),
    ]
