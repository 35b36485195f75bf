"""Acceptance suite: every criterion at its stated tolerance.

Each test computes one criterion end to end and prints a single
machine-greppable pass/fail line (run pytest with -s to stream them).
"""

import functools
import math
import time

import numpy as np

from conftest import complex_gaussian, random_measure
from moilab.besov import (
    band_piece,
    max_resolvable_band,
    partition_check,
    psi_band_majorant,
    psi_reference_grid,
)
from moilab.counterexample import (
    PHI_SUP,
    build_instance,
    epsilon_scaling_run,
    growth_records,
    lipschitz_rank_bound_check,
    phi_grid_sup,
    quarter_root_rule,
)
from moilab.linalg import random_hermitian, schatten_norm, spectral_measure
from moilab.moi import (
    apply_function_single,
    apply_function_triple,
    argument_perturbation,
    perturbation_via_divided_difference,
    triple_operator_integral,
)
from moilab.reference import naive_triple_operator_integral

SWEEP_N = (1, 2, 4, 8, 16, 32, 64)
SWEEP_P = (1.0, 1.5, 2.0, 3.0, math.inf)


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@functools.lru_cache(maxsize=1)
def growth_sweep():
    psi_grid = psi_reference_grid()
    start = time.perf_counter()
    records = []
    for N in SWEEP_N:
        records.extend(growth_records(N, SWEEP_P, psi_grid=psi_grid))
    elapsed = time.perf_counter() - start
    return tuple(records), elapsed


def test_criterion_1_exact_blowup():
    records, elapsed = growth_sweep()
    worst = max(
        abs(r.ratio - math.sqrt(r.N)) / math.sqrt(r.N) for r in records
    )
    ok = worst <= 1e-8 and elapsed < 60.0
    report(
        1,
        ok,
        f"ratio = sqrt(N) for N in {SWEEP_N}, p in (1,1.5,2,3,inf); "
        f"max rel err {worst:.3e} (tol 1e-8), sweep took {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_bounded_data_unbounded_ratio():
    records, _ = growth_sweep()
    surrogates = sorted({r.N: r.besov_surrogate for r in records}.values())
    surrogate_spread = surrogates[-1] / surrogates[0] - 1.0

    sups = [phi_grid_sup(build_instance(N).phi, N) for N in SWEEP_N]
    sup_spread = max(sups) / min(sups) - 1.0
    sup_dev = max(abs(s - PHI_SUP) for s in sups)

    ratios_grow = all(
        abs(r.ratio - math.sqrt(r.N)) <= 1e-8 * math.sqrt(r.N) for r in records
    )
    ok = (
        sup_spread < 0.10
        and sup_dev <= 1e-12
        and surrogate_spread < 0.10
        and ratios_grow
    )
    report(
        2,
        ok,
        f"sup|phi| spread {sup_spread:.3e} and surrogate spread "
        f"{surrogate_spread:.3e} over the N sweep (tol 0.1 each), grid sup "
        f"off the proved bound {PHI_SUP} by {sup_dev:.3e} (tol 1e-12), while "
        f"the ratio column equals sqrt(N): {ratios_grow}",
    )


def test_criterion_3_perturbation_formula_exactness():
    rng = np.random.default_rng(314159)
    worst_single = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        A = random_hermitian(rng, dim)
        B = random_hermitian(rng, dim)
        coeffs = rng.uniform(-1.0, 1.0, size=5)

        def poly(t, c=coeffs):
            total = np.zeros_like(np.asarray(t, dtype=complex))
            for value in c:
                total = total * t + value
            return total

        for f in (poly, lambda t: np.exp(1j * t)):
            lhs = perturbation_via_divided_difference(f, A, B)
            rhs = apply_function_single(f, spectral_measure(A)) - apply_function_single(
                f, spectral_measure(B)
            )
            worst_single = max(worst_single, float(np.max(np.abs(lhs - rhs))))

    worst_triple = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 11))
        X1, X2, Y, Z = (random_hermitian(rng, dim) for _ in range(4))
        c = rng.uniform(-1.0, 1.0, size=4)
        functions = (
            lambda x, y, z: c[0] + c[1] * x * y + c[2] * z**2 + c[3] * x * y * z,
            lambda x, y, z: np.sin(x) * np.cos(y) + z,
        )
        f = functions[trial % 2]
        for index in (0, 1, 2):
            lhs = argument_perturbation(f, index, X1, X2, Y, Z)
            args1 = [Y, Z]
            args1.insert(index, X1)
            args2 = [Y, Z]
            args2.insert(index, X2)
            rhs = apply_function_triple(f, *args1) - apply_function_triple(f, *args2)
            worst_triple = max(worst_triple, float(np.max(np.abs(lhs - rhs))))

    ok = worst_single <= 1e-9 and worst_triple <= 1e-9
    report(
        3,
        ok,
        "perturbation identities exact on 100 seeded instances each: "
        f"single-variable max dev {worst_single:.3e}, "
        f"three-slot max dev {worst_triple:.3e} (tol 1e-9)",
    )


def test_criterion_4_triple_integral_oracle_equivalence():
    rng = np.random.default_rng(271828)
    phi = lambda x, y, z: np.exp(1j * (x - 2.0 * y)) + x * z
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(3, 9))
        E1, E2, E3 = (
            random_measure(rng, dim, int(rng.integers(1, 6))) for _ in range(3)
        )
        T1 = complex_gaussian(rng, dim, dim)
        T2 = complex_gaussian(rng, dim, dim)
        fast = triple_operator_integral(phi, E1, T1, E2, T2, E3)
        slow = naive_triple_operator_integral(phi, E1, T1, E2, T2, E3)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = worst <= 1e-10
    report(
        4,
        ok,
        f"triple integral vs naive loop on 50 seeded instances: max dev {worst:.3e} (tol 1e-10)",
    )


def test_criterion_5_littlewood_paley_partition():
    s = np.logspace(-10, 10, 1000, base=2.0)
    partition_dev = float(np.max(np.abs(partition_check(s) - 1.0)))

    psi = psi_reference_grid()
    freqs = np.abs(psi.frequencies())
    support_leak = 0.0
    for n in range(0, max_resolvable_band(psi) + 1):
        piece = band_piece(psi, n)
        spectrum = np.abs(np.fft.fft(piece.samples))
        peak = float(np.max(spectrum))
        if peak == 0.0:
            continue
        outside = (freqs < 2.0 ** (n - 1)) | (freqs > 2.0 ** (n + 1))
        support_leak = max(support_leak, float(np.max(spectrum[outside])) / peak)

    coarse = psi_band_majorant(psi_reference_grid(64.0, 16))
    fine = psi_band_majorant(psi_reference_grid(64.0, 17))
    refinement = abs(fine - coarse) / coarse

    ok = partition_dev <= 1e-10 and support_leak <= 1e-12 and refinement < 0.02
    report(
        5,
        ok,
        f"partition dev {partition_dev:.3e} (tol 1e-10), band support leak "
        f"{support_leak:.3e} (tol 1e-12), surrogate refinement change "
        f"{refinement:.3e} (tol 2e-2)",
    )


def test_criterion_6_lipschitz_rank_bound():
    total_trials = 0
    all_passed = True
    worst_ratio = 0.0
    for N in (2, 3, 4):
        for p in (1.0, 2.0, math.inf):
            reportee = lipschitz_rank_bound_check(N, p, trials=23, seed=20240501 + N)
            total_trials += len(reportee.trials)
            all_passed = all_passed and reportee.all_passed
            worst_ratio = max(worst_ratio, reportee.max_ratio)
    ok = all_passed and total_trials >= 200
    report(
        6,
        ok,
        f"rank-limited Lipschitz bound held on all {total_trials} trials "
        f"(N in 2..4, p in 1,2,inf); max lhs/bound {worst_ratio:.3e}",
    )


def test_criterion_7_finite_rank_schatten_chain():
    rng = np.random.default_rng(161803)
    worst_excess = -math.inf
    for _ in range(200):
        dim = int(rng.integers(3, 13))
        rank = int(rng.integers(1, dim + 1))
        M = complex_gaussian(rng, dim, rank) @ complex_gaussian(rng, rank, dim)
        hs = schatten_norm(M, 2.0)
        for p in (2.0, 3.0, 4.0, math.inf):
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            worst_excess = max(
                worst_excess, hs - rank ** (0.5 - inv_p) * schatten_norm(M, p)
            )
    ok = worst_excess <= 1e-12
    report(
        7,
        ok,
        f"HS <= r^(1/2-1/p) S_p on 200 seeded rank-r draws, p in 2,3,4,inf; "
        f"max excess {worst_excess:.3e} (tol 1e-12)",
    )


def test_criterion_8_epsilon_scaling():
    sizes = (4, 16, 64, 256)
    records = epsilon_scaling_run(sizes, quarter_root_rule, p_list=[2.0])
    perturbations = [r.perturbation for r in records]
    differences = [r.lhs for r in records]
    dev = 0.0
    for r in records:
        eps = quarter_root_rule(r.N)
        dev = max(dev, abs(r.perturbation - eps))
        dev = max(dev, abs(r.lhs - eps * math.sqrt(r.N)))
    monotone = all(
        a > b for a, b in zip(perturbations[:-1], perturbations[1:])
    ) and all(a < b for a, b in zip(differences[:-1], differences[1:]))
    ok = dev <= 1e-8 and monotone
    report(
        8,
        ok,
        f"eps = N^(-1/4) over N in {sizes}: perturbations "
        f"{[round(v, 6) for v in perturbations]} decrease, differences "
        f"{[round(v, 6) for v in differences]} increase, max dev {dev:.3e} (tol 1e-8)",
    )
