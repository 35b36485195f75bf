"""Acceptance suite: every criterion at its stated tolerance.

Each test computes one criterion end to end and prints a single
machine-greppable pass/fail line (run pytest with -s to stream them).
Criteria that restate a selfcheck invariant call the same check function
from :mod:`moilab.selfcheck`, at the criterion's own seed, count and sizes.
"""

import math
import time

import pytest

from moilab.besov import DEFAULT_HALF_WIDTH, DEFAULT_LOG2_SAMPLES, psi_reference_grid
from moilab.counterexample import (
    _worse,
    epsilon_scaling_run,
    growth_records,
    lipschitz_rank_bound_check,
    quarter_root_rule,
)
from moilab.selfcheck import (
    check_band_support,
    check_bounded_surrogate,
    check_bounded_symbol,
    check_exact_blowup,
    check_finite_rank_chain,
    check_naive_oracle_equivalence,
    check_partition_of_unity,
    check_single_slot_exactness,
    check_surrogate_refinement,
    check_triple_slot_exactness,
)

SWEEP_N = (1, 2, 4, 8, 16, 32, 64)
SWEEP_P = (1.0, 1.5, 2.0, 3.0, math.inf)
GRID = (DEFAULT_HALF_WIDTH, DEFAULT_LOG2_SAMPLES)


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def report_checks(number: int, description: str, *results) -> None:
    details = "; ".join(f"{r.name}: {r.detail}" for r in results)
    report(number, all(r.passed for r in results), f"{description}; {details}")


@pytest.fixture(scope="module")
def sweep():
    """The growth records over SWEEP_N x SWEEP_P, computed once for criteria
    1 and 2, with the sweep's wall time in seconds."""
    psi_grid = psi_reference_grid(*GRID)
    start = time.perf_counter()
    records = [r for N in SWEEP_N for r in growth_records(N, SWEEP_P, psi_grid=psi_grid)]
    return records, time.perf_counter() - start


def test_criterion_1_exact_blowup(sweep):
    records, elapsed = sweep
    blowup = check_exact_blowup(records)
    report(
        1,
        blowup.passed and elapsed < 60.0,
        f"ratio = sqrt(N) for N in {SWEEP_N}, p in (1,1.5,2,3,inf); "
        f"{blowup.detail}, sweep took {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_bounded_data_unbounded_ratio(sweep):
    records, _ = sweep
    report_checks(
        2,
        f"sup|phi| and the surrogate stay bounded over N in {SWEEP_N} "
        "while the ratio column equals sqrt(N)",
        check_bounded_symbol(SWEEP_N),
        check_bounded_surrogate(records, SWEEP_N, psi_reference_grid(*GRID)),
        check_exact_blowup(records),
    )


def test_criterion_3_perturbation_formula_exactness():
    report_checks(
        3,
        "perturbation identities exact on 100 seeded instances each",
        check_single_slot_exactness(314159, 100),
        check_triple_slot_exactness(314159, 100),
    )


def test_criterion_4_triple_integral_oracle_equivalence():
    report_checks(
        4,
        "triple integral vs naive loop on 50 seeded instances",
        check_naive_oracle_equivalence(271828, 50),
    )


def test_criterion_5_littlewood_paley_partition():
    report_checks(
        5,
        "Littlewood-Paley partition, band support and surrogate refinement",
        check_partition_of_unity(),
        check_band_support(*GRID),
        check_surrogate_refinement(*GRID),
    )


def test_criterion_6_lipschitz_rank_bound():
    total_trials = 0
    all_passed = True
    worst_ratio = 0.0
    for N in (2, 3, 4):
        for reportee in lipschitz_rank_bound_check(
            N, (1.0, 2.0, math.inf), trials=23, seed=20240501 + N
        ):
            total_trials += len(reportee.trials)
            all_passed = all_passed and reportee.all_passed
            worst_ratio = _worse(worst_ratio, reportee.max_ratio)
    ok = all_passed and total_trials >= 200
    report(
        6,
        ok,
        f"rank-limited Lipschitz bound held on all {total_trials} trials "
        f"(N in 2..4, p in 1,2,inf); max lhs/bound {worst_ratio:.3e}",
    )


def test_criterion_7_finite_rank_schatten_chain():
    report_checks(
        7,
        "HS <= r^(1/2-1/p) S_p on 200 seeded rank-r draws, p in 2,3,4,inf",
        check_finite_rank_chain(161803, 200),
    )


def test_criterion_8_epsilon_scaling():
    sizes = (4, 16, 64, 256)
    records = epsilon_scaling_run(sizes, quarter_root_rule, p_list=[2.0])
    perturbations = [r.perturbation for r in records]
    differences = [r.lhs for r in records]
    dev = 0.0
    for r in records:
        eps = quarter_root_rule(r.N)
        dev = _worse(dev, abs(r.perturbation - eps))
        dev = _worse(dev, abs(r.lhs - eps * math.sqrt(r.N)))
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
