"""The selfcheck invariants as pytest items.

``moilab selfcheck`` and this module run the same check functions from
:mod:`moilab.selfcheck`; no invariant is coded a second time here.
"""

import pytest

from moilab import counterexample, moi, selfcheck

NAMES = (
    "linalg.spectral_resolution",
    "linalg.projection_algebra",
    "linalg.schatten_monotonicity",
    "linalg.unitary_invariance",
    "linalg.frobenius_identity",
    "linalg.finite_rank_chain",
    "moi.resolution_collapse",
    "moi.diagonal_policy_independence",
    "moi.single_slot_exactness",
    "moi.triple_slot_exactness",
    "moi.commuting_diagonal",
    "moi.naive_oracle_equivalence",
    "besov.window_equation",
    "besov.partition_of_unity",
    "besov.band_support",
    "besov.summability_tail",
    "besov.surrogate_refinement",
    "counterexample.exact_blowup",
    "counterexample.factorization_identity",
    "counterexample.rank_one_collapse",
    "counterexample.gram_fidelity",
    "counterexample.bounded_symbol",
    "counterexample.bounded_surrogate",
    "counterexample.lipschitz_bound",
    "counterexample.pairs_chain",
    "linalg.constructed_spectrum",
    "counterexample.zero_slot",
    "moi.stack_member_equivalence",
    "moi.slot_reversal",
    "moi.clustered_exactness",
)


@pytest.fixture(scope="module")
def selfcheck_run():
    """One default selfcheck run, with the size of every growth_records call it made."""
    sizes = []
    real = counterexample.growth_records

    def counted(N, *args, **kwargs):
        sizes.append(N)
        return real(N, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counterexample, "growth_records", counted)
        results = selfcheck.run_selfcheck()
    return results, sizes


@pytest.fixture(scope="module")
def results(selfcheck_run):
    return selfcheck_run[0]


def test_selfcheck_sweeps_growth_once_per_size(selfcheck_run):
    assert selfcheck_run[1] == list(selfcheck.DEFAULT_BLOWUP_N)


def test_names_and_order(results):
    assert tuple(r.name for r in results) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_invariant(results, name):
    (result,) = [r for r in results if r.name == name]
    assert result.passed, result.detail


def test_bounded_symbol_scans_the_configured_sizes(monkeypatch):
    scanned = []
    real = counterexample.phi_grid_sup
    monkeypatch.setattr(
        counterexample, "phi_grid_sup", lambda phi, N: scanned.append(N) or real(phi, N)
    )
    results = selfcheck.run_selfcheck(N_list=(1, 2), p_list=(2.0,), trials=2, grid_log2_size=12)
    assert scanned == [1, 2]
    (result,) = [r for r in results if r.name == "counterexample.bounded_symbol"]
    assert result.passed, result.detail


def test_slot_reversal_catches_a_swapped_chain(monkeypatch):
    # the stack check misses this fault: both of its sides run the swapped chain
    assert selfcheck.check_slot_reversal(1, 5).passed
    real = moi._chain_integral
    swapped = lambda f, ms, ops: real(f, [ms[1], ms[0], *ms[2:]], ops)
    monkeypatch.setattr(moi, "_chain_integral", swapped)
    assert not selfcheck.check_slot_reversal(1, 5).passed
    assert selfcheck.check_stack_member_equivalence(1, 5).passed
