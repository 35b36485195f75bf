"""The selfcheck invariants as pytest items.

``moilab selfcheck`` and this module run the same check functions from
:mod:`moilab.selfcheck`; no invariant is coded a second time here.
"""

import pytest

from moilab import selfcheck

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
)


@pytest.fixture(scope="module")
def results():
    return selfcheck.run_selfcheck()


def test_names_and_order(results):
    assert tuple(r.name for r in results) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_invariant(results, name):
    (result,) = [r for r in results if r.name == name]
    assert result.passed, result.detail

