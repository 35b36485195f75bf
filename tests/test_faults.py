"""The fault -> check matrix in README: each row of ``FAULTS`` patches one name
in ``moilab`` and records what each of ``COMMANDS`` reports, the set of what
fails (selfcheck items, growth's (N, residual) gates, bounds checks with ``fail``
rows; empty for exit 0) or the one stderr line of a non-finite symbol (exit 1)."""

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable

import numpy as np
import pytest

import moilab
from moilab import besov, linalg
from moilab.cli import main

COMMANDS = {
    "selfcheck": ["selfcheck", "--N", "1,2,4", "--p", "2", "--trials", "2", "--grid-m", "12"],
    "growth": ["growth", "--N", "2,4", "--p", "2"],
    "bounds": ["bounds", "--N", "2", "--p", "1,2", "--trials", "2"],
}
NOT_FINITE = "moilab: symbol is not finite at atom ("
IN_MEMBER = NOT_FINITE + "0, 0, 0) of stack member 0 ("
PSI, ETA = "counterexample.psi_reference", "counterexample.eta"
DRAW = "counterexample._rank_limited_draw"
STACK = "moi.apply_function_stack counterexample.apply_function_stack"
STACK_ITEM = "moi.stack_member_equivalence"
# eta without its small-argument series, 0/0 on the lattice
UNGUARDED_ETA = np.errstate(invalid="ignore")(lambda x: 2.0 * (1.0 - np.cos(x)) / (x * x))


def residuals(*names):
    return frozenset((N, name) for N in (2, 4) for name in names)


def returning(value):
    return lambda real: value


def corrupting(corrupt):
    """The real function with its result passed through ``corrupt``."""
    return lambda real: lambda *args: corrupt(real(*args))


def _a_on_u(inst):
    values = linalg.spectral_measure(inst.A).eigenvalues
    A = linalg.hermitian_from_spectrum(values, inst.U, np.ones(inst.N, dtype=int))
    return replace(inst, A=A)


@dataclass(frozen=True)
class Fault:
    targets: str  # "module.name" in moilab, one per module that imports the name
    replace: Callable  # the real object -> the one patched in
    selfcheck: frozenset | str = frozenset()
    growth: frozenset | str = frozenset()
    bounds: frozenset | str = frozenset()


FAULTS = {
    # psi(t) = 1.5 t scales D; t + 1/2 makes f(A, B, 0) = phi(A, B) / 2
    "psi-scaled": Fault(
        PSI, returning(lambda: lambda t: 1.5 * np.asarray(t, float)),
        {"counterexample.exact_blowup", "counterexample.factorization_identity"},
        residuals("ratio_error", "factor_dev"),
    ),
    "psi-shifted": Fault(
        PSI, returning(lambda: lambda t: np.asarray(t, float) + 0.5),
        {"counterexample.zero_slot"}, residuals("zero_slot_error"),
    ),
    "eta-unguarded": Fault(ETA, returning(UNGUARDED_ETA), NOT_FINITE, NOT_FINITE),
    "kink-nan": Fault(
        "counterexample.random_kink_function",
        corrupting(lambda d: (lambda *v: d[0](*v) * np.nan, d[1])), IN_MEMBER, bounds=IN_MEMBER,
    ),
    # zero phi_N sups and psi majorants: the checks dividing by them fail, not raise
    "eta-zero": Fault(
        ETA, returning(lambda x: np.zeros_like(x, dtype=float)),
        {"counterexample.exact_blowup", "counterexample.factorization_identity",
         "counterexample.rank_one_collapse", "counterexample.bounded_symbol"},
        residuals("ratio_error", "factor_dev"),
    ),
    "psi-grid-zero": Fault(
        "besov.psi_reference", returning(lambda: lambda t: 0.0 * np.asarray(t, float)),
        {"besov.summability_tail", "besov.surrogate_refinement"},
    ),
    # the rank checks pass these; the stack check ties the stack to its spectra
    "stack-scaled": Fault(STACK, corrupting(lambda stack: 10.0 * stack), {STACK_ITEM}),
    "stack-rolled": Fault(STACK, corrupting(lambda s: np.roll(s, 1, axis=0)), {STACK_ITEM}),
    "draw-rolled": Fault(DRAW, corrupting(lambda d: (*d[:2], np.roll(d[2], 1, 0))), {STACK_ITEM}),
    "draw-scaled": Fault(DRAW, corrupting(lambda d: (*d[:2], 1.001 * d[2])), {STACK_ITEM}),
    "triple-scaled": Fault(
        "moi.apply_function_triple counterexample.apply_function_triple",
        corrupting(lambda result: 10.0 * result),
        {"counterexample.exact_blowup", "counterexample.factorization_identity",
         "moi.commuting_diagonal", STACK_ITEM, "moi.triple_slot_exactness"},
        residuals("ratio_error", "factor_dev"),
    ),
    # D smeared off its last column, by far less than factor_dev's tolerance
    "triple-offset": Fault(
        "moi.apply_function_triple counterexample.apply_function_triple",
        corrupting(lambda result: result + 1e-13),
        {"counterexample.factorization_identity"}, residuals("off_column"),
    ),
    # only the stack check decomposes matrices with eigenvalues 1e-3 apart
    "group-tol": Fault("linalg._GROUP_TOL", returning(1e-3), {STACK_ITEM}),
    # A built on B's frame U instead of the identity: the Gram matrix is I
    "a-on-u": Fault(
        "counterexample.build_instance", corrupting(_a_on_u),
        {"counterexample.exact_blowup", "counterexample.factorization_identity",
         "counterexample.rank_one_collapse", "counterexample.gram_fidelity"},
        residuals("ratio_error", "factor_dev"),
    ),
    # both sides of the stack check run the swapped chain; the reversed
    # triple swaps other measures than the forward one
    "chain-swap": Fault(
        "moi._chain_integral",
        lambda real: lambda f, ms, ops: real(f, [ms[1], ms[0], *ms[2:]], ops),
        {"counterexample.exact_blowup", "counterexample.factorization_identity",
         "counterexample.rank_one_collapse", "moi.commuting_diagonal", "moi.naive_oracle_equivalence", "moi.resolution_collapse",
         "moi.triple_slot_exactness", "moi.slot_reversal"},
        residuals("ratio_error", "factor_dev"),
    ),
    # each atom paired with its nearest atom's neighbour: still exact
    "nearest-off": Fault(
        "moi._nearest_pairs",
        lambda real: lambda first, second: real(
            first, replace(second, eigenvalues=np.roll(second.eigenvalues, 1))
        ),
    ),
}


@pytest.fixture
def run(monkeypatch, capsys, tmp_path):
    """Run a command under a fault, assert its exit code (and a non-finite symbol's line:
    None), and give the lines printed (selfcheck) or written (growth, bounds), and stderr."""

    def run(name, command):
        fault, out = FAULTS[name], tmp_path / "out.csv"
        faulty = fault.replace(attrgetter(fault.targets.split()[0])(moilab))
        for target in fault.targets.split():
            monkeypatch.setattr(f"moilab.{target}", faulty)
        code = main(COMMANDS[command] + ([] if command == "selfcheck" else ["--out", str(out)]))
        printed, err = (text.splitlines() for text in capsys.readouterr())
        expected = getattr(fault, command)
        if isinstance(expected, str):  # exit 1 and one stderr line
            assert (code, len(err), err[0][: len(expected)]) == (1, 1, expected)
            return None
        assert code == (1 if expected else 0)
        return (printed if command == "selfcheck" else out.read_text().splitlines()), err

    besov.psi_reference_grid.cache_clear()  # no grid is kept from another fault
    yield run
    besov.psi_reference_grid.cache_clear()


@pytest.mark.parametrize("fault", FAULTS)
def test_selfcheck_under_fault(run, fault):
    if result := run(fault, "selfcheck"):
        lines, _ = result
        assert len(lines) == 30  # one line per item, failed or not
        failed = {line.split(":")[0][5:] for line in lines if line.startswith("FAIL")}
        assert failed == FAULTS[fault].selfcheck


@pytest.mark.parametrize("fault", FAULTS)
def test_growth_under_fault(run, fault):
    if result := run(fault, "growth"):
        rows, err = result
        assert len(rows) == 3  # the rows are written all the same
        # one line per failed gate: "growth mismatch at N=4, p=2: ... (ratio_error ...)"
        assert all(line.startswith("growth mismatch at N=") for line in err)
        gates = {(int(l.split("N=")[1].split(",")[0]), l.split("(")[1].split()[0]) for l in err}
        assert len(gates) == len(err) and gates == FAULTS[fault].growth


@pytest.mark.parametrize("fault", FAULTS)
def test_bounds_under_fault(run, fault):
    if result := run(fault, "bounds"):
        rows, err = result
        # the header; p = 1: one skipped pairs row, two Lipschitz rows; p = 2: two of each
        assert len(rows) == 1 + 7 and err == []
        assert {row.split(",")[0] for row in rows if row.endswith(",fail")} == FAULTS[fault].bounds
