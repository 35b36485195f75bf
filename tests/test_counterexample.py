import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEED, _reference_draw, column_form
from moilab import counterexample, linalg, moi
from moilab.besov import psi_band_majorant, psi_reference_grid, window_w
from moilab.counterexample import (
    PHI_SUP,
    ExperimentRecord,
    InvalidEpsilonError,
    KinkFunction,
    RankCheckReport,
    RankTrial,
    TrigPolynomial,
    build_instance,
    dft_unitary,
    epsilon_scaling_run,
    eta,
    growth_records,
    lipschitz_rank_bound_check,
    phi_grid_sup,
    phi_symbol,
    quarter_root_rule,
    random_kink_function,
    random_trig_polynomial,
    rank_estimate_check_pairs,
)
from moilab.linalg import (
    hermitian_from_matrix,
    hermitian_from_spectrum,
    identity_frame,
    norms_of_singular_values,
    rank_of_singular_values,
    schatten_norm,
    singular_values,
    spectral_measure,
    zero_operator,
)
from moilab.moi import apply_function_pair, apply_function_stack, apply_function_triple
from moilab.selfcheck import check_bounded_symbol, check_exact_blowup, check_rank_one_collapse


def test_eta_special_values():
    assert eta(0.0) == 1.0
    assert abs(eta(2.0 * math.pi)) <= 1e-14
    assert abs(eta(-4.0 * math.pi)) <= 1e-14
    assert eta(math.pi) == pytest.approx(4.0 / math.pi**2, rel=1e-14)


def test_eta_is_even_and_seam_is_smooth():
    x = np.linspace(-0.05, 0.05, 101)
    assert np.allclose(eta(x), eta(-x), atol=0)
    # compare the series branch against the direct formula just past the seam
    for t in (0.009, 0.0099, 0.0101, 0.011):
        direct = 2.0 * (1.0 - math.cos(t)) / t**2
        assert eta(t) == pytest.approx(direct, rel=1e-10)


def test_eta_runs_each_branch_on_its_own_arguments_bit_for_bit():
    # the series only where |x| <= 1e-2, the direct form everywhere else
    x = np.array([[0.0, 1e-3, -0.01, 0.0101], [2.0 * math.pi, -3.0, 1e-2, 50.0]])
    sq = x * x
    series = 1.0 + sq * (-1.0 / 12.0 + sq * (1.0 / 360.0 - sq / 20160.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = 2.0 * (1.0 - np.cos(x)) / sq
    assert eta(x).tobytes() == np.where(np.abs(x) <= 1e-2, series, direct).tobytes()


def test_dft_unitary_smallest_sizes():
    assert np.allclose(dft_unitary(1), [[1.0]])
    expected = np.array([[-1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    assert np.allclose(dft_unitary(2), expected, atol=1e-15)


def test_dft_unitary_is_unitary():
    U = dft_unitary(16)
    assert float(np.max(np.abs(U.conj().T @ U - np.eye(16)))) <= 1e-12


def test_dft_unitary_rejects_nonpositive():
    with pytest.raises(ValueError):
        dft_unitary(0)


@pytest.mark.parametrize("size", [101, 256])
def test_dft_unitary_equals_the_exponential_of_every_phase_bit_for_bit(size):
    idx = np.arange(1, size + 1, dtype=np.int64)
    phase = (idx[:, None] * idx[None, :]) % size
    direct = np.exp((2j * math.pi / size) * phase) / math.sqrt(size)
    assert dft_unitary(size).tobytes() == direct.tobytes()


def test_gram_deviation_reads_the_operators_frames():
    # the Gram matrix (h_k, g_j) of the eigenvectors of A and B is U
    assert build_instance(8).deviations()["gram"] <= 1e-12
    # so an instance whose B is A, with the identity Gram matrix, fails it
    inst = build_instance(4)
    assert dataclasses.replace(inst, B=inst.A).deviations()["gram"] > 0.5


def test_phi_symbol_lattice_values():
    N = 5
    rng = np.random.default_rng(3)
    theta = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    phi = phi_symbol(theta, N)
    for j in (1, 3, 5):
        for k in (2, 4):
            value = complex(np.asarray(phi(2.0 * math.pi * j, 2.0 * math.pi * k)))
            assert value == pytest.approx(theta[j - 1, k - 1], abs=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
def test_phi_symbol_equals_its_double_sum(order):
    # the table's real products agree with the complex double sum, for
    # either layout of theta and when both axes take the same values
    N = 6
    rng = np.random.default_rng(5)
    theta = np.asarray(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)), order=order)
    offsets = 2.0 * math.pi * np.arange(1, N + 1)
    x, y = rng.uniform(0.0, 2.0 * math.pi * (N + 1), (2, 9))
    phi = phi_symbol(theta, N)
    for u, v in ((x, y), (x, x)):
        direct = eta(u[:, None] - offsets) @ theta @ eta(v[:, None] - offsets).T
        assert np.max(np.abs(phi(u[:, None], v[None, :]) - direct)) <= 1e-13


def test_phi_symbol_zero_coefficients():
    phi = phi_symbol(np.zeros((3, 3)), 3)
    x = np.linspace(0.0, 20.0, 50)
    assert np.max(np.abs(phi(x[:, None], x[None, :]))) == 0.0


def test_phi_symbol_broadcasting_shapes():
    phi = phi_symbol(np.eye(2), 2)
    mesh = phi(np.zeros((3, 1)), np.zeros((1, 4)))
    assert mesh.shape == (3, 4)
    pointwise = phi(np.zeros(5), np.ones(5))
    assert pointwise.shape == (5,)
    scalar = phi(1.0, 2.0)
    assert np.asarray(scalar).shape == ()


def test_phi_symbol_reuse_equals_a_fresh_closure_bit_for_bit():
    N = 6
    theta = math.sqrt(N) * dft_unitary(N).conj()
    phi = phi_symbol(theta, N)
    atoms = 2.0 * math.pi * np.arange(1, N + 1)
    atom_grid = (atoms.reshape(1, -1, 1), atoms.reshape(1, 1, -1))
    scan = (np.linspace(0.0, 45.0, 7)[:, None], np.linspace(0.0, 45.0, 11)[None, :])

    def same_as_fresh(x, y):
        return phi(x, y).tobytes() == phi_symbol(theta, N)(x, y).tobytes()

    for x, y in (atom_grid, scan, atom_grid):
        assert same_as_fresh(x, y)

    # the closure must hold copies: a caller that edits its input in place,
    # or edits a returned array, changes no later result
    x = atoms + 0.5
    phi(x[:, None], atoms[None, :])
    x[0] += 1.0
    assert same_as_fresh(x[:, None], atoms[None, :])
    returned = phi(x[:, None], atoms[None, :])
    returned[...] = 0.0
    assert same_as_fresh(x[:, None], atoms[None, :])


@pytest.mark.parametrize("chunks", [1, 2])
def test_growth_instance_builds_one_phi_table(chunks, monkeypatch):
    N = 8
    tables = []

    def counted_eta(x):
        tables.append(np.shape(x))
        return eta(x)

    # one call on A's and B's eigenvalues builds the table, and the triple D
    # reads it on the A x B atom grid once per chunk of C's two atoms; eta
    # runs once per table, as A and B have the same spectrum
    monkeypatch.setattr(counterexample, "eta", counted_eta)
    monkeypatch.setattr(moi, "_CHUNK_ENTRIES", (2 // chunks) * moi._CHAIN_ARRAYS * N * N)
    record = growth_records(N, [2.0])[0]
    assert record.ratio == pytest.approx(math.sqrt(N), rel=1e-12)
    assert tables == [(N, N)]


def test_build_instance_size_one_closed_forms():
    inst = build_instance(1)
    assert np.allclose(inst.A.matrix, [[2.0 * math.pi]])
    assert np.allclose(inst.B.matrix, [[2.0 * math.pi]])
    assert np.allclose(inst.C.matrix, [[1.0]])
    value = complex(np.asarray(inst.phi(2.0 * math.pi, 2.0 * math.pi)))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_build_instance_lattice_spectra():
    inst = build_instance(4)
    values = spectral_measure(inst.A).eigenvalues
    assert np.allclose(values, 2.0 * math.pi * np.arange(1, 5), atol=1e-10)
    values_b = spectral_measure(inst.B).eigenvalues
    assert np.allclose(values_b, 2.0 * math.pi * np.arange(1, 5), atol=1e-12)


def test_build_instance_projection_third_operator():
    for N in (2, 5, 8):
        C = build_instance(N).C.matrix
        assert float(np.trace(C).real) == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(np.abs(C @ C - C))) <= 1e-12
        assert schatten_norm(C, math.inf) == pytest.approx(1.0, abs=1e-12)


def test_build_instance_deviations_are_tiny():
    worst = max(build_instance(6).deviations().values())
    assert worst <= 1e-12


def test_verify_growth_trivial_size():
    for p in (1.0, 2.0, math.inf):
        record = growth_records(1, [p])[0]
        assert record.ratio == pytest.approx(1.0, rel=1e-10)
        assert record.perturbation == pytest.approx(1.0, rel=1e-10)


def test_verify_growth_size_four_all_p():
    for p in (1.0, 2.0, math.inf):
        record = growth_records(4, [p])[0]
        assert record.ratio == pytest.approx(2.0, rel=1e-8)


def test_verify_growth_size_sixtyfour():
    record = growth_records(64, [2.0])[0]
    assert record.ratio == pytest.approx(8.0, rel=1e-8)
    assert record.lhs == pytest.approx(8.0, rel=1e-8)


def test_epsilon_one_reduces_to_growth():
    plain = growth_records(4, [2.0])[0]
    scaled = epsilon_scaling_run([4], lambda n: 1.0, p_list=[2.0])[0]
    assert scaled.lhs == pytest.approx(plain.lhs, rel=1e-12)
    assert scaled.perturbation == pytest.approx(plain.perturbation, rel=1e-12)


def test_epsilon_half_at_sixteen():
    record = epsilon_scaling_run([16], lambda n: 0.5, p_list=[2.0])[0]
    assert record.lhs == pytest.approx(2.0, abs=1e-8)
    assert record.perturbation == pytest.approx(0.5, abs=1e-8)
    assert record.ratio == pytest.approx(4.0, rel=1e-8)


def test_epsilon_rule_validation():
    with pytest.raises(InvalidEpsilonError):
        epsilon_scaling_run([4], lambda n: 0.0)
    with pytest.raises(InvalidEpsilonError):
        epsilon_scaling_run([4], lambda n: 1.5)


def test_quarter_root_rule_values():
    assert quarter_root_rule(16) == pytest.approx(0.5)
    assert quarter_root_rule(256) == pytest.approx(0.25)


def test_symbol_sup_is_flat_in_size():
    assert check_bounded_symbol((4, 16)).passed


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_symbol_never_exceeds_proved_bound(data):
    N = data.draw(st.integers(1, 32), label="N")
    coordinate = st.floats(-4.0 * math.pi, 2.0 * math.pi * (N + 2))
    x = data.draw(coordinate, label="x")
    y = data.draw(coordinate, label="y")
    phi = phi_symbol(math.sqrt(N) * dft_unitary(N).conj(), N)
    eps = np.finfo(float).eps
    assert abs(phi(x, y)) <= PHI_SUP + 64 * N * eps


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi), st.integers(2, 2000))
def test_eta_periodization_partial_sums(x, J):
    # sum over all j of eta(x - 2 pi j) is 1 by Poisson summation; the terms
    # are nonnegative and the tail beyond |j| = J is below 1/J
    partial = float(np.sum(eta(x - 2.0 * math.pi * np.arange(-J, J + 1))))
    assert 1.0 - 1.0 / J <= partial <= 1.0 + 1e-12


def test_growth_records_never_scans_the_grid(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("growth_records must use PHI_SUP, not the grid scan")

    monkeypatch.setattr(counterexample, "phi_grid_sup", scan)
    records = counterexample.growth_records(8, [2.0])
    assert records[0].ratio == pytest.approx(math.sqrt(8), rel=1e-12)


def test_surrogate_is_the_psi_majorant_bit_for_bit():
    majorant = psi_band_majorant(psi_reference_grid())
    for N in (1, 2, 4, 8, 16, 32):
        for record in counterexample.growth_records(N, [1.0, math.inf]):
            assert record.besov_surrogate == majorant


def test_rank_one_collapse_of_symbol_calculus(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rank_one_collapse took an SVD")

    # phi(A, B) is read against its closed form 1 e_N^T entrywise
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert check_rank_one_collapse((1, 2, 4, 8)).passed


def test_rank_limited_draws_have_bounded_rank(rng):
    _, _, matrices = counterexample._rank_limited_draw(rng, 8, 3, 5)
    for M in matrices:
        s = singular_values(M)
        assert int(np.count_nonzero(s > 1e-10)) <= 3
        assert float(np.max(np.abs(M - M.conj().T))) <= 1e-12


@pytest.mark.parametrize("rank", [0, 1, 5, 6])
def test_rank_limited_draws_carry_their_spectrum(rng, rank):
    (values,), (V,), (M,) = counterexample._rank_limited_draw(rng, 6, rank, 1)
    assert np.all(np.diff(values) >= 0)
    assert int(np.count_nonzero(values)) == rank
    assert float(np.max(np.abs(V.conj().T @ V - np.eye(6)))) <= 1e-14
    assert float(np.max(np.abs((V * values) @ V.conj().T - M))) <= 1e-14
    assert rank_of_singular_values(singular_values(M)) == rank


@pytest.mark.parametrize("N", [48, 100, 128])
def test_growth_lhs_equals_the_norms_of_the_difference_itself(N):
    # growth_records scales the third slot inside the symbol; its lhs must be
    # the last column's 2-norm of D = f(A, B, eps C) - f(A, B, 0) formed on
    # eps C and the zero operator, bit for bit, and D's norms to a few ulps
    p_list = [1.0, 2.0, math.inf]
    inst = build_instance(N)
    for eps in (1.0, 0.3):
        scaled_c = hermitian_from_spectrum([0.0, eps], identity_frame(N), [N - 1, 1])
        upper, base = (
            apply_function_triple(inst.f, inst.A, inst.B, c) for c in (scaled_c, zero_operator(N))
        )
        column = (upper - base)[:, -1]
        values = singular_values(upper - base)
        for record, p in zip(growth_records(N, p_list, eps=eps), p_list):
            assert record.lhs == math.sqrt(float(np.sum(column.real**2 + column.imag**2)))
            norm = float(norms_of_singular_values(values, p))
            assert record.lhs == pytest.approx(norm, rel=4 * np.finfo(float).eps, abs=0.0)


def test_growth_difference_is_its_last_column(monkeypatch):
    # C's atom-0 weights are exactly 0 and no change of basis mixes D's
    # columns, so D is one column, whose 2-norm is every norm: no SVD runs
    def refuse(*args, **kwargs):
        raise AssertionError("growth_records took an SVD")

    N, seen = 256, []
    real = counterexample.apply_function_triple
    monkeypatch.setattr(np.linalg, "svd", refuse)
    kept = lambda *args: seen.append(real(*args)) or seen[-1]
    monkeypatch.setattr(counterexample, "apply_function_triple", kept)
    records = growth_records(N, [1.0, 2.0, math.inf])
    (D,) = seen
    assert D.shape == (N, N) and not D[:, :-1].any() and D[:, -1].all()
    assert {record.off_column for record in records} == {0.0}


def test_growth_builds_only_a_b_and_c(monkeypatch):
    # f(A, B, 0) is a pair function and D is f_eps - f_0 on C, so no zero
    # operator (and no eps C) is built
    calls = []
    real = linalg.hermitian_from_spectrum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "hermitian_from_spectrum", counted)
    monkeypatch.setattr(counterexample, "hermitian_from_spectrum", counted)
    record = growth_records(8, [2.0], eps=0.5)[0]
    assert record.ratio == pytest.approx(math.sqrt(8), rel=1e-12)
    assert len(calls) == 3


def test_growth_records_run_one_triple_and_no_pair(monkeypatch):
    # D is the one calculus call: f(A, B, 0) = psi(0) phi(A, B) and
    # phi(A, B) = 1 e_N^T are read from their closed forms
    calls = []
    real = moi._chain_integral
    counted = lambda f, measures, ops: calls.append(len(measures)) or real(f, measures, ops)
    monkeypatch.setattr(moi, "_chain_integral", counted)
    for N in (1, 8):
        calls.clear()
        assert growth_records(N, [2.0], eps=0.5)[0].ratio == pytest.approx(math.sqrt(N))
        assert calls == [3]


def test_growth_records_decompose_nothing(monkeypatch):
    def refuse(A):
        raise AssertionError("eigh ran on a constructed operator")

    monkeypatch.setattr(linalg, "_decompose", refuse)
    for N in (1, 2, 16):
        assert growth_records(N, [1.0, 2.0, math.inf], eps=0.5)[0].perturbation == 0.5


def test_growth_records_form_no_matrix_of_a_b_or_c(monkeypatch):
    built = []
    real = counterexample.build_instance
    monkeypatch.setattr(counterexample, "build_instance", lambda N: built.append(real(N)) or built[-1])
    growth_records(16, [2.0])
    (inst,) = built
    assert not any("matrix" in vars(op) for op in (inst.A, inst.B, inst.C))


def _growth_peak_arrays(N):
    """tracemalloc peak of growth_records(N, [1, 2, inf]) in N x N complex
    arrays, with the cached psi grid and its surrogate built outside the trace."""
    psi_band_majorant(psi_reference_grid())
    tracemalloc.start()
    try:
        growth_records(N, [1.0, 2.0, math.inf])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * N * N)


def test_growth_records_peak_at_256():
    # reads 7.16: A and C share one identity view of 2N - 1 entries, and U
    # is kept only as B's frame
    assert _growth_peak_arrays(256) <= 7.5


def test_growth_records_peak_at_512():
    # reads 7.04, as N = 256 reads 7.16
    assert _growth_peak_arrays(512) <= 7.5


def test_growth_instance_shares_one_frame():
    # A and C share one identity view of 2N - 1 entries; B's frame is U
    N = 16
    inst = build_instance(N)
    frame_a, frame_b, frame_c = (spectral_measure(op).frame for op in (inst.A, inst.B, inst.C))
    assert np.shares_memory(frame_a, frame_c)
    assert np.array_equal(frame_a, np.eye(N)) and frame_a.base.size <= 2 * N - 1
    assert frame_b.tobytes() == inst.U.tobytes() == dft_unitary(N).tobytes()
    assert "U" not in {field.name for field in dataclasses.fields(inst)}


def test_growth_instance_takes_one_unitary_check(monkeypatch):
    # U is the one frame that is not exactly the identity
    checks = []
    real = linalg.projection_tolerance
    monkeypatch.setattr(linalg, "projection_tolerance", lambda dim: checks.append(dim) or real(dim))
    inst = build_instance(16)
    assert checks == [16]
    measures = (spectral_measure(op) for op in (inst.A, inst.B, inst.C))
    assert [E.identity_frame for E in measures] == [True, False, True]


def test_growth_ratios_agree_with_decomposed_operators(monkeypatch):
    sizes = [2**k for k in range(9)]
    p_list = [1.0, 2.0, math.inf]
    built = [r.ratio for N in sizes for r in growth_records(N, p_list)]
    constructed = counterexample.build_instance

    def decomposed(N):
        inst = constructed(N)
        again = {name: hermitian_from_matrix(getattr(inst, name).matrix) for name in "ABC"}
        return dataclasses.replace(inst, **again)

    monkeypatch.setattr(counterexample, "build_instance", decomposed)
    eigh = [r.ratio for N in sizes for r in growth_records(N, p_list)]
    assert np.allclose(built, eigh, rtol=1e-12, atol=0.0)


def test_trig_polynomial_surrogate_bounds_band_content(rng):
    f, bound = random_trig_polynomial(rng)
    assert bound > 0.0
    x = np.linspace(0.0, 2.0 * math.pi, 40)
    values = f(x[:, None], x[None, :])
    assert values.shape == (40, 40)
    assert np.all(np.isfinite(values))


def test_trig_polynomial_values_match_termwise_sum():
    f, _ = random_trig_polynomial(np.random.default_rng(SEED))
    # the same draw as random_trig_polynomial's, for the 49-term oracle
    redraw = np.random.default_rng(SEED)
    coeffs = redraw.standard_normal((7, 7)) + 1j * redraw.standard_normal((7, 7))
    tol = 1e-12 * float(np.sum(np.abs(coeffs)))

    def termwise(x, y):
        total = 0.0
        for i, m in enumerate(range(-3, 4)):
            for j, l in enumerate(range(-3, 4)):
                total = total + coeffs[i, j] * np.exp(1j * (m * x + l * y))
        return total

    grid = np.random.default_rng(SEED + 1).uniform(-4.0, 4.0, size=(3, 7))
    points = [
        (0.3, -1.1),
        (grid[0], grid[1]),
        (grid[0, :5, None], grid[2][None, :]),
    ]
    for x, y in points:
        got, expected = f(x, y), termwise(np.asarray(x), np.asarray(y))
        assert np.shape(got) == np.shape(expected)
        assert float(np.max(np.abs(got - expected))) <= tol


def test_kink_function_seminorm_dominates_differences(rng):
    f, seminorm = random_kink_function(rng)
    points = rng.uniform(-2.0, 2.0, size=(50, 3))
    others = rng.uniform(-2.0, 2.0, size=(50, 3))
    lhs = np.abs(
        f(points[:, 0], points[:, 1], points[:, 2])
        - f(others[:, 0], others[:, 1], others[:, 2])
    )
    rhs = seminorm * np.linalg.norm(points - others, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def test_pairs_check_requires_p_at_least_two():
    with pytest.raises(ValueError):
        rank_estimate_check_pairs(3, [1.0], trials=1)


def test_pairs_check_passes_and_reports_ratio():
    (report,) = rank_estimate_check_pairs(3, [3.0], trials=10, seed=99)
    assert report.all_passed
    assert report.max_ratio > 0.0
    assert len(report.trials) == 10


def test_pairs_check_p_two_is_trivial_chain():
    (report,) = rank_estimate_check_pairs(3, [2.0], trials=5, seed=7)
    assert report.all_passed


def test_pairs_check_reports_each_p_as_if_alone():
    # one call draws each trial once for every p; each report must equal
    # the one a single-p call gives, field for field
    p_list = (2.0, 3.0, math.inf)
    shared = rank_estimate_check_pairs(3, p_list, trials=4, seed=31)
    assert [report.p for report in shared] == list(p_list)
    for p, report in zip(p_list, shared):
        assert rank_estimate_check_pairs(3, [p], trials=4, seed=31) == [report]


def test_lipschitz_check_reports_each_p_as_if_alone():
    p_list = (1.0, 2.0, math.inf)
    shared = lipschitz_rank_bound_check(3, p_list, trials=4, seed=31)
    assert [report.p for report in shared] == list(p_list)
    for p, report in zip(p_list, shared):
        assert lipschitz_rank_bound_check(3, [p], trials=4, seed=31) == [report]


def test_max_ratio_keeps_nan():
    # a NaN trial must not vanish from the worst ratio (max(0.5, nan) is 0.5)
    lipschitz = RankCheckReport(
        N=2,
        p=1.0,
        trials=(
            RankTrial(trial=0, ratio=0.5, ok=True),
            RankTrial(trial=1, ratio=math.nan, ok=False),
        ),
    )
    pairs = RankCheckReport(
        N=2,
        p=2.0,
        trials=tuple(
            RankTrial(trial=t, ratio=ratio, ok=True)
            for t, ratio in enumerate((0.5, math.nan, 0.25))
        ),
    )
    assert math.isnan(lipschitz.max_ratio)
    assert math.isnan(pairs.max_ratio)


def test_rank_three_matrix_hilbert_schmidt_bound(rng):
    G = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    H = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
    M = G @ H
    assert schatten_norm(M, 2.0) <= math.sqrt(3.0) * schatten_norm(M, math.inf) + 1e-12


def test_lipschitz_check_constant_function_gives_zero():
    # degenerate kink function: no slope, no kinks
    f = lambda x, y, z: 1.0 + 0.0 * (x + y + z)
    rng = np.random.default_rng(5)
    ops1 = [_reference_draw(rng, 6, 3) for _ in range(3)]
    ops2 = [_reference_draw(rng, 6, 3) for _ in range(3)]
    diff = apply_function_triple(f, *ops1) - apply_function_triple(f, *ops2)
    assert float(np.max(np.abs(diff))) <= 1e-12


def test_lipschitz_verdict_needs_its_steps(monkeypatch):
    # f = x - y on (X, X, 0) and (Y, Y, 0): the total difference is 0 and the
    # zero seminorm makes the bound 0, but the first step is X - Y
    rng = np.random.default_rng(3)
    X, Y = (_reference_draw(rng, 4, 2) for _ in range(2))
    triples = column_form([X, X, zero_operator(4), Y, Y, zero_operator(4)])
    counts = []

    def planted(rng, dim, rank, count):
        counts.append(count)
        return tuple(np.concatenate([a] * (count // 6)) for a in triples)

    monkeypatch.setattr(counterexample, "_rank_limited_draw", planted)
    zeros = np.zeros(3)
    difference = KinkFunction(0.0, np.array([1.0, -1.0, 0.0]), zeros, np.zeros((3, 3)), zeros)
    monkeypatch.setattr(counterexample, "random_kink_function", lambda rng: (difference, 0.0))
    reports = lipschitz_rank_bound_check(2, [1.0, 2.0, math.inf], trials=3, seed=1)
    assert counts == [18]  # one block of three trials, each took the planted triples
    assert [len(report.trials) for report in reports] == [3, 3, 3]
    assert not any(t.ok for report in reports for t in report.trials)
    assert all(t.ratio == 0.0 for report in reports for t in report.trials)


def _direct_trig_sum(coeffs, x, y):
    """sum over |m|, |l| <= 3 of coeffs[m, l] e^{i(mx + ly)}, term by term."""
    m, l = np.arange(-3, 4)[:, None], np.arange(-3, 4)[None, :]
    xa = np.asarray(x, dtype=float)[..., None, None]
    ya = np.asarray(y, dtype=float)[..., None, None]
    return np.sum(coeffs * np.exp(1j * (m * xa + l * ya)), axis=(-2, -1))


def _reference_trig_polynomial(rng):
    """The trigonometric polynomial draw with w(radius / 2^n) computed per
    band, for the polynomial's own coefficients."""
    span = np.arange(-3, 4)
    coeffs = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    radii = np.hypot(span[:, None], span[None, :])
    bound = 0.0
    for n in range(5):  # radii reach 3 sqrt(2), so bands 0..4 can meet them
        bound += (2.0**n) * float(np.sum(np.abs(coeffs) * window_w(radii / 2.0**n)))
    return TrigPolynomial(coeffs), bound


def test_trig_polynomial_factored_form_equals_the_double_sum():
    # the closure multiplies e^{imx} by e^{ily}; the direct sum takes e^{i(mx + ly)}
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        replay = copy.deepcopy(rng)  # the draw's coefficients come first
        f, _ = random_trig_polynomial(rng)
        coeffs = replay.standard_normal((7, 7)) + 1j * replay.standard_normal((7, 7))
        x = rng.uniform(-4.0, 4.0, size=(3, 5, 1))
        y = rng.uniform(-4.0, 4.0, size=(3, 1, 5))
        direct = _direct_trig_sum(coeffs, x, y)
        assert np.max(np.abs(f(x, y) - direct)) <= 1e-13 * np.max(np.abs(direct))


def _stacked_grids(rng, stack, sizes):
    """One grid per variable, (stack, ...) with variable k along axis k + 1."""
    grids = []
    for k, size in enumerate(sizes):
        shape = [stack] + [1] * len(sizes)
        shape[k + 1] = size
        grids.append(rng.uniform(-2.0, 2.0, size=shape))
    return grids


@pytest.mark.parametrize(
    "draw, sizes", [(random_trig_polynomial, (4, 5)), (random_kink_function, (4, 5, 2))]
)
def test_stacked_records_broadcast_over_stacked_grids(draw, sizes):
    # member i * repeats + j of the stacked record is record i on its own slice
    rng = np.random.default_rng(SEED)
    records = [draw(rng)[0] for _ in range(3)]
    repeats = 2
    stacked = counterexample._stacked(records, repeats)
    grids = _stacked_grids(rng, len(records) * repeats, sizes)
    values = stacked(*grids)
    assert values.shape == (len(records) * repeats, *sizes)
    for member, value in enumerate(values):
        alone = records[member // repeats](*(grid[member] for grid in grids))
        np.testing.assert_array_equal(value, alone)


@pytest.mark.parametrize(
    "count, draw, members",
    [
        (4, random_trig_polynomial, [(0, 1), (2, 3)]),
        (6, random_kink_function, [(0, 1, 2), (3, 1, 2), (3, 4, 2), (3, 4, 5)]),
    ],
)
def test_block_call_members_equal_single_trial_calls(count, draw, members):
    # the rank checks' block layout: trial i's rows offset by i * count, its
    # record repeated over its terms; each member must be, bit for bit, the
    # trial's own call with its own record
    trials, dim = 4, 6
    rng = np.random.default_rng(SEED)
    values, frames, _ = counterexample._rank_limited_draw(rng, dim, 3, count * trials)
    records = [draw(rng)[0] for _ in range(trials)]
    table = np.asarray(members) + count * np.arange(trials)[:, None, None]
    stacked = counterexample._stacked(records, len(members))
    block = apply_function_stack(stacked, values, frames, table.reshape(-1, table.shape[-1]))
    block = block.reshape(trials, len(members), dim, dim)
    for i, record in enumerate(records):
        own = slice(i * count, (i + 1) * count)
        alone = apply_function_stack(record, values[own], frames[own], members)
        np.testing.assert_array_equal(block[i], alone)
        # the records are distinguishable: another trial's record gives other terms
        other = apply_function_stack(records[i - 1], values[own], frames[own], members)
        assert not np.array_equal(other, alone)


def _both_rank_checks(N, trials):
    return [
        lipschitz_rank_bound_check(N, [1.0, 2.0, math.inf], trials=trials, seed=SEED),
        rank_estimate_check_pairs(N, [2.0, math.inf], trials=trials, seed=SEED),
    ]


def _per_operator_reference(monkeypatch, N, trials):
    """:func:`_both_rank_checks` with each operator drawn and built alone,
    one SVD per matrix and the per-band polynomial; returns the reports and
    the number of operators, SVDs and polynomials."""
    calls = {"draws": 0, "svds": 0, "polynomials": 0}

    def one_at_a_time(rng, dim, rank, count):
        calls["draws"] += count
        return column_form([_reference_draw(rng, dim, rank) for _ in range(count)])

    def svd_each(stack):
        calls["svds"] += len(stack)
        return np.stack([singular_values(M) for M in stack])

    def polynomial(rng):
        calls["polynomials"] += 1
        return _reference_trig_polynomial(rng)

    monkeypatch.setattr(counterexample, "_rank_limited_draw", one_at_a_time)
    monkeypatch.setattr(counterexample, "singular_values", svd_each)
    monkeypatch.setattr(counterexample, "random_trig_polynomial", polynomial)
    return _both_rank_checks(N, trials), calls


@pytest.mark.parametrize("N", [2, 3])
def test_rank_checks_equal_a_per_operator_reference(N, monkeypatch):
    blocked = _both_rank_checks(N, trials=4)
    reference, calls = _per_operator_reference(monkeypatch, N, trials=4)
    assert calls == {"draws": 4 * (6 + 4), "svds": 4 * (7 + 3), "polynomials": 4}
    assert reference == blocked


def _logged(events, name, fn, size):
    """``fn``, which first appends ``(name, size(*arguments))`` to ``events``."""

    def call(*args):
        events.append((name, size(*args)))
        return fn(*args)

    return call


def test_rank_checks_span_blocks_with_a_partial_last_block(monkeypatch):
    N, trials = 6, 20
    events = []  # every operator draw, function draw and SVD, in call order
    sizes = {
        "_rank_limited_draw": lambda rng, dim, rank, count: count,
        "random_kink_function": lambda rng: None,
        "random_trig_polynomial": lambda rng: None,
        "apply_function_stack": lambda f, values, frames, members: len(members),
        "singular_values": len,
    }
    for name, size in sizes.items():
        real = getattr(counterexample, name)
        monkeypatch.setattr(counterexample, name, _logged(events, name, real, size))
    blocked = _both_rank_checks(N, trials)
    # per block: one draw of all its operators, each trial's function, one
    # stacked calculus call over every term of the block, one SVD
    expected = []
    # (operators, test function, terms, differences) per trial of the Lipschitz and the pairs check
    shapes = [(6, "random_kink_function", 4, 7), (4, "random_trig_polynomial", 2, 3)]
    for count, function, terms, width in shapes:
        per_block = counterexample._BLOCK_ENTRIES // (count * (2 * N) ** 2)
        assert 1 < per_block < trials and trials % per_block  # several blocks, the last partial
        for start in range(0, trials, per_block):
            n = min(per_block, trials - start)
            expected.append(("_rank_limited_draw", count * n))
            expected += [(function, None)] * n
            expected.append(("apply_function_stack", terms * n))
            expected.append(("singular_values", width * n))
    assert events == expected
    reference, calls = _per_operator_reference(monkeypatch, N, trials)
    assert calls == {"draws": trials * (6 + 4), "svds": trials * (7 + 3), "polynomials": trials}
    assert reference == blocked


def test_stacked_corners_keep_each_symbol_table_within_a_chunk(monkeypatch):
    # at d = 48 the four corners need 4 * 48^3 weights, 442k entries in all
    sizes = []
    evaluate = KinkFunction.__call__

    def recorded(f, x, y, z):
        values = evaluate(f, x, y, z)
        sizes.append(np.size(values))
        return values

    monkeypatch.setattr(KinkFunction, "__call__", recorded)
    (report,) = lipschitz_rank_bound_check(24, [2.0], trials=1)
    assert report.all_passed
    assert sum(sizes) == 4 * 48**3
    assert max(sizes) <= moi._CHUNK_ENTRIES


def test_rank_checks_do_not_depend_on_the_block_size(monkeypatch):
    # one entry makes every block a single trial
    N, trials = 6, 20
    assert counterexample._BLOCK_ENTRIES // (6 * (2 * N) ** 2) > 1  # several trials by default
    blocked = _both_rank_checks(N, trials)
    monkeypatch.setattr(counterexample, "_BLOCK_ENTRIES", 1)
    assert _both_rank_checks(N, trials) == blocked


def test_rank_checks_do_not_depend_on_the_grouping_tolerance(monkeypatch):
    # the draws reach the engine in column form, never grouped into atoms, so
    # a wide tolerance sends none of them through eigh, which would merge atoms
    blocked = _both_rank_checks(3, trials=10)
    monkeypatch.setattr(linalg, "_GROUP_TOL", 0.15)
    assert _both_rank_checks(3, trials=10) == blocked


def test_rank_checks_build_no_operator(monkeypatch):
    # every constructor, and so every spectral measure, goes through linalg.HermitianOperator
    monkeypatch.setattr(linalg, "HermitianOperator", None)
    assert all(report.all_passed for reports in _both_rank_checks(2, 3) for report in reports)


def test_phi_grid_sup_keeps_nan():
    # the second row chunk (x above about 100) holds the NaN; max(1.0, nan) is 1.0
    phi = lambda x, y: np.where(x <= 110.0, 1.0, math.nan) + 0.0 * y
    assert math.isnan(phi_grid_sup(phi, 20))


def test_lipschitz_check_passes_every_trial():
    (report,) = lipschitz_rank_bound_check(3, [1.0], trials=50, seed=12)
    assert report.all_passed
    assert report.max_ratio < 1.0
    assert len(report.trials) == 50


def test_coordinate_function_bounds_hold_with_slack(rng):
    # f(x, y, z) = x: the difference is exactly A1 - A2, far below N^4 * sum
    N = 3
    f = lambda x, y, z: x + 0.0 * (y + z)
    ops1 = [_reference_draw(rng, 2 * N, N) for _ in range(3)]
    ops2 = [_reference_draw(rng, 2 * N, N) for _ in range(3)]
    diff = apply_function_triple(f, *ops1) - apply_function_triple(f, *ops2)
    delta_a = ops1[0].matrix - ops2[0].matrix
    assert float(np.max(np.abs(diff - delta_a))) <= 1e-10
    lhs = schatten_norm(diff, 1.0)
    bound = N**4 * 1.0 * sum(
        schatten_norm(x1.matrix - x2.matrix, 1.0) for x1, x2 in zip(ops1, ops2)
    )
    assert lhs <= 0.05 * bound


def test_pairs_difference_of_coordinate_function(rng):
    # f(x, y) = x reduces the functional-calculus difference to A1 - A2
    A1, B1, A2, B2 = (_reference_draw(rng, 6, 3) for _ in range(4))
    f = lambda x, y: x + 0.0 * y
    diff = apply_function_pair(f, A1, B1) - apply_function_pair(f, A2, B2)
    assert float(np.max(np.abs(diff - (A1.matrix - A2.matrix)))) <= 1e-10


def test_fault_injection_unguarded_eta_is_caught(monkeypatch):
    # without the small-argument series the lattice evaluation hits 0/0 and
    # the growth identities must refuse to report a number
    def unguarded(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return 2.0 * (1.0 - np.cos(arr)) / (arr * arr)

    monkeypatch.setattr(counterexample, "eta", unguarded)
    with pytest.raises(moi.NonFiniteSymbolError):
        counterexample.growth_records(2, [2.0])


def test_nan_ratio_fails_exact_blowup():
    # the selfcheck's worst-deviation fold must keep a NaN, not drop it
    records = [
        ExperimentRecord(
            N=4, p=p, lhs=lhs, perturbation=1.0, besov_surrogate=1.0, ratio=lhs,
            base_peak=0.0, factor_dev=0.0, off_column=0.0,
        )
        for p, lhs in ((1.0, 2.0), (2.0, math.nan))
    ]
    result = check_exact_blowup(records)
    assert not result.passed
    assert "nan" in result.detail


def test_growth_record_fields_are_finite():
    record = growth_records(8, [1.5])[0]
    assert record.N == 8
    assert record.p == 1.5
    for value in (record.lhs, record.perturbation, record.besov_surrogate, record.ratio):
        assert np.isfinite(value) and value >= 0.0
    # the residuals of the two construction identities ride on the record
    assert record.base_peak == 0.0  # every weight of f(A, B, 0) is psi(0) = 0
    assert 0.0 <= record.factor_dev <= 1e-10
