import math

import numpy as np
import pytest

from conftest import SEED
from moilab.counterexample import build_instance
from moilab import linalg
from moilab.linalg import (
    HermitianOperator,
    InvalidSpectrumError,
    NotHermitianError,
    NotSquareError,
    SpectralMeasure,
    ZeroDimensionError,
    complex_gaussian,
    hermitian_from_matrix,
    hermitian_from_spectrum,
    hermitian_singular_values,
    norms_of_singular_values,
    random_hermitian,
    random_measure,
    random_unitary,
    rank_of_singular_values,
    schatten_norm,
    singular_values,
    spectral_measure,
    unitary_from_gaussian,
    zero_operator,
)
from moilab.moi import (
    apply_function_pair,
    apply_function_single,
    apply_function_triple,
    argument_perturbation,
)
from moilab.selfcheck import (
    check_finite_rank_chain,
    check_frobenius_identity,
    check_projection_algebra,
    check_schatten_monotonicity,
    check_spectral_resolution,
    check_unitary_invariance,
)


def test_hermitian_from_matrix_identity():
    op = hermitian_from_matrix(np.eye(2))
    assert np.array_equal(op.matrix, np.eye(2))
    assert op.dim == 2


def test_hermitian_from_matrix_accepts_pauli_y():
    op = hermitian_from_matrix([[0, 1j], [-1j, 0]])
    assert np.allclose(op.matrix, [[0, 1j], [-1j, 0]])


def test_hermitian_from_matrix_rejects_nilpotent():
    with pytest.raises(NotHermitianError):
        hermitian_from_matrix([[0, 1], [0, 0]])


def test_hermitian_from_matrix_rejects_rectangular():
    with pytest.raises(NotSquareError):
        hermitian_from_matrix(np.ones((2, 3)))


def test_hermitian_from_matrix_rejects_dimension_zero():
    with pytest.raises(ZeroDimensionError):
        hermitian_from_matrix(np.zeros((0, 0)))


def test_hermitian_from_matrix_rejects_nan():
    with pytest.raises(ValueError):
        hermitian_from_matrix([[np.nan, 0], [0, 1]])


def test_spectral_measure_groups_repeated_eigenvalues():
    E = spectral_measure(hermitian_from_matrix(np.diag([1.0, 1.0, 2.0])))
    assert [a.eigenvalue for a in E.atoms] == [1.0, 2.0]
    assert [a.multiplicity for a in E.atoms] == [2, 1]
    P1 = E.atoms[0].projection
    assert np.allclose(P1, np.diag([1.0, 1.0, 0.0]))


def test_spectral_measure_groups_planted_cluster(rng):
    U = random_unitary(rng, 4)
    A = hermitian_from_matrix((U * [1.0, 1.0 + 3e-9, 1.0 + 6e-9, 2.0]) @ U.conj().T)
    E = spectral_measure(A)
    computed = np.linalg.eigh(A.matrix)[0]
    assert E.multiplicities.tolist() == [3, 1]
    assert E.eigenvalues[0] == np.mean(computed[:3])
    assert E.eigenvalues[1] == computed[3]


def test_spectral_measure_zero_operator():
    E = spectral_measure(zero_operator(3))
    assert len(E.atoms) == 1
    assert E.atoms[0].eigenvalue == 0.0
    assert np.allclose(E.atoms[0].projection, np.eye(3))


def test_spectral_measure_of_averaging_projection():
    # the rank-one averaging projection in dimension 4: eigenvalues 0 and 1
    C = build_instance(4).C
    E = spectral_measure(C)
    assert len(E.atoms) == 2
    assert abs(E.atoms[0].eigenvalue) < 1e-12
    assert abs(E.atoms[1].eigenvalue - 1.0) < 1e-12
    assert E.atoms[0].multiplicity == 3
    assert E.atoms[1].multiplicity == 1


def test_spectral_measure_is_cached(rng, monkeypatch):
    A = random_hermitian(rng, 6)
    first = spectral_measure(A)

    def eigh(matrix):
        raise AssertionError("decomposed again")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert spectral_measure(A) is first


def test_atom_view_is_the_frame_cut_into_blocks(rng):
    E = spectral_measure(random_hermitian(rng, 5))
    drawn = random_measure(rng, 6, 3)
    built = spectral_measure(
        hermitian_from_spectrum(drawn.eigenvalues, drawn.frame, drawn.multiplicities)
    )
    # every builder's per-atom view is its frame cut into column blocks
    for measure in (E, drawn, built):
        assert np.array_equal(np.hstack([a.basis for a in measure.atoms]), measure.frame)
        assert [a.eigenvalue for a in measure.atoms] == measure.eigenvalues.tolist()
        assert [a.multiplicity for a in measure.atoms] == measure.multiplicities.tolist()


def test_contractions_do_not_build_the_atom_view(rng, monkeypatch):
    def refuse(measure):
        raise AssertionError("per-atom view built")

    monkeypatch.setattr(SpectralMeasure, "atoms", property(refuse))
    A, B, D = (random_hermitian(rng, 5) for _ in range(3))
    C = zero_operator(5)  # one repeated atom

    def f(x, y, z):
        return np.exp(1j * (x - 2 * y + z)) / (1 + x**2 + y**2 + z**2)

    assert np.isfinite(apply_function_triple(f, A, B, C)).all()
    for index in range(3):
        assert np.isfinite(argument_perturbation(f, index, A, D, B, C)).all()


def _count_decompositions(monkeypatch) -> list:
    calls = []
    real = linalg._decompose
    monkeypatch.setattr(linalg, "_decompose", lambda A: calls.append(A) or real(A))
    return calls


def test_hermitian_from_spectrum_carries_its_measure(rng, monkeypatch):
    calls = _count_decompositions(monkeypatch)
    Q = random_unitary(rng, 5)
    values = np.array([-1.0, 0.5, 2.0])
    A = hermitian_from_spectrum(values, Q, [2, 1, 2])
    E = spectral_measure(A)
    assert calls == []
    assert np.array_equal(E.eigenvalues, values) and np.array_equal(E.frame, Q)
    assert np.array_equal(A.matrix, A.matrix.conj().T)
    assert float(np.max(np.abs(apply_function_single(lambda x: x, E) - A.matrix))) <= 1e-14
    eigh = linalg._decompose(A)
    assert eigh.multiplicities.tolist() == [2, 1, 2]
    assert np.allclose(eigh.eigenvalues, values, atol=1e-12)


def test_hermitian_from_spectrum_rejects_unordered_eigenvalues():
    with pytest.raises(InvalidSpectrumError, match="increase"):
        hermitian_from_spectrum([1.0, 0.0], np.eye(2), [1, 1])


def test_hermitian_from_spectrum_rejects_non_finite_eigenvalues():
    with pytest.raises(InvalidSpectrumError, match="finite"):
        hermitian_from_spectrum([0.0, np.nan], np.eye(2), [1, 1])


def test_hermitian_from_spectrum_rejects_a_gap_at_the_grouping_tolerance(monkeypatch):
    # a gap eigh would merge; the bound is read from linalg._GROUP_TOL at call time
    with pytest.raises(InvalidSpectrumError):
        hermitian_from_spectrum([0.0, linalg._GROUP_TOL], np.eye(2), [1, 1])
    hermitian_from_spectrum([0.0, 0.5], np.eye(2), [1, 1])
    monkeypatch.setattr(linalg, "_GROUP_TOL", 0.5)
    with pytest.raises(InvalidSpectrumError):
        hermitian_from_spectrum([0.0, 0.5], np.eye(2), [1, 1])


def test_hermitian_from_spectrum_rejects_empty_multiplicities():
    with pytest.raises(InvalidSpectrumError, match="multiplicities"):
        hermitian_from_spectrum([0.0, 1.0, 2.0], np.eye(3), [2, 0, 1])


def test_hermitian_from_spectrum_rejects_multiplicities_off_the_dimension():
    with pytest.raises(InvalidSpectrumError, match="multiplicities"):
        hermitian_from_spectrum([0.0, 1.0], np.eye(3), [1, 1])
    with pytest.raises(InvalidSpectrumError, match="multiplicities"):
        hermitian_from_spectrum([0.0, 1.0], np.eye(3), [3])


def test_hermitian_from_spectrum_rejects_fractional_multiplicities():
    with pytest.raises(InvalidSpectrumError, match="integers"):
        hermitian_from_spectrum([0.0, 1.0], np.eye(3), [1.5, 2.5])
    with pytest.raises(InvalidSpectrumError, match="integers"):
        hermitian_from_spectrum([0.0, 1.0], np.eye(3), np.array([1.0, 2.0]))


def test_hermitian_from_spectrum_rejects_complex_eigenvalues():
    with pytest.raises(InvalidSpectrumError, match="real"):
        hermitian_from_spectrum([0.0, 1.0 + 1.0j], np.eye(2), [1, 1])
    with pytest.raises(InvalidSpectrumError, match="real"):
        hermitian_from_spectrum(np.array([0.0, 1.0], dtype=complex), np.eye(2), [1, 1])


def test_hermitian_from_spectrum_rejects_dimension_zero():
    with pytest.raises(ZeroDimensionError):
        hermitian_from_spectrum([], np.zeros((0, 0)), np.array([], dtype=int))


def test_hermitian_from_spectrum_rejects_a_non_unitary_frame(rng):
    Q = random_unitary(rng, 4)
    Q[:, 0] *= 1.0 + 1e-6
    with pytest.raises(InvalidSpectrumError, match="unitary"):
        hermitian_from_spectrum([0.0, 1.0], Q, [3, 1])
    with pytest.raises(InvalidSpectrumError, match="square"):
        hermitian_from_spectrum([0.0], Q[:, :3], [3])


@pytest.mark.parametrize(
    "values, counts",
    [([0.0], [1]), ([-1.5, 0.0, 2.0], [1, 2, 2]), (np.arange(-20.0, 44.0), np.ones(64, int))],
    ids=["d1", "d5", "d64"],
)
def test_identity_frame_matrix_equals_the_product_bit_for_bit(values, counts):
    d = int(np.sum(counts))
    V = np.eye(d, dtype=np.complex128)
    M = (V * np.repeat(values, counts)) @ V.conj().T
    expected = (M + M.conj().T) / 2.0
    assert hermitian_from_spectrum(values, V, counts).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "frame, values, counts",
    [
        ("identity", [-1.5, 0.0, 2.0], [1, 2, 3]),
        ("general", [-1.5, 0.5, 2.0], [1, 2, 3]),
        ("general", [-1.5, 0.0, 2.0], [1, 4, 1]),
    ],
    ids=["identity", "general", "rank-deficient"],
)
def test_spectrum_matrix_is_formed_on_first_read(rng, frame, values, counts):
    dim = 6
    V = np.eye(dim, dtype=np.complex128) if frame == "identity" else random_unitary(rng, dim)
    A = hermitian_from_spectrum(values, V, counts)
    B, C = random_hermitian(rng, dim), random_hermitian(rng, dim)
    f = lambda x, y, z: np.exp(1j * (x - 2 * y + z))
    assert A.dim == dim and spectral_measure(A).dim == dim
    apply_function_pair(lambda x, y: x * y, A, B)
    apply_function_triple(f, B, A, C)
    hermitian_singular_values(A)
    for index in range(3):
        argument_perturbation(f, index, B, C, A, A)
    assert "matrix" not in vars(A)  # nothing above read it
    weights = np.repeat(values, counts)
    W = V[:, weights != 0.0]
    M = (W * weights[weights != 0.0]) @ W.conj().T
    assert A.matrix.tobytes() == ((M + M.conj().T) / 2.0).tobytes()
    assert A.matrix is A.matrix  # formed once


def test_spectrum_operators_stay_immutable():
    A = hermitian_from_spectrum([0.0, 1.0], np.eye(2), [1, 1])
    with pytest.raises(AttributeError):
        A.matrix = np.zeros((2, 2))
    with pytest.raises(AttributeError):
        HermitianOperator(np.eye(2)).matrix = np.zeros((2, 2))


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e8, 1e10, 1e12])
def test_grouping_is_scale_aware(scale):
    # three eigenvalues, each repeated, at every scale: an absolute 1e-8
    # split the rounded clusters into 8 atoms from 1e8 up
    Q = random_unitary(np.random.default_rng(0), 8)
    values = scale * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    E = spectral_measure(hermitian_from_matrix((Q * values) @ Q.conj().T))
    assert E.multiplicities.tolist() == [3, 2, 3]
    assert np.allclose(E.eigenvalues, scale * np.array([1.0, 2.0, 3.0]), rtol=1e-12, atol=0.0)


def test_spectrum_separation_is_scale_aware():
    # a gap of 4 ulps at 1e10 sits inside eigh's rounding there, so eigh would
    # merge the two atoms, and the constructor rejects them
    top = 1e10
    for _ in range(4):
        top = np.nextafter(top, np.inf)
    with pytest.raises(InvalidSpectrumError, match="increase"):
        hermitian_from_spectrum([1e10, top], np.eye(2), [1, 1])
    hermitian_from_spectrum([1e10, 1e10 + 1.0], np.eye(2), [1, 1])


def test_zero_operator_is_exactly_zero():
    for d in (1, 5, 64):
        Z = zero_operator(d).matrix
        assert Z.shape == (d, d) and Z.dtype == np.complex128
        assert not Z.any()


def test_zero_operator_frame_is_an_identity_view(rng):
    d = 64
    frame = spectral_measure(zero_operator(d)).frame
    assert np.array_equal(frame, np.eye(d)) and frame.base.size <= 2 * d - 1
    assert not frame.flags.writeable
    A = random_hermitian(rng, d)
    f = lambda x, y: np.exp(1j * x) * (2.0 - y) + x * y
    expected = apply_function_single(lambda x: f(x, 0.0), spectral_measure(A))
    deviation = np.max(np.abs(apply_function_pair(f, A, zero_operator(d)) - expected))
    assert deviation <= 1e-12 * np.max(np.abs(expected))


def test_frames_other_than_the_identity_take_the_unitary_check():
    bad = np.eye(4, dtype=np.complex128)
    bad[2, 2] = 2.0
    with pytest.raises(InvalidSpectrumError, match="unitary"):
        hermitian_from_spectrum([0.0, 1.0], bad, [3, 1])
    # within tolerance of I but not equal to it: accepted, through the product
    near = np.eye(4, dtype=np.complex128)
    near[0, 1] = 1e-12
    weights = np.array([0.0, 1.0, 1.0, 1.0])
    M = (near * weights) @ near.conj().T
    A = hermitian_from_spectrum([0.0, 1.0], near, [1, 3])
    assert A.matrix.tobytes() == ((M + M.conj().T) / 2.0).tobytes()


def test_hermitian_singular_values_match_the_svd(rng):
    A = hermitian_from_spectrum([-3.0, 0.0, 0.5], random_unitary(rng, 5), [2, 2, 1])
    s = hermitian_singular_values(A)
    assert s.tolist() == [3.0, 3.0, 0.5, 0.0, 0.0]
    assert np.allclose(s, singular_values(A.matrix), atol=1e-12)
    B = random_hermitian(rng, 6)
    assert np.allclose(hermitian_singular_values(B), singular_values(B.matrix), atol=1e-12)


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])


def test_singular_values_rank_one(rng):
    u = complex_gaussian(rng, 4, 1).ravel()
    v = complex_gaussian(rng, 4, 1).ravel()
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    s = singular_values(np.outer(u, v.conj()))
    assert abs(s[0] - 1.0) < 1e-12
    assert np.all(s[1:] < 1e-12)


def test_singular_values_of_normal_matrix():
    assert np.allclose(singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])


def test_stacked_singular_values_match_each_matrix_bit_for_bit(rng):
    stack = np.stack([complex_gaussian(rng, 5, 3) for _ in range(6)]).reshape(2, 3, 5, 3)
    stack[1, 2] = 0.0
    values = singular_values(stack)
    assert values.shape == (2, 3, 3)
    for index in np.ndindex(2, 3):
        assert np.array_equal(values[index], singular_values(stack[index]))


def test_stacked_singular_values_reject_a_nan_in_one_matrix(rng):
    stack = np.stack([complex_gaussian(rng, 4, 4) for _ in range(3)])
    stack[1, 2, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        singular_values(stack)


def test_singular_values_reject_a_vector():
    with pytest.raises(ValueError, match="rank 1"):
        singular_values(np.ones(4))


def test_stacked_unitaries_match_each_draw_bit_for_bit(rng):
    gaussians = np.stack([complex_gaussian(rng, 6, 6) for _ in range(4)])
    frames = unitary_from_gaussian(gaussians)
    for G, Q in zip(gaussians, frames):
        assert np.array_equal(Q, unitary_from_gaussian(G))
    assert np.max(np.abs(frames[0].conj().T @ frames[0] - np.eye(6))) <= 1e-14


def test_schatten_norm_identity():
    assert schatten_norm(np.eye(3), 1.0) == pytest.approx(3.0, abs=1e-12)
    assert schatten_norm(np.eye(3), math.inf) == pytest.approx(1.0, abs=1e-12)


def test_schatten_norm_zero_matrix():
    assert schatten_norm(np.zeros((3, 3)), 2.0) == 0.0
    assert schatten_norm(np.zeros((3, 3)), math.inf) == 0.0


def test_schatten_norm_rejects_small_p():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_norm_of_collapsed_product_dim4():
    # the rank-one product phi(A, B) C has every Schatten norm equal to 2
    inst = build_instance(4)
    product = apply_function_pair(inst.phi, inst.A, inst.B) @ inst.C.matrix
    for p in (1.0, 2.0, math.inf):
        assert schatten_norm(product, p) == pytest.approx(2.0, rel=1e-10)


def test_rank_one_norm_factorizes(rng):
    u = complex_gaussian(rng, 6, 1).ravel()
    v = complex_gaussian(rng, 6, 1).ravel()
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    for p in (1.0, 1.7, 2.0, math.inf):
        assert schatten_norm(np.outer(u, v.conj()), p) == pytest.approx(expected, rel=1e-12)


def test_spectral_resolution_property():
    assert check_spectral_resolution(SEED, 20).passed


def test_projection_algebra_property():
    assert check_projection_algebra(SEED, 10).passed


def test_schatten_monotonicity_property():
    grid = (1.0, 1.5, 2.0, 3.0, 5.0, math.inf)
    assert check_schatten_monotonicity(SEED, 25, grid).passed


def test_unitary_invariance_property():
    assert check_unitary_invariance(SEED, 15).passed


def test_frobenius_identity_property():
    assert check_frobenius_identity(SEED, 25).passed


def test_nan_on_a_middle_draw_fails_a_randomized_check(monkeypatch):
    calls = []

    def norm_with_nan(M, p):
        calls.append(p)
        return math.nan if len(calls) == 2 else schatten_norm(M, p)

    monkeypatch.setattr("moilab.linalg.schatten_norm", norm_with_nan)
    result = check_frobenius_identity(SEED, 3)
    assert len(calls) == 3
    assert not result.passed
    assert "nan" in result.detail


def test_finite_rank_chain_property():
    assert check_finite_rank_chain(SEED, 40).passed


def test_numerical_rank(rng):
    M = complex_gaussian(rng, 8, 3) @ complex_gaussian(rng, 3, 8)
    assert rank_of_singular_values(singular_values(M)) == 3
    assert rank_of_singular_values(singular_values(np.zeros((4, 4)))) == 0


def test_singular_value_helpers_match_matrix_functions(rng):
    # one SVD serves every p: the helpers reproduce the per-matrix answers bit for bit
    matrices = [
        complex_gaussian(rng, 5, 4),
        complex_gaussian(rng, 6, 2) @ complex_gaussian(rng, 2, 6),
        np.eye(3),
        np.zeros((4, 4)),
    ]
    for M in matrices:
        s = singular_values(M)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            assert float(norms_of_singular_values(s, p)) == schatten_norm(M, p)
        for rel_tol in (1e-10, 0.5):
            assert rank_of_singular_values(s, rel_tol) == np.linalg.matrix_rank(M, tol=rel_tol * s[0])
    # a stack, with a zero matrix and ranks 4, 2 and 1: each entry is its matrix's own norm
    stack = np.stack(
        [
            complex_gaussian(rng, 4, 4),
            np.zeros((4, 4)),
            complex_gaussian(rng, 4, 2) @ complex_gaussian(rng, 2, 4),
            np.outer(np.arange(1.0, 5.0), np.ones(4)),
        ]
    )
    values = singular_values(stack)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        norms = norms_of_singular_values(values, p)
        assert norms.tolist() == [schatten_norm(M, p) for M in stack]
        assert norms_of_singular_values(values.reshape(2, 2, 4), p).ravel().tolist() == norms.tolist()
    assert rank_of_singular_values(values).tolist() == [4, 0, 2, 1]


def test_hermitian_operator_is_plain_container():
    M = np.eye(2, dtype=complex)
    assert isinstance(HermitianOperator(M).matrix, np.ndarray)
