import copy
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEED, _reference_draw, column_form
from moilab import counterexample, linalg, moi
from moilab.counterexample import build_instance, random_kink_function, random_trig_polynomial
from moilab.linalg import (
    DimensionMismatchError,
    ZeroDimensionError,
    complex_gaussian,
    hermitian_from_matrix,
    hermitian_from_spectrum,
    random_hermitian,
    random_measure,
    random_unitary,
    spectral_measure,
    zero_operator,
)
from moilab.moi import (
    DividedDifference2,
    NonFiniteSymbolError,
    apply_function_pair,
    apply_function_single,
    apply_function_stack,
    apply_function_triple,
    argument_perturbation,
    double_operator_integral,
    perturbation_via_divided_difference,
    triple_operator_integral,
)
from moilab.reference import naive_double_operator_integral, naive_triple_operator_integral
from moilab.selfcheck import (
    _slot_operands,
    check_commuting_diagonal,
    check_diagonal_policy_independence,
    check_naive_oracle_equivalence,
    check_single_slot_exactness,
    check_triple_slot_exactness,
)


def test_apply_function_single_identity_function(rng):
    A = random_hermitian(rng, 6)
    out = apply_function_single(lambda t: t, spectral_measure(A))
    assert np.max(np.abs(out - A.matrix)) <= 1e-10


def test_apply_function_single_constant_one(rng):
    E = spectral_measure(random_hermitian(rng, 5))
    out = apply_function_single(lambda t: np.ones_like(t), E)
    assert np.allclose(out, np.eye(5), atol=1e-12)


def test_apply_function_single_square_on_diagonal():
    E = spectral_measure(hermitian_from_matrix(np.diag([1.0, 2.0])))
    out = apply_function_single(lambda t: t**2, E)
    assert np.allclose(out, np.diag([1.0, 4.0]), atol=1e-12)


def test_double_integral_constant_symbol_returns_operator(rng):
    dim = 5
    E1 = random_measure(rng, dim, 3)
    E2 = random_measure(rng, dim, 4)
    T = complex_gaussian(rng, dim, dim)
    out = double_operator_integral(lambda x, y: np.ones(np.broadcast_shapes(x.shape, y.shape)), E1, T, E2)
    assert np.max(np.abs(out - T)) <= 1e-12


def test_double_integral_first_variable_factorizes(rng):
    dim = 5
    A = random_hermitian(rng, dim)
    E1 = spectral_measure(A)
    E2 = random_measure(rng, dim, 2)
    T = complex_gaussian(rng, dim, dim)
    out = double_operator_integral(lambda x, y: x + 0.0 * y, E1, T, E2)
    assert np.max(np.abs(out - A.matrix @ T)) <= 1e-10


def test_double_integral_single_atoms():
    E = spectral_measure(hermitian_from_matrix(3.0 * np.eye(3)))
    out = double_operator_integral(lambda x, y: x * y, E, np.eye(3), E)
    assert np.allclose(out, 9.0 * np.eye(3), atol=1e-12)


def test_double_integral_dimension_mismatch(rng):
    E1 = random_measure(rng, 3, 2)
    E2 = random_measure(rng, 4, 2)
    with pytest.raises(DimensionMismatchError):
        double_operator_integral(lambda x, y: x, E1, np.eye(3), E2)


def test_apply_function_pair_sum_splits(rng):
    A = random_hermitian(rng, 6)
    B = random_hermitian(rng, 6)
    out = apply_function_pair(lambda x, y: x + y, A, B)
    assert np.max(np.abs(out - (A.matrix + B.matrix))) <= 1e-10


def test_apply_function_pair_product_orders_left_then_right(rng):
    A = random_hermitian(rng, 6)
    B = random_hermitian(rng, 6)
    out = apply_function_pair(lambda x, y: x * y, A, B)
    assert np.max(np.abs(out - A.matrix @ B.matrix)) <= 1e-10


def test_apply_function_pair_collapses_to_rank_one():
    # phi paired with the lattice operators collapses onto the summed frames
    inst = build_instance(4)
    out = apply_function_pair(inst.phi, inst.A, inst.B)
    g_sum, h_sum = (spectral_measure(op).frame.sum(axis=1) for op in (inst.A, inst.B))
    expected = np.outer(g_sum, h_sum.conj()) / 2.0
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_triple_integral_constant_symbol(rng):
    dim = 4
    E1, E2, E3 = (random_measure(rng, dim, k) for k in (2, 3, 1))
    T1 = complex_gaussian(rng, dim, dim)
    T2 = complex_gaussian(rng, dim, dim)
    ones = lambda x, y, z: np.ones(np.broadcast_shapes(x.shape, y.shape, z.shape))
    out = triple_operator_integral(ones, E1, T1, E2, T2, E3)
    assert np.max(np.abs(out - T1 @ T2)) <= 1e-12


def test_triple_integral_product_factorizes(rng):
    dim = 5
    A, B, C = (random_hermitian(rng, dim) for _ in range(3))
    out = apply_function_triple(lambda x, y, z: x * y * z, A, B, C)
    assert np.max(np.abs(out - A.matrix @ B.matrix @ C.matrix)) <= 1e-9


def test_triple_integral_matches_naive_oracle():
    assert check_naive_oracle_equivalence(SEED, 10).passed


def test_double_integral_matches_naive_oracle(rng):
    phi = lambda x, y: np.cos(x * y) + 1j * y
    for _ in range(10):
        dim = int(rng.integers(3, 9))
        E1, E2 = (random_measure(rng, dim, int(rng.integers(1, 6))) for _ in range(2))
        T = complex_gaussian(rng, dim, dim)
        fast = double_operator_integral(phi, E1, T, E2)
        slow = naive_double_operator_integral(phi, E1, T, E2)
        assert np.max(np.abs(fast - slow)) <= 1e-10


def test_apply_function_triple_constant_is_identity(rng):
    ops = [random_hermitian(rng, 4) for _ in range(3)]
    ones = lambda x, y, z: np.ones(np.broadcast_shapes(x.shape, y.shape, z.shape))
    out = apply_function_triple(ones, *ops)
    assert np.allclose(out, np.eye(4), atol=1e-12)


def test_apply_function_triple_last_slot_with_zero_operator(rng):
    A = random_hermitian(rng, 4)
    B = random_hermitian(rng, 4)
    out = apply_function_triple(lambda x, y, z: z + 0.0 * x * y, A, B, zero_operator(4))
    assert np.max(np.abs(out)) <= 1e-12


def test_apply_function_triple_tensor_product_factorizes():
    inst = build_instance(4)
    lhs = apply_function_triple(inst.f, inst.A, inst.B, inst.C)
    rhs = apply_function_pair(inst.phi, inst.A, inst.B) @ inst.C.matrix
    # psi fixes C (spectrum {0, 1}), so the triple result is the pair result times C
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_perturbation_identity_function(rng):
    A = random_hermitian(rng, 6)
    B = random_hermitian(rng, 6)
    out = perturbation_via_divided_difference(lambda t: t, A, B)
    assert np.max(np.abs(out - (A.matrix - B.matrix))) <= 1e-10


def test_perturbation_square_function(rng):
    A = random_hermitian(rng, 6)
    B = random_hermitian(rng, 6)
    out = perturbation_via_divided_difference(lambda t: t**2, A, B)
    direct = A.matrix @ A.matrix - B.matrix @ B.matrix
    assert np.max(np.abs(out - direct)) <= 1e-10


def test_perturbation_equal_operators_any_policy(rng):
    A = random_hermitian(rng, 5)
    for policy in (0.0, 1.0, 5.0 - 3.0j):
        out = perturbation_via_divided_difference(
            lambda t: np.sin(t), A, A, diagonal_value=policy
        )
        assert np.max(np.abs(out)) <= 1e-12


def test_divided_difference_values():
    dd = DividedDifference2(base=lambda t: t**2, diagonal_value=7.0)
    assert complex(dd(3.0, 1.0)) == pytest.approx(4.0)
    assert complex(dd(2.0, 2.0)) == pytest.approx(7.0)


def test_divided_difference_fast_path_matches_where_path(rng):
    x = rng.uniform(-3.0, 3.0, size=(7, 1))
    y = rng.uniform(-3.0, 3.0, size=(1, 9))
    base = lambda t: np.exp(1j * t) + t**3
    den = x - y
    assert not np.any(den == 0)
    num = np.asarray(base(x) - base(y), dtype=np.complex128)
    where_path = np.where(den == 0, 2.5, num / np.where(den == 0, 1.0, den))
    out = DividedDifference2(base=base, diagonal_value=2.5)(x, y)
    assert out.dtype == np.complex128
    assert np.array_equal(out, where_path)


def test_diagonal_policy_never_leaks_into_result():
    assert check_diagonal_policy_independence(SEED, 1).passed


def test_diagonal_policy_bit_identical_on_exactly_shared_spectra():
    # diagonal inputs decompose exactly, so both measures carry the float
    # 1.5 and the diagonal branch really fires; outputs must not move
    A = hermitian_from_matrix(np.diag([1.5, 2.0, 4.0]).astype(complex))
    B = hermitian_from_matrix(np.diag([-3.0, 1.5, 2.0]).astype(complex))
    f = lambda t: np.exp(1j * t)
    outputs = [
        perturbation_via_divided_difference(f, A, B, diagonal_value=policy)
        for policy in (0.0, 1.0, -4.0 + 11.0j)
    ]
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(outputs[0], outputs[2])
    direct = apply_function_single(f, spectral_measure(A)) - apply_function_single(
        f, spectral_measure(B)
    )
    assert np.max(np.abs(outputs[0] - direct)) <= 1e-12


def test_single_slot_exactness_sweep():
    assert check_single_slot_exactness(SEED, 30).passed


def test_argument_perturbation_same_operator_is_zero(rng):
    ops = [random_hermitian(rng, 4) for _ in range(3)]
    f = lambda x, y, z: np.sin(x) + y * z
    out = argument_perturbation(f, 0, ops[0], ops[0], ops[1], ops[2])
    assert np.max(np.abs(out)) <= 1e-12


def test_argument_perturbation_coordinate_function(rng):
    A1, A2, B, C = (random_hermitian(rng, 5) for _ in range(4))
    out = argument_perturbation(lambda x, y, z: x + 0.0 * y * z, 0, A1, A2, B, C)
    assert np.max(np.abs(out - (A1.matrix - A2.matrix))) <= 1e-10


def test_argument_perturbation_all_positions_match_direct_difference():
    assert check_triple_slot_exactness(SEED, 8).passed


def test_argument_perturbation_rejects_bad_index(rng):
    ops = [random_hermitian(rng, 3) for _ in range(4)]
    with pytest.raises(ValueError):
        argument_perturbation(lambda x, y, z: x, 3, *ops)


def test_commuting_diagonal_consistency():
    assert check_commuting_diagonal(SEED, 1).passed


def test_mixed_dimension_rejection(rng):
    A = random_hermitian(rng, 3)
    B = random_hermitian(rng, 4)
    with pytest.raises(DimensionMismatchError):
        apply_function_pair(lambda x, y: x + y, A, B)
    with pytest.raises(DimensionMismatchError):
        apply_function_triple(lambda x, y, z: x, A, A, B)


def _degenerate_hermitian(rng, dim):
    """A Hermitian operator with fewer distinct eigenvalues than its dimension."""
    E = random_measure(rng, dim, int(rng.integers(1, dim)))
    return hermitian_from_spectrum(E.eigenvalues, E.frame, E.multiplicities)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 8),
    atoms_per_chunk=st.sampled_from((1, 2)),
)
def test_chunked_triple_matches_naive_oracle_with_repeated_atoms(seed, dim, atoms_per_chunk):
    rng = np.random.default_rng(seed)
    # fewer atoms than dimensions, so every slot has a repeated atom
    E1, E2, E3 = (random_measure(rng, dim, int(rng.integers(1, dim))) for _ in range(3))
    T1 = complex_gaussian(rng, dim, dim)
    T2 = complex_gaussian(rng, dim, dim)
    phi = lambda x, y, z: np.exp(1j * (x - 2.0 * y)) + x * z
    with pytest.MonkeyPatch.context() as mp:
        # a three-measure chain sizes a chunk at _CHAIN_ARRAYS arrays of
        # dim^2 entries per last atom, so this runs 1 or 2 atoms per chunk
        mp.setattr(moi, "_CHUNK_ENTRIES", atoms_per_chunk * moi._CHAIN_ARRAYS * dim * dim)
        fast = triple_operator_integral(phi, E1, T1, E2, T2, E3)
    slow = naive_triple_operator_integral(phi, E1, T1, E2, T2, E3)
    assert np.max(np.abs(fast - slow)) <= 1e-10


@pytest.mark.parametrize("atoms_per_chunk", [1, 2])
@pytest.mark.parametrize("zero_at", [0.5, 2.0])
def test_chunked_triple_skips_a_repeated_atom_of_zero_weight(rng, atoms_per_chunk, zero_at):
    # the symbol vanishes on one repeated last atom: its block takes no
    # product and is exactly 0, and the sum still equals the literal one
    E1, E2 = (random_measure(rng, 6, 6) for _ in range(2))
    C = hermitian_from_spectrum([-1.0, 0.5, 2.0], random_unitary(rng, 6), [1, 3, 2])
    E3 = spectral_measure(C)
    T1, T2 = complex_gaussian(rng, 6, 6), complex_gaussian(rng, 6, 6)
    phi = lambda x, y, z: np.exp(1j * (x - 2.0 * y)) * (z - zero_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moi, "_CHUNK_ENTRIES", atoms_per_chunk * moi._CHAIN_ARRAYS * 36)
        fast = triple_operator_integral(phi, E1, T1, E2, T2, E3)
    slow = naive_triple_operator_integral(phi, E1, T1, E2, T2, E3)
    assert np.max(np.abs(fast - slow)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 7),
    atoms_per_chunk=st.sampled_from((1, 2)),
    same=st.booleans(),
)
def test_chunked_argument_perturbation_matches_triple_difference(
    seed, dim, atoms_per_chunk, same
):
    rng = np.random.default_rng(seed)
    X1, X2, Y, Z = (_degenerate_hermitian(rng, dim) for _ in range(4))
    if same:
        X2 = X1
    f = lambda x, y, z: np.sin(x) * np.cos(y) + x * y * z
    with pytest.MonkeyPatch.context() as mp:
        # the perturbation sizes a chunk at _PERTURBATION_ARRAYS arrays of
        # dim^2 entries per last atom, so this runs 1 or 2 atoms per chunk
        mp.setattr(moi, "_CHUNK_ENTRIES", atoms_per_chunk * moi._PERTURBATION_ARRAYS * dim**2)
        for index in range(3):
            lhs = argument_perturbation(f, index, X1, X2, Y, Z)
            rhs = apply_function_triple(f, *_slot_operands(index, X1, Y, Z)) - apply_function_triple(
                f, *_slot_operands(index, X2, Y, Z)
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


@pytest.mark.parametrize("chunks", [1, 2])
def test_generic_triple_products_are_c_contiguous(rng, chunks):
    # simple atoms in the first two measures: every chunk's stacked product
    # G, one dim x dim matrix per last atom, is one C-contiguous array
    dim = 6
    A, B, C = (random_hermitian(rng, dim) for _ in range(3))
    assert all(len(spectral_measure(op).eigenvalues) == dim for op in (A, B))
    contract = moi._contract_last
    flags = []

    def checked(products_of, *args):
        def recorded(sl):
            G = products_of(sl)
            flags.append(G.flags.c_contiguous)
            return G

        return contract(recorded, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moi, "_contract_last", checked)
        mp.setattr(moi, "_CHUNK_ENTRIES", -(-dim // chunks) * moi._CHAIN_ARRAYS * dim * dim)
        out = apply_function_triple(lambda x, y, z: x * y * z, A, B, C)
    assert flags == [True] * chunks
    assert np.max(np.abs(out - A.matrix @ B.matrix @ C.matrix)) <= 1e-10


@pytest.mark.parametrize("index", range(3))
def test_argument_perturbation_fills_one_workspace(rng, index):
    # simple atoms: every chunk's G is a view of one array allocated per call,
    # three dim x dim blocks along the pair axis, rows when the pair leads
    dim = 6
    X1, X2, Y, Z = (random_hermitian(rng, dim) for _ in range(4))
    contract = moi._contract_last
    products = []

    def checked(products_of, *args):
        return contract(lambda sl: products.append(products_of(sl)) or products[-1], *args)

    f = lambda x, y, z: np.exp(1j * (x - 2 * y + z)) / (1 + x**2 + y**2 + z**2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moi, "_contract_last", checked)
        mp.setattr(moi, "_CHUNK_ENTRIES", 4 * moi._PERTURBATION_ARRAYS * dim * dim)
        lhs = argument_perturbation(f, index, X1, X2, Y, Z)
    shape = (dim, 3 * dim) if index == 1 else (3 * dim, dim)
    assert [G.shape for G in products] == [(4, *shape), (2, *shape)]
    assert all(np.shares_memory(G, products[0]) for G in products)
    rhs = apply_function_triple(f, *_slot_operands(index, X1, Y, Z)) - apply_function_triple(
        f, *_slot_operands(index, X2, Y, Z)
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_generic_triple_memory_is_bounded(rng):
    # a full weight tensor at d = 256 alone would take 256 MiB
    A, B, C = (random_hermitian(rng, 256) for _ in range(3))
    tracemalloc.start()
    try:
        apply_function_triple(lambda x, y, z: (x - y) * z + 1j * x * y, A, B, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8.05 MiB, eigh included; 14.04 MiB when a chunk's weights alone filled
    # _CHUNK_ENTRIES and the symbol's temporary and G came on top
    assert peak <= 10 * 2**20


def _clustered_errors(X1, X2, Y, Z):
    """Per slot, the relative error of argument_perturbation against the exact
    X1^2 - X2^2 = X1 D + D X2 (D = X1 - X2) of a product symbol with t^2 in
    the perturbed slot, where the calculus factorises with no cancellation."""
    D = X1.matrix - X2.matrix
    g, k = (lambda t: np.exp(1j * t)), (lambda t: 1.0 / (1.0 + t * t))
    gY = apply_function_single(g, spectral_measure(Y))
    kZ = apply_function_single(k, spectral_measure(Z))
    errors = []
    for index in range(3):
        factors = _slot_operands(index, lambda t: t * t, g, k)
        f = lambda x, y, z, fs=factors: fs[0](x) * fs[1](y) * fs[2](z)
        first, middle, last = _slot_operands(index, X1.matrix @ D + D @ X2.matrix, gY, kZ)
        exact = first @ middle @ last
        out = argument_perturbation(f, index, X1, X2, Y, Z)
        errors.append(float(np.max(np.abs(out - exact)) / np.max(np.abs(exact))))
    return errors


# Clustered perturbations X2 = X1 + delta G: the divided difference of t^2
# is formed from f(l1) - f(l2), whose rounding is relative to f, so the
# error grows like eps / delta.  The largest error times delta over the
# three slots reads 1.5e-16 here (delta = 1e-2 .. 1e-8).  Applying the
# kernel in the original basis and transforming back measured 1.0e-15 to
# 1.2e-15 at every delta; chains without nearest-atom pairs, 3.1e-16.
CLUSTERED_ERROR_TIMES_DELTA = 4e-16


@pytest.mark.parametrize("exponent", range(2, 9))
def test_argument_perturbation_clustered_exact_answer(exponent):
    rng = np.random.default_rng(SEED)
    dim = 12
    X1, Y, Z = (random_hermitian(rng, dim) for _ in range(3))
    G = random_hermitian(rng, dim).matrix
    delta = 10.0**-exponent
    X2 = hermitian_from_matrix(X1.matrix + delta * G)
    for index, error in enumerate(_clustered_errors(X1, X2, Y, Z)):
        assert error <= CLUSTERED_ERROR_TIMES_DELTA / delta, (index, error)


# A degenerate X1 (4 atoms of multiplicity 3) split by X2 = X1 + delta G: each
# X1 atom has three X2 atoms within about delta, so two of its three near
# pairs are nearest only from the X2 side.  Over seeds SEED .. SEED + 5, the
# three slots and delta = 1e-2 .. 1e-8, the largest error times delta
# measured 6.4e-17 with both nearest-atom pairings, the same as with the
# whole four-measure weight tensor; pairing only X1 atoms with their nearest
# X2 atom measured 1.5e-16, and no pairing 1.6e-16.  1.3e-16 keeps about 2x
# headroom.
DEGENERATE_CLUSTER_ERROR_TIMES_DELTA = 1.3e-16


@pytest.mark.parametrize("exponent", range(2, 9))
def test_argument_perturbation_degenerate_cluster_exact_answer(exponent):
    delta = 10.0**-exponent
    for k in range(6):
        rng = np.random.default_rng(SEED + k)
        dim = 12
        values = np.sort(rng.uniform(-2.0, 2.0, size=4))
        X1 = hermitian_from_spectrum(values, random_unitary(rng, dim), [3, 3, 3, 3])
        Y, Z = (random_hermitian(rng, dim) for _ in range(2))
        G = random_hermitian(rng, dim).matrix
        X2 = hermitian_from_matrix(X1.matrix + delta * G)
        for index, error in enumerate(_clustered_errors(X1, X2, Y, Z)):
            assert error <= DEGENERATE_CLUSTER_ERROR_TIMES_DELTA / delta, (k, index, error)


def _planted_pair(rng, gap):
    """X1, X2 with an exactly shared repeated atom, one repeated X1 atom near
    two X2 atoms and one repeated X2 atom near two X1 atoms, in random frames."""
    centers = rng.choice(np.arange(-4.0, 5.0), size=4, replace=False) + rng.uniform(0.0, 0.25, 4)
    shared, a, b, far = centers
    m = int(rng.integers(1, 4))
    g1, g2 = gap * rng.uniform(1.0, 2.0, size=2)
    ones = {shared: m, a: 2, b - g1: 1, b + g2: 1, far: 1}
    twos = {shared: m, a - g2: 1, a + g1: 1, b: 2, far + 0.5: 1}
    ops = []
    for atoms in (ones, twos):
        values = sorted(atoms)
        frame = random_unitary(rng, sum(atoms.values()))
        ops.append(hermitian_from_spectrum(values, frame, [atoms[v] for v in values]))
    return ops


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gap_exponent=st.integers(2, 7))
def test_argument_perturbation_planted_ties_match_triple_difference(seed, gap_exponent):
    rng = np.random.default_rng(seed)
    X1, X2 = _planted_pair(rng, 10.0**-gap_exponent)
    E1, E2 = spectral_measure(X1), spectral_measure(X2)
    assert np.intersect1d(E1.eigenvalues, E2.eigenvalues).size >= 1
    # some near pair is nearest only from the X2 side
    assert moi._nearest_pairs(E1, E2)[3].any()
    Y, Z = (_degenerate_hermitian(rng, X1.dim) for _ in range(2))
    f = lambda x, y, z: np.exp(1j * (x - 2 * y + z)) / (1 + x**2 + y**2 + z**2) + np.sin(x) * y
    for index in range(3):
        lhs = argument_perturbation(f, index, X1, X2, Y, Z)
        rhs = apply_function_triple(f, *_slot_operands(index, X1, Y, Z)) - apply_function_triple(
            f, *_slot_operands(index, X2, Y, Z)
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs)), index


def test_argument_perturbation_exact_ties_match_direct_difference(rng):
    # diagonal inputs decompose exactly and share the identity frame, so the
    # kernel has exact zeros at the shared values 0.25, 1.5 and 2 next to
    # nonzero gaps; 1.5 and 2 are repeated atoms in one of the two
    X1 = hermitian_from_matrix(np.diag([1.5, 1.5, 2.0, -1.0, 4.0, 0.25]).astype(complex))
    X2 = hermitian_from_matrix(np.diag([1.5, 3.0, 2.0, 2.0, -0.5, 0.25]).astype(complex))
    shared = np.intersect1d(spectral_measure(X1).eigenvalues, spectral_measure(X2).eigenvalues)
    assert shared.tolist() == [0.25, 1.5, 2.0]
    Y, Z = (random_hermitian(rng, 6) for _ in range(2))
    f = lambda x, y, z: np.exp(1j * (x - 2 * y + z)) / (1 + x**2 + y**2 + z**2) + x**3 * y
    for index in range(3):
        lhs = argument_perturbation(f, index, X1, X2, Y, Z)
        rhs = apply_function_triple(f, *_slot_operands(index, X1, Y, Z)) - apply_function_triple(
            f, *_slot_operands(index, X2, Y, Z)
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs)), index


def test_non_finite_symbol_raises_and_names_an_atom(rng):
    # log x on an indefinite matrix: NaN at every negative eigenvalue
    A, B, C = (random_hermitian(rng, 4) for _ in range(3))
    assert spectral_measure(A).eigenvalues[0] < 0
    log_first = lambda x, y, z: np.log(x) + y * z
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NonFiniteSymbolError, match=r"atom \(0,\)"):
            apply_function_single(np.log, spectral_measure(A))
        with pytest.raises(NonFiniteSymbolError, match=r"atom \(0, 0, 0\)"):
            apply_function_triple(log_first, A, B, C)
        # with X2 = A every atom pair of the perturbed slot is a tie, where the
        # kernel is 0 and a NaN weight must still raise, not vanish or spread
        for X2 in (B, A):
            with pytest.raises(NonFiniteSymbolError, match=r"atom \(0, 0, 0, 0\)"):
                argument_perturbation(log_first, 0, A, X2, B, C)
        with pytest.raises(NonFiniteSymbolError, match=r"atom \(0,\)"):
            apply_function_single(lambda t: 1.0 / t, spectral_measure(zero_operator(3)))
    assert issubclass(NonFiniteSymbolError, ValueError)


@pytest.mark.parametrize(
    "index, slots, atom",
    [
        (0, (("X2", 2), ("Y", 1), ("Z", 3)), (0, 2, 1, 3)),
        (1, (("X1", 1), ("Z", 3)), (0, 1, 0, 3)),
        (1, (("Y", 2), ("X2", 1)), (2, 0, 1, 0)),
        (2, (("Y", 3),), (3, 0, 0, 0)),
        (2, (("Z", 2), ("X1", 1)), (0, 2, 1, 0)),
        (2, (("X2", 3),), (0, 0, 0, 3)),
    ],
)
def test_non_finite_perturbation_names_its_atom_in_chain_order(rng, index, slots, atom):
    # NaN only where the named slots sit at the named atoms; one atom per
    # chunk, so the chunk offset must be added on the right axis
    ops = dict(zip(("X1", "X2", "Y", "Z"), (random_hermitian(rng, 4) for _ in range(4))))
    names = _slot_operands(index, "X", "Y", "Z")

    def f(x, y, z):
        hit = True
        for name, k in slots:
            arg = (x, y, z)[names.index(name.rstrip("12"))]
            hit = hit & (arg == spectral_measure(ops[name]).eigenvalues[k])
        return np.where(hit, np.nan, 1.0) + x * y * z

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moi, "_CHUNK_ENTRIES", moi._PERTURBATION_ARRAYS * 4**2)
        with pytest.raises(NonFiniteSymbolError, match=re.escape(f"atom {atom}")):
            argument_perturbation(f, index, *ops.values())


@pytest.mark.parametrize("atom", [(0, 1, 1), (1, 2, 3), (2, 0, 4)])
def test_non_finite_chain_names_its_atom_past_the_first_chunk(rng, atom):
    # the first measure repeats an atom; one last atom per chunk, so the
    # chunk offset must be added on the last measure's axis
    dim = 5
    A = hermitian_from_spectrum([-1.0, 0.5, 2.0], random_unitary(rng, dim), [2, 2, 1])
    B, C = (random_hermitian(rng, dim) for _ in range(2))
    at = [spectral_measure(op).eigenvalues[i] for op, i in zip((A, B, C), atom)]
    f = lambda x, y, z: np.where((x == at[0]) & (y == at[1]) & (z == at[2]), np.nan, 1.0) + x * y * z
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moi, "_CHUNK_ENTRIES", dim**2)
        with pytest.raises(NonFiniteSymbolError, match=re.escape(f"atom {atom}")):
            apply_function_triple(f, A, B, C)


def _perturbation_peak(dim, index):
    """tracemalloc peak of one argument_perturbation call at ``dim``, with
    the spectral measures computed beforehand."""
    rng = np.random.default_rng(SEED)
    X1, X2, Y, Z = (random_hermitian(rng, dim) for _ in range(4))
    for op in (X1, X2, Y, Z):
        spectral_measure(op)
    f = lambda x, y, z: np.exp(1j * (x - 2 * y + z)) / (1 + x**2 + y**2 + z**2)
    tracemalloc.start()
    try:
        argument_perturbation(f, index, X1, X2, Y, Z)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("index", range(3))
def test_argument_perturbation_memory_is_bounded(index):
    # at d = 64 one chunk may hold 10 arrays of 64^2 entries per last atom, 4
    # MiB in all; the slots peak at 3.46-3.52 MiB
    assert _perturbation_peak(64, index) <= 4 * 2**20


@pytest.mark.parametrize("index", range(3))
def test_argument_perturbation_memory_is_bounded_at_128(index):
    # a weight over all four measures at d = 128 would take 4 GiB; the chunked
    # three-measure chains peak at 5.31-5.32 MiB in every slot
    assert _perturbation_peak(128, index) <= 6 * 2**20


# the rank checks' stacks: four corners of two triples, and two pairs
CORNERS = [(0, 1, 2), (3, 1, 2), (3, 4, 2), (3, 4, 5)]
PAIRS = [(0, 1), (2, 3)]


def _stack_deviation(f, ops, values, frames, members):
    """Largest entry of the stacked calculus on the column-form draws minus
    the per-tuple one on the operators ``ops``, over the largest entry of
    the per-tuple results; member k takes the operators ``members[k]``."""
    single = apply_function_triple if len(members[0]) == 3 else apply_function_pair
    expected = np.stack([single(f, *(ops[i] for i in m)) for m in members])
    stacked = apply_function_stack(f, values, frames, members)
    return np.max(np.abs(stacked - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("N", range(1, 9))
def test_stacked_calculus_matches_the_per_tuple_calculus(N):
    rng = np.random.default_rng(SEED + N)
    for _ in range(3):
        # the same draws, grouped into operators and in column form
        replay = copy.deepcopy(rng)
        ops = [_reference_draw(replay, 2 * N, N) for _ in range(6)]
        values, frames, _ = counterexample._rank_limited_draw(rng, 2 * N, N, 6)
        f, g = random_kink_function(rng)[0], random_trig_polynomial(rng)[0]
        assert _stack_deviation(f, ops, values, frames, CORNERS) <= 1e-13
        assert _stack_deviation(g, ops, values, frames, PAIRS) <= 1e-13


def test_stacked_calculus_names_the_member_of_a_non_finite_symbol(rng):
    A, B, C = (random_hermitian(rng, 4) for _ in range(3))
    values, frames, _ = column_form([A, B, C])
    # the first slot holds A, B and then C: only member 2 meets C's top eigenvalue
    top = float(spectral_measure(C).eigenvalues[-1])
    f = lambda x, y, z: np.where(x == top, np.nan, 1.0) + x * y * z
    members = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    with pytest.raises(
        NonFiniteSymbolError,
        match=re.escape(f"atom (3, 0, 0) of stack member 2 (eigenvalues {top!r}, "),
    ):
        apply_function_stack(f, values, frames, members)


def test_stacked_calculus_rejects_mixed_tuples(rng):
    values, frames, _ = column_form([random_hermitian(rng, 3) for _ in range(2)])
    bad = [
        (values, frames, [(0,), (1,)]),  # one column
        (values, frames, [(0, 1, 0, 1)]),  # four columns
        (values, frames, [0, 1]),  # a 1-D table
        (values, frames, [(0.0, 1.0)]),  # not integers
        (values[:, :2], frames, [(0, 1)]),  # eigenvalues of other shapes than the frames
        (values[:1], frames, [(0, 1)]),
        (values[0], frames, [(0, 1)]),
        (values[0], frames[0], [(0, 1)]),  # no stack axis
    ]
    for args in bad:
        with pytest.raises(ValueError, match="2 or 3 columns"):
            apply_function_stack(lambda x, y: x, *args)


@pytest.mark.parametrize("members", [[(0, 1)], [(0, 1, 0)]])
def test_stacked_calculus_rejects_dimension_zero(members):
    with pytest.raises(ZeroDimensionError):
        apply_function_stack(lambda *v: v[0], np.zeros((2, 0)), np.zeros((2, 0, 0)), members)


@pytest.mark.parametrize("slots", [2, 3])
def test_stacked_calculus_of_an_empty_table_is_an_empty_stack(rng, slots):
    def refuse(*args):
        raise AssertionError("the symbol ran on an empty table")

    values, frames, _ = column_form([random_hermitian(rng, 3) for _ in range(2)])
    out = apply_function_stack(refuse, values, frames, np.empty((0, slots), dtype=int))
    assert out.shape == (0, 3, 3) and out.dtype == np.complex128


def test_stacked_calculus_rejects_members_outside_the_operators(rng):
    # k = 3: a negative entry must not wrap around to operator k - 1
    values, frames, _ = column_form([random_hermitian(rng, 3) for _ in range(3)])
    for members in ([(-1, 0)], [(3, 0)], [(0, 1), (2, 3)]):
        with pytest.raises(ValueError, match=re.escape("entries in [0, k)")):
            apply_function_stack(lambda x, y: x * y, values, frames, members)


def test_identity_frame_skip_returns_the_same_entries(rng, monkeypatch):
    # an operator on the identity frame, with a repeated atom, in every slot
    # of every engine call: skipping the products by its frame returns what
    # taking them returns
    dim = 6
    I = hermitian_from_spectrum([-1.5, 0.25, 2.0], np.eye(dim), [2, 1, 3])
    assert spectral_measure(I).identity_frame
    P, Q, S = (random_hermitian(rng, dim) for _ in range(3))
    f = lambda x, y, z: np.exp(1j * (x - 2 * y + z)) / (1 + x**2 + y**2 + z**2)
    g = lambda x, y: np.exp(1j * x * y) + x - 2 * y
    placements = [(I, P, Q), (P, I, Q), (P, Q, I)]

    def results():
        out = [apply_function_triple(f, *ops) for ops in placements]
        out += [apply_function_pair(g, I, P), apply_function_pair(g, P, I)]
        for index in range(3):
            for ops in [(I, S, P, Q), (S, I, P, Q), (S, P, I, Q), (S, P, Q, I)]:
                out.append(argument_perturbation(f, index, *ops))
        return out

    skipped = results()
    monkeypatch.setattr(linalg.SpectralMeasure, "identity_frame", property(lambda E: False))
    assert all(np.array_equal(a, b) for a, b in zip(skipped, results(), strict=True))
