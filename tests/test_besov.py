import collections
import math

import numpy as np
import pytest

from moilab import besov
from moilab.besov import (
    BandAboveNyquistError,
    GridFunction,
    NonpositiveArgumentError,
    band_piece,
    max_resolvable_band,
    partition_check,
    psi_band_majorant,
    psi_reference,
    psi_reference_grid,
    smooth_cutoff,
    tensor_bound_kappa,
    window_w,
)
from moilab.selfcheck import (
    check_band_support,
    check_partition_of_unity,
    check_summability_tail,
    check_surrogate_refinement,
    check_window_equation,
)


def test_window_edge_values():
    assert window_w(0.5) == 0.0
    assert window_w(1.0) == 1.0
    assert window_w(2.0) == 0.0
    assert window_w(0.1) == 0.0
    assert window_w(5.0) == 0.0


def test_window_range_and_support():
    s = np.linspace(0.01, 4.0, 4001)
    values = window_w(s)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)
    outside = (s <= 0.5) | (s >= 2.0)
    assert np.all(values[outside] == 0.0)


def test_window_functional_equation():
    assert check_window_equation().passed


def test_partition_check_point_values():
    assert partition_check(1.0) == pytest.approx(1.0, abs=1e-10)
    assert partition_check(3.0) == pytest.approx(1.0, abs=1e-10)
    assert partition_check(2.0**10 * 1.3) == pytest.approx(1.0, abs=1e-10)


def test_partition_check_log_sweep():
    assert check_partition_of_unity().passed


def test_partition_check_rejects_nonpositive():
    with pytest.raises(NonpositiveArgumentError):
        partition_check(0.0)
    with pytest.raises(NonpositiveArgumentError):
        partition_check(np.array([1.0, -2.0]))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(half_width=1.0, samples=np.zeros(12))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction(half_width=-1.0, samples=np.zeros(8))
    with pytest.raises(ValueError):
        GridFunction(half_width=1.0, samples=np.array([np.inf, 0, 0, 0]))


@pytest.mark.parametrize("half_width", [math.nan, math.inf])
def test_grid_function_rejects_a_non_finite_half_width(half_width):
    # it used to construct, and psi_band_majorant then failed on the width
    with pytest.raises(ValueError, match="half_width must be positive and finite"):
        GridFunction(half_width, np.ones(1024, dtype=complex))


def test_grid_function_geometry():
    f = GridFunction.from_function(np.cos, 2.0, 3)
    assert f.size == 8
    assert f.log2_size == 3
    assert f.spacing == pytest.approx(0.5)
    assert f.positions()[0] == pytest.approx(-2.0)
    assert f.nyquist == pytest.approx(2.0 * math.pi)


def test_band_piece_single_frequency_input():
    # half width 32*pi makes angular frequency 1 an exact grid frequency
    f = GridFunction.from_function(np.cos, 32.0 * math.pi, 14)
    kept = band_piece(f, 0)
    assert float(np.max(np.abs(kept.samples - f.samples))) <= 1e-10
    for n in (1, 3):
        killed = band_piece(f, n)
        assert killed.sup_norm() <= 1e-10


def test_band_piece_zero_input():
    f = GridFunction(4.0, np.zeros(16, dtype=complex))
    assert band_piece(f, 0).sup_norm() == 0.0


def test_band_piece_above_nyquist_raises():
    f = GridFunction.from_function(np.cos, 2.0, 4)  # nyquist = 4 pi
    with pytest.raises(BandAboveNyquistError):
        band_piece(f, 10)


def test_band_support_is_contained():
    assert check_band_support(64.0, 16).passed


def test_band_partition_reconstructs_reference_cutoff():
    psi = psi_reference_grid()
    top = max_resolvable_band(psi)
    rec = np.zeros_like(psi.samples)
    for n in range(-20, top + 1):
        rec = rec + band_piece(psi, n).samples
    rec = rec + np.mean(psi.samples)  # the one frequency no band covers
    inner = np.abs(psi.positions()) <= psi.half_width / 2.0
    assert float(np.max(np.abs(rec[inner] - psi.samples[inner]))) <= 1e-6


def test_psi_reference_values():
    psi = psi_reference()
    assert psi(0.5) == pytest.approx(0.5, abs=1e-15)
    assert psi(1.0) == pytest.approx(1.0, abs=1e-15)
    assert psi(-1.0) == pytest.approx(-1.0, abs=1e-15)
    assert psi(3.0) == 0.0
    assert psi(-2.5) == 0.0


def test_psi_identity_region_is_exact():
    psi = psi_reference()
    t = np.linspace(-1.0, 1.0, 1001)
    assert np.array_equal(np.asarray(psi(t)), t)


def test_smooth_cutoff_plateau_and_support():
    t = np.linspace(-3.0, 3.0, 1201)
    chi = smooth_cutoff(t)
    assert np.all(chi[np.abs(t) <= 1.0] == 1.0)
    assert np.all(chi[np.abs(t) >= 2.0] == 0.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))


def test_tensor_bound_kappa_zero_and_homogeneity():
    psi = psi_reference_grid()
    assert tensor_bound_kappa(0.0, psi) == 0.0
    base = tensor_bound_kappa(1.0, psi)
    assert tensor_bound_kappa(2.0, psi) == pytest.approx(2.0 * base, rel=1e-12)
    with pytest.raises(ValueError):
        tensor_bound_kappa(-1.0, psi)


def test_psi_band_majorant_is_computed_once_per_grid(monkeypatch):
    psi = GridFunction.from_function(psi_reference(), 64.0, 12)
    first = psi_band_majorant(psi)

    def no_band_work(*args, **kwargs):
        raise AssertionError("cached majorant recomputed its bands")

    monkeypatch.setattr(besov, "band_piece", no_band_work)
    assert psi_band_majorant(psi) == first
    assert tensor_bound_kappa(1.0, psi) == first


def test_band_pieces_are_formed_once_per_grid(monkeypatch):
    # the tail and the majorant read the sups of one band loop per grid
    calls = collections.Counter()
    real = besov.band_piece

    def counted(f, band_index):
        calls[f.log2_size] += 1
        return real(f, band_index)

    monkeypatch.setattr(besov, "band_piece", counted)
    psi_reference_grid.cache_clear()  # no grid keeps sups from another test
    assert check_summability_tail(64.0, 12).passed
    assert check_surrogate_refinement(64.0, 12).passed
    assert calls == {m: max_resolvable_band(psi_reference_grid(64.0, m)) + 1 for m in (12, 13)}


def test_psi_band_majorant_same_samples_same_float():
    psi = GridFunction.from_function(psi_reference(), 64.0, 12)
    fresh = GridFunction(psi.half_width, psi.samples.copy())
    assert psi_band_majorant(fresh) == psi_band_majorant(psi)


def test_psi_majorant_stable_under_refinement():
    assert check_surrogate_refinement(64.0, 16).passed


def test_psi_band_tail_is_negligible():
    assert check_summability_tail(64.0, 16).passed


def test_weighted_band_sups_decay():
    # the decay is checked on the finer of the two grids, here 2^16
    assert check_summability_tail(64.0, 15).passed


def test_spectrum_approximates_continuous_transform():
    # Gaussian pair: F exp(-x^2/2) = sqrt(2 pi) exp(-t^2/2)
    f = GridFunction.from_function(lambda x: np.exp(-0.5 * x**2), 32.0, 12)
    freqs = f.frequencies()
    expected = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * freqs**2)
    keep = np.abs(freqs) <= 8.0
    assert float(np.max(np.abs(f.spectrum()[keep] - expected[keep]))) <= 1e-8
