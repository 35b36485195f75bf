"""Numerical Littlewood-Paley machinery on periodized FFT grids.

Provides the dyadic window ``w`` (smooth, supported on (1/2, 2), with
w(s) + w(s/2) == 1 on [1, 2]), frequency-band components of grid-sampled
functions, the smooth compactly supported reference cutoff psi that
equals the identity on [-1, 1], its band majorant (sup of the
low-frequency remainder plus the l^1 sum of 2^n times band sup-norms, each
sup a maximum over the grid, so a grid estimate of a first-order Besov-type
norm, not a certified bound), and the tensor product that reports the
smoothness surrogate of product functions phi(x, y) * psi(z).

The Fourier convention is (F f)(t) = integral of f(x) exp(-i x t) dx; the
discrete transform is scaled by the grid spacing so that band multipliers
are literally w(|xi| / 2^n) at the grid frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np


class NonpositiveArgumentError(ValueError):
    """Argument expected to be strictly positive."""


class BandAboveNyquistError(ValueError):
    """Requested frequency band is not resolvable at the grid's sampling rate."""


DEFAULT_HALF_WIDTH = 64.0
DEFAULT_LOG2_SAMPLES = 16


def _bump(x: np.ndarray) -> np.ndarray:
    # exp(-1/x) for x > 0, identically 0 otherwise; underflow is harmless
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(divide="ignore", under="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1."""
    a = _bump(np.asarray(x, dtype=float))
    b = _bump(1.0 - np.asarray(x, dtype=float))
    # a + b never vanishes: a = 0 forces x <= ~0, where b is bounded away from 0
    return a / (a + b)


def window_w(s):
    """The dyadic partition window.

    Zero outside (1/2, 2), rises as a smooth step on [1/2, 1] and is defined
    on [1, 2] as one minus the same step evaluated at s/2, so the identity
    w(s) = 1 - w(s/2) on [1, 2] holds to the last bit.  Accepts scalars or
    arrays.
    """
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    rise = (arr > 0.5) & (arr < 1.0)
    fall = (arr >= 1.0) & (arr < 2.0)
    out[rise] = _smooth_step(2.0 * arr[rise] - 1.0)
    # for s in [1, 2): 2*(s/2) - 1 == s - 1 exactly, matching the rise branch at s/2
    out[fall] = 1.0 - _smooth_step(arr[fall] - 1.0)
    if scalar:
        return float(out[0])
    return out


def partition_check(s):
    """Sum of w(s / 2^n) over all integers n; equals 1 for every s > 0.

    Only the two bands straddling log2(s) can contribute; a three-term
    window around floor(log2 s) is summed to be safe.

    Raises
    ------
    NonpositiveArgumentError
        If any argument is <= 0 (the partition covers only (0, inf)).
    """
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise NonpositiveArgumentError("partition_check requires s > 0")
    base = np.floor(np.log2(arr))
    total = np.zeros_like(arr)
    for offset in (-1.0, 0.0, 1.0):
        total += window_w(arr / 2.0 ** (base + offset))
    if scalar:
        return float(total[0])
    return total


@dataclass(frozen=True)
class GridFunction:
    """Uniform complex samples of one period of a function on [-L, L).

    ``samples`` must have power-of-two length 2^m; the grid points are
    x_k = -L + k * (2L / 2^m).  The discrete spectrum and the band sups
    that :func:`psi_band_majorant` sums are cached per instance.
    """

    half_width: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be positive and finite")
        data = np.asarray(self.samples, dtype=np.complex128)
        n = data.shape[0]
        if data.ndim != 1 or n < 2 or n & (n - 1):
            raise ValueError("samples must be a 1-d array of power-of-two length")
        if not np.all(np.isfinite(data)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", data)

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def log2_size(self) -> int:
        return self.size.bit_length() - 1

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.size

    @property
    def nyquist(self) -> float:
        """Largest representable angular frequency, pi / spacing."""
        return math.pi / self.spacing

    def positions(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.size)

    @cached_property
    def _fft(self) -> np.ndarray:
        return np.fft.fft(self.samples)

    @cached_property
    def _band_sups(self) -> tuple[float, tuple[float, ...]]:
        """sup|flat| and sup|f_n| for n = 0 .. top, from one loop over the bands."""
        top = max_resolvable_band(self)
        if top < 0:
            raise BandAboveNyquistError(
                "grid too coarse: no nonnegative band is resolvable"
            )
        flat = self.samples.copy()
        sups = []
        for n in range(0, top + 1):
            piece = band_piece(self, n)
            flat -= piece.samples
            sups.append(piece.sup_norm())
        return float(np.max(np.abs(flat))), tuple(sups)

    def frequencies(self) -> np.ndarray:
        """Angular grid frequencies in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.size, d=self.spacing)

    def spectrum(self) -> np.ndarray:
        """Riemann-sum approximation of the continuous transform at the grid
        frequencies (spacing-scaled, with the left-endpoint phase)."""
        return self.spacing * self._fft * np.exp(
            1j * self.half_width * self.frequencies()
        )

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))

    @classmethod
    def from_function(
        cls, func: Callable, half_width: float, log2_size: int
    ) -> "GridFunction":
        spacing = 2.0 * half_width / 2**log2_size
        x = -half_width + spacing * np.arange(2**log2_size)
        return cls(half_width=half_width, samples=np.asarray(func(x)))


def band_piece(f: GridFunction, band_index: int) -> GridFunction:
    """Frequency-band component of ``f`` for the dyadic band 2^band_index.

    Multiplies the discrete spectrum by w(|xi| / 2^band_index) and
    transforms back; the result lives on the same grid and its spectrum
    vanishes outside (2^(band_index-1), 2^(band_index+1)).

    Raises
    ------
    BandAboveNyquistError
        If the band lies entirely above the grid's Nyquist frequency.
    """
    lower_edge = 2.0 ** (band_index - 1)
    if lower_edge >= f.nyquist:
        raise BandAboveNyquistError(
            f"band [{lower_edge:g}, {4 * lower_edge:g}] is above the Nyquist "
            f"frequency {f.nyquist:g}"
        )
    mask = window_w(np.abs(f.frequencies()) / 2.0**band_index)
    return GridFunction(f.half_width, np.fft.ifft(f._fft * mask))


def max_resolvable_band(f: GridFunction) -> int:
    """Largest band index whose full band fits below the Nyquist frequency."""
    return int(math.floor(math.log2(f.nyquist))) - 1


def smooth_cutoff(t):
    """Even C-infinity plateau: exactly 1 on [-1, 1], exactly 0 outside (-2, 2)."""
    a = np.abs(np.asarray(t, dtype=float))
    inner = _smooth_step(2.0 - a)
    outer = _smooth_step(a - 1.0)
    return inner / (inner + outer)


def psi_reference() -> Callable:
    """The reference cutoff function: psi(t) = t on [-1, 1], smooth, zero
    outside [-2, 2]."""

    def psi(t):
        arr = np.asarray(t, dtype=float)
        return arr * smooth_cutoff(arr)

    return psi


@lru_cache(maxsize=8)
def psi_reference_grid(
    half_width: float = DEFAULT_HALF_WIDTH, log2_size: int = DEFAULT_LOG2_SAMPLES
) -> GridFunction:
    """The reference cutoff sampled on the standard periodized grid."""
    return GridFunction.from_function(psi_reference(), half_width, log2_size)


def psi_band_majorant(psi: GridFunction) -> float:
    """sup|psi_flat| + sum over n >= 0 of 2^n sup|psi_n|.

    psi_n are the dyadic band components up to the largest resolvable band
    and psi_flat is the low-frequency remainder psi - sum(psi_n).  Each sup
    is a maximum over the grid points, a lower estimate of the true sup, so
    refining the grid can raise the value.  The sups are computed once per
    grid and cached on ``psi``, like its spectrum, so repeated calls with
    the same grid do no band work.

    Raises
    ------
    BandAboveNyquistError
        If the grid is too coarse to resolve any nonnegative band.
    """
    flat, sups = psi._band_sups
    return flat + sum((2.0**n) * sup for n, sup in enumerate(sups))


def tensor_bound_kappa(phi_sup: float, psi: GridFunction) -> float:
    """The smoothness surrogate of (x,y,z) -> phi(x,y) psi(z).

    Returns phi_sup * psi_band_majorant(psi), that is
    phi_sup * (sup|psi_flat| + sum 2^n sup|psi_n|); homogeneous of degree
    one in ``phi_sup``.  Only a ``phi_sup`` can be proved, as the value 1
    is for the growth-family symbols; the psi factor is a grid estimate, so
    the product is not a certified upper bound.  The psi factor is cached
    per grid.
    """
    if phi_sup < 0:
        raise ValueError("phi_sup must be nonnegative")
    return phi_sup * psi_band_majorant(psi)
