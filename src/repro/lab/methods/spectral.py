"""Spectral (per-row transform) compression methods: DCT, DFT, Haar DWT.

The paper's survey (Section 2.3) treats these as the natural
signal-processing competitors: each row is transformed independently
and only the low-frequency (or coarsest) coefficients are kept, costing
``N * k * b`` bytes.  DCT is the representative the paper benchmarks,
'because it is very close to optimal when the data is correlated'; DFT
and wavelets are included for completeness since the survey names them.

All transforms are implemented from scratch (the DCT/DFT as explicit
orthonormal transform matrices, the Haar DWT as the lifting recursion);
the test suite cross-checks them against scipy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lab.methods.base import CompressionMethod, FittedModel


def dct_matrix(size: int) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix ``T`` with ``coeffs = T @ x``.

    ``T[f, t] = a_f * cos(pi * (2t + 1) * f / (2 * size))`` with
    ``a_0 = sqrt(1/size)`` and ``a_f = sqrt(2/size)`` otherwise.
    Orthonormality means synthesis is just ``T.T @ coeffs``.
    """
    if size < 1:
        raise ConfigurationError(f"size must be >= 1, got {size}")
    t = np.arange(size)
    f = np.arange(size)[:, None]
    mat = np.cos(np.pi * (2 * t + 1) * f / (2.0 * size))
    mat[0] *= np.sqrt(1.0 / size)
    mat[1:] *= np.sqrt(2.0 / size)
    return mat


def haar_transform(row: np.ndarray) -> np.ndarray:
    """Full orthonormal Haar DWT of a power-of-two-length vector.

    Output ordering is the standard multiresolution one: the single
    coarsest average first, then detail coefficients from coarsest to
    finest scale — so truncating to a prefix keeps the coarsest view.
    """
    data = np.asarray(row, dtype=np.float64).copy()
    size = data.shape[0]
    if size & (size - 1):
        raise ConfigurationError(f"Haar transform needs a power-of-two length, got {size}")
    out = np.empty_like(data)
    current = data
    write_end = size
    while current.shape[0] > 1:
        half = current.shape[0] // 2
        even = current[0::2]
        odd = current[1::2]
        averages = (even + odd) / np.sqrt(2.0)
        details = (even - odd) / np.sqrt(2.0)
        out[write_end - half : write_end] = details
        current = averages
        write_end -= half
    out[0] = current[0]
    return out


def haar_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`haar_transform`."""
    data = np.asarray(coeffs, dtype=np.float64)
    size = data.shape[0]
    if size & (size - 1):
        raise ConfigurationError(f"Haar inverse needs a power-of-two length, got {size}")
    current = data[:1].copy()
    read_start = 1
    while current.shape[0] < size:
        half = current.shape[0]
        details = data[read_start : read_start + half]
        expanded = np.empty(half * 2)
        expanded[0::2] = (current + details) / np.sqrt(2.0)
        expanded[1::2] = (current - details) / np.sqrt(2.0)
        current = expanded
        read_start += half
    return current


class _PrefixTransformModel(FittedModel):
    """Shared model for prefix-truncated orthonormal row transforms."""

    def __init__(
        self,
        coefficients: np.ndarray,
        num_cols: int,
        values_per_row: int,
        synthesize,
    ) -> None:
        super().__init__(coefficients.shape[0], num_cols)
        self._coefficients = coefficients
        self._values_per_row = values_per_row
        self._synthesize = synthesize

    @property
    def coefficients_per_row(self) -> int:
        """Stored numbers per row (the method's 'k')."""
        return self._values_per_row

    def reconstruct_row(self, row: int) -> np.ndarray:
        self._check_cell(row, 0)
        return self._synthesize(self._coefficients[row])

    def reconstruct(self) -> np.ndarray:
        return np.vstack(
            [self._synthesize(self._coefficients[i]) for i in range(self._num_rows)]
        )

    def space_bytes(self) -> int:
        from repro.core.space import BYTES_PER_VALUE

        return self._num_rows * self._values_per_row * BYTES_PER_VALUE


class DCTMethod(CompressionMethod):
    """Per-row DCT-II keeping the ``k`` lowest-frequency coefficients.

    Space: ``N * k * b`` — the paper's accounting for DCT in
    Section 5.1.  ``k = floor(s * M)`` for budget fraction ``s``.
    """

    name = "dct"

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> FittedModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        k = max(1, int(budget_fraction * num_cols))
        k = min(k, num_cols)
        transform = dct_matrix(num_cols)
        analysis = transform[:k]  # low frequencies only
        coeffs = arr @ analysis.T
        synthesis = analysis.T

        def synthesize(row_coeffs: np.ndarray) -> np.ndarray:
            return synthesis @ row_coeffs

        return _PrefixTransformModel(coeffs, num_cols, k, synthesize)


class DFTMethod(CompressionMethod):
    """Per-row real DFT keeping the lowest frequencies.

    Each retained complex coefficient costs two stored numbers (real and
    imaginary part), except the purely real DC term; the budget is
    charged accordingly.
    """

    name = "dft"

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> FittedModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        number_budget = max(1, int(budget_fraction * num_cols))
        max_freqs = num_cols // 2 + 1

        def cost(freqs: int) -> int:
            # DC is real (1 number), middle frequencies are complex (2),
            # and for even-length rows the Nyquist term is real again.
            numbers = 1 + 2 * (freqs - 1)
            if num_cols % 2 == 0 and freqs == max_freqs:
                numbers -= 1
            return numbers

        num_freqs = 1
        while num_freqs < max_freqs and cost(num_freqs + 1) <= number_budget:
            num_freqs += 1
        stored_numbers = cost(num_freqs)
        spectrum = np.fft.rfft(arr, axis=1)[:, :num_freqs]

        def synthesize(row_coeffs: np.ndarray) -> np.ndarray:
            padded = np.zeros(max_freqs, dtype=np.complex128)
            padded[:num_freqs] = row_coeffs
            return np.fft.irfft(padded, n=num_cols)

        return _PrefixTransformModel(spectrum, num_cols, stored_numbers, synthesize)


class HaarWaveletMethod(CompressionMethod):
    """Per-row Haar DWT keeping the ``k`` coarsest coefficients.

    Rows are zero-padded to the next power of two for the transform;
    the padding is dropped on synthesis.  Space: ``N * k * b``.
    """

    name = "dwt"

    def fit(self, matrix: np.ndarray, budget_fraction: float) -> FittedModel:
        arr = self._validate(matrix, budget_fraction)
        num_rows, num_cols = arr.shape
        padded_len = 1
        while padded_len < num_cols:
            padded_len *= 2
        k = max(1, int(budget_fraction * num_cols))
        k = min(k, padded_len)
        padded = np.zeros((num_rows, padded_len))
        padded[:, :num_cols] = arr
        coeffs = np.vstack([haar_transform(padded[i])[:k] for i in range(num_rows)])

        def synthesize(row_coeffs: np.ndarray) -> np.ndarray:
            full = np.zeros(padded_len)
            full[:k] = row_coeffs
            return haar_inverse(full)[:num_cols]

        return _PrefixTransformModel(coeffs, num_cols, k, synthesize)
