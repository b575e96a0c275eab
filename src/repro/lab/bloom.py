"""Bloom filters.

The paper suggests (Section 4.2) placing a main-memory Bloom filter in
front of the outlier hash table so that the majority of cells — which
are not outliers — can skip the hash-table probe entirely, and
(Section 6.2) flagging all-zero customers the same way.

The implementation is from scratch: a fixed bit array with ``k``
independent hash functions derived by double hashing from two base
hashes of the key.  Keys are non-negative integers (the paper keys
outliers by ``row * M + column``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(key: int, salt: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``key``, salted."""
    h = (_FNV_OFFSET ^ salt) & _MASK64
    for _ in range(8):
        h ^= key & 0xFF
        h = (h * _FNV_PRIME) & _MASK64
        key >>= 8
    return h


def optimal_parameters(expected_items: int, false_positive_rate: float) -> tuple[int, int]:
    """Return ``(num_bits, num_hashes)`` minimizing space for the target FPR.

    Standard Bloom sizing: ``m = -n ln p / (ln 2)^2`` and
    ``k = (m/n) ln 2``.
    """
    if expected_items < 1:
        raise ConfigurationError(
            f"expected_items must be >= 1, got {expected_items}"
        )
    if not 0.0 < false_positive_rate < 1.0:
        raise ConfigurationError(
            f"false_positive_rate must be in (0, 1), got {false_positive_rate}"
        )
    ln2 = math.log(2.0)
    num_bits = max(8, int(math.ceil(-expected_items * math.log(false_positive_rate) / (ln2 * ln2))))
    num_hashes = max(1, int(round(num_bits / expected_items * ln2)))
    return num_bits, num_hashes


class BloomFilter:
    """Space-efficient probabilistic set membership over integer keys.

    ``key in filter`` may return a false positive but never a false
    negative, which is exactly the guarantee the delta-store front needs:
    a 'no' answer lets reconstruction skip the hash-table probe safely.

    Args:
        expected_items: number of keys the filter is sized for.
        false_positive_rate: target false-positive probability at that load.
    """

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01) -> None:
        num_bits, num_hashes = optimal_parameters(expected_items, false_positive_rate)
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._fpr = false_positive_rate
        self._bits = np.zeros((num_bits + 7) // 8, dtype=np.uint8)
        self._count = 0

    @property
    def num_bits(self) -> int:
        """Size of the underlying bit array."""
        return self._num_bits

    @property
    def false_positive_rate(self) -> float:
        """The target FPR the filter was sized for (persisted with models)."""
        return self._fpr

    @property
    def num_hashes(self) -> int:
        """Number of hash functions applied per key."""
        return self._num_hashes

    def __len__(self) -> int:
        """Number of keys added (including duplicates)."""
        return self._count

    def _positions(self, key: int):
        if key < 0:
            raise ConfigurationError(f"keys must be non-negative, got {key}")
        h1 = _fnv1a(key, 0x9E3779B97F4A7C15)
        h2 = _fnv1a(key, 0x6A09E667F3BCC909) | 1  # odd => full-period stride
        for i in range(self._num_hashes):
            yield ((h1 + i * h2) & _MASK64) % self._num_bits

    def add(self, key: int) -> None:
        """Insert ``key`` into the filter."""
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._count += 1

    def __contains__(self, key: int) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key))

    def update(self, keys) -> None:
        """Insert every key from an iterable."""
        for key in keys:
            self.add(key)

    def size_bytes(self) -> int:
        """Main-memory footprint of the bit array."""
        return int(self._bits.nbytes)

    def estimated_false_positive_rate(self) -> float:
        """Expected FPR at the current load: ``(1 - e^{-kn/m})^k``."""
        if self._count == 0:
            return 0.0
        exponent = -self._num_hashes * self._count / self._num_bits
        return float((1.0 - math.exp(exponent)) ** self._num_hashes)


class CountingBloomFilter(BloomFilter):
    """Bloom filter with per-position counters, supporting removal.

    Used by the batched-rebuild path: when an off-line update turns an
    outlier cell into a well-approximated one, its key can be removed
    without rebuilding the whole filter.
    """

    #: Counter ceiling; a counter that ever reaches it is pinned forever.
    _SATURATED = int(np.iinfo(np.uint16).max)

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01) -> None:
        super().__init__(expected_items, false_positive_rate)
        self._counters = np.zeros(self._num_bits, dtype=np.uint16)

    def add(self, key: int) -> None:
        for pos in self._positions(key):
            if self._counters[pos] < self._SATURATED:
                self._counters[pos] += 1
        self._count += 1

    def __contains__(self, key: int) -> bool:
        return all(self._counters[pos] > 0 for pos in self._positions(key))

    def remove(self, key: int) -> bool:
        """Remove one insertion of ``key``; returns False if absent.

        Removing a key that was never added is detected (probabilistically,
        like membership) and leaves the filter unchanged.

        A counter that ever hit the ``uint16`` ceiling is *pinned*: once
        ``add`` refuses to increment past saturation the true count is
        unknown, so decrementing could drive it to zero while keys still
        hash there — a false negative, the one failure mode a Bloom
        filter must never exhibit.  Pinned counters trade that for a
        slightly higher false-positive rate, which is safe.
        """
        positions = list(self._positions(key))
        if not all(self._counters[pos] > 0 for pos in positions):
            return False
        for pos in positions:
            if self._counters[pos] < self._SATURATED:
                self._counters[pos] -= 1
        self._count = max(0, self._count - 1)
        return True

    def size_bytes(self) -> int:
        return int(self._counters.nbytes)
