"""Blocked-free simple Bloom filter for SSTable key membership tests."""

from __future__ import annotations

import math
from hashlib import blake2b
from typing import Iterable

from ..integrity import CorruptionError

_MASK64 = (1 << 64) - 1


class BloomFilter:
    """Classic Bloom filter with double hashing.

    Sized for a target bits-per-key budget (RocksDB defaults to 10,
    ~1% false-positive rate).  Serializable so SSTables can persist it.
    """

    def __init__(self, num_keys: int, bits_per_key: int = 10) -> None:
        num_keys = max(1, num_keys)
        self.num_bits = max(64, num_keys * max(0, bits_per_key))
        # bits_per_key <= 0 disables the filter: zero hash probes means
        # may_contain() always answers True (used by ablation studies).
        if bits_per_key <= 0:
            self.num_hashes = 0
        else:
            self.num_hashes = max(1, min(30, round(bits_per_key * math.log(2))))
        self._bits = bytearray((self.num_bits + 7) // 8)

    # Probe i sets bit (h1 + i*h2) mod m = (a + i*b) mod m, a = h1 mod m,
    # b = h2 mod m (h1, h2: the digest's low and high 64 bits, little
    # endian); add_all sets them all in one numpy pass.

    def add(self, key: bytes) -> None:
        self.add_all((key,))

    def add_all(self, keys: Iterable[bytes]) -> None:
        if not self.num_hashes:
            return
        import numpy as np  # here, so that importing repro loads no numpy

        digests = b"".join([blake2b(key, digest_size=16).digest() for key in keys])
        m = np.uint64(self.num_bits)
        h = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
        a = h[:, 0] % m
        b = (h[:, 1] | np.uint64(1)) % m
        probes = np.arange(self.num_hashes, dtype=np.uint64)
        positions = (a[:, None] + b[:, None] * probes) % m
        bitmap = np.zeros(len(self._bits) * 8, dtype=bool)
        bitmap[positions.ravel()] = True
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        bits |= np.packbits(bitmap, bitorder="little")

    def may_contain(self, key: bytes) -> bool:
        m = self.num_bits
        h = int.from_bytes(blake2b(key, digest_size=16).digest(), "little")
        bit = (h & _MASK64) % m
        step = ((h >> 64) | 1) % m
        bits = self._bits
        for _ in range(self.num_hashes):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            bit += step
            if bit >= m:
                bit -= m
        return True

    # -- serialization ----------------------------------------------------

    def encode(self) -> bytes:
        header = self.num_bits.to_bytes(8, "little") + self.num_hashes.to_bytes(
            2, "little"
        )
        return header + bytes(self._bits)

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        """Decode a filter, validating structural consistency.

        A truncated or bit-flipped bloom that slipped past block
        checksums must not silently decode into a filter that answers
        wrongly (a false *negative* loses data); any header/bitmap
        mismatch raises :class:`CorruptionError` so the caller can
        quarantine the table.
        """
        if len(data) < 10:
            raise CorruptionError(
                "bloom", 0, f"truncated bloom header: {len(data)} bytes < 10"
            )
        num_bits = int.from_bytes(data[:8], "little")
        num_hashes = int.from_bytes(data[8:10], "little")
        bitmap = data[10:]
        if num_bits < 1:
            raise CorruptionError("bloom", 0, f"invalid num_bits {num_bits}")
        if num_hashes > 30:
            # Construction caps at 30 probes; anything above is damage.
            raise CorruptionError("bloom", 8, f"invalid num_hashes {num_hashes}")
        expected = (num_bits + 7) // 8
        if len(bitmap) != expected:
            raise CorruptionError(
                "bloom",
                10,
                f"bitmap length {len(bitmap)} != {expected} for {num_bits} bits",
            )
        bloom = cls.__new__(cls)
        bloom.num_bits = num_bits
        bloom.num_hashes = num_hashes
        bloom._bits = bytearray(bitmap)
        return bloom

    @property
    def size_bytes(self) -> int:
        return len(self._bits) + 10
