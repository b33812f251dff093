"""Property test: the Bloom filter sets exactly the textbook bits.

The filter steps its probes in ints reduced modulo the bit count; the
reference here is the double-hashing formula written out, probe i at
``(h1 + i*h2) % m`` on the full 64-bit hashes.  Both must produce the
same bitmap, the same sizing, and the same membership answers, so the
bloom bytes every SSTable persists do not move.
"""

import hashlib
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.kvstores.lsm.bloom import BloomFilter  # noqa: E402

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def reference_bloom(keys, bits_per_key):
    """``(num_bits, num_hashes, bitmap)`` by the textbook formula."""
    num_bits = max(64, max(1, len(keys)) * max(0, bits_per_key))
    if bits_per_key <= 0:
        num_hashes = 0
    else:
        num_hashes = max(1, min(30, round(bits_per_key * math.log(2))))
    bits = bytearray((num_bits + 7) // 8)
    for key in keys:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(num_hashes):
            bit = (h1 + i * h2) % num_bits
            bits[bit >> 3] |= 1 << (bit & 7)
    return num_bits, num_hashes, bytes(bits)


def reference_may_contain(num_bits, num_hashes, bits, key):
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    for i in range(num_hashes):
        bit = (h1 + i * h2) % num_bits
        if not bits[bit >> 3] & (1 << (bit & 7)):
            return False
    return True


@SETTINGS
@given(
    num_keys=st.integers(min_value=1, max_value=2000),
    bits_per_key=st.sampled_from([0, 1, 10, 20]),
    salt=st.binary(max_size=4),
    data=st.data(),
)
def test_bits_and_answers_match_the_formula(num_keys, bits_per_key, salt, data):
    keys = [salt + b"key-%d" % i for i in range(num_keys)]
    extra = data.draw(st.lists(st.binary(max_size=12), max_size=20))
    bloom = BloomFilter(len(keys), bits_per_key)
    if data.draw(st.booleans()):
        bloom.add_all(keys)
    else:
        for key in keys:
            bloom.add(key)
    num_bits, num_hashes, bits = reference_bloom(keys, bits_per_key)
    assert (bloom.num_bits, bloom.num_hashes) == (num_bits, num_hashes)
    assert bytes(bloom._bits) == bits
    absent = [salt + b"absent-%d" % i for i in range(200)] + extra
    for key in keys + absent:
        assert bloom.may_contain(key) is reference_may_contain(
            num_bits, num_hashes, bits, key
        )
    for key in keys:
        assert bloom.may_contain(key)
    decoded = BloomFilter.decode(bloom.encode())
    assert (decoded.num_bits, decoded.num_hashes) == (num_bits, num_hashes)
    assert bytes(decoded._bits) == bits
    assert decoded.encode() == bloom.encode()
    for key in keys + absent:
        assert decoded.may_contain(key) is bloom.may_contain(key)


@SETTINGS
@given(num_bits=st.integers(min_value=1, max_value=200), data=st.data())
def test_decoded_odd_bit_counts_probe_as_the_formula(num_bits, data):
    """A decoded filter may carry any bit count, not only the
    constructor's multiples of 64: the stepped probes still agree."""
    bitmap = data.draw(
        st.binary(min_size=(num_bits + 7) // 8, max_size=(num_bits + 7) // 8)
    )
    num_hashes = data.draw(st.integers(min_value=0, max_value=30))
    bloom = BloomFilter.decode(
        num_bits.to_bytes(8, "little") + num_hashes.to_bytes(2, "little") + bitmap
    )
    for key in data.draw(st.lists(st.binary(max_size=12), min_size=1, max_size=20)):
        assert bloom.may_contain(key) is reference_may_contain(
            num_bits, num_hashes, bitmap, key
        )
