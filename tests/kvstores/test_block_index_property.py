"""Property tests: the block key index answers exactly as a full decode.

``ParsedBlock`` indexes a block's keys and decodes records on demand;
the reference here decodes every record of the block and bisects the
result.  Both must agree on every probe key, present or absent, and
on whether damaged bytes are readable at all.
"""

import bisect
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.kvstores.cache import LRUCache  # noqa: E402
from repro.kvstores.integrity import ChecksumKind, CorruptionError  # noqa: E402
from repro.kvstores.lsm.record import Record, RecordKind, decode_all  # noqa: E402
from repro.kvstores.lsm.sstable import ParsedBlock, build_sstable  # noqa: E402
from repro.kvstores.storage import MemoryStorage  # noqa: E402

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)

keys = st.binary(min_size=1, max_size=12)


@st.composite
def sorted_records(draw):
    """Sorted (key, sequence) records: stacks of up to four versions per
    key, all three kinds, empty values allowed."""
    records = []
    seq = 0
    for key in sorted(draw(st.lists(keys, min_size=1, max_size=20, unique=True))):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            seq += 1
            kind = draw(st.sampled_from(list(RecordKind)))
            value = b"" if kind is RecordKind.DELETE else draw(st.binary(max_size=40))
            records.append(Record(kind, seq, key, value))
    return records


def encode(records):
    return b"".join(r.encode() for r in records)


def reference_records_for(raw, key):
    records = list(decode_all(raw))
    stored = [r.key for r in records]
    return records[bisect.bisect_left(stored, key) : bisect.bisect_right(stored, key)]


def reference_raises(raw):
    try:
        list(decode_all(raw))
    except (struct.error, ValueError):
        return True
    return False


def probe_keys(records, extra=()):
    """Every stored key, plus absent keys before, between and after them."""
    stored = sorted({r.key for r in records})
    probes = set(stored) | set(extra) | {b"", stored[-1] + b"\xff"}
    for key in stored:
        probes.add(key + b"\x00")  # just after key, before its successor
        probes.add(key[:-1])  # a prefix sorts before key
    return sorted(probes)


def damage(raw, data, truncate):
    raw = bytearray(raw)
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    if truncate:
        del raw[pos:]
    else:
        raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    return bytes(raw)


class TestParsedBlock:
    @SETTINGS
    @given(records=sorted_records(), extra=st.lists(keys, max_size=5))
    def test_records_for_matches_full_decode(self, records, extra):
        raw = encode(records)
        block = ParsedBlock(raw)
        assert block.size_bytes == len(raw)
        for key in probe_keys(records, extra):
            assert block.records_for(key) == reference_records_for(raw, key)

    @SETTINGS
    @given(records=sorted_records(), truncate=st.booleans(), data=st.data())
    def test_damage_raises_exactly_when_full_decode_raises(
        self, records, truncate, data
    ):
        raw = damage(encode(records), data, truncate)
        if reference_raises(raw):
            with pytest.raises(CorruptionError, match="undecodable block"):
                ParsedBlock(raw, "blk", 0)
            return
        block = ParsedBlock(raw, "blk", 0)
        stored = [r.key for r in decode_all(raw)]
        assert block.keys == stored
        if stored == sorted(stored):
            for key in probe_keys(records, stored):
                assert block.records_for(key) == reference_records_for(raw, key)


class TestSSTableReads:
    @SETTINGS
    @given(
        records=sorted_records(),
        # 32 B holds less than two records, so every stack of two or
        # more versions straddles a block boundary.
        block_size=st.sampled_from([32, 64, 256]),
        extra=st.lists(keys, max_size=5),
    )
    def test_get_records_matches_full_decode(self, records, block_size, extra):
        storage = MemoryStorage()
        table = build_sstable(1, records, storage, block_size=block_size)
        data = storage.read(table.blob_name)[: table.data_size]
        cache = LRUCache(1 << 20, sizer=lambda blk: blk.size_bytes)
        for key in probe_keys(records, extra):
            expected = reference_records_for(data, key)
            assert table.get_records(key) == expected
            assert table.get_records(key, cache) == expected  # miss or hit
            assert table.get_records(key, cache) == expected  # hit

    @SETTINGS
    @given(records=sorted_records(), data=st.data())
    def test_unchecksummed_flip_raises_exactly_when_full_decode_raises(
        self, records, data
    ):
        storage = MemoryStorage()
        table = build_sstable(
            1, records, storage, block_size=1 << 16, checksum_kind=ChecksumKind.NONE
        )
        blob = storage.read(table.blob_name)
        data_size = table.data_size
        block = damage(blob[:data_size], data, truncate=False)
        storage.write(table.blob_name, block + blob[data_size:])
        if reference_raises(block):
            for key in {r.key for r in records}:
                with pytest.raises(CorruptionError, match="undecodable block"):
                    table.get_records(key)
            return
        stored = [r.key for r in decode_all(block)]
        if stored == sorted(stored):
            for key in {r.key for r in records}:
                assert table.get_records(key) == reference_records_for(block, key)
