"""Property-based round-trip tests for checksummed on-disk formats.

Exercises WAL record framing and SSTable block encode/decode with
randomized inputs (hypothesis, fixed seed via derandomize) including
cross-kind agreement, arbitrary truncation, and single-bit flips.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.kvstores.integrity import ChecksumKind  # noqa: E402
from repro.kvstores.lsm.record import (  # noqa: E402
    Record,
    RecordKind,
    WAL_HEADER_SIZE,
    decode_wal,
    frame_record,
    wal_header,
)
from repro.kvstores.lsm.sstable import build_sstable, open_sstable  # noqa: E402
from repro.kvstores.storage import MemoryStorage  # noqa: E402

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

keys = st.binary(min_size=1, max_size=40)
values = st.binary(min_size=0, max_size=120)
kinds = st.sampled_from([ChecksumKind.CRC32, ChecksumKind.CRC32C])


@st.composite
def record_lists(draw, min_size=0, max_size=30):
    pairs = draw(
        st.lists(st.tuples(keys, values), min_size=min_size, max_size=max_size)
    )
    records = []
    for seq, (key, value) in enumerate(pairs, start=1):
        kind = draw(st.sampled_from([RecordKind.PUT, RecordKind.DELETE]))
        records.append(
            Record(kind, seq, key, value if kind is RecordKind.PUT else b"")
        )
    return records


def wal_bytes(records, kind):
    return wal_header(kind) + b"".join(frame_record(r, kind) for r in records)


class TestWalProperties:
    @SETTINGS
    @given(records=record_lists(), kind=kinds)
    def test_v2_round_trip(self, records, kind):
        decoded = decode_wal(wal_bytes(records, kind))
        assert decoded.records == records
        assert decoded.version == 2
        assert not decoded.truncated

    @SETTINGS
    @given(records=record_lists(min_size=1), data=st.data())
    def test_arbitrary_truncation_yields_prefix(self, records, data):
        kind = data.draw(kinds)
        buf = wal_bytes(records, kind)
        cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
        decoded = decode_wal(buf[:cut])
        assert decoded.records == records[: len(decoded.records)]
        assert decoded.valid_bytes <= cut
        if cut < len(buf):
            assert len(decoded.records) < len(records) or decoded.truncated

    @SETTINGS
    @given(records=record_lists(min_size=1), data=st.data())
    def test_single_bit_flip_never_yields_wrong_records(self, records, data):
        kind = data.draw(kinds)
        buf = bytearray(wal_bytes(records, kind))
        # Flip a bit in the framed body (header pad bytes are not covered).
        pos = data.draw(
            st.integers(min_value=WAL_HEADER_SIZE, max_value=len(buf) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        buf[pos] ^= 1 << bit
        decoded = decode_wal(bytes(buf))  # must not raise
        assert decoded.records == records[: len(decoded.records)]
        assert len(decoded.records) < len(records)


@st.composite
def sorted_unique_records(draw):
    ks = draw(st.lists(keys, min_size=1, max_size=40, unique=True))
    return [
        Record(RecordKind.PUT, seq, key, draw(values))
        for seq, key in enumerate(sorted(ks), start=1)
    ]


class TestSSTableProperties:
    @SETTINGS
    @given(records=sorted_unique_records(), data=st.data())
    def test_round_trip_all_kinds(self, records, data):
        kind = data.draw(
            st.sampled_from(
                [ChecksumKind.NONE, ChecksumKind.CRC32, ChecksumKind.CRC32C]
            )
        )
        block_size = data.draw(st.sampled_from([64, 256, 4096]))
        storage = MemoryStorage()
        build_sstable(1, records, storage, block_size=block_size,
                      checksum_kind=kind)
        table = open_sstable(1, storage, "sst-00000001")
        assert list(table.iter_records()) == records
        for record in records:
            found = table.get_records(record.key)
            assert found and found[0].value == record.value

    @SETTINGS
    @given(records=sorted_unique_records())
    def test_v1_and_v2_agree(self, records):
        """A NONE table and a CRC32 table of the same records read back
        the same."""
        unchecked, checked = MemoryStorage(), MemoryStorage()
        build_sstable(1, records, unchecked, block_size=128,
                      checksum_kind=ChecksumKind.NONE)
        build_sstable(1, records, checked, block_size=128,
                      checksum_kind=ChecksumKind.CRC32)
        t1 = open_sstable(1, unchecked, "sst-00000001")
        t2 = open_sstable(1, checked, "sst-00000001")
        assert list(t1.iter_records()) == list(t2.iter_records())
        assert t1.verify().clean and t2.verify().clean
