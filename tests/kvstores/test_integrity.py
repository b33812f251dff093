"""Storage-integrity subsystem: checksums, corruption detection, scrub."""

import struct
import warnings

import pytest

from repro.kvstores import InMemoryStore, connect
from repro.kvstores.btree.node import (
    InternalNode,
    LeafNode,
    PAGE_MAGIC,
    decode_page,
    encode_page,
)
from repro.kvstores.btree.pagecache import PageCache
from repro.kvstores.btree.store import BTreeConfig, BTreeStore
from repro.kvstores.faster.hybridlog import (
    LogRecord,
    SEGMENT_MAGIC,
    decode_segment_record,
    frame_log_record,
    segment_checksum_kind,
    segment_header,
)
from repro.kvstores.faster.store import FasterConfig, FasterStore
from repro.kvstores.integrity import (
    DEFAULT_CHECKSUM_KIND,
    ChecksumKind,
    CorruptionError,
    IntegrityCounters,
    ScrubFinding,
    ScrubReport,
    checksum,
    crc32c,
    resolve_checksum_kind,
    _crc32c_py,
)
from repro.kvstores.lsm.record import (
    HEADER_SIZE,
    Record,
    RecordKind,
    WAL_HEADER_SIZE,
    WAL_MAGIC,
    decode_wal,
    frame_record,
    wal_header,
)
from repro.kvstores.lsm.sstable import build_sstable, open_sstable
from repro.kvstores.lsm.store import LSMConfig, RocksLSMStore
from repro.kvstores.storage import MemoryStorage

TINY_LSM = LSMConfig(
    write_buffer_size=2048,
    block_size=512,
    block_cache_size=8192,
    level_base_bytes=16384,
    target_file_size=8192,
    max_levels=4,
)


def _records(count, prefix=b"k", start_seq=1):
    return [
        Record(RecordKind.PUT, start_seq + i, b"%s%05d" % (prefix, i), b"v%d" % i)
        for i in range(count)
    ]


class TestChecksumPrimitives:
    def test_crc32c_check_vector(self):
        # The CRC-32C (Castagnoli) check value from the CRC catalogue.
        assert _crc32c_py(b"123456789") == 0xE3069283
        assert crc32c(b"123456789") == 0xE3069283

    def test_crc32c_empty_and_deterministic(self):
        assert _crc32c_py(b"") == 0
        assert _crc32c_py(b"hello world") == _crc32c_py(b"hello world")
        assert _crc32c_py(b"hello world") != _crc32c_py(b"hello worle")

    def test_checksum_dispatch(self):
        data = b"some block bytes"
        assert checksum(data, ChecksumKind.NONE) == 0
        assert checksum(data, ChecksumKind.CRC32C) == crc32c(data)
        import zlib

        assert checksum(data, ChecksumKind.CRC32) == zlib.crc32(data) & 0xFFFFFFFF

    def test_checksum_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown checksum kind"):
            checksum(b"x", 99)

    def test_resolve_names(self):
        assert resolve_checksum_kind(None) is DEFAULT_CHECKSUM_KIND
        assert resolve_checksum_kind("default") is DEFAULT_CHECKSUM_KIND
        assert resolve_checksum_kind("none") is ChecksumKind.NONE
        assert resolve_checksum_kind("crc32") is ChecksumKind.CRC32
        assert resolve_checksum_kind("CRC32C") is ChecksumKind.CRC32C
        with pytest.raises(ValueError, match="unknown checksum"):
            resolve_checksum_kind("md5")

    def test_scrub_report_accounting(self):
        report = ScrubReport()
        report.add(ScrubFinding("a", 0, "bad", repaired=True))
        report.add(ScrubFinding("b", 4, "worse"))
        assert report.corruptions_detected == 2
        assert report.corruptions_repaired == 1
        assert report.unrecoverable == 1
        assert not report.clean
        counters = IntegrityCounters()
        counters.absorb(report)
        assert (counters.detected, counters.repaired) == (2, 1)

    def test_scrub_report_merge(self):
        left, right = ScrubReport(structures_checked=3), ScrubReport(structures_checked=2)
        right.add(ScrubFinding("x", 1, "flip"))
        left.merge(right)
        assert left.structures_checked == 5
        assert left.corruptions_detected == 1


class TestWalFraming:
    @pytest.mark.parametrize("kind", [ChecksumKind.CRC32, ChecksumKind.CRC32C])
    def test_v2_round_trip(self, kind):
        records = _records(20)
        buf = wal_header(kind) + b"".join(frame_record(r, kind) for r in records)
        assert buf[:4] == WAL_MAGIC
        decoded = decode_wal(buf)
        assert decoded.records == records
        assert decoded.version == 2
        assert not decoded.truncated
        assert decoded.valid_bytes == len(buf)

    def test_v2_torn_tail_truncates_at_frame_boundary(self):
        kind = ChecksumKind.CRC32
        records = _records(10)
        frames = [frame_record(r, kind) for r in records]
        buf = wal_header(kind) + b"".join(frames)
        cut = len(buf) - len(frames[-1]) // 2  # tear the last record
        decoded = decode_wal(buf[:cut])
        assert decoded.truncated
        assert decoded.records == records[:-1]
        assert decoded.valid_bytes == len(buf) - len(frames[-1])

    def test_v2_bit_flip_detected(self):
        kind = ChecksumKind.CRC32
        records = _records(10)
        buf = bytearray(wal_header(kind) + b"".join(frame_record(r, kind) for r in records))
        # Flip one payload bit in the 4th frame.
        frame_len = len(frame_record(records[0], kind))
        buf[WAL_HEADER_SIZE + 3 * frame_len + 10] ^= 0x01
        decoded = decode_wal(bytes(buf))
        assert decoded.truncated
        assert decoded.records == records[:3]
        assert "checksum mismatch" in decoded.corruption

    @pytest.mark.parametrize("cut", range(WAL_HEADER_SIZE))
    def test_torn_header_is_truncated_not_raised(self, cut):
        decoded = decode_wal(wal_header(ChecksumKind.CRC32)[:cut])
        assert decoded.truncated and "torn WAL header" in decoded.corruption
        assert decoded.records == [] and decoded.valid_bytes == 0
        assert decoded.repaired(b"", ChecksumKind.CRC32) == wal_header(
            ChecksumKind.CRC32
        )

    def test_headerless_records_are_not_a_wal(self):
        buf = b"".join(r.encode() for r in _records(15))
        decoded = decode_wal(buf)
        assert decoded.truncated and "bad WAL header" in decoded.corruption
        assert decoded.records == [] and decoded.valid_bytes == 0

    def test_header_only_wal_is_clean(self):
        decoded = decode_wal(wal_header(ChecksumKind.CRC32))
        assert decoded.records == []
        assert not decoded.truncated


class TestSSTableChecksums:
    @pytest.mark.parametrize(
        "kind", [ChecksumKind.NONE, ChecksumKind.CRC32, ChecksumKind.CRC32C]
    )
    def test_round_trip_all_kinds(self, kind):
        storage = MemoryStorage()
        records = _records(200)
        build_sstable(1, records, storage, block_size=256, checksum_kind=kind)
        table = open_sstable(1, storage, "sst-00000001")
        assert list(table.iter_records()) == records
        assert table.get_records(b"k00042")[0].value == b"v42"
        report = table.verify()
        assert report.clean and report.structures_checked > 1

    def test_none_kind_writes_gst2_with_kind_zero(self):
        storage = MemoryStorage()
        build_sstable(1, _records(50), storage, checksum_kind=ChecksumKind.NONE)
        raw = storage.read("sst-00000001")
        assert raw[-4:] == b"GST2"
        # Footer tail: bloom CRC, index CRC, kind byte, pad, magic.
        assert raw[-16:-4] == bytes(12)
        assert len(list(open_sstable(1, storage, "sst-00000001").iter_records())) == 50

    @pytest.mark.parametrize(
        "kind", [DEFAULT_CHECKSUM_KIND, ChecksumKind.NONE], ids=["default", "none"]
    )
    def test_every_strict_prefix_raises_corruption_error(self, kind):
        storage = MemoryStorage()
        build_sstable(1, _records(300), storage, checksum_kind=kind)
        raw = storage.read("sst-00000001")
        for cut in range(len(raw)):
            storage.write("sst-00000001", raw[:cut])
            with pytest.raises(CorruptionError):
                open_sstable(1, storage, "sst-00000001")

    def test_footer_without_magic_is_rejected(self):
        # A table laid out with a bare 32-byte offsets footer and
        # CRC-less index entries, as tables without the magic were.
        data = b"".join(r.encode() for r in _records(10))
        index = struct.pack("<IQI", 6, 0, len(data)) + b"k00000"
        footer = struct.pack("<QQQQ", len(data), 0, len(data), len(index))
        storage = MemoryStorage()
        storage.write("sst-00000001", data + index + footer)
        with pytest.raises(CorruptionError, match="no footer magic"):
            open_sstable(1, storage, "sst-00000001")

    def test_checksummed_blob_carries_magic(self):
        storage = MemoryStorage()
        build_sstable(1, _records(50), storage, checksum_kind=ChecksumKind.CRC32)
        assert storage.read("sst-00000001")[-4:] == b"GST2"

    def test_bit_flip_raises_corruption_error(self):
        storage = MemoryStorage()
        build_sstable(1, _records(200), storage, block_size=256,
                      checksum_kind=ChecksumKind.CRC32)
        raw = bytearray(storage.read("sst-00000001"))
        raw[len(raw) // 3] ^= 0x10  # inside a data block
        storage.write("sst-00000001", bytes(raw))
        with pytest.raises(CorruptionError, match="sst-00000001"):
            list(open_sstable(1, storage, "sst-00000001").iter_records())

    def test_verify_locates_damage_without_raising(self):
        storage = MemoryStorage()
        build_sstable(1, _records(200), storage, block_size=256,
                      checksum_kind=ChecksumKind.CRC32)
        table = open_sstable(1, storage, "sst-00000001")
        raw = bytearray(storage.read("sst-00000001"))
        raw[len(raw) // 3] ^= 0x10
        storage.write("sst-00000001", bytes(raw))
        report = table.verify()
        assert report.corruptions_detected >= 1
        assert all(f.blob == "sst-00000001" for f in report.findings)

    def test_empty_blob_raises_corruption_error(self):
        storage = MemoryStorage()
        storage.write("sst-00000007", b"")
        with pytest.raises(CorruptionError, match="no footer"):
            open_sstable(7, storage, "sst-00000007")


class TestLSMCorruptionHandling:
    def _flushed_store(self, storage, checksum="default"):
        import dataclasses

        config = dataclasses.replace(TINY_LSM, checksum=checksum)
        store = RocksLSMStore(config, storage=storage)
        for i in range(400):
            store.put(b"key-%04d" % (i % 120), b"x" * 32 + b"%d" % i)
        store.flush()
        return store

    def test_read_raises_then_quarantines(self):
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        tables = [t for level in store._levels for t in level]
        assert tables, "expected flushed sstables"
        victim = tables[0]
        raw = bytearray(storage.read(victim.blob_name))
        raw[len(raw) // 2] ^= 0x20
        storage.write(victim.blob_name, bytes(raw))
        # Force reads through the damaged table until one hits the bad block.
        hit = False
        for i in range(120):
            try:
                store.get(b"key-%04d" % i)
            except CorruptionError:
                hit = True
                break
        if hit:
            assert victim in store.quarantined
            assert store.integrity.detected >= 1
            # Subsequent reads never return garbage; the table is gone.
            for i in range(120):
                store.get(b"key-%04d" % i)

    def test_scrub_detects_and_quarantines(self):
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        victim = next(t for level in store._levels for t in level)
        raw = bytearray(storage.read(victim.blob_name))
        raw[len(raw) // 2] ^= 0x20
        storage.write(victim.blob_name, bytes(raw))
        report = store.scrub()
        assert report.corruptions_detected == 1
        assert report.findings[0].blob == victim.blob_name
        assert victim in store.quarantined
        assert store.integrity.detected == 1
        # After quarantine the tree is clean again.
        assert store.scrub().clean

    def test_scrub_repairs_torn_wal(self):
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        store.put(b"tail-key", b"tail-value")  # unflushed WAL tail
        buf = storage.read("wal-current")
        storage.write("wal-current", buf[:-3])
        report = store.scrub()
        assert report.corruptions_detected == 1
        assert report.corruptions_repaired == 1
        assert report.findings[0].repaired
        # The WAL is now the intact prefix; a re-scrub is clean.
        assert store.scrub().clean

    def test_recovery_skips_zero_length_sstable(self):
        # Regression: a crash between blob creation and its first write
        # leaves a zero-length SSTable; recovery must skip it with a
        # warning rather than die in struct.unpack.
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        victim = next(t for level in store._levels for t in level)
        survivors = {
            t.blob_name for level in store._levels for t in level
        } - {victim.blob_name}
        del store
        storage.write(victim.blob_name, b"")
        revived = RocksLSMStore(TINY_LSM, storage=storage)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            revived.recover()
        assert any("skipping unreadable sstable" in str(w.message) for w in caught)
        assert revived.integrity.detected >= 1
        recovered = {t.blob_name for level in revived._levels for t in level}
        assert recovered == survivors

    def test_recovery_truncates_torn_wal_to_exact_prefix(self):
        storage = MemoryStorage()
        config = LSMConfig(checksum="crc32")
        store = RocksLSMStore(config, storage=storage)
        for i in range(50):
            store.put(b"key-%02d" % i, b"value-%02d" % i)
        del store  # crash: nothing flushed, WAL holds all 50
        buf = storage.read("wal-current")
        storage.write("wal-current", buf[:-5])  # tear mid-record
        revived = RocksLSMStore(config, storage=storage)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            replayed = revived.recover()
        assert replayed == 49
        assert revived.integrity.detected == 1
        assert revived.integrity.repaired == 1
        assert revived.get(b"key-48") == b"value-48"
        assert revived.get(b"key-49") is None

    def test_recovery_skips_sstable_torn_short_of_its_footer(self):
        # A table that lost its last 16 bytes still ends in 32 bytes of
        # footer; it must be skipped as unreadable, never opened.
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        victim = next(t for level in store._levels for t in level)
        del store
        storage.write(victim.blob_name, storage.read(victim.blob_name)[:-16])
        revived = RocksLSMStore(TINY_LSM, storage=storage)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            revived.recover()
        assert any("skipping unreadable sstable" in str(w.message) for w in caught)
        assert revived.integrity.detected >= 1
        assert victim.blob_name not in {
            t.blob_name for level in revived._levels for t in level
        }

    @pytest.mark.parametrize("cut", range(WAL_HEADER_SIZE))
    def test_wal_torn_inside_its_header_keeps_later_puts(self, cut):
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        del store  # flushed: the WAL holds only its header
        storage.write("wal-current", storage.read("wal-current")[:cut])
        self._assert_put_survives_two_crashes(storage)

    def test_scrub_rewrites_a_torn_wal_header(self):
        storage = MemoryStorage()
        store = self._flushed_store(storage)
        storage.write("wal-current", storage.read("wal-current")[:5])
        report = store.scrub()
        assert report.corruptions_detected == report.corruptions_repaired == 1
        assert storage.read("wal-current") == wal_header(store.checksum_kind)
        store.put(b"after-scrub", b"acked")
        del store  # crash before any flush
        revived = RocksLSMStore(TINY_LSM, storage=storage)
        assert revived.recover() == 1
        assert revived.get(b"after-scrub") == b"acked"

    def test_disk_fault_torn_header_only_wal_keeps_later_puts(self):
        from repro.faults.corruption import DiskFaultPlan

        for seed in range(40):
            storage = MemoryStorage()
            store = self._flushed_store(storage)
            del store
            plan = DiskFaultPlan(seed=seed, torn_write_rate=1.0, targets=("wal-*",))
            assert plan.apply(storage).torn_writes == 1
            self._assert_put_survives_two_crashes(storage)

    @staticmethod
    def _assert_put_survives_two_crashes(storage):
        revived = RocksLSMStore(TINY_LSM, storage=storage)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            revived.recover()
        assert revived.integrity.detected == revived.integrity.repaired == 1
        revived.put(b"after-repair", b"acked")
        del revived  # crash again before any flush
        again = RocksLSMStore(TINY_LSM, storage=storage)
        assert again.recover() == 1
        assert again.integrity.detected == 0
        assert again.get(b"after-repair") == b"acked"

    def test_none_kind_store_files_readable_by_checksummed_store(self):
        storage = MemoryStorage()
        legacy = self._flushed_store(storage, checksum="none")
        keys = [b"key-%04d" % i for i in range(120)]
        expected = {k: legacy.get(k) for k in keys}
        del legacy
        import dataclasses

        config = dataclasses.replace(TINY_LSM, checksum="crc32")
        reader = RocksLSMStore(config, storage=storage)
        reader.recover()
        assert {k: reader.get(k) for k in keys} == expected


class TestStructuralDamageWithoutChecksums:
    """Under ``checksum="none"`` no CRC guards a data block, so only the
    record walk can notice a kind byte out of range or a header cut
    short."""

    def _damaged_store(self):
        storage = MemoryStorage()
        store = RocksLSMStore(LSMConfig(checksum="none", block_size=256), storage=storage)
        for i in range(120):
            store.put(b"key-%04d" % i, b"x" * 32)
        store.flush()
        (table,) = store._levels[0]
        bad_kind, cut_header = table._index[2], table._index[5]
        raw = bytearray(storage.read(table.blob_name))
        raw[bad_kind.offset] = 7  # the block's first record kind byte
        # Stretch the block's first value (header: kind 1, seq 8, klen 4,
        # vlen 4) so the bytes left after it hold five bytes of a header.
        (klen,) = struct.unpack_from("<I", raw, cut_header.offset + 9)
        vlen = cut_header.length - 5 - HEADER_SIZE - klen
        struct.pack_into("<I", raw, cut_header.offset + 13, vlen)
        storage.write(table.blob_name, bytes(raw))
        return store, table, (bad_kind, cut_header)

    def test_verify_reports_both_blocks(self):
        _, table, damaged = self._damaged_store()
        report = table.verify()
        assert [f.offset for f in report.findings] == [h.offset for h in damaged]
        assert all("undecodable block" in f.detail for f in report.findings)

    @pytest.mark.parametrize("block", [0, 1], ids=["bad-kind", "cut-header"])
    def test_get_raises_and_quarantines(self, block):
        store, table, damaged = self._damaged_store()
        with pytest.raises(CorruptionError, match="undecodable block"):
            store.get(damaged[block].first_key)
        assert table in store.quarantined


class TestBTreePageFraming:
    def test_round_trip_checksummed(self):
        leaf = LeafNode([b"a", b"b"], [b"1", b"2"], next_leaf=7)
        data = encode_page(leaf, ChecksumKind.CRC32)
        assert data[0] == PAGE_MAGIC
        decoded = decode_page(data)
        assert decoded.keys == leaf.keys and decoded.values == leaf.values
        assert decoded.next_leaf == 7

    def test_round_trip_internal(self):
        node = InternalNode([b"m"], [3, 9])
        decoded = decode_page(encode_page(node, ChecksumKind.CRC32C))
        assert decoded.keys == [b"m"] and decoded.children == [3, 9]

    def test_none_kind_is_framed_with_zero_crc(self):
        leaf = LeafNode([b"a"], [b"1"])
        data = encode_page(leaf, ChecksumKind.NONE)
        # magic, version, kind 0, crc 0, then the node encoding
        assert data == bytes([PAGE_MAGIC, 2, 0, 0, 0, 0, 0]) + leaf.encode()
        assert decode_page(data).keys == [b"a"]

    def test_raw_payload_is_unrecognized(self):
        leaf = LeafNode([b"a"], [b"1"])
        with pytest.raises(CorruptionError, match="unrecognized page marker"):
            decode_page(leaf.encode(), "page-0")

    def test_bit_flip_raises(self):
        data = bytearray(encode_page(LeafNode([b"a"], [b"1"]), ChecksumKind.CRC32))
        data[-1] ^= 0x04
        with pytest.raises(CorruptionError, match="checksum mismatch"):
            decode_page(bytes(data), "page-1")

    def test_unknown_marker_raises(self):
        with pytest.raises(CorruptionError, match="unrecognized page marker"):
            decode_page(b"\x55garbage", "page-2")

    def test_torn_header_raises(self):
        data = encode_page(LeafNode([b"a"], [b"1"]), ChecksumKind.CRC32)
        with pytest.raises(CorruptionError, match="torn page header"):
            decode_page(data[:3], "page-3")

    def test_empty_page_raises(self):
        with pytest.raises(CorruptionError, match="empty page"):
            decode_page(b"", "page-4")


class TestPageCacheScrub:
    def test_repairs_from_resident_copy(self):
        cache = PageCache(64 * 1024, checksum_kind=ChecksumKind.CRC32)
        page_id = cache.allocate(LeafNode([b"k"], [b"v"]))
        cache.flush()  # persisted AND still resident
        blob = cache._blob(page_id)
        raw = bytearray(cache.storage.read(blob))
        raw[-1] ^= 0xFF
        cache.storage.write(blob, bytes(raw))
        report = cache.scrub()
        assert report.corruptions_detected == 1
        assert report.corruptions_repaired == 1
        assert cache.scrub().clean

    def test_unrecoverable_without_resident_copy(self):
        cache = PageCache(64 * 1024, checksum_kind=ChecksumKind.CRC32)
        page_id = cache.allocate(LeafNode([b"k"], [b"v"]))
        cache.flush()
        cache._cache.invalidate(page_id)  # evict the clean resident copy
        blob = cache._blob(page_id)
        raw = bytearray(cache.storage.read(blob))
        raw[-1] ^= 0xFF
        cache.storage.write(blob, bytes(raw))
        report = cache.scrub()
        assert report.corruptions_detected == 1
        assert report.unrecoverable == 1
        with pytest.raises(CorruptionError):
            cache.get(page_id)

    def test_btree_store_scrub_and_backend(self):
        storage = MemoryStorage()
        store = BTreeStore(BTreeConfig(cache_bytes=8192, checksum="crc32"),
                           storage=storage)
        for i in range(500):
            store.put(b"%05d" % i, b"v" * 30)
        store.flush()
        assert store.storage_backend() is storage
        assert store.scrub().clean
        victim = sorted(storage.list())[0]
        raw = bytearray(storage.read(victim))
        raw[10] ^= 0x08
        storage.write(victim, bytes(raw))
        report = store.scrub()
        assert report.corruptions_detected == 1
        assert store.integrity.detected == 1


class TestFasterSegmentFraming:
    def _spilled(self, checksum="crc32"):
        storage = MemoryStorage()
        store = FasterStore(
            FasterConfig(memory_budget=8 * 1024, segment_size=2 * 1024,
                         checksum=checksum),
            storage=storage,
        )
        for i in range(600):
            store.put(b"k%04d" % i, b"v" * 48)
        store.flush()
        return store, storage

    def test_segment_header_round_trip(self):
        raw = segment_header(ChecksumKind.CRC32) + frame_log_record(
            LogRecord(b"k", b"v"), ChecksumKind.CRC32
        )
        kind = segment_checksum_kind(raw, "seg")
        assert kind is ChecksumKind.CRC32
        record, end = decode_segment_record(raw, 8, kind, "seg")
        assert (record.key, record.value) == (b"k", b"v")
        assert end == len(raw)

    def test_unframed_segment_is_rejected(self):
        raw = LogRecord(b"k", b"v").encode()
        with pytest.raises(CorruptionError, match="bad segment magic"):
            segment_checksum_kind(raw, "seg")
        with pytest.raises(CorruptionError, match="torn segment header"):
            segment_checksum_kind(SEGMENT_MAGIC, "seg")

    def test_spilled_round_trip_and_clean_scrub(self):
        store, storage = self._spilled()
        segments = sorted(storage.list())
        assert segments and storage.read(segments[0])[:4] == SEGMENT_MAGIC
        for i in range(0, 600, 83):
            assert store.get(b"k%04d" % i) == b"v" * 48
        report = store.scrub()
        assert report.clean
        assert report.structures_checked == len(store.log.sealed_segments())

    def test_corrupt_read_raises_and_scrub_detects(self):
        store, storage = self._spilled()
        victim = store.log.sealed_segments()[1]
        raw = bytearray(storage.read(victim))
        raw[60] ^= 0x02
        storage.write(victim, bytes(raw))
        report = store.scrub()
        assert report.corruptions_detected == 1
        assert report.findings[0].blob == victim
        assert report.unrecoverable == 1
        raised = False
        for key in (b"k%04d" % i for i in range(600)):
            address = store.index.lookup(key)
            location = store.log._disk_index.get(address)
            if location and location[0] == victim:
                try:
                    store.get(key)
                except CorruptionError:
                    raised = True
        assert raised

    def test_checksum_none_segments_are_framed(self):
        store, storage = self._spilled(checksum="none")
        raw = storage.read(store.log.sealed_segments()[0])
        assert raw[:8] == SEGMENT_MAGIC + bytes([2, 0, 0, 0])
        assert segment_checksum_kind(raw) is ChecksumKind.NONE
        for i in range(0, 600, 83):
            assert store.get(b"k%04d" % i) == b"v" * 48
        assert store.scrub().clean


class TestScrubDefaults:
    def test_memory_store_scrub_is_clean_noop(self):
        store = InMemoryStore()
        store.put(b"a", b"1")
        report = store.scrub()
        assert report.clean and report.structures_checked == 0
        assert store.storage_backend() is None

    def test_connector_passthrough(self):
        storage = MemoryStorage()
        store = BTreeStore(BTreeConfig(checksum="crc32"), storage=storage)
        connector = connect(store)
        store.put(b"a", b"1")
        connector.flush()
        assert connector.storage_backend() is storage
        assert connector.scrub().clean
