"""Tests for the FASTER-like store (hash index + hybrid log)."""

import pytest

from repro.kvstores.faster import FasterConfig, FasterStore, HashIndex, HybridLog, LogRecord


class TestHashIndex:
    def test_lookup_update(self):
        index = HashIndex()
        assert index.lookup(b"k") is None
        index.update(b"k", 42)
        assert index.lookup(b"k") == 42

    def test_probe_counter(self):
        index = HashIndex()
        index.lookup(b"a")
        index.lookup(b"b")
        assert index.probes == 2


class TestLogRecord:
    def test_encode_decode(self):
        record = LogRecord(b"key", b"value")
        decoded, size = LogRecord.decode(record.encode())
        assert decoded.key == b"key"
        assert decoded.value == b"value"
        assert not decoded.tombstone

    def test_tombstone_roundtrip(self):
        record = LogRecord(b"key", b"", tombstone=True)
        decoded, _ = LogRecord.decode(record.encode())
        assert decoded.tombstone

    def test_alloc_defaults_to_value_size(self):
        record = LogRecord(b"k", b"12345")
        assert record.alloc == 5

    def test_size_uses_allocation(self):
        record = LogRecord(b"k", b"12345", alloc=100)
        bigger = LogRecord(b"k", b"12345")
        assert record.size > bigger.size


class TestHybridLog:
    def test_append_read(self):
        log = HybridLog(memory_budget=1 << 20)
        addr = log.append(LogRecord(b"k", b"v"))
        assert log.read(addr).value == b"v"

    def test_addresses_monotone(self):
        log = HybridLog()
        a1 = log.append(LogRecord(b"a", b"1"))
        a2 = log.append(LogRecord(b"b", b"2"))
        assert a2 > a1

    def test_mutable_region_boundary(self):
        log = HybridLog(memory_budget=1000, mutable_fraction=0.5)
        addrs = [log.append(LogRecord(b"k", b"x" * 20)) for _ in range(20)]
        assert log.is_mutable(addrs[-1])
        assert not log.is_mutable(addrs[0])

    def test_in_place_update_within_alloc(self):
        log = HybridLog()
        addr = log.append(LogRecord(b"k", b"12345"))
        log.update_in_place(addr, b"123")
        assert log.read(addr).value == b"123"

    def test_in_place_update_rejects_growth(self):
        log = HybridLog()
        addr = log.append(LogRecord(b"k", b"123"))
        with pytest.raises(ValueError, match="allocation"):
            log.update_in_place(addr, b"123456")

    def test_in_place_update_rejects_read_only_region(self):
        log = HybridLog(memory_budget=500, mutable_fraction=0.3)
        addr = log.append(LogRecord(b"k", b"x" * 20))
        for _ in range(30):
            log.append(LogRecord(b"pad", b"x" * 20))
        assert not log.is_mutable(addr)
        with pytest.raises(ValueError, match="mutable"):
            log.update_in_place(addr, b"y")

    def test_eviction_to_disk_and_readback(self):
        log = HybridLog(memory_budget=400, segment_size=100)
        addrs = [log.append(LogRecord(f"k{i}".encode(), b"x" * 20)) for i in range(40)]
        log.flush()
        assert log.disk_records > 0
        # The earliest record must have been evicted but is still readable.
        record = log.read(addrs[0])
        assert record.key == b"k0"
        assert log.disk_reads >= 1

    def test_invalid_mutable_fraction(self):
        with pytest.raises(ValueError):
            HybridLog(mutable_fraction=0.0)


class TestFasterStore:
    def test_put_get(self):
        store = FasterStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_missing(self):
        assert FasterStore().get(b"nope") is None

    def test_in_place_update_same_size(self):
        store = FasterStore()
        store.put(b"k", b"aaaa")
        store.put(b"k", b"bbbb")
        assert store.get(b"k") == b"bbbb"
        assert store.log.in_place_updates == 1

    def test_growing_put_appends(self):
        store = FasterStore()
        store.put(b"k", b"aa")
        appends_before = store.log.appends
        store.put(b"k", b"a" * 100)
        assert store.log.appends == appends_before + 1
        assert store.get(b"k") == b"a" * 100

    def test_delete(self):
        store = FasterStore()
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_delete_missing_is_noop(self):
        store = FasterStore()
        appends = store.log.appends
        store.delete(b"ghost")
        assert store.log.appends == appends

    def test_rmw_merge(self):
        store = FasterStore()
        store.merge(b"k", b"a")
        store.merge(b"k", b"b")
        assert store.get(b"k") == b"ab"

    def test_rmw_on_existing_put(self):
        store = FasterStore()
        store.put(b"k", b"base-")
        store.merge(b"k", b"op")
        assert store.get(b"k") == b"base-op"

    def test_growing_merges_append_new_records(self):
        """rmw on a growing bucket must RCU-append, not update in place."""
        store = FasterStore()
        store.merge(b"k", b"x")
        appends_before = store.log.appends
        for _ in range(10):
            store.merge(b"k", b"x" * 50)
        assert store.log.appends == appends_before + 10

    def test_put_after_delete(self):
        store = FasterStore()
        store.put(b"k", b"v1")
        store.delete(b"k")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_reads_from_disk_region(self):
        store = FasterStore(FasterConfig(memory_budget=2048, segment_size=512))
        for i in range(200):
            store.put(f"k{i:04d}".encode(), b"x" * 32)
        store.flush()
        assert store.get(b"k0000") == b"x" * 32
        assert store.log.disk_reads >= 1

    def test_len_counts_index_entries(self):
        store = FasterStore()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert len(store) == 2

    def test_fill_stats(self):
        store = FasterStore()
        store.put(b"a", b"1")
        stats = store.fill_stats()
        assert stats["index_entries"] == 1
        assert stats["appends"] == 1
