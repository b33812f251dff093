"""Contracts of the LSM's per-key helpers: checksum dispatch, range
reads of in-memory blobs, the cache counters a store reports, a
compaction that copies what it need not resolve, and the bloom build."""

import zlib

import pytest

from repro.core.replayer import synthesize_value
from repro.kvstores.integrity import ChecksumKind, checksum, crc32c
from repro.kvstores.lsm import LetheStore, LSMConfig, RocksLSMStore
from repro.kvstores.lsm import compaction, record, sstable
from repro.kvstores.lsm.bloom import BloomFilter
from repro.kvstores.storage import MemoryStorage
from repro.obs.metrics import MetricsRegistry, register_store
from repro.trace import OpType
from repro.ycsb import YCSBWorkload

DATA = b"the quick brown fox jumps over the lazy dog" * 3


class TestChecksum:
    @pytest.mark.parametrize("kind", [ChecksumKind.NONE, 0], ids=["NONE", "0"])
    def test_none_is_zero(self, kind):
        assert checksum(DATA, kind) == 0

    @pytest.mark.parametrize("kind", [ChecksumKind.CRC32, 2], ids=["CRC32", "2"])
    def test_crc32_is_zlib(self, kind):
        assert checksum(DATA, kind) == zlib.crc32(DATA)

    @pytest.mark.parametrize("kind", [ChecksumKind.CRC32C, 1], ids=["CRC32C", "1"])
    def test_crc32c_is_castagnoli(self, kind):
        assert checksum(DATA, kind) == crc32c(DATA)
        assert checksum(b"123456789", kind) == 0xE3069283  # the check value

    @pytest.mark.parametrize("kind", [9, -1, 3, "crc32", None, [1]])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(ValueError, match="unknown checksum kind: "):
            checksum(DATA, kind)


class TestMemoryRangeReads:
    def test_read_range_returns_bytes(self):
        storage = MemoryStorage()
        storage.write("sst", b"0123456789")
        storage.append("wal", b"0123")
        storage.append("wal", b"456789")
        for name in ("sst", "wal"):
            data = storage.read_range(name, 2, 3)
            assert type(data) is bytes
            assert data == b"234"

    def test_read_range_truncates_like_a_slice(self):
        storage = MemoryStorage()
        storage.write("sst", b"0123456789")
        storage.append("wal", b"0123456789")
        for name in ("sst", "wal"):
            assert storage.read_range(name, 8, 10) == b"89"
            assert storage.read_range(name, 12, 4) == b""
            assert storage.read_range(name, 0, 0) == b""

    def test_blob_read_by_range_still_appends(self):
        storage = MemoryStorage()
        storage.write("blob", b"head")
        held = [storage.read_range("blob", 0, 4), storage.read("blob")]
        storage.append("blob", b"-tail")
        held.append(storage.read_range("blob", 0, 9))
        storage.append("blob", b"!")
        assert held == [b"head", b"head", b"head-tail"]
        assert storage.read("blob") == b"head-tail!"

    def test_written_bytes_are_copied(self):
        storage = MemoryStorage()
        data = bytearray(b"abc")
        storage.write("blob", data)
        data[0] = ord("z")
        assert storage.read("blob") == b"abc"


def ycsb_b(store):
    """The read-counter workload of ``test_lsm_read_counters.py``:
    preload 2k records, replay 3k YCSB-B ops."""

    def workload():
        return YCSBWorkload.core(
            "B", record_count=2000, operation_count=3000, value_size=256, seed=7
        )

    workload().preload(store)
    for access in workload().generate():
        if access.op is OpType.GET:
            store.get(access.key)
        else:
            store.put(access.key, synthesize_value(access.value_size))
    return store


@pytest.mark.parametrize(
    "store",
    [
        lambda: RocksLSMStore(),
        # a fixed clock: FADE's tombstone ages never depend on wall time
        lambda: LetheStore(clock=lambda: 0.0),
    ],
    ids=["rocksdb", "lethe"],
)
def test_store_stats_report_the_block_cache(store):
    """``stats`` and the ``ops.cache_*`` gauges carry the block cache's
    own hit and miss counts (pinned in ``test_lsm_read_counters.py``)."""
    store = ycsb_b(store())
    pinned = (292, 1383)
    assert (store.block_cache.hits, store.block_cache.misses) == pinned
    assert (store.stats.cache_hits, store.stats.cache_misses) == pinned
    snapshot = store.stats.snapshot()
    assert (snapshot.cache_hits, snapshot.cache_misses) == pinned
    registry = MetricsRegistry()
    register_store(registry, store)
    sample = registry.sample()
    assert (sample["ops.cache_hits"], sample["ops.cache_misses"]) == pinned


def test_compaction_of_lone_records_decodes_none(monkeypatch):
    """Keys with one record each are copied as encoded bytes: no
    record of any compaction input is decoded."""
    decoded = []

    def counting(buf, offset=0):
        decoded.append(offset)
        return record.decode_record(buf, offset)

    store = RocksLSMStore(
        LSMConfig(write_buffer_size=4096, target_file_size=8192, l0_compaction_trigger=2),
        storage=MemoryStorage(),
    )
    for module in (compaction, record, sstable):
        monkeypatch.setattr(module, "decode_record", counting)
    for i in range(3000):
        store.put(b"key%06d" % (i * 7919 % 3000), b"v" * 40)
    store.flush()
    assert store.compaction_stats.compactions > 0
    assert store.compaction_stats.records_in > 3000
    assert decoded == []
    monkeypatch.undo()
    assert store.get(b"key%06d" % 1234) == b"v" * 40


KEYS = [b"bloom-key-%d" % i for i in range(1000)]


def test_bloom_add_all_in_chunks_sets_the_same_bits():
    """The cooperative build feeds 256-key chunks; the bitmap equals
    one call's."""
    whole = BloomFilter(len(KEYS))
    whole.add_all(KEYS)
    chunked = BloomFilter(len(KEYS))
    for start in range(0, len(KEYS), 256):
        chunked.add_all(KEYS[start:start + 256])
    assert chunked.encode() == whole.encode()


def test_bloom_without_bits_per_key_sets_nothing():
    bloom = BloomFilter(len(KEYS), bits_per_key=0)
    empty = bloom.encode()
    bloom.add_all(KEYS)
    assert bloom.encode() == empty
    assert bloom.may_contain(b"anything")


def test_bloom_add_all_of_no_keys_leaves_the_bitmap():
    bloom = BloomFilter(len(KEYS))
    bloom.add_all(KEYS[:10])
    before = bloom.encode()
    bloom.add_all([])
    bloom.add_all(iter(()))
    assert bloom.encode() == before
