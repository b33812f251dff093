"""Batched execution: apply_batch/multi_get across every store family.

The core contract, property-tested per backend: replaying any op
sequence through batched calls (write runs via ``apply_batch``, read
runs via ``multi_get``, run boundaries at read/write transitions like
the replayer's) leaves the store in EXACTLY the state of per-op replay,
and batched reads return exactly the per-op answers -- including mixed
same-key ops inside one batch.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.replayer import (
    _VALUE_CACHE,
    _VALUE_CACHE_MAX_BYTES,
    _VALUE_CACHE_MAX_ENTRIES,
    synthesize_value,
)
from repro.kvstores import InMemoryStore, connect
from repro.kvstores.api import OP_DELETE, OP_GET, OP_MERGE, OP_PUT
from repro.kvstores.btree import BTreeConfig, BTreeStore
from repro.kvstores.faster import FasterConfig, FasterStore
from repro.kvstores.integrity import CorruptionError
from repro.kvstores.lsm import LetheConfig, LetheStore, LSMConfig, RocksLSMStore
from repro.kvstores.lsm.bloom import BloomFilter
from repro.kvstores.lsm.record import (
    WAL_FRAME,
    WAL_HEADER_SIZE,
    Record,
    RecordKind,
    decode_wal,
    frame_records,
)

# Tiny limits so hypothesis sequences cross flush/compaction/eviction
# boundaries inside a few hundred ops.
STORE_FACTORIES = {
    "rocksdb": lambda: RocksLSMStore(
        LSMConfig(write_buffer_size=256, block_cache_size=512,
                  level_base_bytes=1024, target_file_size=512,
                  l0_compaction_trigger=2, max_levels=3)
    ),
    "lethe": lambda: LetheStore(
        LetheConfig(write_buffer_size=256, block_cache_size=512,
                    level_base_bytes=1024, target_file_size=512,
                    l0_compaction_trigger=2, max_levels=3,
                    fade_check_interval=16)
    ),
    "berkeleydb": lambda: BTreeStore(BTreeConfig(order=4)),
    "faster": lambda: FasterStore(
        FasterConfig(memory_budget=2048, segment_size=256)
    ),
    "memory": InMemoryStore,
}

KEYS = st.binary(min_size=1, max_size=4)  # small space -> same-key batches
VALUES = st.binary(min_size=0, max_size=16)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just(OP_PUT), KEYS, VALUES),
        st.tuples(st.just(OP_MERGE), KEYS, VALUES),
        st.tuples(st.just(OP_DELETE), KEYS, st.just(b"")),
        st.tuples(st.just(OP_GET), KEYS, st.just(b"")),
    ),
    max_size=150,
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def apply_per_op(connector, ops):
    reads = []
    for opcode, key, value in ops:
        if opcode == OP_PUT:
            connector.put(key, value)
        elif opcode == OP_MERGE:
            connector.merge(key, value)
        elif opcode == OP_DELETE:
            connector.delete(key)
        else:
            reads.append(connector.get(key))
    return reads


def apply_batched(connector, ops, batch_size):
    """Replayer-style batching: runs of same-kind ops, capped at
    ``batch_size``, never mixing reads and writes."""
    reads = []
    i = 0
    while i < len(ops):
        is_read = ops[i][0] == OP_GET
        j = i
        while (
            j < len(ops)
            and j - i < batch_size
            and (ops[j][0] == OP_GET) == is_read
        ):
            j += 1
        if is_read:
            reads.extend(connector.multi_get([op[1] for op in ops[i:j]]))
        else:
            connector.apply_batch(ops[i:j])
        i = j
    return reads


@pytest.mark.parametrize("store_name", sorted(STORE_FACTORIES))
@given(ops=OPERATIONS, batch_size=st.integers(min_value=1, max_value=32))
@SETTINGS
def test_batched_equals_per_op(store_name, ops, batch_size):
    factory = STORE_FACTORIES[store_name]
    reference = connect(factory())
    batched = connect(factory())
    expected_reads = apply_per_op(reference, ops)
    actual_reads = apply_batched(batched, ops, batch_size)
    assert actual_reads == expected_reads
    for key in {op[1] for op in ops}:
        assert batched.get(key) == reference.get(key), key
    reference.close()
    batched.close()


@pytest.mark.parametrize("store_name", sorted(STORE_FACTORIES))
def test_multi_get_preserves_duplicate_and_missing_keys(store_name):
    connector = connect(STORE_FACTORIES[store_name]())
    connector.put(b"a", b"1")
    connector.put(b"b", b"2")
    assert connector.multi_get([b"b", b"missing", b"a", b"b"]) == [
        b"2", None, b"1", b"2",
    ]
    connector.close()


def test_apply_batch_rejects_reads():
    connector = connect(InMemoryStore())
    with pytest.raises(ValueError):
        connector.apply_batch([(OP_GET, b"k", b"")])
    connector.close()


# -- LSM group commit -------------------------------------------------------


def wal_frames(store):
    """Parse the store's WAL into per-frame payload lengths."""
    data = store.storage.read("wal-current")
    offset = WAL_HEADER_SIZE
    frames = []
    while offset < len(data):
        _, length = WAL_FRAME.unpack_from(data, offset)
        frames.append(length)
        offset += WAL_FRAME.size + length
    return frames


def test_group_commit_writes_one_frame_per_batch():
    store = RocksLSMStore(LSMConfig(write_buffer_size=1 << 20))
    store.apply_batch([(OP_PUT, b"k%d" % i, b"v%d" % i) for i in range(10)])
    store.apply_batch([(OP_MERGE, b"k0", b"x"), (OP_DELETE, b"k1", b"")])
    assert len(wal_frames(store)) == 2
    result = decode_wal(store.storage.read("wal-current"))
    assert not result.truncated
    assert len(result.records) == 12
    store.close()


def test_torn_group_frame_drops_whole_batch_only():
    store = RocksLSMStore(LSMConfig(write_buffer_size=1 << 20))
    store.apply_batch([(OP_PUT, b"a", b"1"), (OP_PUT, b"b", b"2")])
    store.apply_batch([(OP_PUT, b"c", b"3"), (OP_PUT, b"d", b"4")])
    storage = store.storage
    # Tear the tail of the second group frame (a crashed append).
    data = storage.read("wal-current")
    storage.write("wal-current", data[:-3])
    revived = RocksLSMStore(LSMConfig(write_buffer_size=1 << 20), storage=storage)
    with pytest.warns(UserWarning, match="WAL corruption"):
        revived.recover()
    # The intact first batch replays completely; the torn second batch
    # is dropped atomically -- no partial prefix of it survives.
    assert revived.get(b"a") == b"1"
    assert revived.get(b"b") == b"2"
    assert revived.get(b"c") is None
    assert revived.get(b"d") is None
    revived.close()


def test_group_frame_decodes_multiple_records():
    records = [
        Record(RecordKind.PUT, 1, b"k1", b"v1"),
        Record(RecordKind.MERGE, 2, b"k1", b"v2"),
        Record(RecordKind.DELETE, 3, b"k2", b""),
    ]
    from repro.kvstores.integrity import ChecksumKind
    from repro.kvstores.lsm.record import wal_header

    buf = wal_header(ChecksumKind.CRC32) + frame_records(
        records, ChecksumKind.CRC32
    )
    result = decode_wal(buf)
    assert not result.truncated
    assert result.records == records


def test_lethe_fade_counts_batch_members_like_per_op():
    def make(interval):
        return LetheStore(
            LetheConfig(write_buffer_size=1 << 20, fade_check_interval=interval)
        )

    per_op, batched = make(8), make(8)
    ops = [(OP_PUT, b"k%d" % i, b"v") for i in range(20)]
    apply_per_op(per_op, ops)
    # Batch size divides the interval, so the check fires at the same
    # write counts as per-op replay: at 8 and 16, the next one at 24.
    apply_batched(batched, ops, batch_size=4)
    assert per_op._writes == batched._writes == 20
    assert per_op._fade_at == batched._fade_at == 24
    per_op.close()
    batched.close()

    # A batch that crosses the interval mid-batch still triggers the
    # fade check (at batch granularity): the next one is due 8 writes
    # after the batch.
    crossing = make(8)
    crossing.apply_batch([(OP_PUT, b"k%d" % i, b"v") for i in range(11)])
    assert crossing._fade_at == 19
    crossing.close()


# -- bloom decode validation (satellite) ------------------------------------


def test_bloom_roundtrip_still_works():
    bloom = BloomFilter(16)
    bloom.add(b"hello")
    decoded = BloomFilter.decode(bloom.encode())
    assert decoded.may_contain(b"hello")


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"\x00" * 9, "truncated header"),
        ((0).to_bytes(8, "little") + (1).to_bytes(2, "little"), "zero bits"),
        (
            (64).to_bytes(8, "little") + (31).to_bytes(2, "little") + b"\x00" * 8,
            "too many hashes",
        ),
        (
            (64).to_bytes(8, "little") + (4).to_bytes(2, "little") + b"\x00" * 7,
            "short bitmap",
        ),
        (
            (64).to_bytes(8, "little") + (4).to_bytes(2, "little") + b"\x00" * 9,
            "long bitmap",
        ),
    ],
)
def test_bloom_decode_rejects_malformed(data, reason):
    with pytest.raises(CorruptionError):
        BloomFilter.decode(data)


# -- value-cache bound regression (satellite) -------------------------------


def test_value_cache_is_bounded():
    synthesize_value(1)  # populate at least one entry
    baseline_bytes = sum(len(v) for v in _VALUE_CACHE.values())
    assert baseline_bytes <= _VALUE_CACHE_MAX_BYTES
    # A hostile trace with thousands of distinct value sizes must not
    # grow the cache without bound (the pre-fix behaviour).
    for size in range(1, 3 * _VALUE_CACHE_MAX_ENTRIES):
        synthesize_value(size)
    assert len(_VALUE_CACHE) <= _VALUE_CACHE_MAX_ENTRIES
    assert sum(len(v) for v in _VALUE_CACHE.values()) <= _VALUE_CACHE_MAX_BYTES
    # Oversize values are returned but never cached.
    big = synthesize_value(_VALUE_CACHE_MAX_BYTES + 1)
    assert len(big) == _VALUE_CACHE_MAX_BYTES + 1
    assert _VALUE_CACHE_MAX_BYTES + 1 not in _VALUE_CACHE
