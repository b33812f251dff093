"""Tests for LSM building blocks: records, bloom filters, memtables,
SSTables, and compaction resolution."""

from repro.kvstores import AppendMergeOperator
from repro.kvstores.lsm.bloom import BloomFilter
from repro.kvstores.lsm.compaction import compaction_runs, resolve_key_records
from repro.kvstores.lsm.memtable import Memtable
from repro.kvstores.lsm.record import Record, RecordKind, decode_all, decode_record
from repro.kvstores.lsm.sstable import build_sstable, open_sstable
from repro.kvstores.storage import MemoryStorage


def rec(kind, seq, key, value=b""):
    return Record(kind, seq, key, value)


def entries(records):
    return [(r.key, r.sequence, r.kind, r.encode()) for r in records]


def decoded(run):
    return [decode_record(entry[3])[0] for entry in run]


class UnfoldedAppend(AppendMergeOperator):
    """Append semantics with no partial merge: operands stay apart."""

    def partial_merge(self, left, right):
        return None


class TestRecord:
    def test_encode_decode_roundtrip(self):
        record = rec(RecordKind.PUT, 42, b"key", b"value")
        decoded, offset = decode_record(record.encode())
        assert decoded == record
        assert offset == len(record.encode())

    def test_decode_all(self):
        records = [
            rec(RecordKind.PUT, 1, b"a", b"1"),
            rec(RecordKind.DELETE, 2, b"b"),
            rec(RecordKind.MERGE, 3, b"c", b"op"),
        ]
        blob = b"".join(r.encode() for r in records)
        assert list(decode_all(blob)) == records

    def test_empty_value(self):
        record = rec(RecordKind.DELETE, 1, b"k")
        decoded, _ = decode_record(record.encode())
        assert decoded.value == b""


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(100)
        keys = [f"k{i}".encode() for i in range(100)]
        bloom.add_all(keys)
        assert all(bloom.may_contain(k) for k in keys)

    def test_low_false_positive_rate(self):
        bloom = BloomFilter(1000, bits_per_key=10)
        bloom.add_all(f"in{i}".encode() for i in range(1000))
        false_positives = sum(
            bloom.may_contain(f"out{i}".encode()) for i in range(1000)
        )
        assert false_positives < 50  # ~1% expected at 10 bits/key

    def test_encode_decode(self):
        bloom = BloomFilter(10)
        bloom.add(b"hello")
        restored = BloomFilter.decode(bloom.encode())
        assert restored.may_contain(b"hello")
        assert restored.num_bits == bloom.num_bits

    def test_empty_filter_rejects(self):
        assert not BloomFilter(10).may_contain(b"anything")


class TestMemtable:
    def test_put_lookup(self):
        table = Memtable()
        table.add_all([rec(RecordKind.PUT, 1, b"a", b"v")])
        stack = table.entries[b"a"]
        assert len(stack) == 1
        assert stack[0].value == b"v"

    def test_put_supersedes_older_records(self):
        table = Memtable()
        table.add_all([rec(RecordKind.PUT, 1, b"a", b"old")])
        table.add_all([rec(RecordKind.MERGE, 2, b"a", b"m")])
        table.add_all([rec(RecordKind.PUT, 3, b"a", b"new")])
        stack = table.entries[b"a"]
        assert len(stack) == 1
        assert stack[0].value == b"new"

    def test_merges_accumulate(self):
        table = Memtable()
        table.add_all([rec(RecordKind.PUT, 1, b"a", b"base")])
        table.add_all([rec(RecordKind.MERGE, 2, b"a", b"x")])
        table.add_all([rec(RecordKind.MERGE, 3, b"a", b"y")])
        assert len(table.entries[b"a"]) == 3

    def test_delete_collapses(self):
        table = Memtable()
        table.add_all([rec(RecordKind.PUT, 1, b"a", b"v")])
        table.add_all([rec(RecordKind.DELETE, 2, b"a")])
        stack = table.entries[b"a"]
        assert len(stack) == 1
        assert stack[0].kind is RecordKind.DELETE

    def test_arena_accounting_grows_on_overwrite(self):
        """RocksDB memtables are arena-allocated: superseded records
        keep consuming buffer space until the flush."""
        table = Memtable()
        table.add_all([rec(RecordKind.PUT, 1, b"a", b"x" * 100)])
        before = table.approximate_bytes
        table.add_all([rec(RecordKind.PUT, 2, b"a", b"y")])
        assert table.approximate_bytes > before

    def test_sorted_records_order(self):
        table = Memtable()
        table.add_all([rec(RecordKind.PUT, 1, b"b", b"1")])
        table.add_all([rec(RecordKind.PUT, 2, b"a", b"2")])
        keys = [r.key for r in table.sorted_records()]
        assert keys == [b"a", b"b"]

    def test_bool(self):
        table = Memtable()
        assert not table
        table.add_all([rec(RecordKind.PUT, 1, b"a", b"v")])
        assert table


class TestSSTable:
    def build(self, records, block_size=64):
        storage = MemoryStorage()
        table = build_sstable(1, iter(records), storage, block_size=block_size)
        return table, storage

    def test_build_and_get(self):
        records = [rec(RecordKind.PUT, i, f"k{i:03d}".encode(), b"v") for i in range(20)]
        table, _ = self.build(records)
        found = table.get_records(b"k005")
        assert len(found) == 1
        assert found[0].sequence == 5

    def test_build_empty_returns_none(self):
        storage = MemoryStorage()
        assert build_sstable(1, iter([]), storage) is None

    def test_get_absent_key(self):
        records = [rec(RecordKind.PUT, 1, b"b", b"v")]
        table, _ = self.build(records)
        assert table.get_records(b"a") == []
        assert table.get_records(b"c") == []

    def test_multi_record_key_across_blocks(self):
        # Many records for one key, forced across tiny blocks.
        records = [rec(RecordKind.PUT, 0, b"a", b"x" * 30)]
        records += [
            rec(RecordKind.MERGE, i, b"k", b"y" * 30) for i in range(1, 10)
        ]
        records += [rec(RecordKind.PUT, 10, b"z", b"x" * 30)]
        table, _ = self.build(records, block_size=64)
        found = table.get_records(b"k")
        assert [r.sequence for r in found] == list(range(1, 10))

    def test_tombstone_metadata(self):
        records = [
            rec(RecordKind.PUT, 1, b"a", b"v"),
            rec(RecordKind.DELETE, 2, b"b"),
            rec(RecordKind.DELETE, 3, b"c"),
        ]
        table, _ = self.build(records)
        assert table.num_tombstones == 2
        assert table.oldest_tombstone_seq == 2

    def test_iter_records_full_scan(self):
        records = [rec(RecordKind.PUT, i, f"k{i:02d}".encode(), b"v") for i in range(15)]
        table, _ = self.build(records)
        assert list(table.iter_records()) == records

    def test_overlaps(self):
        records = [rec(RecordKind.PUT, 1, b"d", b""), rec(RecordKind.PUT, 2, b"m", b"")]
        table, _ = self.build(records)
        assert table.overlaps(b"a", b"e")
        assert table.overlaps(b"m", b"z")
        assert not table.overlaps(b"n", b"z")
        assert not table.overlaps(b"a", b"c")

    def test_open_sstable_roundtrip(self):
        records = [
            rec(RecordKind.PUT, 1, b"a", b"v1"),
            rec(RecordKind.MERGE, 2, b"a", b"m"),
            rec(RecordKind.DELETE, 3, b"b"),
        ]
        table, storage = self.build(records)
        reopened = open_sstable(table.file_id, storage, table.blob_name)
        assert reopened.num_entries == 3
        assert reopened.num_tombstones == 1
        assert reopened.get_records(b"a") == table.get_records(b"a")

    def test_drop_deletes_blob(self):
        records = [rec(RecordKind.PUT, 1, b"a", b"v")]
        table, storage = self.build(records)
        table.drop()
        assert not storage.exists(table.blob_name)


class TestCompactionResolution:
    op = AppendMergeOperator()

    def test_newest_put_wins(self):
        records = [
            rec(RecordKind.PUT, 1, b"k", b"old"),
            rec(RecordKind.PUT, 2, b"k", b"new"),
        ]
        out = resolve_key_records(records, self.op, at_bottom=False)
        assert len(out) == 1
        assert out[0].value == b"new"

    def test_merges_fold_into_put(self):
        records = [
            rec(RecordKind.PUT, 1, b"k", b"a"),
            rec(RecordKind.MERGE, 2, b"k", b"b"),
            rec(RecordKind.MERGE, 3, b"k", b"c"),
        ]
        out = resolve_key_records(records, self.op, at_bottom=False)
        assert len(out) == 1
        assert out[0].kind is RecordKind.PUT
        assert out[0].value == b"abc"

    def test_merges_above_delete(self):
        records = [
            rec(RecordKind.PUT, 1, b"k", b"x"),
            rec(RecordKind.DELETE, 2, b"k"),
            rec(RecordKind.MERGE, 3, b"k", b"m"),
        ]
        out = resolve_key_records(records, self.op, at_bottom=False)
        assert len(out) == 1
        assert out[0].value == b"m"

    def test_tombstone_kept_above_bottom(self):
        records = [rec(RecordKind.DELETE, 5, b"k")]
        out = resolve_key_records(records, self.op, at_bottom=False)
        assert len(out) == 1
        assert out[0].kind is RecordKind.DELETE

    def test_tombstone_dropped_at_bottom(self):
        records = [
            rec(RecordKind.PUT, 1, b"k", b"x"),
            rec(RecordKind.DELETE, 2, b"k"),
        ]
        assert resolve_key_records(records, self.op, at_bottom=True) == []

    def test_bare_operands_kept_above_bottom(self):
        records = [
            rec(RecordKind.MERGE, 1, b"k", b"a"),
            rec(RecordKind.MERGE, 2, b"k", b"b"),
        ]
        out = resolve_key_records(records, self.op, at_bottom=False)
        # partial merge folds them into a single operand
        assert len(out) == 1
        assert out[0].kind is RecordKind.MERGE
        assert out[0].value == b"ab"

    def test_bare_operands_resolve_at_bottom(self):
        records = [rec(RecordKind.MERGE, 1, b"k", b"a")]
        out = resolve_key_records(records, self.op, at_bottom=True)
        assert out[0].kind is RecordKind.PUT
        assert out[0].value == b"a"

    def test_compact_records_groups_by_key(self):
        records = [
            rec(RecordKind.PUT, 1, b"a", b"1"),
            rec(RecordKind.PUT, 2, b"a", b"2"),
            rec(RecordKind.PUT, 3, b"b", b"3"),
        ]
        tally = [0, 0]
        runs = list(
            compaction_runs(entries(records), self.op, False, 1 << 20, tally)
        )
        assert len(runs) == 1
        assert [(r.key, r.value) for r in decoded(runs[0])] == [(b"a", b"2"), (b"b", b"3")]
        # b's lone record is copied as it is; a's two are resolved
        assert runs[0][1] == entries(records)[2]
        assert tally == [1, 2]

    def test_split_into_runs_respects_key_boundaries(self):
        records = [
            rec(RecordKind.PUT, 1, b"a", b"x" * 50),
            rec(RecordKind.MERGE, 2, b"b", b"y" * 50),
            rec(RecordKind.MERGE, 3, b"b", b"y" * 50),
            rec(RecordKind.PUT, 4, b"c", b"z" * 50),
        ]
        runs = list(
            compaction_runs(
                entries(records), UnfoldedAppend(), False, 80, [0, 0]
            )
        )
        # No run may split records of the same key.
        for run in runs:
            keys = [entry[0] for entry in run]
            for other in runs:
                if other is not run:
                    assert not set(keys) & {entry[0] for entry in other}
        assert sum(len(r) for r in runs) == 4
        assert [len(r) for r in runs] == [3, 1]
