"""Compaction over encoded records writes the same bytes as compaction
over decoded ones.

The reference below is the record path the store used before its
compaction copied encoded records: a k-way merge of decoded
:class:`Record` streams, per-key resolution of every key, a split into
output-file-sized runs, and :func:`build_sstable` re-encoding each
record.  Every output blob of the raw path must equal the reference's,
byte for byte, under random put/merge/delete mixes, tiny block and file
sizes (so a key's records straddle blocks and output tables), both
sides of the bottom level, and every checksum kind.
"""

import heapq
import itertools
from typing import Iterable, Iterator, List, Sequence

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.kvstores import AppendMergeOperator, CounterMergeOperator  # noqa: E402
from repro.kvstores.api import MergeOperator  # noqa: E402
from repro.kvstores.integrity import ChecksumKind  # noqa: E402
from repro.kvstores.lsm.compaction import (  # noqa: E402
    compaction_runs,
    resolve_key_records,
)
from repro.kvstores.lsm.record import Record, RecordKind  # noqa: E402
from repro.kvstores.lsm.sstable import build_sstable, write_sstable  # noqa: E402
from repro.kvstores.storage import MemoryStorage  # noqa: E402

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)


# -- the record path (reference) ---------------------------------------------


def merged_record_stream(tables: Sequence) -> Iterator[Record]:
    """K-way merge of SSTable record streams, ordered by (key, sequence)."""
    streams = [table.iter_records() for table in tables]
    return heapq.merge(*streams, key=lambda r: (r.key, r.sequence))


def compact_records(
    records: Iterable[Record], merge_operator: MergeOperator, at_bottom: bool
) -> Iterator[Record]:
    """Stream compaction over records sorted by (key, sequence)."""
    for _, group in itertools.groupby(records, key=lambda r: r.key):
        yield from resolve_key_records(list(group), merge_operator, at_bottom)


def split_into_runs(
    records: Iterable[Record], target_file_size: int
) -> Iterator[List[Record]]:
    """Partition an ordered record stream into output-file-sized chunks;
    records for the same key never straddle a chunk boundary."""
    chunk: List[Record] = []
    chunk_bytes = 0
    for record in records:
        if chunk and chunk_bytes >= target_file_size and record.key != chunk[-1].key:
            yield chunk
            chunk = []
            chunk_bytes = 0
        chunk.append(record)
        chunk_bytes += len(record.encode())
    if chunk:
        yield chunk


# -- inputs ------------------------------------------------------------------


class Unfolded(AppendMergeOperator):
    """Append semantics without partial merge: operand runs stay apart."""

    def partial_merge(self, left, right):
        return None


OPERATORS = {
    "append": AppendMergeOperator(),
    "counter": CounterMergeOperator(),
    "unfolded": Unfolded(),
}


@st.composite
def compactions(draw):
    """Input tables (each sorted by (key, sequence), sequences unique
    across them) and the knobs of one compaction."""
    operator = draw(st.sampled_from(sorted(OPERATORS)))
    key_count = draw(st.integers(1, 12))
    keys = [b"key-%02d" % i for i in range(key_count)]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(keys),
                st.sampled_from([RecordKind.PUT, RecordKind.MERGE, RecordKind.DELETE]),
                st.integers(0, 40),
            ),
            min_size=1,
            max_size=60,
        )
    )
    table_count = draw(st.integers(1, 4))
    tables = [[] for _ in range(table_count)]
    for sequence, (key, kind, size) in enumerate(ops, start=1):
        if kind is RecordKind.DELETE:
            value = b""
        elif operator == "counter":
            value = (sequence * 7 - 100).to_bytes(8, "little", signed=True)
        else:
            value = bytes([sequence % 251]) * size
        tables[draw(st.integers(0, table_count - 1))].append(
            Record(kind, sequence, key, value)
        )
    return dict(
        tables=[sorted(t, key=lambda r: (r.key, r.sequence)) for t in tables if t],
        operator=OPERATORS[operator],
        at_bottom=draw(st.booleans()),
        block_size=draw(st.integers(1, 200)),
        target_file_size=draw(st.integers(1, 400)),
        checksum_kind=draw(
            st.sampled_from([ChecksumKind.NONE, ChecksumKind.CRC32, ChecksumKind.CRC32C])
        ),
    )


def input_tables(case):
    storage = MemoryStorage()
    return [
        build_sstable(
            file_id,
            records,
            storage,
            block_size=case["block_size"],
            checksum_kind=case["checksum_kind"],
            blob_prefix="in",
        )
        for file_id, records in enumerate(case["tables"], start=1)
    ]


def outputs(runs, build, case):
    storage = MemoryStorage()
    tables = [
        build(
            file_id,
            run,
            storage,
            block_size=case["block_size"],
            checksum_kind=case["checksum_kind"],
        )
        for file_id, run in enumerate(runs, start=1)
    ]
    return tables, [storage.read(t.blob_name) for t in tables]


def reference(case):
    stream = merged_record_stream(input_tables(case))
    compacted = compact_records(stream, case["operator"], case["at_bottom"])
    return outputs(split_into_runs(compacted, case["target_file_size"]), build_sstable, case)


def raw(case, tally):
    tables = input_tables(case)
    entries = heapq.merge(*(t.iter_entries() for t in tables))
    runs = compaction_runs(
        entries, case["operator"], case["at_bottom"], case["target_file_size"], tally
    )
    return outputs(runs, write_sstable, case)


# -- properties --------------------------------------------------------------


@SETTINGS
@given(compactions())
def test_raw_compaction_writes_the_reference_bytes(case):
    tally = [0, 0]
    ref_tables, ref_blobs = reference(case)
    raw_tables, raw_blobs = raw(case, tally)
    assert raw_blobs == ref_blobs
    for got, want in zip(raw_tables, ref_tables):
        assert (got.smallest_key, got.largest_key) == (want.smallest_key, want.largest_key)
        assert (got.num_entries, got.num_tombstones) == (want.num_entries, want.num_tombstones)
        assert got.oldest_tombstone_seq == want.oldest_tombstone_seq
        assert got.max_sequence == want.max_sequence
    assert sum(tally) == sum(len(t) for t in case["tables"])


@SETTINGS
@given(compactions())
def test_only_keys_that_need_resolving_are_resolved(case):
    tally = [0, 0]
    raw(case, tally)
    per_key = {}
    for record in itertools.chain.from_iterable(case["tables"]):
        per_key.setdefault(record.key, []).append(record.kind)
    copied = sum(
        1
        for kinds in per_key.values()
        if len(kinds) == 1 and (kinds[0] is RecordKind.PUT or not case["at_bottom"])
    )
    assert tally == [copied, sum(len(k) for k in per_key.values()) - copied]


@pytest.mark.parametrize("at_bottom", [False, True])
def test_a_run_of_exactly_the_target_size_is_cut(at_bottom):
    """A run is cut at the next key once it holds ``target_file_size``
    bytes: holding exactly that many already cuts."""
    records = [Record(RecordKind.PUT, seq, b"k%d" % seq, b"v" * 10) for seq in range(1, 7)]
    case = dict(
        tables=[records[::2], records[1::2]],
        operator=OPERATORS["append"],
        at_bottom=at_bottom,
        block_size=64,
        target_file_size=2 * len(records[0].encode()),
        checksum_kind=ChecksumKind.CRC32,
    )
    ref_tables, ref_blobs = reference(case)
    raw_tables, raw_blobs = raw(case, [0, 0])
    assert [t.num_entries for t in raw_tables] == [2, 2, 2]
    assert raw_blobs == ref_blobs


def test_empty_inputs_write_nothing():
    assert list(compaction_runs(iter(()), AppendMergeOperator(), True, 64, [0, 0])) == []
