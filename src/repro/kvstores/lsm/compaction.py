"""Compaction machinery: merging sorted runs of encoded records, with
merge-operator and tombstone resolution for the keys that need it.

The merge rules follow RocksDB semantics:

* per key, the newest PUT or DELETE is authoritative; older records drop
* MERGE operands newer than a PUT collapse into a single PUT via
  ``full_merge``
* operands newer than a DELETE resolve against an empty base
* operands with no base below them stay as operands -- unless the output
  is the bottom of the tree, where they resolve against an empty base
* tombstones are only dropped at the bottom of the tree
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..api import MergeOperator
from .record import Entry, Record, RecordKind, decode_record


def resolve_key_records(
    records: List[Record],
    merge_operator: MergeOperator,
    at_bottom: bool,
) -> List[Record]:
    """Compact all records for a single key into their minimal form.

    ``records`` is oldest-first.  Returns the records to emit (oldest
    first), possibly empty when a bottom-level tombstone cancels the key.
    """
    operands: List[Record] = []
    base: Record = None  # type: ignore[assignment]
    for record in reversed(records):  # newest first
        if record.kind is RecordKind.MERGE:
            operands.append(record)
        else:
            base = record
            break
    operands.reverse()  # oldest-first for full_merge
    newest_seq = records[-1].sequence
    key = records[-1].key

    if base is not None and base.kind is RecordKind.PUT:
        if not operands:
            return [base]
        value = merge_operator.full_merge(
            base.value, tuple(op.value for op in operands)
        )
        return [Record(RecordKind.PUT, newest_seq, key, value)]

    if base is not None and base.kind is RecordKind.DELETE:
        if operands:
            value = merge_operator.full_merge(
                None, tuple(op.value for op in operands)
            )
            return [Record(RecordKind.PUT, newest_seq, key, value)]
        if at_bottom:
            return []
        return [base]

    # No authoritative base in the inputs: only merge operands.
    if at_bottom:
        value = merge_operator.full_merge(None, tuple(op.value for op in operands))
        return [Record(RecordKind.PUT, newest_seq, key, value)]
    # Try to fold adjacent operands with partial merge to shrink the run.
    folded: List[Record] = []
    for operand in operands:
        if folded:
            combined = merge_operator.partial_merge(folded[-1].value, operand.value)
            if combined is not None:
                folded[-1] = Record(
                    RecordKind.MERGE, operand.sequence, key, combined
                )
                continue
        folded.append(operand)
    return folded


def compaction_runs(
    entries: Iterable[Entry],
    merge_operator: MergeOperator,
    at_bottom: bool,
    target_file_size: int,
    tally: List[int],
) -> Iterator[List[Entry]]:
    """Compact a (key, sequence)-ordered entry stream into output-file
    sized runs.

    A key with one record keeps its encoded bytes unless it is a MERGE
    or DELETE at the bottom; the other keys' records are decoded and
    passed to :func:`resolve_key_records`.  ``tally`` gains the number
    of records copied and of records resolved.  A run is cut at a key
    change once it holds ``target_file_size`` bytes, so one key's
    records never straddle two files and levels stay disjoint.
    """
    run: List[Entry] = []
    run_bytes = 0
    group: List[Entry] = []  # the records of one key
    # a last entry with no key ends the last key's group
    for entry in itertools.chain(entries, ((None, 0, 0, b""),)):
        if group and entry[0] != group[0][0]:
            if len(group) == 1 and (group[0][2] == RecordKind.PUT or not at_bottom):
                tally[0] += 1
            else:
                tally[1] += len(group)
                records = [decode_record(e[3])[0] for e in group]
                resolved = resolve_key_records(records, merge_operator, at_bottom)
                group = [(r.key, r.sequence, r.kind, r.encode()) for r in resolved]
            if group and run and run_bytes >= target_file_size:
                yield run
                run, run_bytes = [], 0
            for e in group:
                run.append(e)
                run_bytes += len(e[3])
            group = []
        group.append(entry)
    if run:
        yield run


class CompactionStats:
    """Counters describing compaction work performed by a store."""

    def __init__(self) -> None:
        self.compactions = 0
        self.records_in = 0
        self.records_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.tombstones_dropped = 0


def pick_overlapping(
    tables: Sequence, smallest: bytes, largest: bytes
) -> Tuple[list, list]:
    """Split ``tables`` into (overlapping, disjoint) w.r.t. a key range."""
    overlapping = []
    disjoint = []
    for table in tables:
        if table.overlaps(smallest, largest):
            overlapping.append(table)
        else:
            disjoint.append(table)
    return overlapping, disjoint
