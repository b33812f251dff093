"""Write buffer (memtable) for the LSM store.

RocksDB uses a skiplist; here a hash map gives the same O(1) point
operations while ordered iteration is produced by sorting at flush time,
which charges the ordering cost where an LSM actually pays it (on flush,
off the hot write path for our single-threaded model).

Each key maps to a *stack* of pending records so that the lazy-merge
semantics survive inside one memtable: a MERGE after a PUT keeps both,
a PUT or DELETE collapses everything before it.

Memory accounting is arena-style, like RocksDB's: every write consumes
buffer space until the memtable is flushed, even when it supersedes an
older record for the same key.  Update-heavy workloads therefore flush
at their *write rate*, not their working-set size -- the write
amplification that lets in-place stores beat LSMs on such workloads.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .record import HEADER_SIZE, Record, RecordKind


class Memtable:
    """A key's records sit in :attr:`entries` as a stack, oldest first.

    The store's single-record write applies the stack rule and the
    arena accounting inline, on these two attributes; :meth:`add_all`
    is the same rule for a batch of records.
    """

    def __init__(self) -> None:
        self.entries: Dict[bytes, List[Record]] = {}
        #: arena bytes: every record written, superseded or not
        self.approximate_bytes = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def add_all(self, records: List[Record]) -> None:
        """Add ``records`` in order: a MERGE stacks on the key's
        records, a PUT or DELETE supersedes them (their arena bytes stay
        allocated)."""
        entries = self.entries
        get = entries.get
        merge = RecordKind.MERGE
        added = 0
        for record in records:
            kind, _, key, value = record
            added += HEADER_SIZE + len(key) + len(value)
            stack = get(key)
            if stack is None:
                entries[key] = [record]
            elif kind is merge:
                stack.append(record)
            else:
                stack.clear()
                stack.append(record)
        self.approximate_bytes += added

    def sorted_records(self) -> Iterator[Record]:
        """Yield all records in (key, sequence) order for flushing."""
        for key in sorted(self.entries):
            yield from self.entries[key]
