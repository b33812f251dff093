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

from typing import Dict, Iterator, List, Optional, Tuple

from .record import HEADER_SIZE, Record, RecordKind


class Memtable:
    def __init__(self) -> None:
        self._entries: Dict[bytes, List[Record]] = {}
        self._approximate_bytes = 0

    @property
    def approximate_bytes(self) -> int:
        return self._approximate_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def add(self, record: Record) -> None:
        kind, _, key, value = record
        # Arena accounting: every write consumes buffer space.
        self._approximate_bytes += HEADER_SIZE + len(key) + len(value)
        stack = self._entries.get(key)
        if stack is None:
            self._entries[key] = [record]
            return
        if kind is RecordKind.MERGE:
            stack.append(record)
        else:
            # PUT and DELETE supersede every older record for the key
            # (the arena bytes of superseded records stay allocated).
            stack.clear()
            stack.append(record)

    def add_all(self, records: List[Record]) -> None:
        """Bulk :meth:`add`: one pass with hoisted lookups, the
        memtable half of the group-commit write path."""
        entries = self._entries
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
        self._approximate_bytes += added

    def lookup(self, key: bytes) -> Optional[List[Record]]:
        """Return the pending record stack for ``key`` (oldest first)."""
        return self._entries.get(key)

    def sorted_records(self) -> Iterator[Record]:
        """Yield all records in (key, sequence) order for flushing."""
        for key in sorted(self._entries):
            yield from self._entries[key]

    def items(self) -> Iterator[Tuple[bytes, List[Record]]]:
        return iter(self._entries.items())
