"""FASTER-like store: hash index + hybrid log (Chandramouli et al.,
SIGMOD '18).

Design traits the paper's evaluation rests on:

* O(1) point lookups through the hash index
* **in-place updates** for records in the log's mutable region -- this
  is why FASTER dominates incremental streaming operators (Figure 13)
* no lazy merge: read-modify-write (``rmw``) materializes the merged
  value immediately, so holistic windows pay a copy of an ever-growing
  bucket on every event -- the mechanism behind FASTER losing the
  holistic workloads
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

from ..api import (
    OP_DELETE,
    OP_MERGE,
    OP_PUT,
    AppendMergeOperator,
    KVStore,
    MergeOperator,
)
from ..integrity import ScrubReport, resolve_checksum_kind
from ..storage import Storage
from .hashindex import HashIndex
from .hybridlog import RECORD_OVERHEAD, HybridLog, LogRecord


@dataclass
class FasterConfig:
    """The paper gives FASTER a 256 MB log; same at 1/1000 scale."""

    memory_budget: int = 256 * 1024
    mutable_fraction: float = 0.9
    segment_size: int = 16 * 1024
    #: checksum algorithm for sealed segments: "none" (same framing,
    #: every CRC stored as 0), "crc32", "crc32c", or None/"default" for
    #: the platform default
    checksum: Optional[str] = None


class FasterStore(KVStore):
    name = "faster"

    def __init__(
        self,
        config: Optional[FasterConfig] = None,
        merge_operator: Optional[MergeOperator] = None,
        storage: Optional[Storage] = None,
    ) -> None:
        super().__init__()
        self.config = config or FasterConfig()
        self.merge_operator = merge_operator or AppendMergeOperator()
        self.index = HashIndex()
        self.checksum_kind = resolve_checksum_kind(self.config.checksum)
        self.log = HybridLog(
            memory_budget=self.config.memory_budget,
            mutable_fraction=self.config.mutable_fraction,
            segment_size=self.config.segment_size,
            storage=storage,
            checksum_kind=self.checksum_kind,
        )
        # The point ops read the index's slots and the log's in-memory
        # records directly, keeping each op in one frame; they move the
        # index's and the log's counters as their methods would.
        self._slots = self.index._slots
        self._memory = self.log._memory
        #: the background probe, a C call: pops the segment-sealing
        #: time accrued since the last probe
        self.take_background_ns = partial(self.log.background.pop, "ns", 0)

    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """FASTER ``read``: index probe, then one log access."""
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        self.index.probes += 1
        address = self._slots.get(key)
        if address is None:
            return None
        record = self._memory.get(address)
        if record is None:  # below head: pending or sealed
            record = self.log.read(address)
        if record.tombstone:
            return None
        self.stats.bytes_read += RECORD_OVERHEAD + len(record.key) + record.alloc
        return record.value

    def put(self, key: bytes, value: bytes) -> None:
        """FASTER ``upsert``: in-place when mutable, else append (RCU)."""
        if self._closed:
            self._check_open()
        stats = self.stats
        stats.puts += 1
        index = self.index
        index.probes += 1
        address = self._slots.get(key)
        log = self.log
        if (
            address is not None
            and address >= log.head
            and address >= log.tail - log.mutable_budget
        ):
            # the mutable region: every record from head up is in memory
            record = self._memory[address]
            if len(value) <= record.alloc and not record.tombstone:
                record.value = value
                log.in_place_updates += 1
                stats.bytes_written += len(value)
                return
        index.updates += 1
        self._slots[key] = log.append(LogRecord(key, value))
        stats.bytes_written += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        """Append a tombstone and point the index at it."""
        if self._closed:
            self._check_open()
        self.stats.deletes += 1
        if key not in self._slots:
            return
        self.index.updates += 1
        self._slots[key] = self.log.append(LogRecord(key, b"", True))
        self.stats.bytes_written += len(key)

    def merge(self, key: bytes, operand: bytes) -> None:
        """FASTER ``rmw``: materialize the merge eagerly.

        Unlike the LSM's lazy operand append, the merged value is built
        now -- an O(current value size) copy when the bucket has grown
        past in-place headroom.
        """
        if self._closed:
            self._check_open()
        stats = self.stats
        stats.merges += 1
        index = self.index
        index.probes += 1
        address = self._slots.get(key)
        log = self.log
        existing: Optional[bytes] = None
        if address is not None:
            record = self._memory.get(address)
            if record is None:  # below head: pending or sealed
                record = log.read(address)
            if not record.tombstone:
                existing = record.value
                stats.bytes_read += RECORD_OVERHEAD + len(record.key) + record.alloc
        merged = self.merge_operator.full_merge(existing, (operand,))
        if (
            existing is not None
            and len(merged) <= record.alloc
            and address >= log.head
            and address >= log.tail - log.mutable_budget
        ):
            # mutable, hence the in-memory record read above
            record.value = merged
            log.in_place_updates += 1
        else:
            # The merged value outgrew its record (or lives in the
            # read-only/disk region): read-copy-update appends a fresh,
            # larger record -- the log churn that makes rmw expensive
            # for growing window buckets.
            index.updates += 1
            self._slots[key] = log.append(LogRecord(key, merged))
        stats.bytes_written += len(merged)

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------

    def multi_get(self, keys) -> List[Optional[bytes]]:
        """Vectored read: one hoisted index-probe/log-read loop."""
        self._check_open()
        self.stats.gets += len(keys)
        lookup = self.index.lookup
        read = self.log.read
        out: List[Optional[bytes]] = []
        push = out.append
        bytes_read = 0
        for key in keys:
            address = lookup(key)
            if address is None:
                push(None)
                continue
            record = read(address)
            if record.tombstone:
                push(None)
            else:
                bytes_read += record.size
                push(record.value)
        self.stats.bytes_read += bytes_read
        return out

    def apply_batch(self, ops) -> None:
        """Apply a write batch as ONE contiguous hybrid-log region.

        New record versions are collected and appended together via
        :meth:`HybridLog.append_many`; the hash index is repointed once
        per key afterwards.  Ops later in the batch see earlier members
        through a pending map, so same-key sequences keep per-op
        semantics (a pending tail record is trivially mutable -- exactly
        what the per-op path would find at the log tail).
        """
        self._check_open()
        stats = self.stats
        index = self.index
        log = self.log
        full_merge = self.merge_operator.full_merge
        batch: List[LogRecord] = []
        #: key -> position in ``batch`` of its newest pending record
        pending: Dict[bytes, int] = {}
        for opcode, key, value in ops:
            if opcode == OP_PUT:
                stats.puts += 1
                pos = pending.get(key)
                if pos is not None:
                    record = batch[pos]
                    if not record.tombstone and len(value) <= record.alloc:
                        record.value = value
                        log.in_place_updates += 1
                        stats.bytes_written += len(value)
                        continue
                else:
                    address = index.lookup(key)
                    if address is not None and log.can_update_in_place(
                        address, len(value)
                    ):
                        record = log.read(address)
                        if not record.tombstone:
                            log.update_in_place(address, value)
                            stats.bytes_written += len(value)
                            continue
                pending[key] = len(batch)
                batch.append(LogRecord(key, value))
                stats.bytes_written += len(key) + len(value)
            elif opcode == OP_MERGE:
                stats.merges += 1
                pos = pending.get(key)
                existing: Optional[bytes] = None
                if pos is not None:
                    record = batch[pos]
                    if not record.tombstone:
                        existing = record.value
                        stats.bytes_read += record.size
                    merged = full_merge(existing, (value,))
                    if existing is not None and len(merged) <= record.alloc:
                        record.value = merged
                        log.in_place_updates += 1
                    else:
                        pending[key] = len(batch)
                        batch.append(LogRecord(key, merged))
                    stats.bytes_written += len(merged)
                else:
                    address = index.lookup(key)
                    if address is not None:
                        record = log.read(address)
                        if not record.tombstone:
                            existing = record.value
                            stats.bytes_read += record.size
                    merged = full_merge(existing, (value,))
                    if (
                        address is not None
                        and existing is not None
                        and log.can_update_in_place(address, len(merged))
                    ):
                        log.update_in_place(address, merged)
                    else:
                        pending[key] = len(batch)
                        batch.append(LogRecord(key, merged))
                    stats.bytes_written += len(merged)
            elif opcode == OP_DELETE:
                stats.deletes += 1
                if key not in pending and key not in index:
                    continue
                pending[key] = len(batch)
                batch.append(LogRecord(key, b"", tombstone=True))
                stats.bytes_written += len(key)
            else:
                raise ValueError(
                    f"apply_batch is write-only; cannot apply opcode {opcode}"
                )
        if batch:
            addresses = log.append_many(batch)
            update = index.update
            for key, pos in pending.items():
                update(key, addresses[pos])

    def flush(self) -> None:
        self.log.flush()

    def storage_backend(self) -> Storage:
        return self.log.storage

    def scrub(self) -> ScrubReport:
        """Verify every sealed hybrid-log segment."""
        report = self.log.scrub()
        self.integrity.absorb(report)
        return report

    def __len__(self) -> int:
        return len(self.index)

    # -- introspection ----------------------------------------------------

    def fill_stats(self) -> dict:
        return {
            "index_entries": len(self.index),
            "log_tail": self.log.tail,
            "log_head": self.log.head,
            "log_memory_bytes": self.log.memory_bytes,
            "disk_reads": self.log.disk_reads,
            "in_place_updates": self.log.in_place_updates,
            "appends": self.log.appends,
        }
