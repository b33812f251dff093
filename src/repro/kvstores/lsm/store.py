"""RocksDB-like log-structured merge-tree store.

Implements the design traits the paper's evaluation leans on:

* writes land in a memtable after a WAL append; full memtables become
  immutable and are flushed to sorted runs (SSTables) in level 0
* ``merge`` appends a lazy operand -- O(1) at write time -- and the cost
  of combining operands is deferred to reads and compaction (this is why
  LSM stores win the paper's holistic-window workloads, Figure 13)
* pluggable compaction (:mod:`.policies`): leveled (the default -- L0
  runs may overlap; L1+ are sorted, disjoint runs compacted downward
  when a level outgrows its budget), tiered, and universal shapes
* reads consult memtables, then L0 newest-to-oldest, then one file per
  deeper level (or every covering run, for overlapping-run policies),
  short-circuited by per-table bloom filters and served through a
  shared LRU block cache

Two maintenance modes (``LSMConfig.background``):

* **inline** (default): flushes and compactions run synchronously on
  the write path, timed into the background-time account that the
  replayer subtracts from client latency -- the original single-thread
  model, byte-for-byte unchanged
* **background**: full memtables queue as immutables behind a
  dedicated flush worker, compactions run on a second worker
  (:mod:`.maintenance`), the WAL is segmented per memtable so flushed
  segments can be dropped independently, and writers block only at the
  write-stall gate (queue depth / L0 run count); only that stall time
  enters the background-time account
"""

from __future__ import annotations

import heapq
import math
import operator
import re
import threading
import time
import warnings
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .maintenance import MaintenanceWorkers

from ..api import (
    OP_DELETE,
    OP_MERGE,
    OP_PUT,
    AppendMergeOperator,
    BatchOp,
    KVStore,
    MergeOperator,
    StoreStats,
)
from ...obs import tracing
from ..cache import LRUCache
from ..integrity import (
    CorruptionError,
    ScrubFinding,
    ScrubReport,
    checksum_fn,
    resolve_checksum_kind,
    timed_scrub,
)
from ..storage import MemoryStorage, Storage, StorageError
from .compaction import CompactionStats, compaction_runs, pick_overlapping
from .memtable import Memtable
from .policies import CompactionTask, resolve_policy
from .record import (
    HEADER_SIZE,
    RECORD_HEADER,
    WAL_FRAME,
    Record,
    RecordKind,
    decode_wal,
    frame_record,
    frame_records,
    wal_header,
)
from .sstable import SSTable, build_sstable, open_sstable, write_sstable

#: numbered WAL segment blobs used by background mode ("wal-000001");
#: inline mode keeps the single legacy "wal-current" blob
_WAL_SEGMENT_RE = re.compile(r"^wal-(\d{6,})$")

#: background-build duty cycle (see :meth:`RocksLSMStore._cooperative`):
#: work ~_COOP_SLICE_S, sleep _COOP_SLEEP_S.  Timer slack and scheduler
#: wake latency stretch the effective pause to ~0.2-1ms alongside an
#: active writer thread, so the slice is sized to keep the worker's
#: duty cycle above realistic maintenance demand (~20-25%).
_COOP_SLICE_S = 300e-6
_COOP_SLEEP_S = 100e-6

# The point-op path's constants, bound once: ``_write`` encodes the WAL
# frame and builds the record without a Python frame for either.
_PUT = RecordKind.PUT
_MERGE = RecordKind.MERGE
_DELETE = RecordKind.DELETE
_new_record = tuple.__new__
_pack_header = RECORD_HEADER.pack
_pack_frame = WAL_FRAME.pack
_FRAME_SIZE = WAL_FRAME.size


def _block_cache_counter(name: str) -> property:
    return property(
        lambda stats: getattr(stats._block_cache, name),
        lambda stats, value: setattr(stats._block_cache, name, value),
    )


class _BlockCacheStats(StoreStats):
    """StoreStats whose cache counters are the block cache's own."""

    cache_hits = _block_cache_counter("hits")
    cache_misses = _block_cache_counter("misses")

    def __init__(self, block_cache: LRUCache) -> None:
        self._block_cache = block_cache
        super().__init__()


@dataclass
class LSMConfig:
    """Tuning knobs, scaled for Python-sized workloads.

    The paper configures RocksDB with two 128 MB write buffers and a
    64 MB block cache; the defaults here keep the same proportions at
    1/1000 scale (128 KB buffers, 64 KB cache) so that 10^4-10^5-op
    runs exercise flushes and compactions the way the paper's 2M-op
    runs do.
    """

    write_buffer_size: int = 128 * 1024
    max_write_buffers: int = 2
    block_size: int = 4096
    block_cache_size: int = 64 * 1024
    bits_per_key: int = 10
    l0_compaction_trigger: int = 4
    max_levels: int = 7
    level_base_bytes: int = 1024 * 1024
    level_multiplier: int = 10
    target_file_size: int = 256 * 1024
    enable_wal: bool = True
    #: checksum algorithm for WAL frames and SSTable blocks:
    #: "crc32c", "crc32", "none" (same framing, every CRC stored as 0),
    #: or None/"default" for the fastest available kind
    checksum: Optional[str] = None
    #: compaction shape: "leveled", "tiered", or "universal"
    #: (see :mod:`repro.kvstores.lsm.policies`)
    compaction_policy: str = "leveled"
    #: runs per level before a tiered whole-level merge; 0 reuses
    #: ``l0_compaction_trigger``
    tier_trigger: int = 0
    #: universal: full-merge when bytes above the deepest level reach
    #: this multiple of it
    universal_max_size_amp: float = 2.0
    #: universal: full-merge when the total sorted-run count reaches this
    universal_max_runs: int = 8
    #: run flushes and compactions on background worker threads instead
    #: of inline on the write path
    background: bool = False
    #: background: writers stall while this many immutable memtables
    #: are queued for flush
    max_immutable_memtables: int = 4
    #: background: writers stall while L0 holds this many runs
    l0_stall_trigger: int = 12
    #: background: seconds each worker sleeps before installing its
    #: work -- lets crash tests deterministically land a kill
    #: mid-flush / mid-compaction (0 = no delay)
    background_delay_s: float = 0.0

    def max_level_bytes(self, level: int) -> int:
        """Byte budget of level ``level`` (level 1 is the base)."""
        return self.level_base_bytes * self.level_multiplier ** max(0, level - 1)


class RocksLSMStore(KVStore):
    """The RocksDB stand-in used throughout the evaluation."""

    name = "rocksdb"

    def __init__(
        self,
        config: Optional[LSMConfig] = None,
        merge_operator: Optional[MergeOperator] = None,
        storage: Optional[Storage] = None,
    ) -> None:
        super().__init__()
        self.config = config or LSMConfig()
        self.merge_operator = merge_operator or AppendMergeOperator()
        self.storage = storage if storage is not None else MemoryStorage()
        self.block_cache: LRUCache = LRUCache(
            self.config.block_cache_size, sizer=operator.attrgetter("size_bytes")
        )
        self.stats = _BlockCacheStats(self.block_cache)
        self.compaction_stats = CompactionStats()
        self._memtable = Memtable()
        self._immutables: List[Memtable] = []
        self._levels: List[List[SSTable]] = [[] for _ in range(self.config.max_levels)]
        self._sequence = 0
        self._next_file_id = 0
        self._wal_name = "wal-current"
        self._wal_bytes = 0
        self._new_outputs: List[SSTable] = []
        #: background-maintenance nanoseconds under ``"ns"`` until the
        #: probe pops them: inline mode, the flush/compaction work done
        #: on the write path; background mode, writer *stall* time only
        #: (worker busy time is concurrent, never charged here)
        self._background: Dict[str, int] = {}
        #: serializes accruals; the probe takes no lock (see
        #: _add_background_ns)
        self._background_lock = threading.Lock()
        #: the background probe, a C call: pops what accrued since the
        #: last probe
        self.take_background_ns = partial(self._background.pop, "ns", 0)
        #: tree mutex: guards memtables, levels, WAL segment lists, and
        #: stats in background mode (a no-op re-entrant lock inline)
        self._mutex = threading.RLock()
        self._write_stall_count = 0
        self._write_stall_ns = 0
        self.checksum_kind = resolve_checksum_kind(self.config.checksum)
        self._checksum = checksum_fn(self.checksum_kind)
        #: writes applied (batch members each count one); a FADE pass
        #: is due when this reaches ``_fade_at``
        self._writes = 0
        #: tables removed from the tree after failing a checksum
        self.quarantined: List[SSTable] = []
        self._policy = resolve_policy(self.config.compaction_policy)
        self._validate_policy()
        #: background-mode WAL segments: the active memtable's segments,
        #: one segment list per queued immutable, and per-segment sizes
        self._wal_seq = 0
        self._active_segments: List[str] = []
        self._immutable_segments: List[List[str]] = []
        self._segment_bytes = {}
        self._bg: Optional["MaintenanceWorkers"] = None
        if self.config.background:
            if self.config.enable_wal:
                # Seed the segment counter past anything already on
                # disk so a recovering store never overwrites segments
                # it has yet to replay.
                for name in self.storage.list():
                    match = _WAL_SEGMENT_RE.match(name)
                    if match:
                        self._wal_seq = max(self._wal_seq, int(match.group(1)))
                self._active_segments = [self._new_wal_segment()]
            from .maintenance import MaintenanceWorkers

            self._bg = MaintenanceWorkers(self)
        elif self.config.enable_wal and not self.storage.exists(self._wal_name):
            self._reset_wal()

    #: the write count at which :meth:`_request_fade` next runs: never
    #: reached here, Lethe keeps its own
    _fade_at: float = math.inf

    def _validate_policy(self) -> None:
        """Subclass hook: veto incompatible compaction policies."""

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.puts += 1
        self._write(_PUT, key, value)

    def delete(self, key: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.deletes += 1
        self._write(_DELETE, key, b"")

    def merge(self, key: bytes, operand: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.merges += 1
        self._write(_MERGE, key, operand)

    def _write(self, kind: RecordKind, key: bytes, value: bytes) -> None:
        """Apply one write: sequence, WAL frame, memtable, rotation.

        One body for both maintenance modes (background mode holds the
        tree mutex and counts segment bytes).  The frame is
        :func:`~.record.frame_record`'s bytes, encoded inline, and the
        memtable update is :meth:`Memtable.add_all`'s rule for one
        record, so a write runs no Python frame below this one until
        the storage append.
        """
        mutex = None if self._bg is None else self._mutex
        if mutex is not None:
            mutex.acquire()
        try:
            self._sequence = sequence = self._sequence + 1
            record = _new_record(Record, (kind, sequence, key, value))
            size = HEADER_SIZE + len(key) + len(value)
            config = self.config
            if config.enable_wal:
                payload = _pack_header(kind, sequence, len(key), len(value)) + key + value
                self.storage.append(
                    self._wal_name, _pack_frame(self._checksum(payload), size) + payload
                )
                framed = _FRAME_SIZE + size
                if mutex is not None:
                    self._segment_bytes[self._wal_name] += framed
                self._wal_bytes += framed
                self.stats.bytes_written += framed
            memtable = self._memtable
            # Arena accounting: every write consumes buffer space.
            memtable.approximate_bytes = used = memtable.approximate_bytes + size
            entries = memtable.entries
            stack = entries.get(key) if kind is _MERGE else None
            if stack is None:
                # PUT and DELETE supersede every older record for the key
                entries[key] = [record]
            else:
                stack.append(record)
            if used >= config.write_buffer_size:
                if mutex is None:
                    self._rotate_memtable()
                else:
                    self._rotate_background()
                    self._stall_for_room()
            self._writes = writes = self._writes + 1
        finally:
            if mutex is not None:
                mutex.release()
        if writes >= self._fade_at:
            self._request_fade()

    def apply_batch(self, ops: Sequence[BatchOp]) -> None:
        """Group commit: one checksummed WAL frame for the whole batch.

        Compared to N ``put``/``merge``/``delete`` calls, a batch pays
        the WAL framing, checksum call, storage append, and the
        flush-threshold check once, and makes a single pass over the
        memtable -- RocksDB's ``WriteBatch`` economics.  The frame is
        atomic on replay: a torn group frame drops the whole batch,
        never a prefix of it.
        """
        self._check_open()
        if not ops:
            return
        records: List[Record] = []
        append = records.append
        stats = self.stats
        sequence = self._sequence
        for opcode, key, value in ops:
            sequence += 1
            if opcode == OP_PUT:
                stats.puts += 1
                append(Record(RecordKind.PUT, sequence, key, value))
            elif opcode == OP_MERGE:
                stats.merges += 1
                append(Record(RecordKind.MERGE, sequence, key, value))
            elif opcode == OP_DELETE:
                stats.deletes += 1
                append(Record(RecordKind.DELETE, sequence, key, b""))
            else:
                raise ValueError(
                    f"apply_batch is write-only; cannot apply opcode {opcode}"
                )
        self._sequence = sequence
        background = self._bg is not None
        with self._mutex:
            if self.config.enable_wal:
                with tracing.span("lsm.wal_commit", records=len(records)) as sp:
                    encoded = frame_records(records, self.checksum_kind)
                    self.storage.append(self._wal_name, encoded)
                    sp.add(bytes=len(encoded))
                if background:
                    self._segment_bytes[self._wal_name] += len(encoded)
                self._wal_bytes += len(encoded)
                stats.bytes_written += len(encoded)
            self._memtable.add_all(records)
            if self._memtable.approximate_bytes >= self.config.write_buffer_size:
                if background:
                    self._rotate_background()
                    self._stall_for_room()
                else:
                    self._rotate_memtable()
            self._writes += len(records)
        if self._writes >= self._fade_at:
            self._request_fade()

    def _request_fade(self) -> None:
        """Subclass hook: the write count reached ``_fade_at`` (Lethe
        runs or queues a FADE pass and moves the threshold)."""

    def _reset_wal(self) -> None:
        """(Re)create the WAL holding only its format header."""
        self.storage.write(self._wal_name, wal_header(self.checksum_kind))
        self._wal_bytes = 0

    def _new_wal_segment(self) -> str:
        """Create the next numbered WAL segment and make it active."""
        self._wal_seq += 1
        name = f"wal-{self._wal_seq:06d}"
        self.storage.write(name, wal_header(self.checksum_kind))
        self._segment_bytes[name] = 0
        self._wal_name = name
        return name

    def _drop_wal_segments(self, names: List[str]) -> None:
        """Delete flushed-and-committed WAL segments."""
        for name in names:
            self.storage.delete(name)
            self._wal_bytes -= self._segment_bytes.pop(name, 0)
        if self._wal_bytes < 0:
            self._wal_bytes = 0

    def _rotate_memtable(self) -> None:
        if not self._memtable:
            return
        self._immutables.append(self._memtable)
        self._memtable = Memtable()
        if len(self._immutables) >= self.config.max_write_buffers:
            # Flush + any cascading compactions are background work in
            # RocksDB; track the time so latency reporting can exclude it.
            begin = time.perf_counter_ns()
            self._flush_immutables()
            self._add_background_ns(time.perf_counter_ns() - begin)

    def _rotate_background(self) -> None:
        """Queue the full memtable for the flush worker (mutex held)."""
        if not self._memtable:
            return
        self._immutables.append(self._memtable)
        self._immutable_segments.append(self._active_segments)
        self._memtable = Memtable()
        if self.config.enable_wal:
            self._active_segments = [self._new_wal_segment()]
        else:
            self._active_segments = []
        self._bg.work.notify_all()

    def _stall_needed(self) -> bool:
        cfg = self.config
        return (
            len(self._immutables) >= cfg.max_immutable_memtables
            or len(self._levels[0]) >= cfg.l0_stall_trigger
        )

    def _stall_for_room(self) -> None:
        """Write-stall gate (mutex held): block the writer while the
        flush queue or L0 exceed their limits.

        The time spent here is the *client-visible* cost of background
        maintenance, so it feeds the background-time account that the
        replayer subtracts -- mirroring how a real store's stalled
        writers, not its worker threads, are what latency percentiles
        see.
        """
        bg = self._bg
        if not self._stall_needed():
            return
        self._write_stall_count += 1
        begin = time.perf_counter_ns()
        with tracing.span("lsm.write_stall") as sp:
            while self._stall_needed():
                if bg.error is not None:
                    raise bg.error
                if bg.stopped or bg.abandoned:
                    break
                bg.room.wait(0.05)
            stalled = time.perf_counter_ns() - begin
            sp.add(stall_ms=round(stalled / 1e6, 3))
        self._write_stall_ns += stalled
        self._add_background_ns(stalled)

    def _add_background_ns(self, delta: int) -> None:
        # Pop, then set: a probe that pops between the two finds no key
        # and takes 0, and the set carries what it would have taken, so
        # no accrual is lost or counted twice.
        with self._background_lock:
            accrued = self._background
            accrued["ns"] = accrued.pop("ns", 0) + delta

    @property
    def write_stall_count(self) -> int:
        """Write stalls imposed by the backpressure gate."""
        return self._write_stall_count

    @property
    def write_stall_ns(self) -> int:
        """Total nanoseconds writers spent blocked in write stalls."""
        return self._write_stall_ns

    @property
    def immutable_queue_depth(self) -> int:
        """Immutable memtables queued for flushing."""
        return len(self._immutables)

    def _flush_immutables(self) -> None:
        while self._immutables:
            memtable = self._immutables.pop(0)
            self._flush_memtable(memtable)
        # Persist the level layout *before* truncating the WAL: a crash
        # in between must never leave data reachable from neither.
        self._write_manifest()
        if self.config.enable_wal:
            self._reset_wal()

    def _flush_memtable(self, memtable: Memtable) -> None:
        table = self._build_flush_table(memtable)
        self._install_flushed_table(table)
        self._maybe_compact()

    def _bg_pause(self) -> None:
        """One politeness pause of a background build (see
        :meth:`_cooperative`).  Skips the sleep once writers are
        stalling: the worker then drains at full speed and the stall
        gate accounts the pressure honestly."""
        time.sleep(0.0 if self._stall_needed() else _COOP_SLEEP_S)

    def _cooperative(self, records, slice_s: float = _COOP_SLICE_S):
        """Duty-cycle background builds: work ~``slice_s`` seconds,
        then briefly *sleep* so the foreground writer can run.

        On a single core a CPU-bound worker is not background at all:
        it holds the GIL for a full switch interval (5 ms by default)
        per slice, and ``time.sleep(0)`` does not hand the GIL over --
        a waiting thread only forces a drop after the switch interval.
        A real sleep releases the GIL for its whole duration, so the
        writer's worst-case interference drops from the switch interval
        to one work slice.  Slices are time-based because per-record
        cost varies ~10x between flush encoding and deep k-way merges.
        Inline mode returns ``records`` untouched -- the build runs on
        the write path there anyway.
        """
        if self._bg is None:
            return records

        def generator():
            clock = time.perf_counter
            deadline = clock() + slice_s
            for record in records:
                if clock() >= deadline:
                    self._bg_pause()
                    deadline = clock() + slice_s
                yield record

        return generator()

    def _build_flush_table(self, memtable: Memtable) -> Optional[SSTable]:
        """Write a memtable out as an SSTable (not yet in the tree)."""
        with tracing.span("lsm.flush", bytes=memtable.approximate_bytes) as sp:
            table = build_sstable(
                self._take_file_id(),
                self._cooperative(memtable.sorted_records()),
                self.storage,
                block_size=self.config.block_size,
                bits_per_key=self.config.bits_per_key,
                checksum_kind=self.checksum_kind,
                cooperate=self._bg_pause if self._bg is not None else None,
            )
            if table is not None:
                sp.add(sstable_bytes=table.data_size)
        return table

    def _install_flushed_table(self, table: Optional[SSTable]) -> None:
        """Add a freshly built SSTable to level 0."""
        if table is None:
            return
        with self._mutex:
            self._levels[0].append(table)
            self.stats.flushes += 1
            self.stats.bytes_written += table.data_size
            self._note_flushed_table(table)

    def _note_flushed_table(self, table: SSTable) -> None:
        """Subclass hook, called under the tree mutex when a flushed
        table lands in level 0 (Lethe stamps tombstone ages here)."""

    def flush(self) -> None:
        """Flush the active and immutable memtables to level 0.

        Background mode queues the active memtable and waits for the
        flush worker to drain the queue.
        """
        bg = self._bg
        if bg is None:
            if self._memtable:
                self._rotate_memtable()
            self._flush_immutables()
            return
        with self._mutex:
            if self._memtable:
                self._rotate_background()
            while self._immutables or bg.flush_busy:
                if bg.error is not None:
                    raise bg.error
                if bg.abandoned:
                    return
                bg.room.wait(0.05)

    def quiesce(self) -> None:
        """Drain all background maintenance: flush queue empty, no
        compaction in flight, no pending policy work.  No-op inline."""
        bg = self._bg
        if bg is None:
            return
        self.flush()
        with self._mutex:
            while True:
                if bg.error is not None:
                    raise bg.error
                if bg.stopped or bg.abandoned:
                    return
                if (
                    not bg.flush_busy
                    and not bg.compact_busy
                    and not bg.fade_requested
                    and not self._immutables
                    and self._policy.pick(self) is None
                ):
                    return
                bg.room.wait(0.05)

    def _run_fade(self) -> None:
        """Execute a queued FADE pass (Lethe overrides; base no-op)."""

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        if self._bg is not None:
            with self._mutex:
                return self._get_resolved(key, self._memtable.entries.get(key))
        stack = self._memtable.entries.get(key)
        if stack:
            # The newest record of the active memtable decides the key
            # unless it is a merge operand.
            kind, _, _, value = stack[-1]
            if kind is _PUT:
                return value
            if kind is _DELETE:
                return None
        return self._get_resolved(key, stack)

    def multi_get(self, keys) -> List[Optional[bytes]]:
        """Vectored get: probe keys in sorted order.

        Sorting means keys that land in the same SSTable block hit the
        block cache back-to-back (one block read and key index serve
        the whole cluster) and per-table bloom/index probes run with
        warm lookup state -- the MultiGet locality trick.  Results come
        back in input order; duplicate keys are resolved once.
        """
        self._check_open()
        self.stats.gets += len(keys)
        with self._mutex:
            resolve = self._get_resolved
            active = self._memtable.entries.get
            resolved = {key: resolve(key, active(key)) for key in sorted(set(keys))}
            return [resolved[key] for key in keys]

    def _get_resolved(
        self, key: bytes, stack: Optional[List[Record]]
    ) -> Optional[bytes]:
        """Resolve ``key`` from its record ``stack`` in the active
        memtable (None when it has none) down through the immutables,
        newest first, and the tables."""
        operands: List[bytes] = []
        if stack:
            resolved, value = self._resolve_newest_first(stack, operands)
            if resolved:
                return value
        for memtable in reversed(self._immutables):
            stack = memtable.entries.get(key)
            if stack:
                resolved, value = self._resolve_newest_first(stack, operands)
                if resolved:
                    return value
        resolved, value = self._lookup_tables(key, operands)
        # no put or tombstone: the merge operands alone make the value
        return value if resolved else self._apply_tombstone(operands)

    def _resolve_newest_first(
        self, records: List[Record], operands: List[bytes]
    ) -> Tuple[bool, Optional[bytes]]:
        """Resolve one key's ``records`` (oldest first) from the newest
        back, collecting merge operands until a put or tombstone."""
        for record in reversed(records):
            if record.kind is RecordKind.MERGE:
                operands.append(record.value)
            elif record.kind is RecordKind.PUT:
                return True, self._apply_operands(record.value, operands)
            else:  # DELETE
                return True, self._apply_tombstone(operands)
        return False, None

    def _lookup_tables(
        self, key: bytes, operands: List[bytes]
    ) -> Tuple[bool, Optional[bytes]]:
        if self._policy.overlapping_runs:
            return self._lookup_tables_overlapping(key, operands)
        for table in reversed(self._levels[0]):
            resolved, value = self._scan_table_records(table, key, operands)
            if resolved:
                return True, value
        for level in self._levels[1:]:
            for table in level:
                if table.smallest_key <= key <= table.largest_key:
                    resolved, value = self._scan_table_records(table, key, operands)
                    if resolved:
                        return True, value
                    break  # disjoint level: only one file can hold the key
        return False, None

    def _lookup_tables_overlapping(
        self, key: bytes, operands: List[bytes]
    ) -> Tuple[bool, Optional[bytes]]:
        """Probe every run covering ``key``, newest data first.

        Tiered/universal runs may overlap in key space but never in
        sequence intervals (flush order and whole-level merges keep
        each run's epoch contiguous and disjoint from its siblings'),
        so descending ``max_sequence`` order is newest-first.
        """
        candidates = [
            table
            for level in self._levels
            for table in level
            if table.smallest_key <= key <= table.largest_key
        ]
        candidates.sort(key=lambda t: -t.max_sequence)
        for table in candidates:
            resolved, value = self._scan_table_records(table, key, operands)
            if resolved:
                return True, value
        return False, None

    def _scan_table_records(
        self, table: SSTable, key: bytes, operands: List[bytes]
    ) -> Tuple[bool, Optional[bytes]]:
        try:
            records = table.get_records(key, self.block_cache)
        except CorruptionError:
            # Fail-stop: never serve bytes from a damaged block.  The
            # table is quarantined so later reads of this key range go
            # to intact tables in deeper levels instead.
            self._quarantine_table(table)
            raise
        if not records:
            return False, None
        self.stats.bytes_read += HEADER_SIZE * len(records) + sum(
            [len(record.key) + len(record.value) for record in records]
        )
        return self._resolve_newest_first(records, operands)

    def _apply_operands(self, base: bytes, operands: List[bytes]) -> bytes:
        if not operands:
            return base
        return self.merge_operator.full_merge(base, tuple(reversed(operands)))

    def _apply_tombstone(self, operands: List[bytes]) -> Optional[bytes]:
        if not operands:
            return None
        return self.merge_operator.full_merge(None, tuple(reversed(operands)))

    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Merged ordered scan across memtables and all levels.

        Background mode materializes the scan under the tree mutex so
        the iterator never races a concurrent flush or compaction.
        """
        self._check_open()
        if self._bg is None:
            return self._scan_resolved(start, end)
        with self._mutex:
            return iter(list(self._scan_resolved(start, end)))

    def _scan_resolved(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        sources: List[List[Record]] = []
        for memtable in [self._memtable] + list(self._immutables):
            sources.append(
                [r for r in memtable.sorted_records() if start <= r.key < end]
            )
        for level in self._levels:
            for table in level:
                if table.overlaps(start, end):
                    sources.append(
                        [r for r in table.iter_records() if start <= r.key < end]
                    )
        merged = heapq.merge(*sources, key=lambda r: (r.key, r.sequence))
        current_key: Optional[bytes] = None
        bucket: List[Record] = []
        for record in merged:
            if record.key != current_key:
                if bucket:
                    value = self._resolve_bucket(bucket)
                    if value is not None:
                        yield current_key, value  # type: ignore[misc]
                current_key = record.key
                bucket = []
            bucket.append(record)
        if bucket and current_key is not None:
            value = self._resolve_bucket(bucket)
            if value is not None:
                yield current_key, value

    def _resolve_bucket(self, records: List[Record]) -> Optional[bytes]:
        operands: List[bytes] = []
        records = sorted(records, key=lambda r: r.sequence)
        resolved, value = self._resolve_newest_first(records, operands)
        return value if resolved else self._apply_tombstone(operands)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _take_file_id(self) -> int:
        with self._mutex:
            self._next_file_id += 1
            return self._next_file_id

    def _maybe_compact(self) -> None:
        """Run policy-picked compactions to quiescence (inline mode)."""
        while self._compact_once():
            pass

    def _compact_once(self) -> bool:
        """Pick and execute one compaction; False when the tree is in
        shape (shared by the inline path and the compaction worker)."""
        with self._mutex:
            task = self._policy.pick(self)
        if task is None:
            return False
        return self._execute_task(task)

    def _execute_task(self, task: CompactionTask) -> bool:
        with self._mutex:
            inputs = self._task_inputs(task)
        if not inputs:
            return False
        self._run_compaction(
            inputs, from_levels=task.source_levels, target_level=task.target_level
        )
        return self._install_compaction(inputs, task)

    def _task_inputs(self, task: CompactionTask) -> List[SSTable]:
        """Validate a task against the current tree (mutex held).

        Tables the policy picked may have been quarantined since; they
        are filtered out.  Leveled-style tasks fold in the target-level
        tables overlapping the inputs' key range so the target stays
        disjoint.
        """
        in_tree = {id(t) for level in self._levels for t in level}
        inputs = [t for t in task.inputs if id(t) in in_tree]
        if not inputs:
            return []
        if task.merge_target_overlap:
            smallest = min(t.smallest_key for t in inputs)
            largest = max(t.largest_key for t in inputs)
            overlapping, _ = pick_overlapping(
                self._levels[task.target_level], smallest, largest
            )
            seen = {id(t) for t in inputs}
            inputs = inputs + [t for t in overlapping if id(t) not in seen]
        return inputs

    def _compact_l0(self) -> None:
        """Merge all of L0 one level down (Lethe's FADE uses this)."""
        inputs = list(self._levels[0])
        if not inputs:
            return
        self._execute_task(
            CompactionTask(
                inputs=inputs,
                target_level=1,
                source_levels=(0,),
                merge_target_overlap=not self._policy.overlapping_runs,
                reason="l0",
            )
        )

    def _pick_compaction_file(self, level: int) -> Optional[SSTable]:
        if not self._levels[level]:
            return None
        # Largest file first frees the most budget per compaction.
        return max(self._levels[level], key=lambda t: t.data_size)

    def _run_compaction(
        self, inputs: List[SSTable], from_levels: Tuple[int, ...], target_level: int
    ) -> None:
        with tracing.span(
            "lsm.compaction",
            level=target_level,
            inputs=len(inputs),
            bytes_in=sum(t.data_size for t in inputs),
        ) as sp:
            copied, resolved = self._run_compaction_inner(inputs, target_level)
            sp.add(copied=copied, resolved=resolved)

    def _run_compaction_inner(
        self, inputs: List[SSTable], target_level: int
    ) -> List[int]:
        """Merge ``inputs`` into new output tables (``_new_outputs``);
        return the number of records copied and of records resolved.

        Pure build phase: the tree is not modified, so in background
        mode it runs without the mutex and readers keep serving from
        the input tables until :meth:`_install_compaction` swaps them.
        """
        with self._mutex:
            at_bottom = self._is_bottom(target_level, inputs)
        entries = self._cooperative(heapq.merge(*(t.iter_entries() for t in inputs)))
        tally = [0, 0]
        outputs: List[SSTable] = []
        for run in compaction_runs(
            entries, self.merge_operator, at_bottom, self.config.target_file_size, tally
        ):
            table = write_sstable(
                self._take_file_id(),
                self._cooperative(iter(run)),
                self.storage,
                block_size=self.config.block_size,
                bits_per_key=self.config.bits_per_key,
                checksum_kind=self.checksum_kind,
                cooperate=self._bg_pause if self._bg is not None else None,
            )
            if table is not None:
                outputs.append(table)
        self._new_outputs = outputs
        return tally

    def _install_compaction(self, inputs: List[SSTable], task: CompactionTask) -> bool:
        """Atomically swap compaction inputs for outputs in the tree."""
        outputs = self._new_outputs
        with self._mutex:
            bg = self._bg
            if bg is not None and bg.abandoned:
                # Simulated kill at the install checkpoint: output blobs
                # stay as orphans (recovery ignores anything the
                # manifest doesn't reference), like a real crash.
                self._discard_compaction_outputs(outputs)
                self._new_outputs = []
                return False
            input_ids = {id(t) for t in inputs}
            present = sum(
                1 for level in self._levels for t in level if id(t) in input_ids
            )
            if present != len(inputs):
                # An input was quarantined while the merge ran;
                # installing the outputs could resurrect data the
                # quarantine removed, so discard them instead.
                for table in outputs:
                    table.drop(self.block_cache)
                self._discard_compaction_outputs(outputs)
                self._new_outputs = []
                return False
            for index, level in enumerate(self._levels):
                self._levels[index] = [t for t in level if id(t) not in input_ids]
            target = task.target_level
            self._levels[target] = self._sorted_level(self._levels[target] + outputs)
            bytes_in = sum(t.data_size for t in inputs)
            bytes_out = sum(t.data_size for t in outputs)
            tombstones_in = sum(t.num_tombstones for t in inputs)
            tombstones_out = sum(t.num_tombstones for t in outputs)
            self.compaction_stats.compactions += 1
            self.compaction_stats.records_in += sum(t.num_entries for t in inputs)
            self.compaction_stats.records_out += sum(t.num_entries for t in outputs)
            self.compaction_stats.bytes_in += bytes_in
            self.compaction_stats.bytes_out += bytes_out
            self.compaction_stats.tombstones_dropped += max(
                0, tombstones_in - tombstones_out
            )
            self.stats.compactions += 1
            self.stats.bytes_read += bytes_in
            self.stats.bytes_written += bytes_out
            # Commit the new layout before dropping the replaced blobs:
            # a crash in between leaves orphans, never dangling manifest
            # references.
            self._write_manifest()
            for table in inputs:
                table.drop(self.block_cache)
            self._new_outputs = []
            return True

    def _discard_compaction_outputs(self, outputs: List[SSTable]) -> None:
        """Subclass hook: compaction outputs were built but will never
        enter the tree (Lethe forgets their tombstone stamps)."""

    def _is_bottom(self, target_level: int, inputs: List[SSTable]) -> bool:
        input_ids = {t.file_id for t in inputs}
        if self._policy.overlapping_runs:
            # Overlapping runs can shadow-hide data under the inputs at
            # *any* level from the target down, so tombstones may only
            # drop when every such run is an input.
            for level in self._levels[target_level:]:
                if any(t.file_id not in input_ids for t in level):
                    return False
            return True
        if target_level >= self.config.max_levels - 1:
            return True
        for deeper in self._levels[target_level + 1 :]:
            if any(t.file_id not in input_ids for t in deeper):
                return False
        # Also nothing left in the target level beyond the inputs.
        return all(
            t.file_id in input_ids for t in self._levels[target_level]
        ) or not self._levels[target_level]

    @staticmethod
    def _sorted_level(tables: List[SSTable]) -> List[SSTable]:
        return sorted(tables, key=lambda t: t.smallest_key)

    # ------------------------------------------------------------------
    # Introspection / recovery
    # ------------------------------------------------------------------

    def _quarantine_table(self, table: SSTable) -> None:
        """Remove a corrupt table from the tree (blob left for forensics)."""
        with self._mutex:
            self.integrity.detected += 1
            self.quarantined.append(table)
            for level_index, level in enumerate(self._levels):
                self._levels[level_index] = [t for t in level if t is not table]
            self.block_cache.invalidate_where(
                lambda ck: isinstance(ck, tuple) and ck[0] == table.file_id
            )
            if self.storage.exists(self._MANIFEST_NAME):
                self._write_manifest()

    def level_file_counts(self) -> List[int]:
        return [len(level) for level in self._levels]

    def total_data_bytes(self) -> int:
        return sum(t.data_size for level in self._levels for t in level)

    _MANIFEST_NAME = "manifest-current"

    def _write_manifest(self) -> None:
        """Persist the level layout (which SSTables live where)."""
        lines = []
        for level_index, level in enumerate(self._levels):
            for table in level:
                lines.append(f"{level_index} {table.file_id} {table.blob_name}")
        self.storage.write(self._MANIFEST_NAME, "\n".join(lines).encode())

    def recover(self) -> int:
        """Full crash recovery: reopen the manifest's SSTables, then
        replay the WAL.  Returns the number of WAL records replayed."""
        with self._mutex:
            with tracing.span("lsm.recover_manifest"):
                self._recover_manifest()
            with tracing.span("lsm.recover_wal") as sp:
                replayed = self.recover_wal()
                sp.add(records=replayed)
        return replayed

    def _recover_manifest(self) -> None:
        if not self.storage.exists(self._MANIFEST_NAME):
            return
        manifest = self.storage.read(self._MANIFEST_NAME).decode()
        self._levels = [[] for _ in range(self.config.max_levels)]
        for line in manifest.splitlines():
            if not line.strip():
                continue
            level_str, file_id_str, blob_name = line.split(" ", 2)
            try:
                table = open_sstable(int(file_id_str), self.storage, blob_name)
            except (CorruptionError, StorageError) as exc:
                # A zero-length blob (interrupted flush) or damaged
                # table must not abort recovery of the healthy rest.
                warnings.warn(
                    f"skipping unreadable sstable {blob_name!r} during "
                    f"recovery: {exc}",
                    stacklevel=2,
                )
                self.integrity.detected += 1
                continue
            self._levels[int(level_str)].append(table)
            self._next_file_id = max(self._next_file_id, table.file_id)
            self._sequence = max(self._sequence, table.max_sequence)
        for level_index in range(1, self.config.max_levels):
            self._levels[level_index] = self._sorted_level(
                self._levels[level_index]
            )

    def recover_wal(self) -> int:
        """Replay the WAL into the memtable; returns records replayed.

        Used after simulated crashes: a fresh store pointed at the same
        storage rebuilds its unflushed writes.  Use :meth:`recover` for
        full recovery including flushed data.

        Replay is corruption-aware: it stops at the first torn or
        checksum-failing record, truncates the file to the intact
        prefix (counted as a detected + repaired corruption), and
        replays exactly the records before the damage.

        Replay order is independent of *this* store's mode -- a store
        that died in background mode may well restart inline, and its
        numbered segments still hold acknowledged writes.  The legacy
        ``wal-current`` blob replays first (if an inline life left
        one), then each numbered segment in order, stopping
        point-in-time at the first damaged segment; segments written
        after the damage are dropped, since replaying around a hole
        would reorder history.
        """
        if not self.config.enable_wal:
            return 0
        return self._recover_wal_segments()

    def _discover_wal_segments(self) -> List[str]:
        """All WAL blobs on storage, replay-ordered (legacy first)."""
        found = []
        for name in self.storage.list():
            if name == "wal-current":
                found.append((0, 0, name))
            else:
                match = _WAL_SEGMENT_RE.match(name)
                if match:
                    found.append((1, int(match.group(1)), name))
        return [name for _, _, name in sorted(found)]

    def _recover_wal_segments(self) -> int:
        with self._mutex:
            active = set(self._active_segments)
            names = [n for n in self._discover_wal_segments() if n not in active]
            replayed_records: List[Record] = []
            survivors: List[str] = []
            damaged_at: Optional[int] = None
            for index, name in enumerate(names):
                buf = self.storage.read(name)
                decoded = decode_wal(buf)
                self._memtable.add_all(decoded.records)
                for record in decoded.records:
                    self._sequence = max(self._sequence, record.sequence)
                replayed_records.extend(decoded.records)
                survivors.append(name)
                if decoded.truncated:
                    self.integrity.detected += 1
                    self.storage.write(
                        name, decoded.repaired(buf, self.checksum_kind)
                    )
                    self.integrity.repaired += 1
                    warnings.warn(
                        f"WAL corruption in segment {name!r} "
                        f"({decoded.corruption}); truncated to "
                        f"{decoded.valid_bytes} intact bytes",
                        stacklevel=2,
                    )
                    damaged_at = index
                    break
            if damaged_at is not None:
                # Point-in-time stop: segments written after the damage
                # are dropped -- replaying around a hole would reorder
                # history.
                for name in names[damaged_at + 1 :]:
                    self.integrity.detected += 1
                    self.storage.delete(name)
                    warnings.warn(
                        f"dropping WAL segment {name!r} written after a "
                        f"damaged segment; recovery stops at the "
                        f"corruption point",
                        stacklevel=2,
                    )
            if self._bg is None:
                # Inline life after a background life: fold the
                # surviving segments into the single legacy WAL, which
                # is the only blob the inline flush path resets.  Each
                # segment carries its own file header, so the replayed
                # records are re-framed rather than byte-concatenated.
                if survivors and survivors != [self._wal_name]:
                    merged = wal_header(self.checksum_kind) + b"".join(
                        frame_record(record, self.checksum_kind)
                        for record in replayed_records
                    )
                    self.storage.write(self._wal_name, merged)
                    for name in survivors:
                        if name != self._wal_name:
                            self.storage.delete(name)
                self._wal_bytes = (
                    self.storage.size(self._wal_name)
                    if self.storage.exists(self._wal_name)
                    else 0
                )
            else:
                # The replayed records now live in the active memtable;
                # keep the surviving segments attached to it so they
                # are deleted together once it flushes.
                self._active_segments = survivors + self._active_segments
                total = 0
                for name in self._active_segments:
                    try:
                        size = self.storage.size(name)
                    except StorageError:
                        size = 0
                    self._segment_bytes[name] = size
                    total += size
                self._wal_bytes = total
        return len(replayed_records)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def storage_backend(self) -> Storage:
        return self.storage

    def scrub(self) -> ScrubReport:
        """Verify every persisted structure: WAL framing and checksums,
        plus each SSTable's blocks and pinned sections.

        A damaged WAL tail is repaired by truncation; SSTables with any
        damaged block are quarantined (removed from the tree) and their
        corrupt blocks counted unrecoverable.  Background workers are
        quiesced first so the scrub never races a half-written sstable.
        """
        self.quiesce()
        report = ScrubReport()
        with timed_scrub(report):
            if self.config.enable_wal:
                for name in self._wal_blob_names():
                    if not self.storage.exists(name):
                        continue
                    report.structures_checked += 1
                    buf = self.storage.read(name)
                    decoded = decode_wal(buf)
                    if decoded.truncated:
                        self.storage.write(
                            name, decoded.repaired(buf, self.checksum_kind)
                        )
                        report.add(
                            ScrubFinding(
                                name,
                                decoded.valid_bytes,
                                f"{decoded.corruption}; truncated to intact prefix",
                                repaired=True,
                            )
                        )
            corrupt_tables = []
            for level in self._levels:
                for table in level:
                    table_report = table.verify()
                    report.structures_checked += table_report.structures_checked
                    if not table_report.clean:
                        # One finding per damaged blob (matching the
                        # other engines' granularity), detailing how
                        # many of its blocks/sections failed.
                        first = table_report.findings[0]
                        report.add(
                            ScrubFinding(
                                table.blob_name,
                                first.offset,
                                f"{table_report.corruptions_detected} damaged "
                                f"structures (first: {first.detail})",
                            )
                        )
                        corrupt_tables.append(table)
            for table in corrupt_tables:
                self._quarantine_table(table)
                # _quarantine_table counts an ambient detection; the
                # finding was already added above, so undo the double
                # count.
                self.integrity.detected -= 1
        self.integrity.absorb(report)
        return report

    def _wal_blob_names(self) -> List[str]:
        """The WAL blobs a scrub must verify."""
        if self._bg is None:
            return [self._wal_name]
        with self._mutex:
            names = [
                name
                for segments in self._immutable_segments
                for name in segments
            ]
            names.extend(self._active_segments)
            return names

    def close(self) -> None:
        if self.closed:
            return
        bg = self._bg
        if bg is not None:
            try:
                self.quiesce()
            finally:
                bg.shutdown()
        super().close()

    def abandon(self) -> None:
        """Drop the store like a process kill: background workers stop
        at their next checkpoint without flushing or draining, leaving
        storage exactly as a crash would for :meth:`recover`."""
        bg = self._bg
        if bg is not None:
            bg.abandon()
        super().abandon()
