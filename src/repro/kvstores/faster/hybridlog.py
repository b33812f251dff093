"""FASTER's hybrid log: one address space spanning disk and memory.

Addresses grow monotonically from 0.  The region layout is::

      0 ............ head ............ ro_boundary ............ tail
      [   stable / on disk   ][   read-only in memory  ][ mutable ]

* records in the **mutable** region may be updated in place
* records in the **read-only** region are immutable; updating them
  appends a new version (read-copy-update)
* records below ``head`` live in sealed segments written to storage and
  must be deserialized on access

The memory budget covers ``[head, tail)``; when it overflows, the oldest
in-memory records are sealed into a storage segment and ``head``
advances.  The mutable region is a configurable fraction of the budget
(FASTER defaults to 90%).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...obs import tracing
from ..integrity import (
    ChecksumKind,
    CorruptionError,
    ScrubFinding,
    ScrubReport,
    checksum,
    timed_scrub,
)
from ..storage import MemoryStorage, Storage, StorageError

_RECORD_HEADER = struct.Struct("<BII")  # tombstone flag, key len, value len
RECORD_OVERHEAD = 16  # models FASTER's RecordInfo header + alignment

# A sealed segment is an 8-byte header (magic, version, checksum kind,
# pad) followed by framed records: ``crc:4 | len:4 | record``.  Under
# ChecksumKind.NONE every stored CRC is 0.
SEGMENT_MAGIC = b"FSG2"
SEGMENT_VERSION = 2
_SEGMENT_HEADER = struct.Struct("<4sBBH")
SEGMENT_HEADER_SIZE = _SEGMENT_HEADER.size
_FRAME = struct.Struct("<II")  # crc32 of payload, payload length


@dataclass(init=False)
class LogRecord:
    key: bytes
    value: bytes
    tombstone: bool = False
    #: allocated value capacity -- fixed at append time.  In-place
    #: updates must fit inside it; growing a value forces a
    #: read-copy-update append, exactly like real FASTER.
    alloc: int = -1

    def __init__(
        self, key: bytes, value: bytes, tombstone: bool = False, alloc: int = -1
    ) -> None:
        # one frame per record: the generated __init__ would run
        # __post_init__ as a second
        self.key = key
        self.value = value
        self.tombstone = tombstone
        self.alloc = len(value) if alloc < 0 else alloc

    @property
    def size(self) -> int:
        return RECORD_OVERHEAD + len(self.key) + self.alloc

    def encode(self) -> bytes:
        return (
            _RECORD_HEADER.pack(int(self.tombstone), len(self.key), len(self.value))
            + self.key
            + self.value
        )

    @classmethod
    def decode(cls, buf: bytes, offset: int = 0) -> Tuple["LogRecord", int]:
        tombstone, klen, vlen = _RECORD_HEADER.unpack_from(buf, offset)
        if tombstone > 1:
            raise ValueError(f"invalid tombstone flag {tombstone}")
        start = offset + _RECORD_HEADER.size
        key = bytes(buf[start : start + klen])
        value = bytes(buf[start + klen : start + klen + vlen])
        return cls(key, value, bool(tombstone)), start + klen + vlen


def segment_header(kind: ChecksumKind) -> bytes:
    """The 8-byte header starting every sealed segment."""
    return _SEGMENT_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, int(kind), 0)


def frame_log_record(record: LogRecord, kind: ChecksumKind) -> bytes:
    """Frame one record for a segment."""
    payload = record.encode()
    return _FRAME.pack(checksum(payload, kind), len(payload)) + payload


def segment_checksum_kind(raw: bytes, blob: str = "?") -> ChecksumKind:
    """The checksum kind recorded in a segment header.  Raises
    :class:`CorruptionError` when the header is missing or damaged."""
    if len(raw) < SEGMENT_HEADER_SIZE:
        raise CorruptionError(blob, 0, f"torn segment header ({len(raw)} bytes)")
    magic, version, kind_value, _ = _SEGMENT_HEADER.unpack_from(raw, 0)
    if magic != SEGMENT_MAGIC:
        raise CorruptionError(blob, 0, f"bad segment magic {magic!r}")
    if version != SEGMENT_VERSION:
        raise CorruptionError(blob, 4, f"unknown segment version {version}")
    try:
        return ChecksumKind(kind_value)
    except ValueError:
        raise CorruptionError(blob, 5, f"unknown checksum kind {kind_value}") from None


def decode_segment_record(
    raw: bytes, offset: int, kind: ChecksumKind, blob: str = "?"
) -> Tuple[LogRecord, int]:
    """Decode the framed record at ``offset`` within a sealed segment.

    The frame's CRC is verified under ``kind`` before deserializing.
    Raises :class:`CorruptionError` on damage; never returns garbage
    bytes.
    """
    end = len(raw)
    if offset + _FRAME.size > end:
        raise CorruptionError(blob, offset, "torn frame header")
    crc, length = _FRAME.unpack_from(raw, offset)
    start = offset + _FRAME.size
    if start + length > end:
        raise CorruptionError(blob, offset, "torn record frame")
    payload = bytes(raw[start : start + length])
    if checksum(payload, kind) != crc:
        raise CorruptionError(blob, offset, "record checksum mismatch")
    try:
        record, consumed = LogRecord.decode(payload, 0)
        if consumed != length:
            raise ValueError("trailing bytes inside frame")
    except (struct.error, ValueError) as exc:
        raise CorruptionError(blob, offset, f"undecodable record: {exc}") from None
    return record, start + length


class HybridLog:
    def __init__(
        self,
        memory_budget: int = 1024 * 1024,
        mutable_fraction: float = 0.9,
        segment_size: int = 64 * 1024,
        storage: Optional[Storage] = None,
        checksum_kind: ChecksumKind = ChecksumKind.NONE,
    ) -> None:
        if not 0.0 < mutable_fraction <= 1.0:
            raise ValueError("mutable_fraction must be in (0, 1]")
        self.memory_budget = memory_budget
        self.mutable_fraction = mutable_fraction
        #: bytes below the tail that stay updatable in place
        self.mutable_budget = int(memory_budget * mutable_fraction)
        self.segment_size = segment_size
        self.checksum_kind = checksum_kind
        self.storage = storage if storage is not None else MemoryStorage()
        self._memory: Dict[int, LogRecord] = {}
        self._memory_order: List[int] = []  # addresses in append order
        self._memory_bytes = 0
        self._evict_cursor = 0  # index into _memory_order of next eviction
        self.head = 0
        self.tail = 0
        # addr -> (segment blob name, byte offset) for sealed records
        self._disk_index: Dict[int, Tuple[str, int]] = {}
        #: sealed segment blob names, oldest first
        self._segments: List[str] = []
        self._segment_count = 0
        self._pending_segment: List[Tuple[int, LogRecord]] = []
        self._pending_map: Dict[int, LogRecord] = {}
        self._pending_bytes = 0
        self.disk_reads = 0
        self.appends = 0
        self.in_place_updates = 0
        #: segment-sealing nanoseconds under ``"ns"`` until popped: the
        #: store's background probe is this dict's ``pop``
        self.background: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Region boundaries
    # ------------------------------------------------------------------

    @property
    def read_only_boundary(self) -> int:
        """Lowest address that may be updated in place."""
        return max(self.head, self.tail - self.mutable_budget)

    def is_mutable(self, address: int) -> bool:
        return address >= self.read_only_boundary

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        address = self.tail
        size = RECORD_OVERHEAD + len(record.key) + record.alloc
        self.tail = address + size
        self._memory[address] = record
        self._memory_order.append(address)
        self._memory_bytes += size
        self.appends += 1
        if self._memory_bytes > self.memory_budget:
            self._maybe_evict()
        return address

    def append_many(self, records: Sequence[LogRecord]) -> List[int]:
        """Append a write batch as one contiguous log region.

        The per-record bookkeeping runs in one tight loop and eviction
        is checked once at the end, so the batch occupies adjacent
        addresses and pays the region-boundary accounting once instead
        of per record.  Returns the address of every record, in order.
        """
        addresses: List[int] = []
        push = addresses.append
        tail = self.tail
        memory = self._memory
        order = self._memory_order.append
        added = 0
        for record in records:
            push(tail)
            memory[tail] = record
            order(tail)
            size = record.size
            added += size
            tail += size
        self.tail = tail
        self._memory_bytes += added
        self.appends += len(records)
        self._maybe_evict()
        return addresses

    def read(self, address: int) -> LogRecord:
        record = self._memory.get(address)
        if record is not None:
            return record
        record = self._pending_map.get(address)
        if record is not None:
            return record
        location = self._disk_index.get(address)
        if location is None:
            raise KeyError(f"address {address} not found in log")
        blob, offset = location
        self.disk_reads += 1
        raw = self.storage.read(blob)
        kind = segment_checksum_kind(raw, blob)
        record, _ = decode_segment_record(raw, offset, kind, blob)
        return record

    def update_in_place(self, address: int, value: bytes) -> None:
        """Replace the value of a mutable-region record, within its
        original allocation."""
        if not self.is_mutable(address):
            raise ValueError(f"address {address} is not in the mutable region")
        record = self._memory[address]
        if len(value) > record.alloc:
            raise ValueError(
                f"value of {len(value)} bytes exceeds the record's "
                f"{record.alloc}-byte allocation"
            )
        record.value = value
        self.in_place_updates += 1

    def can_update_in_place(self, address: int, new_size: int) -> bool:
        if not self.is_mutable(address):
            return False
        record = self._memory.get(address)
        return record is not None and new_size <= record.alloc

    # ------------------------------------------------------------------
    # Eviction (head advancement)
    # ------------------------------------------------------------------

    def _maybe_evict(self) -> None:
        while (
            self._memory_bytes > self.memory_budget
            and self._evict_cursor < len(self._memory_order)
        ):
            address = self._memory_order[self._evict_cursor]
            self._evict_cursor += 1
            record = self._memory.pop(address, None)
            if record is None:
                continue
            self._memory_bytes -= record.size
            self._pending_segment.append((address, record))
            self._pending_map[address] = record
            self._pending_bytes += record.size
            self.head = address + record.size
            if self._pending_bytes >= self.segment_size:
                self._seal_segment()
        if self._evict_cursor > 4096 and self._evict_cursor * 2 > len(
            self._memory_order
        ):
            # Drop the consumed prefix so the order list does not grow forever.
            self._memory_order = self._memory_order[self._evict_cursor :]
            self._evict_cursor = 0

    def _seal_segment(self) -> None:
        # Segment sealing is background I/O in real FASTER; timed so
        # the evaluator can exclude it from client-visible latency.
        if not self._pending_segment:
            return
        begin = time.perf_counter_ns()
        with tracing.span(
            "faster.segment_roll",
            records=len(self._pending_segment),
            bytes=self._pending_bytes,
        ):
            blob = f"faster-seg-{self._segment_count:08d}"
            self._segment_count += 1
            kind = self.checksum_kind
            parts: List[bytes] = [segment_header(kind)]
            offset = SEGMENT_HEADER_SIZE
            for address, record in self._pending_segment:
                encoded = frame_log_record(record, kind)
                self._disk_index[address] = (blob, offset)
                parts.append(encoded)
                offset += len(encoded)
            self.storage.write(blob, b"".join(parts))
            self._segments.append(blob)
            self._pending_segment = []
            self._pending_map.clear()
            self._pending_bytes = 0
        background = self.background
        background["ns"] = background.get("ns", 0) + time.perf_counter_ns() - begin

    def flush(self) -> None:
        self._seal_segment()

    # ------------------------------------------------------------------
    # Sealed segments
    # ------------------------------------------------------------------

    def sealed_segments(self) -> List[str]:
        """Sealed segment blobs, oldest first."""
        return list(self._segments)

    def scrub(self) -> ScrubReport:
        """Verify every sealed segment record-by-record.

        Sealed segments have no redundant copy (the in-memory region
        has already advanced past them), so damage is detected but
        unrecoverable.
        """
        report = ScrubReport()
        with timed_scrub(report):
            for blob in list(self._segments):
                report.structures_checked += 1
                try:
                    raw = self.storage.read(blob)
                except StorageError as exc:
                    report.add(ScrubFinding(blob, 0, f"unreadable segment: {exc}"))
                    continue
                try:
                    kind = segment_checksum_kind(raw, blob)
                    offset = SEGMENT_HEADER_SIZE
                    while offset < len(raw):
                        _, offset = decode_segment_record(raw, offset, kind, blob)
                except CorruptionError as exc:
                    report.add(ScrubFinding(blob, exc.offset, exc.detail))
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        return self._memory_bytes

    @property
    def disk_records(self) -> int:
        return len(self._disk_index) + len(self._pending_segment)
