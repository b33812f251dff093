"""On-disk record encoding shared by the WAL, memtable flush, and SSTables.

Every record is ``(kind, sequence, key, value)``:

* ``kind`` -- PUT, DELETE (tombstone), or MERGE (lazy operand)
* ``sequence`` -- monotonically increasing write sequence number used to
  order records for the same key during reads and compaction
* wire format: ``kind:1 | seq:8 | klen:4 | vlen:4 | key | value``

A WAL file is an 8-byte header (``"GWAL" | version | checksum-kind |
pad``) followed by framed records: ``crc:4 | len:4 | record``.  The
CRC covers the record payload, so replay can truncate at the first
damaged frame instead of deserializing garbage.  Under
``ChecksumKind.NONE`` every stored CRC is 0 and only the framing
guards the bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..integrity import ChecksumKind, checksum


class RecordKind(IntEnum):
    PUT = 0
    DELETE = 1
    MERGE = 2


#: indexable by the wire kind byte; decoding returns these singletons,
#: which the store's ``is`` checks rely on
_KINDS = tuple(RecordKind)

#: ``kind | seq | klen | vlen``, the header of every encoded record
RECORD_HEADER = struct.Struct("<BQII")
HEADER_SIZE = RECORD_HEADER.size


class Record(NamedTuple):
    # A NamedTuple rather than a frozen dataclass: record construction
    # sits on the write, WAL-replay, and compaction hot paths, and
    # tuple construction skips the object.__setattr__ per field that
    # frozen dataclasses pay.
    kind: RecordKind
    sequence: int
    key: bytes
    value: bytes

    def encode(self) -> bytes:
        return (
            RECORD_HEADER.pack(self.kind, self.sequence, len(self.key), len(self.value))
            + self.key
            + self.value
        )


def decode_record(buf: bytes, offset: int = 0) -> Tuple[Record, int]:
    """Decode one record at ``offset``; return ``(record, next_offset)``.

    Raises ``struct.error`` for a header cut short and ``ValueError``
    for a kind byte that names no :class:`RecordKind`.
    """
    kind, sequence, klen, vlen = RECORD_HEADER.unpack_from(buf, offset)
    if kind > 2:
        raise ValueError(f"{kind} is not a valid RecordKind")
    start = offset + HEADER_SIZE
    key = bytes(buf[start : start + klen])
    value = bytes(buf[start + klen : start + klen + vlen])
    return Record(_KINDS[kind], sequence, key, value), start + klen + vlen


def decode_all(buf: bytes) -> Iterator[Record]:
    """Decode back-to-back records from ``buf``."""
    offset = 0
    end = len(buf)
    while offset < end:
        record, offset = decode_record(buf, offset)
        yield record


def index_records(buf: bytes) -> Tuple[List[bytes], List[int]]:
    """Key and offset of every back-to-back record in ``buf``.

    One walk over the headers that decodes no record: feed an offset to
    :func:`decode_record` to get its record.  Raises exactly where
    :func:`decode_all` would, with the same exception types.  ``buf``
    must be ``bytes`` so the keys are ``bytes`` slices that bisect.
    """
    keys: List[bytes] = []
    offsets: List[int] = []
    unpack = RECORD_HEADER.unpack_from
    offset = 0
    end = len(buf)
    while offset < end:
        kind, _, klen, vlen = unpack(buf, offset)
        if kind > 2:
            raise ValueError(f"{kind} is not a valid RecordKind")
        start = offset + HEADER_SIZE
        offsets.append(offset)
        keys.append(buf[start : start + klen])
        offset = start + klen + vlen
    return keys, offsets


#: ``(key, sequence, kind byte, encoded record)``: a record, not decoded
Entry = Tuple[bytes, int, int, bytes]


def encoded_records(buf: bytes) -> List[Entry]:
    """Every back-to-back record in ``buf`` as an :data:`Entry`: the
    walk of :func:`index_records`, raising where it would and also on a
    record cut short, since its bytes are copied as they are."""
    entries: List[Entry] = []
    unpack = RECORD_HEADER.unpack_from
    offset = 0
    end = len(buf)
    while offset < end:
        kind, sequence, klen, vlen = unpack(buf, offset)
        if kind > 2:
            raise ValueError(f"{kind} is not a valid RecordKind")
        start = offset + HEADER_SIZE
        stop = start + klen + vlen
        if stop > end:
            raise ValueError(f"record at {offset} overruns the block")
        entries.append((buf[start : start + klen], sequence, kind, buf[offset:stop]))
        offset = stop
    return entries


def find_records(buf: bytes, key: bytes) -> Tuple[List[int], Optional[bytes]]:
    """Offsets of the records in ``buf`` whose key is ``key``, and the
    last record's key (``None`` for an empty ``buf``).

    The walk of :func:`index_records`, checking every header and raising
    where it would, with no index kept: keys are compared as they pass.
    """
    found: List[int] = []
    unpack = RECORD_HEADER.unpack_from
    offset = 0
    end = len(buf)
    stored = None
    while offset < end:
        kind, _, klen, vlen = unpack(buf, offset)
        if kind > 2:
            raise ValueError(f"{kind} is not a valid RecordKind")
        start = offset + HEADER_SIZE
        stored = buf[start : start + klen]
        if stored == key:
            found.append(offset)
        offset = start + klen + vlen
    return found, stored


# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------

WAL_MAGIC = b"GWAL"
WAL_VERSION = 2
_WAL_HEADER = struct.Struct("<4sBBH")  # magic, version, checksum kind, pad
WAL_HEADER_SIZE = _WAL_HEADER.size
WAL_FRAME = struct.Struct("<II")  # crc32 of payload, payload length


def wal_header(kind: ChecksumKind) -> bytes:
    """The file header starting every WAL."""
    return _WAL_HEADER.pack(WAL_MAGIC, WAL_VERSION, int(kind), 0)


def frame_record(record: Record, kind: ChecksumKind) -> bytes:
    """Frame one record for a WAL append.

    The definition of a frame: the store's write path encodes these
    same bytes inline (``RocksLSMStore._write``), and recovery re-frames
    replayed records with it."""
    payload = record.encode()
    return WAL_FRAME.pack(checksum(payload, kind), len(payload)) + payload


def frame_records(records: Sequence[Record], kind: ChecksumKind) -> bytes:
    """Frame a whole write batch as ONE WAL frame (group commit).

    The frame payload is the back-to-back encoding of every record in
    the batch, covered by a single CRC.  Replay decodes all of them
    (:func:`decode_wal` walks records inside each frame), and the frame
    is atomic: a torn or bit-flipped group frame drops the whole batch,
    never a partial one -- the group-commit durability contract.
    """
    payload = b"".join(record.encode() for record in records)
    return WAL_FRAME.pack(checksum(payload, kind), len(payload)) + payload


@dataclass
class WalDecodeResult:
    """Outcome of a defensive WAL decode.

    ``valid_bytes`` is the prefix length (header included) holding only
    intact records; rewriting the file to that prefix repairs a torn or
    bit-flipped tail.  It is 0 when the header itself is unusable.
    """

    records: List[Record] = field(default_factory=list)
    valid_bytes: int = 0
    version: int = 0
    truncated: bool = False
    #: human-readable reason the decode stopped early (None when clean)
    corruption: Optional[str] = None

    def repaired(self, buf: bytes, kind: ChecksumKind) -> bytes:
        """The bytes that repair ``buf``: its intact prefix, or a fresh
        ``kind`` header when not even the header survived, so later
        appends land under a header."""
        return buf[: self.valid_bytes] if self.valid_bytes else wal_header(kind)


def decode_wal(buf: bytes) -> WalDecodeResult:
    """Decode a WAL, stopping at the first damage.

    Never raises for corrupt input: replay consumes ``records`` (the
    recoverable prefix) and recovery rewrites the file with
    :meth:`WalDecodeResult.repaired`.
    """
    if len(buf) < WAL_HEADER_SIZE:
        return WalDecodeResult(
            truncated=True, corruption=f"torn WAL header ({len(buf)} bytes)"
        )
    magic, version, kind_value, _ = _WAL_HEADER.unpack_from(buf, 0)
    if magic != WAL_MAGIC or version != WAL_VERSION:
        return WalDecodeResult(
            truncated=True,
            corruption=f"bad WAL header (magic {magic!r}, version {version})",
        )
    try:
        kind = ChecksumKind(kind_value)
    except ValueError:
        return WalDecodeResult(
            truncated=True, corruption=f"unknown checksum kind {kind_value}"
        )
    result = WalDecodeResult(valid_bytes=WAL_HEADER_SIZE, version=version)
    offset = WAL_HEADER_SIZE
    end = len(buf)
    while offset < end:
        if offset + WAL_FRAME.size > end:
            result.truncated = True
            result.corruption = f"torn frame header at offset {offset}"
            return result
        crc, length = WAL_FRAME.unpack_from(buf, offset)
        start = offset + WAL_FRAME.size
        if start + length > end:
            result.truncated = True
            result.corruption = f"torn record at offset {offset}"
            return result
        payload = bytes(buf[start : start + length])
        if checksum(payload, kind) != crc:
            result.truncated = True
            result.corruption = f"checksum mismatch at offset {offset}"
            return result
        # A frame holds one record (per-op append) or a whole write
        # batch (group commit); decode every record it contains.
        frame_records_: List[Record] = []
        try:
            consumed = 0
            while consumed < length:
                record, consumed = decode_record(payload, consumed)
                frame_records_.append(record)
            if consumed != length:
                raise ValueError("trailing bytes inside frame")
        except (struct.error, ValueError) as exc:
            # A frame whose checksum passes but whose payload does not
            # parse means the frame was written damaged.
            result.truncated = True
            result.corruption = f"undecodable record at offset {offset}: {exc}"
            return result
        result.records.extend(frame_records_)
        offset = start + length
        result.valid_bytes = offset
    return result
