"""Sorted string table: the immutable on-disk run format of the LSM store.

Layout of an SSTable blob::

    [block 0][block 1]...[block N-1][bloom][index][footer]

* blocks -- back-to-back encoded :class:`~.record.Record`s, sorted by
  (key, sequence); split at ``block_size`` boundaries
* bloom  -- serialized Bloom filter over all keys in the table
* index  -- per-block (first_key, offset, length) entries
* footer -- offsets, lengths and CRCs of the bloom and index sections,
  the checksum kind, and the ``"GST2"`` magic

The index and bloom sections are pinned in memory per open table, like
RocksDB's pinned filter/index blocks; data blocks go through the shared
LRU block cache.

Every data block carries a CRC in its index entry.  Reads verify the
block CRC before parsing; a mismatch raises
:class:`~repro.kvstores.integrity.CorruptionError` instead of ever
returning garbage.  Under ``ChecksumKind.NONE`` every stored CRC is 0,
so only the structural checks guard the bytes.  A blob that does not
end with the magic is not an SSTable.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from ..cache import LRUCache
from ..integrity import (
    DEFAULT_CHECKSUM_KIND,
    ChecksumKind,
    CorruptionError,
    ScrubFinding,
    ScrubReport,
    checksum,
    timed_scrub,
)
from ..storage import Storage
from .bloom import BloomFilter
from .record import Entry, Record, RecordKind, decode_all, decode_record, encoded_records
from .record import find_records, index_records

# bloom_off, bloom_len, index_off, index_len, bloom_crc, index_crc,
# checksum kind, pad, magic
_FOOTER = struct.Struct("<QQQQIIB3s4s")
_INDEX_ENTRY = struct.Struct("<IQII")  # key_len, offset, length, crc

SST_MAGIC = b"GST2"
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class BlockHandle:
    first_key: bytes
    offset: int
    length: int
    #: checksum of the raw block bytes
    crc: int


@dataclass(frozen=True)
class _Sections:
    """Where the bloom/index sections live, with their checksums."""

    bloom_offset: int
    bloom_length: int
    index_offset: int
    index_length: int
    bloom_crc: int
    index_crc: int


class ParsedBlock:
    """A verified data block indexed by key; records decode on demand.

    Holds the raw bytes plus parallel key/offset arrays from one header
    walk, so a point read decodes only the records it returns.  The
    walk checks every header, so a structurally damaged block is
    rejected here just as a full decode would reject it.  Its block
    cache weight is the raw block length.

    :meth:`probe` reads one key from a block just read instead, and
    leaves the key index to the first later probe of the cached block.
    """

    __slots__ = ("raw", "_keys", "_offsets", "size_bytes")

    def __init__(self, raw: bytes, blob_name: str = "?", offset: int = 0) -> None:
        try:
            self._keys, self._offsets = index_records(raw)
        except (struct.error, ValueError) as exc:
            raise CorruptionError(blob_name, offset, f"undecodable block: {exc}") from None
        self.raw = raw
        self.size_bytes = len(raw)

    @classmethod
    def probe(cls, raw: bytes, key: bytes, blob_name: str, offset: int) -> tuple:
        """Validate ``raw`` and read ``key`` from it in one walk: the
        unindexed block, ``key``'s records (oldest first) and the
        block's last key."""
        try:
            found, last_key = find_records(raw, key)
        except (struct.error, ValueError) as exc:
            raise CorruptionError(blob_name, offset, f"undecodable block: {exc}") from None
        block = cls.__new__(cls)
        block.raw, block._keys, block.size_bytes = raw, None, len(raw)
        return block, [decode_record(raw, at)[0] for at in found], last_key

    @property
    def keys(self) -> List[bytes]:
        if self._keys is None:  # a probed block: validated, so this cannot raise
            self._keys, self._offsets = index_records(self.raw)
        return self._keys

    def records_for(self, key: bytes) -> List[Record]:
        """Records stored for ``key`` in this block, oldest first."""
        keys = self.keys
        lo = bisect.bisect_left(keys, key)
        hi = bisect.bisect_right(keys, key, lo)
        raw, offsets = self.raw, self._offsets
        return [decode_record(raw, offsets[i])[0] for i in range(lo, hi)]


class SSTable:
    """An open, immutable sorted run."""

    def __init__(
        self,
        file_id: int,
        storage: Storage,
        blob_name: str,
        index: List[BlockHandle],
        bloom: BloomFilter,
        smallest_key: bytes,
        largest_key: bytes,
        num_entries: int,
        num_tombstones: int,
        oldest_tombstone_seq: Optional[int],
        data_size: int,
        max_sequence: int,
        checksum_kind: ChecksumKind,
        sections: _Sections,
    ) -> None:
        self.file_id = file_id
        self._storage = storage
        self.blob_name = blob_name
        self._index = index
        self._index_keys = [h.first_key for h in index]
        self._bloom = bloom
        self.smallest_key = smallest_key
        self.largest_key = largest_key
        self.num_entries = num_entries
        self.num_tombstones = num_tombstones
        self.oldest_tombstone_seq = oldest_tombstone_seq
        self.data_size = data_size
        self.max_sequence = max_sequence
        self.checksum_kind = checksum_kind
        self._sections = sections

    # -- reads ------------------------------------------------------------

    def may_contain(self, key: bytes) -> bool:
        if key < self.smallest_key or key > self.largest_key:
            return False
        return self._bloom.may_contain(key)

    def get_records(
        self, key: bytes, block_cache: Optional[LRUCache] = None
    ) -> List[Record]:
        """All records (oldest-first) stored for ``key``.

        Raises :class:`CorruptionError` if a consulted block fails its
        checksum -- wrong bytes are never returned.
        """
        if not self.may_contain(key):
            return []
        # Records for one key are contiguous but may straddle block
        # boundaries, so start from the block *before* the first block
        # whose first key equals ``key`` (it may end with ``key``).
        pos = max(0, bisect.bisect_left(self._index_keys, key) - 1)
        found: List[Record] = []
        # Records for one key may straddle a block boundary; walk forward
        # while the key can still appear.
        index = self._index
        for pos in range(pos, len(index)):
            handle = index[pos]
            if handle.first_key > key:
                break
            cache_key = (self.file_id, handle.offset)
            block = None if block_cache is None else block_cache.get(cache_key)
            if block is None:
                raw = self._storage.read_range(
                    self.blob_name, handle.offset, handle.length
                )
                self._verify_block(handle, raw)
                block, records, last_key = ParsedBlock.probe(
                    raw, key, self.blob_name, handle.offset
                )
                if block_cache is not None:
                    block_cache.put(cache_key, block)
            else:
                records = block.records_for(key)
                keys = block.keys
                last_key = keys[-1] if keys else None
            found.extend(records)
            if last_key is not None and last_key > key:
                break
        return found

    def _verify_block(self, handle: BlockHandle, raw: bytes) -> None:
        if len(raw) != handle.length:
            raise CorruptionError(
                self.blob_name,
                handle.offset,
                f"short block read ({len(raw)} of {handle.length} bytes)",
            )
        if checksum(raw, self.checksum_kind) != handle.crc:
            raise CorruptionError(
                self.blob_name, handle.offset, "block checksum mismatch"
            )

    def iter_records(self) -> Iterator[Record]:
        """Sequential full scan (used by compaction)."""
        for handle in self._index:
            raw = self._storage.read_range(self.blob_name, handle.offset, handle.length)
            self._verify_block(handle, raw)
            yield from decode_all(raw)

    def iter_entries(self) -> Iterator[Entry]:
        """Compaction's scan: every record as an :data:`~.record.Entry`,
        one verified block at a time, decoding none."""
        for handle in self._index:
            raw = self._storage.read_range(self.blob_name, handle.offset, handle.length)
            self._verify_block(handle, raw)
            yield from encoded_records(raw)

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        return not (self.largest_key < smallest or self.smallest_key > largest)

    def verify(self) -> ScrubReport:
        """Re-read and checksum every persisted byte of this table.

        Checks each data block against its CRC and structurally, plus
        the bloom and index sections against theirs; corrupt structures
        are unrecoverable at the table level (the caller quarantines
        the table and relies on redundancy in deeper levels).
        """
        report = ScrubReport()
        with timed_scrub(report):
            for handle in self._index:
                report.structures_checked += 1
                try:
                    raw = self._storage.read_range(
                        self.blob_name, handle.offset, handle.length
                    )
                    self._verify_block(handle, raw)
                    ParsedBlock(raw, self.blob_name, handle.offset)
                except CorruptionError as exc:
                    report.add(
                        ScrubFinding(self.blob_name, handle.offset, exc.detail)
                    )
                except Exception as exc:  # storage errors: missing blob, I/O
                    report.add(ScrubFinding(self.blob_name, handle.offset, str(exc)))
            report.structures_checked += 2
            sections = self._sections
            for label, offset, length, crc in (
                (
                    "bloom",
                    sections.bloom_offset,
                    sections.bloom_length,
                    sections.bloom_crc,
                ),
                (
                    "index",
                    sections.index_offset,
                    sections.index_length,
                    sections.index_crc,
                ),
            ):
                try:
                    raw = self._storage.read_range(self.blob_name, offset, length)
                except Exception as exc:
                    report.add(ScrubFinding(self.blob_name, offset, str(exc)))
                    continue
                if len(raw) != length or checksum(raw, self.checksum_kind) != crc:
                    report.add(
                        ScrubFinding(
                            self.blob_name,
                            offset,
                            f"{label} section checksum mismatch",
                        )
                    )
        return report

    def drop(self, block_cache: Optional[LRUCache] = None) -> None:
        """Delete the backing blob and purge cached blocks."""
        self._storage.delete(self.blob_name)
        if block_cache is not None:
            block_cache.invalidate_where(
                lambda ck: isinstance(ck, tuple) and ck[0] == self.file_id
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.file_id}, entries={self.num_entries}, "
            f"range=[{self.smallest_key!r},{self.largest_key!r}])"
        )


def build_sstable(file_id: int, records: Iterable[Record], storage: Storage, **options):
    """Serialize sorted ``records``: :func:`write_sstable` of their encodings."""
    entries = ((r.key, r.sequence, r.kind, r.encode()) for r in records)
    return write_sstable(file_id, entries, storage, **options)


def write_sstable(
    file_id: int,
    entries: Iterable[Entry],
    storage: Storage,
    block_size: int = DEFAULT_BLOCK_SIZE,
    bits_per_key: int = 10,
    blob_prefix: str = "sst",
    checksum_kind: ChecksumKind = DEFAULT_CHECKSUM_KIND,
    cooperate=None,
) -> Optional[SSTable]:
    """Write sorted encoded ``entries`` as a new SSTable blob.

    ``entries`` must already be sorted by (key, sequence); their bytes
    land in the blocks as they are.  Returns ``None`` when there are
    none.  ``checksum_kind`` is recorded in the footer; under NONE
    every stored CRC is 0.  ``cooperate``, when given, is called
    between chunks of the bloom-filter build -- the one long loop that
    runs after the entry stream is exhausted -- so a background worker
    can periodically yield the interpreter to foreground writers
    instead of holding it for a multi-millisecond stretch on large
    tables.
    """
    blocks: List[bytes] = []
    index: List[BlockHandle] = []
    current = bytearray()
    current_first: Optional[bytes] = None
    keys: List[bytes] = []
    num_tombstones = 0
    oldest_tombstone_seq: Optional[int] = None
    max_sequence = 0
    offset = 0

    def cut_block() -> None:
        nonlocal current, current_first, offset
        if not current:
            return
        raw = bytes(current)
        assert current_first is not None
        crc = checksum(raw, checksum_kind)
        index.append(BlockHandle(current_first, offset, len(raw), crc))
        blocks.append(raw)
        offset += len(raw)
        current = bytearray()
        current_first = None

    delete = RecordKind.DELETE
    for key, sequence, kind, encoded in entries:
        if current and len(current) + len(encoded) > block_size:
            cut_block()
        if current_first is None:
            current_first = key
        current += encoded
        keys.append(key)
        if sequence > max_sequence:
            max_sequence = sequence
        if kind == delete:
            num_tombstones += 1
            if oldest_tombstone_seq is None or sequence < oldest_tombstone_seq:
                oldest_tombstone_seq = sequence
    cut_block()

    if not keys:
        return None
    num_entries, smallest, largest = len(keys), keys[0], keys[-1]

    keys = list(dict.fromkeys(keys))  # a key's versions set the same bits
    bloom = BloomFilter(len(keys), bits_per_key)
    for start in range(0, len(keys), 256):  # bounds add_all's temporaries
        bloom.add_all(keys[start:start + 256])
        if cooperate is not None:
            cooperate()

    data = b"".join(blocks)
    bloom_bytes = bloom.encode()
    index_parts = []
    for handle in index:
        index_parts.append(
            _INDEX_ENTRY.pack(
                len(handle.first_key), handle.offset, handle.length, handle.crc
            )
        )
        index_parts.append(handle.first_key)
    index_bytes = b"".join(index_parts)
    sections = _Sections(
        len(data),
        len(bloom_bytes),
        len(data) + len(bloom_bytes),
        len(index_bytes),
        checksum(bloom_bytes, checksum_kind),
        checksum(index_bytes, checksum_kind),
    )
    footer = _FOOTER.pack(
        sections.bloom_offset,
        sections.bloom_length,
        sections.index_offset,
        sections.index_length,
        sections.bloom_crc,
        sections.index_crc,
        int(checksum_kind),
        b"\x00" * 3,
        SST_MAGIC,
    )
    blob_name = f"{blob_prefix}-{file_id:08d}"
    storage.write(blob_name, data + bloom_bytes + index_bytes + footer)

    return SSTable(
        file_id=file_id,
        storage=storage,
        blob_name=blob_name,
        index=index,
        bloom=bloom,
        smallest_key=smallest,
        largest_key=largest,
        num_entries=num_entries,
        num_tombstones=num_tombstones,
        oldest_tombstone_seq=oldest_tombstone_seq,
        data_size=len(data),
        max_sequence=max_sequence,
        checksum_kind=checksum_kind,
        sections=sections,
    )


def open_sstable(file_id: int, storage: Storage, blob_name: str) -> SSTable:
    """Re-open an SSTable from its blob (recovery path).

    Verifies the footer magic and layout and the bloom/index section
    checksums, and validates every data block while rebuilding the
    table statistics.  Truncated or damaged blobs raise
    :class:`CorruptionError` rather than ``struct.error``.
    """
    blob = storage.read(blob_name)
    body = len(blob) - _FOOTER.size
    if body < 0:
        raise CorruptionError(
            blob_name, 0, f"truncated sstable ({len(blob)} bytes, no footer)"
        )
    (
        bloom_off,
        bloom_len,
        index_off,
        index_len,
        bloom_crc,
        index_crc,
        kind_value,
        _,
        magic,
    ) = _FOOTER.unpack_from(blob, body)
    if magic != SST_MAGIC:
        raise CorruptionError(
            blob_name, len(blob) - 4, f"no footer magic (found {magic!r})"
        )
    try:
        kind = ChecksumKind(kind_value)
    except ValueError:
        raise CorruptionError(
            blob_name, body, f"unknown checksum kind {kind_value}"
        ) from None
    if bloom_off + bloom_len != index_off or index_off + index_len != body:
        raise CorruptionError(blob_name, body, "footer sections do not fit the blob")
    sections = _Sections(
        bloom_off, bloom_len, index_off, index_len, bloom_crc, index_crc
    )
    bloom_bytes = blob[bloom_off:index_off]
    index_bytes = blob[index_off:body]
    if checksum(bytes(bloom_bytes), kind) != bloom_crc:
        raise CorruptionError(blob_name, bloom_off, "bloom section checksum mismatch")
    if checksum(bytes(index_bytes), kind) != index_crc:
        raise CorruptionError(blob_name, index_off, "index section checksum mismatch")

    try:
        bloom = BloomFilter.decode(bloom_bytes)
    except CorruptionError as exc:
        # Re-anchor the bloom's own validation failure at this blob.
        raise CorruptionError(blob_name, bloom_off, f"undecodable bloom: {exc.detail}") from None
    except (struct.error, ValueError) as exc:
        raise CorruptionError(blob_name, bloom_off, f"undecodable bloom: {exc}") from None

    index: List[BlockHandle] = []
    pos = index_off
    try:
        while pos < body:
            key_len, offset, length, crc = _INDEX_ENTRY.unpack_from(blob, pos)
            pos += _INDEX_ENTRY.size
            first_key = bytes(blob[pos : pos + key_len])
            pos += key_len
            index.append(BlockHandle(first_key, offset, length, crc))
    except struct.error as exc:
        raise CorruptionError(blob_name, pos, f"undecodable index: {exc}") from None

    num_entries = 0
    num_tombstones = 0
    oldest_tombstone_seq: Optional[int] = None
    smallest: Optional[bytes] = None
    largest: Optional[bytes] = None
    max_sequence = 0
    for handle in index:
        raw = blob[handle.offset : handle.offset + handle.length]
        if len(raw) != handle.length:
            raise CorruptionError(blob_name, handle.offset, "block exceeds blob size")
        if checksum(bytes(raw), kind) != handle.crc:
            raise CorruptionError(blob_name, handle.offset, "block checksum mismatch")
        offset2 = 0
        try:
            while offset2 < len(raw):
                record, offset2 = decode_record(raw, offset2)
                num_entries += 1
                max_sequence = max(max_sequence, record.sequence)
                if record.kind is RecordKind.DELETE:
                    num_tombstones += 1
                    if (
                        oldest_tombstone_seq is None
                        or record.sequence < oldest_tombstone_seq
                    ):
                        oldest_tombstone_seq = record.sequence
                if smallest is None:
                    smallest = record.key
                largest = record.key
        except (struct.error, ValueError) as exc:
            raise CorruptionError(
                blob_name, handle.offset + offset2, f"undecodable block: {exc}"
            ) from None
    if smallest is None or largest is None:
        raise CorruptionError(blob_name, 0, "empty sstable blob")
    return SSTable(
        file_id=file_id,
        storage=storage,
        blob_name=blob_name,
        index=index,
        bloom=bloom,
        smallest_key=smallest,
        largest_key=largest,
        num_entries=num_entries,
        num_tombstones=num_tombstones,
        oldest_tombstone_seq=oldest_tombstone_seq,
        data_size=bloom_off,
        max_sequence=max_sequence,
        checksum_kind=kind,
        sections=sections,
    )
