"""B+Tree page formats.

Two node kinds, both serializable so the page cache can evict them to
storage and page them back in (the genuine work a disk-backed B+Tree
performs on a cache miss):

* **leaf** -- sorted parallel key/value arrays plus a next-leaf pointer
  for range scans
* **internal** -- sorted separator keys with ``len(keys) + 1`` children;
  child ``i`` holds keys < ``keys[i]``, the last child holds the rest

A persisted page is ``0xB7 | version | checksum-kind | crc:4``
followed by the node encoding.  :func:`decode_page` verifies the CRC
before deserializing and raises
:class:`~repro.kvstores.integrity.CorruptionError` on damage.  Under
``ChecksumKind.NONE`` the stored CRC is 0 and only the structural
checks guard the page.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Tuple

from ..integrity import ChecksumKind, CorruptionError, checksum

_LEAF_MARKER = 0
_INTERNAL_MARKER = 1
_HEADER = struct.Struct("<BIq")  # marker, entry count, next-leaf id (-1 = none)
_LEN = struct.Struct("<I")

PAGE_MAGIC = 0xB7
PAGE_VERSION = 2
_PAGE_HEADER = struct.Struct("<BBBI")  # magic, version, checksum kind, crc

#: page weight of an empty leaf; each entry adds ``len(key) + len(value) + 8``
_LEAF_BASE_BYTES = 16


class LeafNode:
    """A leaf page that carries its own weight.

    ``size_bytes`` is ``Σ(len(key) + len(value) + 8) + 16``, computed
    once by the constructor (page-ins, split-off siblings) and then kept
    current by the mutation methods below, as a real B+Tree keeps a
    page's fill in its header.  The page cache reads it in O(1) on every
    write, so callers change a leaf only through these methods, never by
    editing ``keys`` or ``values`` directly.  (``BTreeStore.put`` runs
    ``set_value``'s two lines inline: the overwrite is its hot path.)
    """

    __slots__ = ("keys", "values", "next_leaf", "size_bytes")

    is_leaf = True

    def __init__(
        self,
        keys: Optional[List[bytes]] = None,
        values: Optional[List[bytes]] = None,
        next_leaf: Optional[int] = None,
    ) -> None:
        self.keys: List[bytes] = keys if keys is not None else []
        self.values: List[bytes] = values if values is not None else []
        self.next_leaf = next_leaf
        self.size_bytes = (
            sum(len(k) + len(v) + 8 for k, v in zip(self.keys, self.values))
            + _LEAF_BASE_BYTES
        )

    def insert(self, index: int, key: bytes, value: bytes) -> None:
        self.keys.insert(index, key)
        self.values.insert(index, value)
        self.size_bytes += len(key) + len(value) + 8

    def set_value(self, index: int, value: bytes) -> None:
        self.size_bytes += len(value) - len(self.values[index])
        self.values[index] = value

    def remove(self, index: int) -> Tuple[bytes, bytes]:
        """Drop the entry at ``index`` and return it as ``(key, value)``."""
        key = self.keys.pop(index)
        value = self.values.pop(index)
        self.size_bytes -= len(key) + len(value) + 8
        return key, value

    def split_off(self, allocate: Callable[["LeafNode"], int]) -> "LeafNode":
        """Move the upper half of the entries into a new right sibling.

        ``allocate`` places the sibling and returns its page id, which
        becomes this leaf's ``next_leaf``.  It runs before this leaf
        gives the entries up, so a cache that evicts this leaf while
        placing the sibling writes it back whole.
        """
        mid = len(self.keys) // 2
        right = LeafNode(self.keys[mid:], self.values[mid:], self.next_leaf)
        self.next_leaf = allocate(right)
        del self.keys[mid:]
        del self.values[mid:]
        self.size_bytes -= right.size_bytes - _LEAF_BASE_BYTES
        return right

    def absorb(self, right: "LeafNode") -> None:
        """Append every entry of the right sibling ``right`` and take over
        its ``next_leaf``."""
        self.keys.extend(right.keys)
        self.values.extend(right.values)
        self.next_leaf = right.next_leaf
        self.size_bytes += right.size_bytes - _LEAF_BASE_BYTES

    def encode(self) -> bytes:
        parts = [
            _HEADER.pack(
                _LEAF_MARKER,
                len(self.keys),
                self.next_leaf if self.next_leaf is not None else -1,
            )
        ]
        for key, value in zip(self.keys, self.values):
            parts.append(_LEN.pack(len(key)))
            parts.append(key)
            parts.append(_LEN.pack(len(value)))
            parts.append(value)
        return b"".join(parts)


class InternalNode:
    __slots__ = ("keys", "children")

    is_leaf = False

    def __init__(
        self,
        keys: Optional[List[bytes]] = None,
        children: Optional[List[int]] = None,
    ) -> None:
        self.keys: List[bytes] = keys if keys is not None else []
        self.children: List[int] = children if children is not None else []

    @property
    def size_bytes(self) -> int:
        return sum(len(k) + 12 for k in self.keys) + 24

    def encode(self) -> bytes:
        parts = [_HEADER.pack(_INTERNAL_MARKER, len(self.keys), -1)]
        for key in self.keys:
            parts.append(_LEN.pack(len(key)))
            parts.append(key)
        parts.append(_LEN.pack(len(self.children)))
        for child in self.children:
            parts.append(struct.pack("<q", child))
        return b"".join(parts)


def encode_page(node, kind: ChecksumKind = ChecksumKind.NONE) -> bytes:
    """Serialize ``node`` for persistence: the page header, carrying
    ``kind`` and the payload's CRC under it, then the node encoding."""
    payload = node.encode()
    return _PAGE_HEADER.pack(PAGE_MAGIC, PAGE_VERSION, int(kind), checksum(payload, kind)) + payload


def decode_page(data: bytes, blob: str = "?"):
    """Reconstruct a persisted page.

    Raises :class:`CorruptionError` when the frame is damaged: a first
    byte that is not the page marker, truncated header, unknown version
    or checksum kind, bad CRC, or an undecodable node.
    """
    if not data:
        raise CorruptionError(blob, 0, "empty page")
    first = data[0]
    if first != PAGE_MAGIC:
        raise CorruptionError(blob, 0, f"unrecognized page marker {first:#04x}")
    if len(data) < _PAGE_HEADER.size:
        raise CorruptionError(blob, 0, f"torn page header ({len(data)} bytes)")
    _, version, kind_value, crc = _PAGE_HEADER.unpack_from(data, 0)
    if version != PAGE_VERSION:
        raise CorruptionError(blob, 1, f"unknown page version {version}")
    try:
        kind = ChecksumKind(kind_value)
    except ValueError:
        raise CorruptionError(blob, 2, f"unknown checksum kind {kind_value}") from None
    payload = bytes(data[_PAGE_HEADER.size :])
    if checksum(payload, kind) != crc:
        raise CorruptionError(blob, _PAGE_HEADER.size, "page checksum mismatch")
    try:
        return decode_node(payload)
    except (struct.error, ValueError, IndexError) as exc:
        raise CorruptionError(blob, 0, f"undecodable page: {exc}") from None


def decode_node(data: bytes):
    """Reconstruct a node evicted to storage."""
    marker, count, next_leaf = _HEADER.unpack_from(data, 0)
    if marker not in (_LEAF_MARKER, _INTERNAL_MARKER):
        raise ValueError(f"unknown node marker {marker}")
    offset = _HEADER.size
    keys: List[bytes] = []

    def read_blob() -> bytes:
        nonlocal offset
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        blob = bytes(data[offset : offset + length])
        offset += length
        return blob

    if marker == _LEAF_MARKER:
        values: List[bytes] = []
        for _ in range(count):
            keys.append(read_blob())
            values.append(read_blob())
        return LeafNode(keys, values, next_leaf if next_leaf >= 0 else None)

    for _ in range(count):
        keys.append(read_blob())
    (child_count,) = _LEN.unpack_from(data, offset)
    offset += _LEN.size
    children: List[int] = []
    for _ in range(child_count):
        (child,) = struct.unpack_from("<q", data, offset)
        offset += 8
        children.append(child)
    return InternalNode(keys, children)
