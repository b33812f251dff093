"""Storage backends for the persistent stores.

The stores write serialized artifacts (WAL segments, SSTables, B+Tree
pages, log segments) through this small blob interface so they can run
either fully in memory (fast, default, used by tests and benchmarks) or
against the real filesystem (used to sanity-check durability paths).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, Optional, Union


class StorageError(Exception):
    """Raised for missing blobs or I/O failures."""


class Storage:
    """Abstract named-blob storage."""

    def write(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def append(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def read(self, name: str) -> bytes:
        raise NotImplementedError

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def list(self) -> Iterable[str]:
        raise NotImplementedError

    def size(self, name: str) -> int:
        raise NotImplementedError


class MemoryStorage(Storage):
    """Blobs kept in process memory.

    This is the default substrate: it performs the same serialization
    work as a filesystem-backed store without actual disk latency, which
    keeps benchmark runs focused on data-structure behaviour.
    """

    def __init__(self) -> None:
        #: written blobs stay ``bytes``, so a range read is one slice;
        #: a blob becomes a ``bytearray`` on its first append
        self._blobs: Dict[str, Union[bytes, bytearray]] = {}
        self._lock = threading.Lock()

    def write(self, name: str, data: bytes) -> None:
        with self._lock:
            self._blobs[name] = bytes(data)

    def append(self, name: str, data: bytes) -> None:
        with self._lock:
            blob = self._blobs.get(name)
            if blob.__class__ is not bytearray:
                blob = self._blobs[name] = bytearray(blob or b"")
            blob += data

    def read(self, name: str) -> bytes:
        try:
            return bytes(self._blobs[name])
        except KeyError:
            raise StorageError(f"no such blob: {name}") from None

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        try:
            data = self._blobs[name][offset : offset + length]
        except KeyError:
            raise StorageError(f"no such blob: {name}") from None
        return data if data.__class__ is bytes else bytes(data)

    def delete(self, name: str) -> None:
        self._blobs.pop(name, None)

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def list(self) -> Iterable[str]:
        return sorted(self._blobs)

    def size(self, name: str) -> int:
        try:
            return len(self._blobs[name])
        except KeyError:
            raise StorageError(f"no such blob: {name}") from None

    @property
    def total_bytes(self) -> int:
        return sum(len(b) for b in self._blobs.values())


class FileStorage(Storage):
    """Blobs stored as real files under a directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        safe = name.replace("/", "_")
        return os.path.join(self.root, safe)

    def write(self, name: str, data: bytes) -> None:
        with open(self._path(name), "wb") as handle:
            handle.write(data)

    def append(self, name: str, data: bytes) -> None:
        with open(self._path(name), "ab") as handle:
            handle.write(data)

    def read(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise StorageError(f"no such blob: {name}") from None

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                handle.seek(offset)
                return handle.read(length)
        except FileNotFoundError:
            raise StorageError(f"no such blob: {name}") from None

    def delete(self, name: str) -> None:
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def list(self) -> Iterable[str]:
        return sorted(os.listdir(self.root))

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except FileNotFoundError:
            raise StorageError(f"no such blob: {name}") from None


def make_storage(kind: str = "memory", root: Optional[str] = None) -> Storage:
    """Build a storage backend by name (``memory`` or ``file``)."""
    if kind == "memory":
        return MemoryStorage()
    if kind == "file":
        if root is None:
            raise ValueError("file storage requires a root directory")
        return FileStorage(root)
    raise ValueError(f"unknown storage kind: {kind!r}")
