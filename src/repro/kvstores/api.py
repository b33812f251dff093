"""Common key-value store interface shared by every store in the suite.

The paper's performance evaluator speaks four operations -- ``get``,
``put``, ``merge``, and ``delete`` -- matching the RocksDB API.  Every
store in :mod:`repro.kvstores` implements this interface directly; the
translation of ``merge`` for stores that lack lazy updates (BerkeleyDB,
FASTER) lives in :mod:`repro.kvstores.connectors`.

Keys and values are ``bytes``.  Stores are single-writer, matching the
dataflow model's single-thread access isolation (paper section 2.3).
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

#: batch opcodes, numerically identical to the trace's column encoding
#: (:data:`repro.trace.OPS_BY_CODE`): get=0, put=1, merge=2, delete=3
OP_GET, OP_PUT, OP_MERGE, OP_DELETE = 0, 1, 2, 3

#: one entry of a write batch: ``(opcode, key, value)``; the value is
#: ignored for deletes
BatchOp = Tuple[int, bytes, bytes]


class KVStoreError(Exception):
    """Base class for store errors."""


class UnsupportedOperationError(KVStoreError):
    """Raised when a store does not natively support an operation."""


class StoreClosedError(KVStoreError):
    """Raised when an operation is attempted on a closed store."""


class MergeOperator(abc.ABC):
    """RocksDB-style merge operator.

    A merge operand is a partial update applied lazily: the store may
    buffer operands and combine them with the base value only when the
    key is read or compacted.
    """

    @abc.abstractmethod
    def full_merge(self, existing: Optional[bytes], operands: Tuple[bytes, ...]) -> bytes:
        """Combine an existing value (possibly ``None``) with operands."""

    def partial_merge(self, left: bytes, right: bytes) -> Optional[bytes]:
        """Combine two adjacent operands, or ``None`` if not combinable."""
        return None


class AppendMergeOperator(MergeOperator):
    """Concatenates operands onto the existing value.

    This is the natural operator for streaming window buckets: each
    operand is an encoded event appended to the window's contents.
    """

    def full_merge(self, existing: Optional[bytes], operands: Tuple[bytes, ...]) -> bytes:
        parts = [existing] if existing is not None else []
        parts.extend(operands)
        return b"".join(parts)

    def partial_merge(self, left: bytes, right: bytes) -> bytes:
        return left + right


class CounterMergeOperator(MergeOperator):
    """Treats values/operands as signed 64-bit little-endian counters."""

    _WIDTH = 8

    def full_merge(self, existing: Optional[bytes], operands: Tuple[bytes, ...]) -> bytes:
        total = int.from_bytes(existing, "little", signed=True) if existing else 0
        for op in operands:
            total += int.from_bytes(op, "little", signed=True)
        return total.to_bytes(self._WIDTH, "little", signed=True)

    def partial_merge(self, left: bytes, right: bytes) -> bytes:
        combined = int.from_bytes(left, "little", signed=True) + int.from_bytes(
            right, "little", signed=True
        )
        return combined.to_bytes(self._WIDTH, "little", signed=True)


@dataclass
class StoreStats:
    """Operation and internal-activity counters exposed by every store."""

    gets: int = 0
    puts: int = 0
    merges: int = 0
    deletes: int = 0
    # Internal activity (populated by stores that model it).
    flushes: int = 0
    compactions: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return self.gets + self.puts + self.merges + self.deletes

    def snapshot(self) -> "StoreStats":
        """Field-complete copy.

        Built from the declared dataclass fields so newly added
        counters are never silently dropped; mutable containers are
        shallow-copied to decouple the snapshot from live updates.
        """
        values = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        values["extra"] = dict(values["extra"])
        return StoreStats(**values)


class KVStore(abc.ABC):
    """Abstract embedded key-value store."""

    #: Human-readable store family name ("rocksdb", "faster", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = StoreStats()
        self._closed = False
        # Deferred import: repro.kvstores.integrity subclasses
        # KVStoreError from this module.
        from .integrity import IntegrityCounters

        #: corruption detections/repairs accumulated while running
        self.integrity = IntegrityCounters()

    # -- core operations -------------------------------------------------

    @abc.abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None`` if absent."""

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove ``key``; removing an absent key is a no-op."""

    def merge(self, key: bytes, operand: bytes) -> None:
        """Lazily apply ``operand`` to ``key``.

        Stores without native merge raise
        :class:`UnsupportedOperationError`; callers should then go
        through a :class:`~repro.kvstores.connectors.StoreConnector`.
        """
        raise UnsupportedOperationError(f"{self.name} has no native merge")

    # -- batched operations ------------------------------------------------

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Vectored ``get``: one result per key, in input order.

        The base implementation is a correct per-key loop; stores
        override it to amortize shared work across the batch (the LSM
        sorts keys so bloom/block-cache probes are shared per SSTable,
        the B-tree reuses leaf descents, the remote client packs the
        whole batch into one round-trip).
        """
        get = self.get
        return [get(key) for key in keys]

    def apply_batch(self, ops: Sequence[BatchOp]) -> None:
        """Apply a write batch of ``(opcode, key, value)`` entries.

        Opcodes are :data:`OP_PUT`, :data:`OP_MERGE`, and
        :data:`OP_DELETE` (the trace's numeric encoding); entries are
        applied in order, so same-key sequences keep their semantics.
        The base implementation dispatches per entry; stores override
        it to pay fixed per-operation costs once per batch (the LSM
        appends one group-commit WAL frame, FASTER appends one
        contiguous log region).  Reads are not allowed in a write
        batch -- use :meth:`multi_get`.
        """
        for opcode, key, value in ops:
            if opcode == OP_PUT:
                self.put(key, value)
            elif opcode == OP_MERGE:
                self.merge(key, value)
            elif opcode == OP_DELETE:
                self.delete(key)
            elif opcode == OP_GET:
                raise ValueError(
                    "apply_batch is write-only; use multi_get for reads"
                )
            else:
                raise ValueError(f"unknown batch opcode {opcode}")

    # -- background-work accounting ----------------------------------------

    # Return and reset the time spent on *background* maintenance work
    # (flushes, compactions) during recent operations.  Real stores run
    # it on background threads, out of client-observed latency; our
    # single-thread stores run it inline, and the evaluator subtracts
    # it from per-op latencies to model the threaded behaviour
    # (throughput still pays the full cost).  Stores whose maintenance
    # runs on worker threads (the LSM's background mode) report only
    # writer stalls -- the client-visible share -- and must make this
    # thread-safe.  A store with no maintenance can only return 0, so
    # the default is ``int`` itself: a C call, not a Python frame.
    take_background_ns = staticmethod(int)

    # -- optional operations ---------------------------------------------

    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs with ``start <= key < end``."""
        raise UnsupportedOperationError(f"{self.name} has no scan support")

    def flush(self) -> None:
        """Persist buffered writes (no-op for purely in-memory stores)."""

    def storage_backend(self):
        """The :class:`~repro.kvstores.storage.Storage` holding this
        store's persistent artifacts, or ``None`` for purely in-memory
        stores.  The disk-fault injector and scrub tooling reach the
        on-disk state through this accessor."""
        return None

    def scrub(self):
        """Walk every on-disk structure, verify checksums, and return a
        :class:`~repro.kvstores.integrity.ScrubReport`.

        Stores without persistent structures report a clean, empty
        walk.  Persistent stores verify all blocks/pages/segments,
        repair what redundant state allows (e.g. rewrite a corrupt page
        from its resident copy, truncate a torn WAL tail), and count
        the rest as unrecoverable.
        """
        from .integrity import ScrubReport

        return ScrubReport()

    def close(self) -> None:
        """Flush and release resources; further operations fail."""
        if not self._closed:
            self.flush()
            self._closed = True

    def abandon(self) -> None:
        """Drop the store as a process kill would: nothing is flushed,
        buffered state is lost, and stores with background workers stop
        them at their next checkpoint.  Crash-recovery evaluation uses
        this on the doomed store so the revived store reads storage in
        exactly the state a real crash would leave."""
        self._closed = True

    # -- helpers -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"{self.name} store is closed")

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:  # pragma: no cover - optional
        raise UnsupportedOperationError(f"{self.name} does not track length")
