"""Connectors: the request-translation layer of the performance evaluator.

A Gadget state access stream speaks RocksDB's operation set
``{get, put, merge, delete}``.  Each connector maps those onto the
operations its store actually supports (paper section 5.5):

* RocksDB / Lethe -- direct calls for all four
* FASTER -- get->read, put->upsert, merge->rmw (the store's own
  ``merge`` already implements rmw semantics)
* BerkeleyDB -- no lazy update at all, so merge becomes an explicit
  read-update-write pair at the connector
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from .api import (
    OP_DELETE,
    OP_GET,
    OP_MERGE,
    OP_PUT,
    AppendMergeOperator,
    BatchOp,
    KVStore,
    MergeOperator,
)

#: Completion callback for pipelined replay: ``(opcode, arrival_ns,
#: complete_ns, value)``.  ``value`` is the reply payload for gets
#: (None for missing keys and for writes).
CompletionFn = Callable[[int, int, int, Optional[bytes]], None]


class PipelineSession:
    """A bounded-window pipelined view of a connector.

    The replayer submits ops tagged with their arrival timestamp; the
    session invokes ``on_complete(opcode, arrival_ns, complete_ns,
    value)`` once the op's effect is durable at the store (for remote
    backends: once its reply frame arrived).  Latency is measured
    arrival-to-completion, so queueing inside the window is *included*
    — deeper pipelines trade per-op latency for throughput and the
    histograms must say so.

    This base class is the degenerate depth-independent fallback for
    embedded stores: each op executes synchronously at submit, so every
    backend accepts ``--pipeline N`` (the window only changes behaviour
    where deferral buys something, i.e. the remote/cluster paths, which
    override this).  Subclasses keep the invariant that ``drain()``
    leaves zero ops pending and that completions fire in submit order.
    """

    def __init__(self, connector: "StoreConnector", depth: int,
                 on_complete: CompletionFn) -> None:
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {depth}")
        self._connector = connector
        #: the window bound: at most this many ops un-acked at once
        self.depth = depth
        self._on_complete = on_complete
        self.flushes = 0
        self.coalesced_ops = 0

    @property
    def pending(self) -> int:
        return 0

    def submit(self, opcode: int, key: bytes, value: bytes,
               arrival_ns: int) -> None:
        conn = self._connector
        if opcode == OP_GET:
            reply = conn.get(key)
        elif opcode == OP_PUT:
            conn.put(key, value)
            reply = None
        elif opcode == OP_MERGE:
            conn.merge(key, value)
            reply = None
        elif opcode == OP_DELETE:
            conn.delete(key)
            reply = None
        else:
            raise ValueError(f"unknown opcode {opcode}")
        complete = time.perf_counter_ns() - conn.take_background_ns()
        self._on_complete(opcode, arrival_ns, complete, reply)

    def flush(self) -> None:
        """Push any staged-but-unsent frames to the wire (no-op for
        synchronous backends)."""

    def drain(self) -> None:
        """Flush and wait for every in-flight op to complete."""
        self.flush()

    def close(self) -> None:
        self.drain()


class StoreConnector:
    """Uniform four-operation facade over a concrete store.

    An op it does not translate is bound to the store's own method (one
    frame per call); the forwarding methods below look the op up per
    call, and deleting an instance patch falls back to them."""

    def __init__(self, store: KVStore) -> None:
        self.store = store
        for name in ("get", "put", "merge", "delete", "take_background_ns"):
            if getattr(type(self), name) is getattr(StoreConnector, name):
                setattr(self, name, getattr(store, name))

    @property
    def name(self) -> str:
        return self.store.name

    def get(self, key: bytes) -> Optional[bytes]:
        return self.store.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.store.put(key, value)

    def delete(self, key: bytes) -> None:
        self.store.delete(key)

    def merge(self, key: bytes, operand: bytes) -> None:
        self.store.merge(key, operand)

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        return self.store.multi_get(keys)

    def apply_batch(self, ops: Sequence[BatchOp]) -> None:
        self.store.apply_batch(ops)

    def take_background_ns(self) -> int:
        return self.store.take_background_ns()

    def scan(self, start: bytes, end: bytes):
        """Range scan passthrough (stores without scan support raise
        :class:`~repro.kvstores.api.UnsupportedOperationError`); the
        store server's admin ``scan`` command -- which feeds replica
        resync -- reaches the store through this."""
        return self.store.scan(start, end)

    def flush(self) -> None:
        self.store.flush()

    def scrub(self):
        return self.store.scrub()

    def storage_backend(self):
        return self.store.storage_backend()

    def close(self) -> None:
        self.store.close()

    def abandon(self) -> None:
        """Drop the store like a process kill (no flush, workers
        hard-stopped); see :meth:`repro.kvstores.api.KVStore.abandon`."""
        self.store.abandon()

    def pipeline(self, depth: int, on_complete: CompletionFn) -> PipelineSession:
        """Open a pipelined session over this connector.

        The base implementation is synchronous (window of 1 regardless
        of ``depth``); connectors with a real wire between them and the
        store override this to return a windowed session."""
        return PipelineSession(self, depth, on_complete)


class ReadModifyWriteConnector(StoreConnector):
    """Emulates ``merge`` with get + full_merge + put.

    Used for stores without lazy updates (the B+Tree).  The read-copy-
    update of a growing value is exactly the overhead the paper
    attributes to BerkeleyDB on holistic window workloads.
    """

    def __init__(self, store: KVStore, merge_operator: Optional[MergeOperator] = None):
        super().__init__(store)
        self.merge_operator = merge_operator or AppendMergeOperator()

    def merge(self, key: bytes, operand: bytes) -> None:
        existing = self.store.get(key)
        merged = self.merge_operator.full_merge(existing, (operand,))
        self.store.put(key, merged)

    def apply_batch(self, ops: Sequence[BatchOp]) -> None:
        """Rewrite merges to puts before handing the batch down.

        A merge must see the effect of earlier ops *in the same batch*,
        so pending batch writes are tracked in an overlay: a merge reads
        its base value from the overlay first and the store only as a
        fallback, then becomes a plain put of the materialized value.
        """
        overlay: dict = {}
        rewritten: List[BatchOp] = []
        full_merge = self.merge_operator.full_merge
        store_get = self.store.get
        for opcode, key, value in ops:
            if opcode == OP_PUT:
                overlay[key] = value
                rewritten.append((opcode, key, value))
            elif opcode == OP_DELETE:
                overlay[key] = None
                rewritten.append((opcode, key, value))
            elif opcode == OP_MERGE:
                existing = overlay[key] if key in overlay else store_get(key)
                merged = full_merge(existing, (value,))
                overlay[key] = merged
                rewritten.append((OP_PUT, key, merged))
            else:
                rewritten.append((opcode, key, value))
        self.store.apply_batch(rewritten)


def connect(store: KVStore, merge_operator: Optional[MergeOperator] = None) -> StoreConnector:
    """Wrap ``store`` with the connector appropriate to its capabilities.

    A store advertises native merge by overriding :meth:`KVStore.merge`;
    stores that keep the base-class default (which raises
    :class:`UnsupportedOperationError`) get the read-modify-write shim.
    """
    if type(store).merge is KVStore.merge:
        return ReadModifyWriteConnector(store, merge_operator)
    return StoreConnector(store)
