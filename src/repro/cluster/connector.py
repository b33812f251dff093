"""The cluster client: routing, batch splitting, failover.

:class:`ClusterConnector` implements the connector surface the trace
replayer and evaluator already speak, against N server chains:

* **Routing** -- ``crc32(key) % partitions``, byte-identical to
  ``shard_trace``'s partitioner, so a trace sharded for offline replay
  and a live cluster agree on key placement.
* **Batching** -- ``multi_get`` / ``apply_batch`` split per partition
  and cost one round trip per *touched* partition, reassembled in
  request order.
* **Chains** -- the connector owns the partition map.  It pushes each
  chain's replication links to the servers over the admin channel
  (node *i* forwards to node *i+1*); the ack level decides which links
  are synchronous (see :meth:`_link_sync`).
* **Failover** -- on a failed primary op the connector probes the
  chain, promotes the first live member, rewires the survivors, and
  retries.  The loop is bounded by the :class:`~repro.faults.
  RetryPolicy` attempt budget; per-endpoint clients deliberately get
  *no* retry policy of their own, so a failover never nests one retry
  budget inside another.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple
from zlib import crc32

from ..faults.retry import RetryPolicy
from ..kvstores.api import OP_GET, OP_MERGE, OP_PUT, BatchOp
from ..kvstores.connectors import PipelineSession
from ..kvstores.remote import (
    _BATCH_ALL_OK,
    REPLY_ERROR,
    REPLY_MISSING,
    REPLY_VALUE,
    RemoteStoreClient,
    RemoteStoreError,
    _require_writes,
)
from ..obs import tracing
from .manager import StoreCluster

_COPY_BATCH = 256  # ops per apply_batch frame during snapshot copy


class ClusterConnector:
    """Partitioned, replicated, failover-capable connector."""

    def __init__(
        self,
        cluster: StoreCluster,
        ack: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> None:
        config = cluster.config
        self._cluster = cluster
        self.ack = ack if ack is not None else config.ack
        self._retry_policy = retry_policy
        self._timeout = timeout if timeout is not None else config.timeout_s
        self.partitions = config.partitions
        self.name = f"cluster:{config.store}:{config.label}"
        #: live chains, primary first; owned by this connector after
        #: construction (failover and resync rewrite them)
        self._chains: List[List[str]] = [
            cluster.chain(p) for p in range(config.partitions)
        ]
        self._clients: Dict[str, RemoteStoreClient] = {}
        #: client constructions per endpoint; anything past the first
        #: is a re-establishment (how a failover's latency spike gets
        #: attributed to reconnects in the metrics series)
        self._connects: Dict[str, int] = {}
        #: endpoints the client is partitioned away from (chaos action)
        self._isolated: Set[str] = set()
        # -- observability counters (metrics gauges read these) --
        self.failovers = 0  # repairs that changed a primary
        self.chain_repairs = 0  # all repairs, promotion or not
        self.failover_ms: List[float] = []  # per-repair wall time
        # pipelined-mode gauges (zero for synchronous use)
        self.pipeline_flushes = 0
        self.flush_coalesced_ops = 0
        self.inflight_depth = 0
        for partition in range(self.partitions):
            self._configure_chain(partition)

    # -- endpoint plumbing ---------------------------------------------------

    def _client(self, name: str) -> RemoteStoreClient:
        """(Cached) client for a node.  Raises if the chaos plan has
        isolated us from it; connects fresh if the cache is cold."""
        if name in self._isolated:
            raise RemoteStoreError(
                f"client is partitioned from {name} "
                f"at {self._peer_of(name)} (chaos isolation)"
            )
        client = self._clients.get(name)
        if client is None:
            try:
                host, port = self._cluster.address(name)
            except RuntimeError as exc:  # node is down: same failure class
                raise RemoteStoreError(str(exc)) from exc
            client = RemoteStoreClient(
                host, port, store_name=name, timeout=self._timeout
            )
            self._clients[name] = client
            self._connects[name] = self._connects.get(name, 0) + 1
        return client

    def _peer_of(self, name: str) -> str:
        try:
            host, port = self._cluster.address(name)
            return f"{host}:{port}"
        except RuntimeError:
            return "<down>"

    def _forget_client(self, name: str) -> None:
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()

    def reconnects_for(self, name: str) -> int:
        """Connections re-established to an endpoint (fresh clients
        after a drop, plus any in-client reconnects)."""
        client = self._clients.get(name)
        in_client = client.reconnects if client is not None else 0
        return max(0, self._connects.get(name, 0) - 1) + in_client

    def endpoints(self) -> List[str]:
        """Every node any chain currently references, primaries first."""
        out: List[str] = []
        for chain in self._chains:
            for name in chain:
                if name not in out:
                    out.append(name)
        return out

    def chain(self, partition: int) -> List[str]:
        return list(self._chains[partition])

    # -- chain wiring --------------------------------------------------------

    def _link_sync(self, position: int) -> bool:
        """Is the replication link *out of* chain position ``position``
        synchronous?  ``ack`` counts replicas confirmed at client-ack
        time: ``all`` makes every link wait (tail-confirmed writes),
        ``one`` only the primary's link, ``none`` nothing."""
        if self.ack == "all":
            return True
        if self.ack == "one":
            return position == 0
        return False

    def _configure_chain(self, partition: int) -> None:
        """Push the chain's links to the servers: node *i* forwards to
        node *i+1*; the tail forwards nowhere."""
        chain = self._chains[partition]
        for position, name in enumerate(chain):
            if position + 1 < len(chain):
                downstream = list(self._cluster.address(chain[position + 1]))
            else:
                downstream = None
            self._client(name).admin(
                "configure",
                {"downstream": downstream, "sync": self._link_sync(position)},
            )

    # -- failover ------------------------------------------------------------

    def _on_primary(self, partition: int, fn: Callable[[RemoteStoreClient], object]):
        """Run ``fn`` against the partition's primary; on failure,
        repair the chain and retry (see :meth:`_fail_over`)."""
        name = self._chains[partition][0]
        try:
            return fn(self._client(name))
        except RemoteStoreError as exc:
            # the failed client's socket may be wedged; a fresh
            # connection is part of the repair
            self._forget_client(name)
            failed = exc
        return self._fail_over(partition, fn, failed)

    def _fail_over(self, partition: int, fn, failed: RemoteStoreError):
        """Retry a failed primary op under the retry policy, repairing
        the chain before each backoff sleep.

        A failover consumes attempts from the same budget as a
        transient error would -- it cannot silently retry forever --
        and sleeps the policy's jittered backoff within its
        ``op_timeout_s``.  With no policy, the budget is one try per
        chain member plus one against the repaired chain (enough to
        survive a single failure), with no delay.
        """
        policy = self._retry_policy
        if policy is None:
            policy = RetryPolicy(
                max_attempts=max(len(chain) for chain in self._chains) + 1,
                base_delay_s=0.0,
            )
        errors = [failed]

        def attempt():
            name = self._chains[partition][0]
            try:
                return fn(self._client(name))
            except RemoteStoreError as exc:
                self._forget_client(name)
                errors.append(exc)
                raise

        try:
            return policy.call(
                attempt,
                failed=failed,
                retry_on=(RemoteStoreError,),
                on_retry=lambda _n, exc: self._repair(partition, cause=exc),
                sleep=time.sleep,
            )
        except RemoteStoreError as exc:
            if exc is not errors[-1]:
                raise  # the repair itself failed: no live replica
            raise RemoteStoreError(
                f"partition {partition} unavailable after {len(errors)} attempts "
                f"(chain {self._chains[partition]}): {exc}"
            ) from exc

    def _probe(self, name: str) -> bool:
        """Is a node answering pings?  Always over a fresh connection:
        a cached client may hold a socket broken by the very failure
        being repaired."""
        self._forget_client(name)
        if name in self._isolated:
            return False
        try:
            self._client(name).admin("ping")
            return True
        except RemoteStoreError:
            self._forget_client(name)
            return False

    def repair_partition(self, partition: int) -> None:
        """Proactive repair (a failure detector noticed a death the
        client has not tripped over yet -- e.g. a dead tail replica
        under ``ack=none``)."""
        self._repair(partition)

    def _repair(self, partition: int, cause: Optional[Exception] = None) -> None:
        """Probe the chain, drop the dead, promote the first survivor,
        rewire replication.  Counts as a *failover* only when the
        primary changed; every repair bumps ``chain_repairs``."""
        began = time.perf_counter()
        with tracing.span("cluster.failover", partition=partition) as span:
            old = list(self._chains[partition])
            live = [name for name in old if self._probe(name)]
            if not live:
                raise RemoteStoreError(
                    f"partition {partition}: no live replicas among {old}"
                    + (f" (repairing after: {cause})" if cause else "")
                )
            promoted = live[0] != old[0]
            self._chains[partition] = live
            self._configure_chain(partition)
            self.chain_repairs += 1
            if promoted:
                self.failovers += 1
                tracing.instant(
                    "cluster.promoted", partition=partition, primary=live[0]
                )
            span.add(chain=",".join(live), promoted=promoted)
        self.failover_ms.append((time.perf_counter() - began) * 1000.0)

    # -- topology operations (chaos / resync) --------------------------------

    def isolate(self, name: str) -> None:
        """Partition this client away from one endpoint (the node
        itself stays up and keeps serving its replication links)."""
        self._isolated.add(name)
        self._forget_client(name)
        tracing.instant("cluster.isolate", server=name)

    def heal(self, name: str) -> None:
        self._isolated.discard(name)
        tracing.instant("cluster.heal", server=name)

    def attach_replica(self, partition: int, name: str) -> None:
        """Resync a (re)started node from the partition's primary and
        append it at the chain tail.

        The node is assumed empty (restart = replacement node): the
        primary's full snapshot is streamed over in ``apply_batch``
        frames, then the chain is rewired so the old tail forwards to
        the newcomer.  Needs a scan-capable backing store.
        """
        self._forget_client(name)  # the old incarnation's port is stale
        snapshot = self._on_primary(partition, lambda c: c.admin_scan())
        client = self._client(name)
        for lo in range(0, len(snapshot), _COPY_BATCH):
            client.apply_batch(
                [(OP_PUT, k, v) for k, v in snapshot[lo : lo + _COPY_BATCH]]
            )
        chain = self._chains[partition]
        if name not in chain:
            chain.append(name)
        self._configure_chain(partition)
        tracing.instant(
            "cluster.attach", server=name, partition=partition, keys=len(snapshot)
        )

    # -- connector surface ---------------------------------------------------

    def _partition(self, key: bytes) -> int:
        return crc32(key) % self.partitions

    def get(self, key: bytes) -> Optional[bytes]:
        partition = self._partition(key)
        return self._on_primary(partition, lambda c: c.get(key))

    def put(self, key: bytes, value: bytes) -> None:
        partition = self._partition(key)
        self._on_primary(partition, lambda c: c.put(key, value))

    def merge(self, key: bytes, operand: bytes) -> None:
        partition = self._partition(key)
        self._on_primary(partition, lambda c: c.merge(key, operand))

    def delete(self, key: bytes) -> None:
        partition = self._partition(key)
        self._on_primary(partition, lambda c: c.delete(key))

    # -- scatter-gather fan-out ---------------------------------------------

    def _scatter(
        self, frames: Dict[int, List[BatchOp]]
    ) -> Dict[int, Optional[RemoteStoreClient]]:
        """Issue every touched partition's :data:`OP_BATCH` frame before
        any reply is read: the partitions' servers then process their
        sub-batches concurrently and a k-partition batch costs ~1 RTT
        instead of k.  A partition whose send fails maps to None -- its
        gather falls back to the sequential :meth:`_on_primary` replay,
        which repairs the chain and retries only that sub-batch."""
        sent: Dict[int, Optional[RemoteStoreClient]] = {}
        for partition, items in frames.items():
            try:
                client = self._client(self._chains[partition][0])
                client.batch_send(items)
            except RemoteStoreError:
                sent[partition] = None
                continue
            tracing.instant(
                "cluster.scatter", partition=partition, n=len(items)
            )
            sent[partition] = client
        return sent

    def _gather_get(
        self,
        partition: int,
        scattered: Dict[int, Optional[RemoteStoreClient]],
        subset: List[bytes],
    ) -> List[Optional[bytes]]:
        """Collect one scattered partition's get replies; any failure
        (transport death, store error) replays only this partition's
        sub-batch under the repair loop."""
        client = scattered.get(partition)
        if client is not None:
            try:
                replies = client.batch_recv(len(subset))
            except RemoteStoreError:
                pass  # replay below: _on_primary repairs and retries
            else:
                tracing.instant(
                    "cluster.gather", partition=partition, n=len(subset)
                )
                values: Optional[List[Optional[bytes]]] = []
                for status, data in replies:
                    if status == REPLY_VALUE:
                        values.append(data)
                    elif status == REPLY_MISSING:
                        values.append(None)
                    else:  # store-level error: replay the sub-batch
                        values = None
                        break
                if values is not None:
                    return values
        return self._on_primary(partition, lambda c, s=subset: c.multi_get(s))

    def _gather_write(
        self,
        partition: int,
        scattered: Dict[int, Optional[RemoteStoreClient]],
        group: List[BatchOp],
    ) -> None:
        """Collect one scattered partition's write acks (see
        :meth:`_gather_get` for the failure contract; a replayed write
        sub-batch is at-least-once, exactly like a retried sync op)."""
        client = scattered.get(partition)
        if client is not None:
            try:
                replies = client.batch_recv(len(group))
            except RemoteStoreError:
                pass
            else:
                tracing.instant(
                    "cluster.gather", partition=partition, n=len(group)
                )
                if replies is _BATCH_ALL_OK or all(
                    status != REPLY_ERROR for status, _ in replies
                ):
                    return
        self._on_primary(partition, lambda c, g=group: c.apply_batch(g))

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        if not keys:
            return []
        groups: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(self._partition(key), []).append(index)
        out: List[Optional[bytes]] = [None] * len(keys)
        if len(groups) == 1:
            ((partition, indices),) = groups.items()
            subset = [keys[i] for i in indices]
            values = self._on_primary(
                partition, lambda c, s=subset: c.multi_get(s)
            )
            for index, value in zip(indices, values):
                out[index] = value
            return out
        scattered = self._scatter(
            {
                partition: [(OP_GET, keys[i], b"") for i in indices]
                for partition, indices in groups.items()
            }
        )
        for partition, indices in groups.items():
            subset = [keys[i] for i in indices]
            values = self._gather_get(partition, scattered, subset)
            for index, value in zip(indices, values):
                out[index] = value
        return out

    def apply_batch(self, ops: Sequence[BatchOp]) -> None:
        if not ops:
            return
        _require_writes(ops)
        groups: Dict[int, List[BatchOp]] = {}
        for op in ops:
            groups.setdefault(self._partition(op[1]), []).append(op)
        if len(groups) == 1:
            ((partition, group),) = groups.items()
            self._on_primary(partition, lambda c, g=group: c.apply_batch(g))
            return
        scattered = self._scatter(groups)
        for partition, group in groups.items():
            self._gather_write(partition, scattered, group)

    def pipeline(self, depth: int, on_complete) -> "_ClusterPipeline":
        """Open a pipelined session: submitted ops accumulate into a
        window that flushes as one scatter-gather fan-out (see
        :class:`_ClusterPipeline`)."""
        return _ClusterPipeline(self, depth, on_complete)

    #: no store runs in this process, so no background time: a C call
    take_background_ns = staticmethod(int)

    def flush(self) -> None:
        pass  # durability is the servers' business; nothing buffered here

    def close(self) -> None:
        for name in list(self._clients):
            self._forget_client(name)

    def __enter__(self) -> "ClusterConnector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ClusterPipeline(PipelineSession):
    """Windowed scatter-gather over a :class:`ClusterConnector`.

    Submitted ops accumulate until the window holds ``depth`` of them,
    then flush as ONE fan-out: the window is split per partition, every
    touched partition's :data:`~repro.kvstores.remote.OP_BATCH` frame
    is sent before any reply is read, and replies are gathered in
    scatter order -- so a full window costs ~1 RTT regardless of how
    many partitions it touches.  Completion timestamps are taken at
    gather, so histogram latency includes window queueing time.

    Failover mid-gather repairs only the failed partition's chain and
    replays only its sub-batch (per-op, under the connector's
    :meth:`~ClusterConnector._on_primary` budget); the other
    partitions' replies are unaffected.  Replayed writes are
    at-least-once, exactly like a retried synchronous op.
    """

    def __init__(
        self, connector: ClusterConnector, depth: int, on_complete
    ) -> None:
        super().__init__(connector, depth, on_complete)
        self._conn = connector
        #: (opcode, key, value, arrival_ns) awaiting the next fan-out
        self._staged: List[Tuple[int, bytes, bytes, int]] = []

    @property
    def pending(self) -> int:
        return len(self._staged)

    def submit(self, opcode: int, key: bytes, value: bytes,
               arrival_ns: int) -> None:
        self._staged.append((opcode, key, value, arrival_ns))
        if len(self._staged) >= self.depth:
            self.flush()

    def flush(self) -> None:
        if not self._staged:
            return
        window = self._staged
        self._staged = []
        if tracing.active() is None:
            self._flush_window(window)
            return
        with tracing.span("remote.pipeline_flush", n=len(window)):
            self._flush_window(window)

    def _flush_window(self, window: List[Tuple[int, bytes, bytes, int]]) -> None:
        conn = self._conn
        conn.inflight_depth = len(window)
        groups: Dict[int, List[Tuple[int, bytes, bytes, int]]] = {}
        for item in window:
            groups.setdefault(conn._partition(item[1]), []).append(item)
        scattered = conn._scatter(
            {
                partition: [(op, key, value) for op, key, value, _ in items]
                for partition, items in groups.items()
            }
        )
        for partition, items in groups.items():
            self._gather_window(partition, scattered, items)
        conn.pipeline_flushes += 1
        conn.flush_coalesced_ops += len(window)
        conn.inflight_depth = 0
        self.flushes += 1
        self.coalesced_ops += len(window)

    def _gather_window(
        self,
        partition: int,
        scattered: Dict[int, Optional[RemoteStoreClient]],
        items: List[Tuple[int, bytes, bytes, int]],
    ) -> None:
        client = scattered.get(partition)
        replies = None
        if client is not None:
            try:
                replies = client.batch_recv(len(items))
            except RemoteStoreError:
                replies = None
            else:
                tracing.instant(
                    "cluster.gather", partition=partition, n=len(items)
                )
        completed = False
        if replies is not None:
            now = time.perf_counter_ns()
            if replies is _BATCH_ALL_OK:
                for opcode, _key, _value, arrival in items:
                    self._on_complete(opcode, arrival, now, None)
                completed = True
            elif all(status != REPLY_ERROR for status, _ in replies):
                for (status, data), (opcode, _key, _value, arrival) in zip(
                    replies, items
                ):
                    value = data if status == REPLY_VALUE else None
                    self._on_complete(opcode, arrival, now, value)
                completed = True
        if not completed:
            # transport death or a store-level rejection:
            # repair + per-op replay of ONLY this partition's sub-batch
            self._replay_members(partition, items)

    def _replay_members(
        self, partition: int, items: List[Tuple[int, bytes, bytes, int]]
    ) -> None:
        conn = self._conn
        for opcode, key, value, arrival in items:
            if opcode == OP_GET:
                reply = conn._on_primary(partition, lambda c, k=key: c.get(k))
            elif opcode == OP_PUT:
                conn._on_primary(
                    partition, lambda c, k=key, v=value: c.put(k, v)
                )
                reply = None
            elif opcode == OP_MERGE:
                conn._on_primary(
                    partition, lambda c, k=key, v=value: c.merge(k, v)
                )
                reply = None
            else:
                conn._on_primary(partition, lambda c, k=key: c.delete(k))
                reply = None
            self._on_complete(opcode, arrival, time.perf_counter_ns(), reply)

    def drain(self) -> None:
        self.flush()
