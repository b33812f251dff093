"""Sharded replay across worker processes: true parallel CPU.

The thread-based :class:`~repro.core.replayer.ShardedReplayer` shares
one interpreter lock; this transport runs the same shards in worker
processes.  On a 2-CPU box two workers replayed the 327,858-op
``sliding-incremental`` trace (Borg, 30k events, seed 7) on rocksdb at
1.23-1.36x the single replayer's wall-clock throughput (medians of
three sets of ten alternating runs).

Both transports share one coordinator
(:class:`~repro.core.replayer._ShardCoordinator`): the argument checks,
the per-shard :class:`~repro.core.replayer.TraceReplayer` recipe and
the shard-ordered error and result tail.  What is particular to
processes lives here:

* the parent serializes the v2 columnar trace **once** into a
  ``multiprocessing.shared_memory`` segment
  (:meth:`~repro.trace.AccessTrace.write_image`); each worker attaches
  zero-copy views (:meth:`~repro.trace.AccessTrace.attach`), picks its
  bucket with :func:`~repro.core.replayer.shard_indices` and gathers
  it into private arrays;
* workers build their connectors from a picklable
  :class:`ConnectorSpec` and send their :class:`ReplayResult` home
  over a queue, with an optional content digest; per-worker metrics
  series concatenate via :func:`~repro.obs.metrics.merge_shard_series`.

A worker that fails reports a structured error and flips a shared stop
event, which surviving workers poll once per 64 ops.  A worker that
dies without reporting (SIGKILL, ``os._exit``) is detected by exit
code and surfaced as :class:`WorkerCrashError`.  The parent unlinks
the segment in a ``finally``, so no path leaks ``/dev/shm`` segments.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue as queue_mod
import sys
import time
import traceback as traceback_mod
from dataclasses import dataclass, field
from functools import reduce
from multiprocessing import shared_memory
from operator import xor
from typing import Callable, Dict, List, Optional

from ..trace import AccessTrace
from .replayer import (
    ReplayResult,
    ReplayStopped,
    ShardedReplayResult,
    _ShardCoordinator,
    shard_indices,
)


class WorkerProcessError(Exception):
    """A replay worker process failed; carries the worker-side
    traceback text so the failure is diagnosable from the parent."""

    def __init__(self, shard: int, type_name: str, message: str, tb: str) -> None:
        super().__init__(
            f"replay shard {shard} failed with {type_name}: {message}\n"
            f"--- worker traceback ---\n{tb.rstrip()}"
        )
        self.shard = shard
        self.type_name = type_name


class WorkerCrashError(Exception):
    """A replay worker died without reporting a result (killed, or a
    hard exit mid-replay); only its exit code survives."""

    def __init__(self, shard: int, exitcode: Optional[int]) -> None:
        super().__init__(
            f"replay shard {shard} worker died with exit code {exitcode} "
            "before reporting a result"
        )
        self.shard = shard
        self.exitcode = exitcode


@dataclass(frozen=True)
class ConnectorSpec:
    """Picklable recipe for building a store connector *inside* a
    worker process.

    Connectors hold sockets, file handles, and caches -- none of which
    survive a process boundary -- so the process replayer ships the
    recipe instead of the object:

    * ``for_store``: each worker builds its own embedded store via
      :func:`~repro.kvstores.create_connector`; with ``storage_root``
      set, worker ``i`` gets a private on-disk partition
      ``<root>/shard-<i>`` (the reserved ``storage_dir`` override).
    * ``for_remote``: each worker opens its own
      :class:`~repro.kvstores.remote.RemoteStoreClient` socket against
      one shared :class:`~repro.kvstores.remote.StoreServer`.
    * ``from_factory``: an arbitrary zero-argument callable, for tests
      and custom wiring (must survive the start method in use:
      anything under ``fork``, picklable under ``spawn``).
    """

    kind: str
    store: Optional[str] = None
    config: Dict[str, object] = field(default_factory=dict)
    storage_root: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    timeout: Optional[float] = None
    factory: Optional[Callable[[int], object]] = None

    @classmethod
    def for_store(
        cls, name: str, storage_root: Optional[str] = None, **config
    ) -> "ConnectorSpec":
        return cls(kind="store", store=name, config=config, storage_root=storage_root)

    @classmethod
    def for_remote(
        cls,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        store_name: str = "remote",
    ) -> "ConnectorSpec":
        return cls(
            kind="remote", store=store_name, host=host, port=port, timeout=timeout
        )

    @classmethod
    def from_factory(cls, factory: Callable[[int], object]) -> "ConnectorSpec":
        """``factory(worker_index) -> connector``, called in the worker."""
        return cls(kind="factory", factory=factory)

    def build(self, index: int):
        if self.kind == "store":
            from ..kvstores import create_connector

            overrides = dict(self.config)
            if self.storage_root is not None:
                overrides["storage_dir"] = os.path.join(
                    self.storage_root, f"shard-{index}"
                )
            return create_connector(self.store, **overrides)
        if self.kind == "remote":
            from ..kvstores.remote import DEFAULT_TIMEOUT_S, RemoteStoreClient

            return RemoteStoreClient(
                self.host,
                self.port,
                store_name=self.store or "remote",
                timeout=self.timeout if self.timeout is not None else DEFAULT_TIMEOUT_S,
            )
        if self.kind == "factory":
            return self.factory(index)
        raise ValueError(f"unknown connector spec kind {self.kind!r}")


def store_content_digest(connector, keys) -> int:
    """Order-independent digest of a store's contents over ``keys``.

    XOR of per-key ``blake2b(key, value-or-missing)`` terms: disjoint
    key sets XOR into the digest of their union, so per-shard digests
    from N workers combine into exactly the digest a single replayer's
    store would produce over the same keys -- the property the
    single ≡ thread-sharded ≡ process-sharded equivalence tests check.
    """
    acc = 0
    for key in keys:
        value = connector.get(key)
        if value is None:
            payload = b"\x00" + key
        else:
            payload = b"\x01" + key + b"\x1f" + value
        acc ^= int.from_bytes(
            hashlib.blake2b(payload, digest_size=16).digest(), "little"
        )
    return acc


class _DecimatedStop:
    """Stop-check over a ``multiprocessing.Event``, sampled every 64th
    call: an mp event read is a semaphore syscall, far too costly for
    once-per-op, and stop latency of ~64 ops is ample."""

    __slots__ = ("event", "tick")

    def __init__(self, event) -> None:
        self.event = event
        self.tick = 0

    def __call__(self) -> bool:
        self.tick += 1
        if self.tick & 63:
            return False
        return self.event.is_set()


def _worker_main(owner, index, shm_name, results, stop_event) -> None:
    """Replay shard ``index`` of ``owner``'s fan-out in this process.

    Contract with the parent: exactly one ``(index, result, digest,
    error)`` message lands on ``results`` -- ``result`` None with
    ``error`` None is a stop acknowledgement -- unless the process dies
    outright, which the parent detects by exit code.
    """
    connector = None
    try:
        # NB: attaching registers the segment with the resource
        # tracker on CPython < 3.13, but workers share the parent's
        # tracker process (fork inherits it; spawn passes its fd), so
        # the registration set collapses the duplicate and the
        # parent's unlink performs the single unregister.  Do NOT
        # unregister here: that would clobber the parent's entry.
        shm = shared_memory.SharedMemory(name=shm_name)
        try:
            full = AccessTrace.attach(shm.buf)
            shard = full.select(shard_indices(full, owner.num_workers)[index])
        finally:
            # select() gathered into private arrays; drop every view
            # over the segment before closing our mapping of it
            full = None
            shm.close()

        connector = owner.spec.build(index)
        replayer = owner._shard_replayer(
            index, connector, _DecimatedStop(stop_event), disable_gc=True
        )
        if owner.metrics_dir is not None:
            from ..obs import ReplayTelemetry

            replayer.telemetry = ReplayTelemetry(
                metrics_path=os.path.join(owner.metrics_dir, f"shard-{index}.jsonl"),
                meta={"shard": index},
            )
        result = replayer.replay(shard)
        digest = None
        if owner.collect_digests:
            klist = shard.unique_keys()
            shard_keys = sorted({klist[kid] for kid in set(shard.key_ids)})
            digest = store_content_digest(connector, shard_keys)
        results.put((index, result, digest, None))
    except ReplayStopped:
        results.put((index, None, None, None))
    except BaseException as exc:
        error = (type(exc).__name__, str(exc), traceback_mod.format_exc())
        results.put((index, None, None, error))
        sys.exit(1)
    finally:
        if connector is not None:
            try:
                connector.close()
            except Exception:
                pass


#: empty-queue polls (0.2 s apiece) a dead worker gets to deliver its
#: already-queued message before the parent declares it crashed
_DEAD_WORKER_GRACE_POLLS = 5


class ProcessShardedReplayer(_ShardCoordinator):
    """Replays a trace across N worker **processes**, one key partition
    each -- the multi-core counterpart of
    :class:`~repro.core.replayer.ShardedReplayer`.

    Both build their shards from the one coordinator recipe, so for a
    fixed seed the two modes produce identical merged per-op histogram
    populations, fault schedules and final store contents; only
    wall-clock differs: on a 2-CPU box, two workers replayed a 328k-op
    rocksdb trace at 1.23-1.36x the single replayer's throughput.
    """

    def __init__(
        self,
        spec: ConnectorSpec,
        num_workers: int = 4,
        service_rate: Optional[float] = None,
        measure_latency: bool = True,
        use_histograms: bool = True,
        fault_plan=None,
        retry_policy=None,
        batch_size: Optional[int] = None,
        metrics_dir: Optional[str] = None,
        collect_digests: bool = False,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(
            num_workers, service_rate, measure_latency, use_histograms,
            fault_plan, retry_policy, batch_size, pipeline_depth=None,
        )
        if not isinstance(spec, ConnectorSpec):
            raise TypeError(
                "ProcessShardedReplayer takes a ConnectorSpec (live "
                "connectors cannot cross a process boundary)"
            )
        if start_method is None:
            # fork shares the page cache and skips interpreter boot;
            # spawn is the portable fallback
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.spec = spec
        self.metrics_dir = metrics_dir
        self.collect_digests = collect_digests
        self.start_method = start_method
        #: per-shard content digests from the last replay (populated
        #: when ``collect_digests`` is set; workers compute them before
        #: exiting because their stores die with them)
        self.last_digests: List[Optional[int]] = []
        #: XOR-combined digest over all shards (key sets are disjoint)
        self.last_content_digest: Optional[int] = None
        #: path of the merged metrics series from the last replay
        self.last_metrics_path: Optional[str] = None

    def replay(self, trace: AccessTrace) -> ShardedReplayResult:
        ctx = multiprocessing.get_context(self.start_method)
        if self.metrics_dir is not None:
            os.makedirs(self.metrics_dir, exist_ok=True)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, trace.image_nbytes())
        )
        started = time.perf_counter()
        try:
            trace.write_image(shm.buf)
            results_queue = ctx.Queue()
            stop_event = ctx.Event()
            workers = {
                index: ctx.Process(
                    target=_worker_main,
                    args=(self, index, shm.name, results_queue, stop_event),
                    name=f"replay-shard-{index}",
                    daemon=True,
                )
                for index in range(self.num_workers)
            }
            for proc in workers.values():
                proc.start()
            results, digests, errors = self._collect(
                workers, results_queue, stop_event
            )
            for proc in workers.values():
                proc.join(timeout=10)
                if proc.is_alive():  # wedged post-report; don't hang the parent
                    proc.terminate()
                    proc.join(timeout=5)
            results_queue.close()
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        sharded = self._gather(started, results, errors)

        self.last_digests = [digests[index] for index in sorted(digests)]
        self.last_content_digest = (
            reduce(xor, self.last_digests) if self.collect_digests else None
        )
        if self.metrics_dir is not None:
            from ..obs.metrics import merge_shard_series

            paths = [
                os.path.join(self.metrics_dir, f"shard-{index}.jsonl")
                for index in range(self.num_workers)
            ]
            merged = os.path.join(self.metrics_dir, "merged.jsonl")
            merge_shard_series([p for p in paths if os.path.exists(p)], merged)
            self.last_metrics_path = merged
        return sharded

    def _collect(self, workers, results_queue, stop_event):
        """Drain one message per worker, watching for silent deaths.

        Draining happens *before* joining: a worker blocked flushing a
        large result into the queue's pipe deadlocks against a parent
        blocked in ``join`` (the classic ``multiprocessing`` trap).  A
        worker observed dead with nothing queued gets a short grace
        (its feeder thread may still be flushing), then is recorded as
        crashed -- which also trips the stop event so live siblings
        wind down instead of replaying their full shards.
        """
        pending = dict(workers)
        results: Dict[int, ReplayResult] = {}
        digests: Dict[int, Optional[int]] = {}
        errors: Dict[int, BaseException] = {}
        strikes: Dict[int, int] = {}
        while pending:
            try:
                index, result, digest, error = results_queue.get(timeout=0.2)
            except queue_mod.Empty:
                for index in list(pending):
                    proc = pending[index]
                    if proc.is_alive():
                        strikes.pop(index, None)
                        continue
                    strikes[index] = strikes.get(index, 0) + 1
                    if strikes[index] >= _DEAD_WORKER_GRACE_POLLS:
                        errors[index] = WorkerCrashError(index, proc.exitcode)
                        del pending[index]
                        stop_event.set()
                continue
            pending.pop(index, None)
            strikes.pop(index, None)
            if error is not None:
                errors[index] = WorkerProcessError(index, *error)
                stop_event.set()
            elif result is not None:
                results[index] = result
                digests[index] = digest
            # a stop acknowledgement carries no result: the shard
            # unwound cooperatively after a sibling failed
        return results, digests, errors
