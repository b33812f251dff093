"""Performance evaluator: runs workloads across KV stores.

Orchestrates the paper's section 6 experiments: build or accept a
state access trace, replay it on each store through the appropriate
connector, and report throughput plus tail latency per store.  Also
supports concurrent-operator evaluation (section 6.4) by interleaving
the traces of multiple operators onto one store instance.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..kvstores import create_connector
from ..kvstores.connectors import StoreConnector
from ..trace import AccessTrace, interleave_traces
from .replayer import (
    ReplayResult,
    ShardedReplayer,
    ShardedReplayResult,
    TraceReplayer,
)
from ..faults import (
    RECOVERABLE_STORES,
    CrashRecoveryResult,
    DiskFaultPlan,
    FaultPlan,
    RetryPolicy,
    check_recoverable,
    evaluate_crash_recovery,
)

DEFAULT_STORES = ("rocksdb", "lethe", "faster", "berkeleydb")


class LockedConnector:
    """Serializes access to a shared connector with one lock.

    Models concurrent clients of one store instance when the store
    itself is not thread-safe; the lock contention is part of what is
    being measured.
    """

    def __init__(self, inner: StoreConnector, lock: Optional[threading.Lock] = None):
        self._inner = inner
        self._lock = lock or threading.Lock()
        self.name = inner.name

    def get(self, key: bytes):
        with self._lock:
            return self._inner.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._inner.put(key, value)

    def merge(self, key: bytes, operand: bytes) -> None:
        with self._lock:
            self._inner.merge(key, operand)

    def delete(self, key: bytes) -> None:
        with self._lock:
            self._inner.delete(key)

    def multi_get(self, keys):
        with self._lock:
            return self._inner.multi_get(keys)

    def apply_batch(self, ops) -> None:
        with self._lock:
            self._inner.apply_batch(ops)

    def take_background_ns(self) -> int:
        with self._lock:
            return self._inner.take_background_ns()

    def flush(self) -> None:
        with self._lock:
            self._inner.flush()

    def close(self) -> None:
        with self._lock:
            self._inner.close()

    def pipeline(self, depth: int, on_complete):
        """Synchronous-fallback session executing each op under the
        lock; a shared in-process store has no round trips to overlap."""
        from ..kvstores.connectors import PipelineSession

        return PipelineSession(self, depth, on_complete)


@dataclass
class EvaluationRow:
    store: str
    workload: str
    throughput_kops: float
    p50_us: float
    p99_us: float
    p999_us: float
    # -- robustness columns (faulted and crash-recovery runs) --------------
    #: faults the injector fired during the replay
    injected_faults: int = 0
    #: retry attempts the policy spent absorbing them
    retries: int = 0
    #: operations that failed even after retries
    failed_ops: int = 0
    #: micro-batch size the replay ran with (1 = per-op)
    batch_size: int = 1
    #: in-flight window depth the replay ran with (1 = synchronous)
    pipeline_depth: int = 1
    #: wall-clock of the store's recover() path (crash-recovery mode)
    recovery_ms: Optional[float] = None
    #: WAL records replayed during recovery (crash-recovery mode)
    wal_replayed: Optional[int] = None
    #: post-recovery contents matched an uninterrupted run
    recovered_ok: Optional[bool] = None
    # -- integrity columns (disk-fault and scrub runs) ---------------------
    #: corruptions the store detected (recovery, reads, scrub)
    corruptions_detected: Optional[int] = None
    #: of those, repaired from redundant state
    corruptions_repaired: Optional[int] = None
    #: of those, permanently lost
    corruptions_unrecoverable: Optional[int] = None
    #: wall-clock of the scrub walk
    scrub_ms: Optional[float] = None
    # -- background-maintenance columns (compaction-axis runs) -------------
    #: compaction policy the LSM store ran with (None for non-LSM rows
    #: or default-policy runs)
    compaction: Optional[str] = None
    #: write stalls the backpressure gate imposed (background mode)
    write_stalls: Optional[int] = None
    #: total milliseconds writers spent blocked in those stalls
    stall_ms: Optional[float] = None
    # -- cluster columns (distributed serving runs) -------------------------
    #: topology label for cluster rows (``3x2@all`` = 3 partitions,
    #: replication factor 2, ack=all); None for single-node rows
    cluster: Optional[str] = None
    #: primary promotions the client performed mid-replay
    failovers: Optional[int] = None
    #: max per-link replication lag observed across the fleet
    replication_lag_ms: Optional[float] = None
    # -- observability ------------------------------------------------------
    #: metrics JSONL recorded during this row's replay (None when the
    #: run was not sampled); lets ``compare`` runs keep their series
    timeseries_path: Optional[str] = None

    def to_record(self) -> dict:
        """Flat dict of every field, for results-lake ingestion.

        Derived from ``dataclasses.fields`` (the StoreStats.snapshot
        pattern), so a field added to the row lands in the lake without
        anyone remembering to mirror it here -- the serialization drift
        this replaces hand-listed keys to fix.  Carries the record
        schema version so readers can gate on it.
        """
        from ..lake.schema import RECORD_SCHEMA_VERSION

        record = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        record["record_schema"] = RECORD_SCHEMA_VERSION
        return record

    @classmethod
    def from_result(cls, workload: str, result: ReplayResult) -> "EvaluationRow":
        summary = result.summary()
        return cls(
            store=result.store,
            workload=workload,
            throughput_kops=summary["throughput_kops"],
            p50_us=summary["p50_us"],
            p99_us=summary["p99_us"],
            p999_us=summary["p99.9_us"],
            injected_faults=result.injected_faults,
            retries=result.retries,
            failed_ops=result.failed_ops,
        )

    @classmethod
    def from_recovery(
        cls, workload: str, result: CrashRecoveryResult
    ) -> "EvaluationRow":
        """Row for a kill-recover-verify run.

        Latency percentiles cover both replay phases; throughput spans
        the whole experiment including the recovery pause, so a slow
        ``recover()`` shows up in the row exactly like a slow store.
        """
        pre, post = result.pre_crash, result.resumed
        merged = ReplayResult.merged(
            [pre, post], pre.elapsed_s + result.recovery_s + post.elapsed_s
        )
        row = cls.from_result(workload, merged)
        row.recovery_ms = result.recovery_ms
        row.wal_replayed = result.wal_records_replayed
        row.recovered_ok = result.recovered_ok
        if result.disk_faults is not None:
            row.corruptions_detected = result.corruptions_detected
            row.corruptions_repaired = result.corruptions_repaired
            row.scrub_ms = result.scrub_ms
        return row

    @classmethod
    def from_cluster(cls, workload: str, result) -> "EvaluationRow":
        """Row for a cluster chaos replay (a
        :class:`~repro.cluster.ClusterRecoveryResult`).

        ``recovery_ms`` reuses the crash-recovery column: here it is
        the slowest chain repair, i.e. the longest client-observed
        outage.  Failed ops stay in the latency population, so a
        failover's reconnect cost lands in the tail percentiles the
        same way a slow ``recover()`` does."""
        row = cls.from_result(workload, result.replay)
        row.store = result.store  # backing store; topology is `cluster`
        row.cluster = result.cluster
        row.failovers = result.failovers
        row.replication_lag_ms = round(result.replication_lag_ms, 3)
        row.recovery_ms = result.recovery_ms
        row.recovered_ok = result.recovered_ok
        return row


def _stall_columns(connector) -> tuple:
    """(write_stalls, stall_ms) from a connector's store, read before
    the store closes; (0, None) for stores without a stall gate."""
    store = getattr(connector, "store", None)
    stalls = getattr(store, "write_stall_count", 0) or 0
    stall_ns = getattr(store, "write_stall_ns", 0) or 0
    return stalls, round(stall_ns / 1e6, 3) if stalls else None


class PerformanceEvaluator:
    """Replay traces across stores and collect comparable rows."""

    def __init__(
        self,
        stores: Sequence[str] = DEFAULT_STORES,
        store_configs: Optional[Dict[str, dict]] = None,
        service_rate: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        lake_dir: Optional[str] = None,
    ) -> None:
        self.stores = tuple(stores)
        self.store_configs = store_configs or {}
        self.service_rate = service_rate
        #: faults injected into every replay; each store draws a fresh
        #: schedule from the same plan, so all rows of a comparison see
        #: the identical fault timeline
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: results-lake directory: every evaluation's rows are appended
        #: there as one run (after measurement, never on the hot path)
        self.lake_dir = lake_dir
        self._lake = None

    def _record_rows(
        self, rows: "List[EvaluationRow]", plan: Optional[FaultPlan]
    ) -> None:
        """Append finished rows to the results lake, if one is wired.

        Runs strictly after the replay's timing window closes, so lake
        ingest cost never lands inside a measurement."""
        if self.lake_dir is None or not rows:
            return
        from ..lake import ResultsLake, append_rows, fault_plan_label, lake_path

        if self._lake is None:
            self._lake = ResultsLake(lake_path(self.lake_dir))
        append_rows(self._lake, rows, fault_plan=fault_plan_label(plan))

    def _connector(self, store_name: str) -> StoreConnector:
        overrides = self.store_configs.get(store_name, {})
        return create_connector(store_name, **overrides)

    def _fresh_policy(
        self, override: Optional[RetryPolicy]
    ) -> Optional[RetryPolicy]:
        """Per-store copy of the retry policy (fresh jitter RNG), so
        every store replays under identical retry behaviour."""
        policy = override if override is not None else self.retry_policy
        return dataclasses.replace(policy) if policy is not None else None

    def evaluate(
        self,
        workload_name: str,
        trace: AccessTrace,
        setup: Optional[Callable[[StoreConnector], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
        metrics_dir: Optional[str] = None,
        metrics_interval_ms: float = 100.0,
    ) -> List[EvaluationRow]:
        """Replay one trace against every configured store.

        ``setup`` runs against each fresh store before measurement --
        e.g. YCSB's load phase (``workload.preload``).  ``fault_plan``
        and ``retry_policy`` override the evaluator-wide settings for
        this call; with a plan set, every store is driven through an
        identical injected-fault schedule and the rows report the
        faults, retries, and residual failures alongside throughput.
        ``batch_size`` micro-batches the replay (see
        :class:`~repro.core.replayer.TraceReplayer`); rows carry the
        size so batched and per-op rows stay distinguishable.
        ``pipeline_depth`` instead runs every store through a bounded
        in-flight window (rows carry the depth); the two round-trip
        amortizations are mutually exclusive.
        ``metrics_dir`` samples every store's replay into
        ``<dir>/<workload>-<store>.jsonl`` (see :mod:`repro.obs`) and
        records the path in the row's ``timeseries_path``.
        """
        plan = fault_plan if fault_plan is not None else self.fault_plan
        rows: List[EvaluationRow] = []
        for store_name in self.stores:
            connector = self._connector(store_name)
            if setup is not None:
                setup(connector)
            telemetry = None
            series_path = None
            if metrics_dir is not None:
                from ..obs import ReplayTelemetry

                os.makedirs(metrics_dir, exist_ok=True)
                # The workload name is often a trace file path; keep
                # only its stem so the series lands inside metrics_dir.
                stem = os.path.splitext(os.path.basename(str(workload_name)))[0]
                series_path = os.path.join(
                    metrics_dir, f"{stem or 'workload'}-{store_name}.jsonl"
                )
                telemetry = ReplayTelemetry(
                    metrics_path=series_path,
                    interval_ms=metrics_interval_ms,
                    meta={"workload": workload_name},
                )
            replayer = TraceReplayer(
                connector,
                service_rate=self.service_rate,
                fault_plan=plan,
                retry_policy=self._fresh_policy(retry_policy),
                batch_size=batch_size,
                pipeline_depth=pipeline_depth,
                telemetry=telemetry,
            )
            result = replayer.replay(trace)
            stalls, stall_ms = _stall_columns(connector)
            connector.close()
            row = EvaluationRow.from_result(workload_name, result)
            row.batch_size = batch_size or 1
            row.pipeline_depth = pipeline_depth or 1
            row.timeseries_path = series_path
            if stalls:
                row.write_stalls = stalls
                row.stall_ms = stall_ms
            rows.append(row)
        self._record_rows(rows, plan)
        return rows

    def evaluate_compaction_axis(
        self,
        workload_name: str,
        trace: AccessTrace,
        policies: Sequence[str],
        background: bool = False,
        batch_size: Optional[int] = None,
    ) -> List[EvaluationRow]:
        """Replay one trace across compaction policies (LSM stores).

        Sweeps the ``repro compare --compaction`` axis: every LSM store
        in this evaluator's store list runs the trace once per policy,
        inline or (with ``background``) under the flush/compaction
        workers, and the rows carry the policy plus the write-stall
        columns.  Store/policy combinations a store rejects (Lethe with
        overlapping-run policies) are skipped.
        """
        lsm_stores = [s for s in self.stores if s in RECOVERABLE_STORES]
        if not lsm_stores:
            raise ValueError(
                "the compaction axis needs at least one LSM store "
                f"({', '.join(RECOVERABLE_STORES)}); got {self.stores}"
            )
        rows: List[EvaluationRow] = []
        for policy in policies:
            for store_name in lsm_stores:
                overrides = dict(self.store_configs.get(store_name, {}))
                overrides["compaction_policy"] = policy
                overrides["background"] = background
                try:
                    connector = create_connector(store_name, **overrides)
                except ValueError:
                    # Incompatible combination (e.g. lethe + tiered).
                    continue
                replayer = TraceReplayer(
                    connector,
                    service_rate=self.service_rate,
                    batch_size=batch_size,
                )
                result = replayer.replay(trace)
                stalls, stall_ms = _stall_columns(connector)
                connector.close()
                row = EvaluationRow.from_result(workload_name, result)
                row.batch_size = batch_size or 1
                row.compaction = policy
                if background:
                    row.write_stalls = stalls
                    row.stall_ms = stall_ms
                rows.append(row)
        self._record_rows(rows, None)
        return rows

    def evaluate_concurrent(
        self,
        store_name: str,
        traces: Sequence[AccessTrace],
        label: str = "concurrent",
    ) -> ReplayResult:
        """Multiple operators sharing one store instance (section 6.4).

        The paper runs several Gadget instances against the same store;
        the dataflow model still guarantees one writer per key, so the
        interleaved trace preserves per-operator access order.
        """
        connector = self._connector(store_name)
        merged = interleave_traces(traces)
        replayer = TraceReplayer(connector, service_rate=self.service_rate)
        result = replayer.replay(merged)
        connector.close()
        return result

    def evaluate_crash_recovery(
        self,
        workload_name: str,
        trace: AccessTrace,
        crash_at: int,
        stores: Optional[Sequence[str]] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        disk_plan: Optional[DiskFaultPlan] = None,
        batch_size: Optional[int] = None,
    ) -> List[EvaluationRow]:
        """Kill-recover-verify each recoverable store (the robustness
        counterpart of :meth:`evaluate`).

        Every store is crashed at the same operation index (plus any
        additional faults from the plan), recovered via its
        ``recover()`` path, resumed, and verified against an
        uninterrupted run; rows carry ``recovery_ms``,
        ``wal_replayed``, and ``recovered_ok`` next to the usual
        throughput/latency columns.  A ``disk_plan`` additionally
        damages the surviving storage before recovery and adds the
        corruption columns.

        An explicitly requested store that has no recovery path fails
        fast here rather than mid-experiment.
        """
        plan = fault_plan if fault_plan is not None else self.fault_plan
        if stores is not None:
            chosen = tuple(stores)
            for store_name in chosen:
                check_recoverable(store_name)
        else:
            chosen = tuple(s for s in self.stores if s in RECOVERABLE_STORES)
        if not chosen:
            raise ValueError(
                f"no recoverable stores among {self.stores}; "
                f"crash recovery needs one of {RECOVERABLE_STORES}"
            )
        rows: List[EvaluationRow] = []
        for store_name in chosen:
            result = evaluate_crash_recovery(
                store_name,
                trace,
                crash_at,
                plan=plan,
                retry_policy=self._fresh_policy(retry_policy),
                service_rate=self.service_rate,
                store_config=self.store_configs.get(store_name),
                disk_plan=disk_plan,
                batch_size=batch_size,
            )
            row = EvaluationRow.from_recovery(workload_name, result)
            row.batch_size = batch_size or 1
            rows.append(row)
        self._record_rows(rows, plan)
        return rows

    def evaluate_cluster(
        self,
        workload_name: str,
        trace: AccessTrace,
        partitions: int = 3,
        replicas: int = 1,
        ack: str = "all",
        chaos=None,
        stores: Optional[Sequence[str]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
    ) -> List[EvaluationRow]:
        """Replay through a partitioned + replicated cluster per store.

        Every backing store gets its own fresh ``partitions`` x
        ``replicas + 1`` fleet and the *same* chaos schedule (the plan
        is seeded, like every fault plan), so cluster rows compare
        across stores the way faulted single-node rows do.  Rows carry
        the ``cluster`` topology label, ``failovers``, and
        ``replication_lag_ms`` next to the usual columns;
        ``recovery_ms``/``recovered_ok`` are reused for the slowest
        repair and the content check against a single-node oracle.

        ``chaos`` is a :class:`~repro.faults.ClusterFaultPlan` (or a
        :class:`~repro.faults.FaultPlan` whose ``cluster`` field is
        set).
        """
        from ..cluster import evaluate_cluster_recovery as run_cluster

        plan = chaos
        if plan is None and self.fault_plan is not None:
            plan = self.fault_plan.cluster
        elif isinstance(plan, FaultPlan):
            plan = plan.cluster
        chosen = tuple(stores) if stores is not None else self.stores
        rows: List[EvaluationRow] = []
        for store_name in chosen:
            result = run_cluster(
                trace,
                partitions=partitions,
                replicas=replicas,
                ack=ack,
                store=store_name,
                store_config=self.store_configs.get(store_name),
                chaos=plan,
                retry_policy=self._fresh_policy(retry_policy),
                service_rate=self.service_rate,
                batch_size=batch_size,
                pipeline_depth=pipeline_depth,
            )
            row = EvaluationRow.from_cluster(workload_name, result)
            row.batch_size = batch_size or 1
            row.pipeline_depth = pipeline_depth or 1
            rows.append(row)
        self._record_rows(rows, None)
        return rows

    def evaluate_integrity(
        self,
        workload_name: str,
        trace: AccessTrace,
        disk_plan: DiskFaultPlan,
        stores: Optional[Sequence[str]] = None,
        setup: Optional[Callable[[StoreConnector], None]] = None,
    ) -> List[EvaluationRow]:
        """Replay, damage the on-disk state, scrub, and report.

        Each store replays the trace, flushes, has the seeded
        ``disk_plan`` applied to its storage backend (the identical
        blob-name-keyed damage function for every store), and then
        scrubs.  Rows rank stores on how much injected damage they
        detect, repair, or lose -- the integrity axis next to the
        throughput axis of :meth:`evaluate`.
        """
        chosen = tuple(stores) if stores is not None else self.stores
        rows: List[EvaluationRow] = []
        for store_name in chosen:
            connector = self._connector(store_name)
            if setup is not None:
                setup(connector)
            replayer = TraceReplayer(connector, service_rate=self.service_rate)
            result = replayer.replay(trace)
            connector.flush()
            backend = connector.storage_backend()
            if backend is not None:
                disk_plan.apply(backend)
            report = connector.scrub()
            row = EvaluationRow.from_result(workload_name, result)
            row.corruptions_detected = report.corruptions_detected
            row.corruptions_repaired = report.corruptions_repaired
            row.corruptions_unrecoverable = report.unrecoverable
            row.scrub_ms = report.scrub_ms
            rows.append(row)
            connector.close()
        self._record_rows(rows, None)
        return rows

    def evaluate_sharded(
        self,
        store_name: str,
        trace: AccessTrace,
        num_workers: int = 4,
        share_store: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
        processes: bool = False,
        storage_root: Optional[str] = None,
    ) -> ShardedReplayResult:
        """Hash-partitioned parallel replay (the scale-out mode).

        With ``share_store=False`` (default) every worker drives its
        own store instance over its key partition -- the sharded
        deployment of a keyed streaming operator.  With
        ``share_store=True`` all workers hit one store instance behind
        a lock (the section 6.4 co-location setup, but with Gadget's
        one-writer-per-key guarantee enforced by the partitioning).

        ``processes=True`` routes through
        :class:`~repro.core.mp_replay.ProcessShardedReplayer`: same
        partitioning and per-shard fault derivation, but each worker
        is a separate OS process attached to the trace via shared
        memory -- the mode that scales past the GIL on multi-core
        hosts.  ``storage_root`` optionally gives the worker stores
        partitioned on-disk directories (``<root>/shard-<i>``);
        ``share_store`` is thread-only and rejected here.
        """
        plan = fault_plan if fault_plan is not None else self.fault_plan
        policy = self._fresh_policy(retry_policy)
        if processes:
            if share_store:
                raise ValueError(
                    "share_store requires threads; processes cannot "
                    "share one in-process store instance"
                )
            if pipeline_depth is not None and pipeline_depth > 1:
                raise ValueError(
                    "pipeline_depth requires threads; process workers "
                    "replay synchronously"
                )
            from .mp_replay import ConnectorSpec, ProcessShardedReplayer

            spec = ConnectorSpec.for_store(
                store_name,
                storage_root=storage_root,
                **self.store_configs.get(store_name, {}),
            )
            replayer = ProcessShardedReplayer(
                spec,
                num_workers=num_workers,
                service_rate=self.service_rate,
                fault_plan=plan,
                retry_policy=policy,
                batch_size=batch_size,
            )
            return replayer.replay(trace)
        if share_store:
            shared = self._connector(store_name)
            replayer = ShardedReplayer(
                LockedConnector(shared),  # type: ignore[arg-type]
                num_workers=num_workers,
                service_rate=self.service_rate,
                fault_plan=plan,
                retry_policy=policy,
                batch_size=batch_size,
                pipeline_depth=pipeline_depth,
            )
            try:
                return replayer.replay(trace)
            finally:
                shared.close()
        replayer = ShardedReplayer(
            lambda: self._connector(store_name),
            num_workers=num_workers,
            service_rate=self.service_rate,
            fault_plan=plan,
            retry_policy=policy,
            batch_size=batch_size,
            pipeline_depth=pipeline_depth,
        )
        try:
            return replayer.replay(trace)
        finally:
            replayer.close()
