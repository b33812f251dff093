"""Performance evaluator: runs workloads across KV stores.

Orchestrates the paper's section 6 experiments: build or accept a
state access trace, replay it on each store through the appropriate
connector, and report throughput plus tail latency per store.  A
frozen :class:`RunSpec` names the computation (pacing, faults,
batching, pipelining, crash recovery, disk damage, sharding, cluster
serving, LSM maintenance); :meth:`PerformanceEvaluator.run` is the one
dispatch that runs it on a store and builds the row.  Concurrent
operators (section 6.4) are one run over ``interleave_traces``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..kvstores import create_connector, create_store
from ..kvstores.connectors import StoreConnector
from ..trace import AccessTrace
from .replayer import ReplayResult, ShardedReplayer, TraceReplayer
from ..faults import (
    RECOVERABLE_STORES,
    CrashRecoveryResult,
    DiskFaultPlan,
    FaultPlan,
    RetryPolicy,
    evaluate_crash_recovery,
)

if TYPE_CHECKING:
    from ..cluster import ClusterConfig
    from ..faults import ClusterFaultPlan

DEFAULT_STORES = ("rocksdb", "lethe", "faster", "berkeleydb")


@dataclass
class EvaluationRow:
    store: str
    workload: str
    throughput_kops: float
    p50_us: float
    p99_us: float
    p999_us: float
    # -- robustness columns (faulted and crash-recovery runs) --------------
    #: faults the fault plan fired during the replay
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


class UsageError(ValueError):
    """A spec that would silently drop one of its axes (the CLI reports
    it as a usage error, exit 2)."""


@dataclass(frozen=True)
class RunSpec:
    """Which computation one evaluation runs, identically on every store.

    The fields are the run's axes.  Telemetry destinations and the
    store list stay outside, so two equal specs always mean the same
    computation.  ``__post_init__`` is the one place the rules on which
    axes combine live; its messages name the CLI flags that set them.
    """

    #: open-loop pacing in ops/s (None = closed loop)
    service_rate: Optional[float] = None
    #: seeded transient errors, latency spikes and stalls; every store
    #: draws the identical schedule from it
    fault_plan: Optional[FaultPlan] = None
    #: retry policy absorbing them (copied per store: fresh jitter RNG)
    retry_policy: Optional[RetryPolicy] = None
    #: micro-batch size (None or 1 = per-op)
    batch_size: Optional[int] = None
    #: in-flight window depth (None or 1 = synchronous)
    pipeline_depth: Optional[int] = None
    #: kill the store before this op, recover, resume, and verify
    crash_at: Optional[int] = None
    #: seeded on-disk damage: applied before recovery with ``crash_at``,
    #: otherwise after the replay and followed by a scrub
    disk_plan: Optional[DiskFaultPlan] = None
    #: hash partitions of the trace, one store instance each
    shards: int = 1
    #: replay the shards in worker processes over a shared-memory trace
    processes: bool = False
    #: on-disk root for the worker stores (``<root>/shard-<i>``)
    storage_root: Optional[str] = None
    #: serve the store from a partitioned, replicated cluster
    cluster: Optional["ClusterConfig"] = None
    #: topology faults (kills, restarts, isolations) for the cluster
    chaos: Optional["ClusterFaultPlan"] = None
    #: LSM compaction policy (rocksdb/lethe; None = the store's default)
    compaction: Optional[str] = None
    #: LSM flush and compaction on background workers, with write stalls
    background: bool = False

    def __post_init__(self) -> None:
        pipelined = (self.pipeline_depth or 1) > 1
        sharded = self.shards > 1 or self.processes
        clustered = self.cluster is not None
        if clustered and (self.compaction is not None or self.background):
            raise UsageError(
                "--compaction/--background tune one embedded LSM store; "
                "cluster nodes run their store's default maintenance")
        if self.storage_root is not None and not self.processes:
            raise UsageError(
                "--storage-root partitions the stores of --processes "
                "workers; add --processes")
        rules = (
            (pipelined and (self.batch_size or 1) > 1,
             "--batch and --pipeline are alternative round-trip "
             "amortizations; pick one"),
            (pipelined and self.processes,
             "--pipeline requires threads; --processes workers replay "
             "synchronously"),
            (pipelined and self.crash_at is not None,
             "--crash-at stops the replay at an exact op index; a pipelined "
             "window makes that point ambiguous -- drop --pipeline"),
            (pipelined and self.disk_plan is not None,
             "disk-fault runs replay embedded stores synchronously; drop "
             "--pipeline"),
            (self.chaos is not None and not clustered,
             "--chaos needs a cluster (--cluster N or --cluster-config) to "
             "aim its kills at"),
            (clustered and sharded,
             "--cluster is its own fan-out (N partitioned server chains); "
             "drop --shards/--processes"),
            (clustered and (self.fault_plan is not None
                            or self.crash_at is not None
                            or self.disk_plan is not None),
             "cluster replays take fault injection from --chaos (topology "
             "events); --faults/--crash-at/--disk-faults are single-node "
             "axes"),
            (sharded and self.crash_at is not None,
             "--crash-at does not combine with --shards/--processes"),
            (sharded and self.disk_plan is not None,
             "--disk-faults does not combine with --shards/--processes"),
        )
        for broken, message in rules:
            if broken:
                raise ValueError(message)

    @property
    def single_connector(self) -> bool:
        """True when the run drives one connector the caller can set up."""
        return (self.cluster is None and self.crash_at is None
                and self.shards == 1 and not self.processes)


def runs_on(store_name: str, spec: RunSpec) -> bool:
    """Whether ``store_name`` can run ``spec``: crash recovery and LSM
    maintenance need a recoverable LSM store, and a compaction policy
    one that store takes (Lethe's FADE refuses overlapping runs)."""
    if spec.crash_at is None and spec.compaction is None and not spec.background:
        return True
    if store_name not in RECOVERABLE_STORES:
        return False
    if spec.compaction is not None:
        try:  # the store vetoes a policy before it touches storage
            create_store(store_name, compaction_policy=spec.compaction).close()
        except ValueError:
            return False
    return True


def _stall_columns(connector) -> tuple:
    """(write_stalls, stall_ms) from a connector's store, read before
    the store closes; (0, 0.0) for stores without a stall gate."""
    store = getattr(connector, "store", None)
    stalls = getattr(store, "write_stall_count", 0) or 0
    stall_ns = getattr(store, "write_stall_ns", 0) or 0
    return stalls, round(stall_ns / 1e6, 3)


class PerformanceEvaluator:
    """Replay traces across stores and collect comparable rows."""

    def __init__(
        self,
        stores: Sequence[str] = DEFAULT_STORES,
        store_configs: Optional[Dict[str, dict]] = None,
        lake_dir: Optional[str] = None,
    ) -> None:
        self.stores = tuple(stores)
        self.store_configs = store_configs or {}
        #: results-lake directory: every evaluation's rows are appended
        #: there as one run (after measurement, never on the hot path)
        self.lake_dir = lake_dir
        self._lake = None

    def record(
        self, rows: "List[EvaluationRow]", fault_plan: Optional[FaultPlan]
    ) -> int:
        """Append finished rows to the results lake as one run, if one
        is wired; returns the number appended.

        Runs strictly after the replay's timing window closes, so lake
        ingest cost never lands inside a measurement."""
        if self.lake_dir is None or not rows:
            return 0
        from ..lake import ResultsLake, append_rows, fault_plan_label, lake_path

        if self._lake is None:
            self._lake = ResultsLake(lake_path(self.lake_dir))
        return append_rows(self._lake, rows, fault_plan=fault_plan_label(fault_plan))

    def _store_config(self, store_name: str, spec: RunSpec) -> dict:
        """The store's configured overrides plus the spec's LSM knobs."""
        config = dict(self.store_configs.get(store_name, {}))
        if spec.compaction is not None or spec.background:
            if store_name not in RECOVERABLE_STORES:
                raise ValueError(
                    f"--compaction/--background tune the LSM family only "
                    f"({', '.join(RECOVERABLE_STORES)}); store "
                    f"{store_name!r} has no compaction pipeline"
                )
            if spec.compaction is not None:
                config["compaction_policy"] = spec.compaction
            if spec.background:
                config["background"] = True
        return config

    def _connector(self, store_name: str, spec: RunSpec = RunSpec()) -> StoreConnector:
        return create_connector(store_name, **self._store_config(store_name, spec))

    def run(
        self,
        store_name: str,
        workload_name: str,
        trace: AccessTrace,
        spec: RunSpec = RunSpec(),
        setup: Optional[Callable[[StoreConnector], None]] = None,
        telemetry=None,
    ) -> Tuple[EvaluationRow, object]:
        """Run ``spec`` on a fresh ``store_name``; returns (row, outcome).

        Picks the runner the spec names: a cluster replay under chaos,
        a kill-recover-verify run, a thread- or process-sharded replay,
        or one :class:`TraceReplayer` (followed, with a ``disk_plan``,
        by damage and a scrub).  The outcome is that runner's own
        result, for callers that report more than the row.  ``setup``
        runs on the connector before measurement (e.g. YCSB's load
        phase) and needs a single-connector run; ``telemetry`` is a
        :class:`~repro.obs.ReplayTelemetry` recording the replay.
        """
        policy = (dataclasses.replace(spec.retry_policy)
                  if spec.retry_policy is not None else None)
        if setup is not None and not spec.single_connector:
            raise ValueError(
                "setup needs a single-connector run; sharded, crash and "
                "cluster runs build their own stores"
            )
        if telemetry is not None:
            if spec.crash_at is not None and telemetry.wants_progress:
                raise ValueError(
                    "--crash-at runs several replays (reference, doomed, "
                    "resumed); only --trace records it, as one span timeline"
                )
            if spec.processes and (telemetry.trace_path
                                   or telemetry.progress_stream):
                raise ValueError(
                    "--processes supports --metrics only; span traces and "
                    "the live progress view need in-process telemetry"
                )
        if spec.cluster is not None:
            from ..cluster import evaluate_cluster_recovery

            cluster = dataclasses.replace(
                spec.cluster, store=store_name,
                store_config={**spec.cluster.store_config,
                              **self._store_config(store_name, spec)},
            )
            outcome = evaluate_cluster_recovery(
                trace, config=cluster, chaos=spec.chaos, retry_policy=policy,
                service_rate=spec.service_rate, batch_size=spec.batch_size,
                pipeline_depth=spec.pipeline_depth, telemetry=telemetry,
            )
            row = EvaluationRow.from_cluster(workload_name, outcome)
        elif spec.crash_at is not None:
            recording = (telemetry.session(None, len(trace), store_name)
                         if telemetry is not None else nullcontext())
            with recording:
                outcome = evaluate_crash_recovery(
                    store_name, trace, spec.crash_at, plan=spec.fault_plan,
                    retry_policy=policy, service_rate=spec.service_rate,
                    store_config=self._store_config(store_name, spec) or None,
                    disk_plan=spec.disk_plan,
                    batch_size=spec.batch_size,
                )
            row = EvaluationRow.from_recovery(workload_name, outcome)
        elif not spec.single_connector:
            outcome = self._sharded(store_name, trace, spec, policy, telemetry)
            # percentiles from the merged per-shard populations,
            # throughput from the fan-out's wall clock
            row = EvaluationRow.from_result(workload_name, outcome.merged_result())
            row.store = f"{outcome.store}x{spec.shards}"
        else:
            connector = self._connector(store_name, spec)
            if setup is not None:
                setup(connector)
            outcome = TraceReplayer(
                connector,
                service_rate=spec.service_rate,
                fault_plan=spec.fault_plan,
                retry_policy=policy,
                batch_size=spec.batch_size,
                pipeline_depth=spec.pipeline_depth,
                telemetry=telemetry,
            ).replay(trace)
            report = None
            if spec.disk_plan is not None:
                connector.flush()
                backend = connector.storage_backend()
                if backend is not None:
                    spec.disk_plan.apply(backend)
                report = connector.scrub()
            if spec.background:
                stalls = _stall_columns(connector)
            connector.close()
            row = EvaluationRow.from_result(workload_name, outcome)
            if report is not None:
                row.corruptions_detected = report.corruptions_detected
                row.corruptions_repaired = report.corruptions_repaired
                row.corruptions_unrecoverable = report.unrecoverable
                row.scrub_ms = report.scrub_ms
            if spec.background:
                row.write_stalls, row.stall_ms = stalls
        row.batch_size = spec.batch_size or 1
        row.pipeline_depth = spec.pipeline_depth or 1
        row.compaction = spec.compaction
        if telemetry is not None:
            row.timeseries_path = telemetry.metrics_path
        return row, outcome

    def _sharded(self, store_name, trace, spec, policy, telemetry):
        """Hash-partitioned replay: one store instance per shard, on
        threads or (``spec.processes``) in worker processes attached to
        the trace through shared memory."""
        shared = dict(
            num_workers=spec.shards,
            service_rate=spec.service_rate,
            fault_plan=spec.fault_plan,
            retry_policy=policy,
            batch_size=spec.batch_size,
        )
        if not spec.processes:
            replayer = ShardedReplayer(
                lambda: self._connector(store_name, spec),
                pipeline_depth=spec.pipeline_depth,
                telemetry=telemetry,
                **shared,
            )
            try:
                return replayer.replay(trace)
            finally:
                replayer.close()
        from .mp_replay import ConnectorSpec, ProcessShardedReplayer

        metrics = telemetry.metrics_path if telemetry is not None else None
        replayer = ProcessShardedReplayer(
            ConnectorSpec.for_store(
                store_name, storage_root=spec.storage_root,
                **self._store_config(store_name, spec),
            ),
            metrics_dir=f"{metrics}.shards" if metrics else None,
            **shared,
        )
        result = replayer.replay(trace)
        if metrics and replayer.last_metrics_path:
            shutil.copyfile(replayer.last_metrics_path, metrics)
        return result

    def evaluate(
        self,
        workload_name: str,
        trace: AccessTrace,
        spec: RunSpec = RunSpec(),
        setup: Optional[Callable[[StoreConnector], None]] = None,
        metrics_dir: Optional[str] = None,
        metrics_interval_ms: float = 100.0,
    ) -> List[EvaluationRow]:
        """Run one trace under one spec against every configured store.

        Every store gets a fresh instance and the identical computation
        (the same fault schedule, crash point, chaos plan), so the rows
        compare.  Stores that cannot run the spec (see :func:`runs_on`)
        are skipped before anything replays.  ``setup`` runs against each fresh store before
        measurement -- e.g. YCSB's load phase (``workload.preload``).
        ``metrics_dir`` samples every store's replay into
        ``<dir>/<workload>-<store>.jsonl`` (see :mod:`repro.obs`) and
        records the path in the row's ``timeseries_path``.  The rows
        are appended to the lake as one run.
        """
        stores = [s for s in self.stores if runs_on(s, spec)]
        if self.stores and not stores:
            raise ValueError(
                f"no store among {self.stores} can run this spec; crash "
                f"recovery and --compaction/--background need one of the "
                f"recoverable LSM stores ({', '.join(RECOVERABLE_STORES)}) "
                f"with a compaction policy it takes"
            )
        rows: List[EvaluationRow] = []
        for store_name in stores:
            telemetry = None
            if metrics_dir is not None:
                from ..obs import ReplayTelemetry

                os.makedirs(metrics_dir, exist_ok=True)
                # The workload name is often a trace file path; keep
                # only its stem so the series lands inside metrics_dir.
                stem = os.path.splitext(os.path.basename(str(workload_name)))[0]
                telemetry = ReplayTelemetry(
                    metrics_path=os.path.join(
                        metrics_dir, f"{stem or 'workload'}-{store_name}.jsonl"
                    ),
                    interval_ms=metrics_interval_ms,
                    meta={"workload": workload_name},
                )
            row, _ = self.run(
                store_name, workload_name, trace, spec, setup, telemetry
            )
            rows.append(row)
        self.record(rows, spec.fault_plan)
        return rows
