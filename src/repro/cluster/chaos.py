"""Chaos harness: kill servers mid-replay, measure what clients observe.

:class:`ChaosHook` fires a :class:`~repro.faults.ClusterFaultPlan`'s
actions at their logical-op offsets, the clock single-node fault
schedules use, so a cluster plan is as reproducible as a crash plan.
:func:`evaluate_cluster_recovery` is the experiment: replay a trace
against a cluster under a chaos plan and report recovery time, lost-ack
window, and correctness against an uninterrupted single-node run,
exactly the shape ``evaluate_crash_recovery`` gives one node.

Kill policy, deliberately asymmetric:

* a killed **primary** is left for the client to trip over -- the next
  op fails, the connector runs its failover, and the measured failover
  time includes real detection latency;
* a killed **replica** is followed by a proactive repair (modelling a
  failure detector), because under ``ack=none`` nothing on the client's
  request path would ever notice a dead tail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - cycle with repro.core
    from ..core.replayer import ReplayResult

from ..faults.cluster import ClusterAction, ClusterFaultPlan
from ..faults.gate import GatedConnector
from ..faults.retry import RetryPolicy
from ..kvstores.api import MergeOperator
from ..kvstores.factory import create_connector
from ..obs import tracing
from ..trace import AccessTrace
from .config import ClusterConfig
from .connector import ClusterConnector
from .manager import StoreCluster


class ChaosHook:
    """The :class:`~repro.faults.GatedConnector` hook that fires cluster
    actions: every action with ``at <= op_index`` fires at that op's
    turn, after the ops before it executed (inside a batch too), so the
    schedule is a pure function of the plan and the trace.  The draw of
    an op by which an action falls due is the hook itself, and blocks.
    """

    blocking = True

    def __init__(
        self,
        inner: ClusterConnector,
        cluster: StoreCluster,
        actions: Sequence[ClusterAction],
    ) -> None:
        self._inner = inner
        self._cluster = cluster
        self._pending = deque(sorted(actions, key=lambda a: a.at))
        #: (at, action, resolved node) per fired action
        self.executed: List[Tuple[int, str, str]] = []
        #: actions that could not fire (target already dead / no
        #: replica to kill / never reached)
        self.skipped: List[Tuple[int, str, str]] = []
        #: acked-but-unreplicated ops observed on killed primaries --
        #: the writes a real deployment would have lost
        self.lost_ack_window = 0
        self.kills = 0
        self.restarts = 0
        self.isolations = 0

    # -- scheduling ----------------------------------------------------------

    def draw(self, index: int) -> Optional["ChaosHook"]:
        pending = self._pending
        return self if pending and pending[0].at <= index else None

    def turn(self, _draw: "ChaosHook", index: int) -> float:
        pending = self._pending
        while pending and pending[0].at <= index:
            self._fire(pending.popleft(), index)
        return 0.0

    def finish(self) -> None:
        """Mark never-reached actions as skipped (the trace ended
        before their offsets)."""
        while self._pending:
            action = self._pending.popleft()
            self.skipped.append((action.at, action.action, action.target))

    def _resolve(self, action: ClusterAction) -> Tuple[Optional[str], int]:
        """Resolve a target to a concrete node name + partition.

        Role selectors read the *current* chain: after a failover,
        ``primary:p`` is whoever the client promoted.  A restart with a
        role selector picks the partition's first dead node (the victim
        of the matching kill) -- deterministic, since kills are."""
        target = action.target
        if ":" in target:
            role, _, suffix = target.partition(":")
            partition = int(suffix)
            chain = self._inner.chain(partition)
            if action.action == "restart":
                dead = sorted(
                    name
                    for name in self._cluster.names()
                    if self._cluster.node(name).partition == partition
                    and not self._cluster.live(name)
                )
                return (dead[0] if dead else None), partition
            if role == "primary":
                return chain[0], partition
            if role == "replica":
                return (chain[-1] if len(chain) > 1 else None), partition
            raise ValueError(f"unknown role selector {target!r}")
        return target, self._cluster.node(target).partition

    def _fire(self, action: ClusterAction, at: int) -> None:
        name, partition = self._resolve(action)
        record = (at, action.action, name or action.target)
        if name is None:
            self.skipped.append(record)
            return
        if action.action == "kill":
            if not self._cluster.live(name):
                self.skipped.append(record)
                return
            is_primary = self._inner.chain(partition)[0] == name
            if is_primary:
                # writes the dying primary acked but had not replicated
                # yet are exactly the cluster's durability exposure
                stats = self._cluster.replication_stats(name)
                self.lost_ack_window += int(stats.get("pending", 0))
            self._cluster.kill(name)
            self.kills += 1
            tracing.instant(
                "cluster.chaos_kill", server=name, at=at, primary=is_primary
            )
            if not is_primary:
                self._inner.repair_partition(partition)
        elif action.action == "restart":
            if self._cluster.live(name):
                self.skipped.append(record)
                return
            self._cluster.restart(name)
            self._inner.attach_replica(partition, name)
            self.restarts += 1
            tracing.instant("cluster.chaos_restart", server=name, at=at)
        elif action.action == "isolate":
            self._inner.isolate(name)
            self.isolations += 1
        else:  # heal
            self._inner.heal(name)
        self.executed.append(record)


@dataclass
class ClusterRecoveryResult:
    """Metrics from one chaos-replay-verify experiment."""

    #: backing store name (every node runs the same store)
    store: str
    #: compact topology label, e.g. ``3x2@all``
    cluster: str
    operations: int
    #: repairs that changed a primary
    failovers: int
    #: all chain repairs (failovers + dead-replica evictions)
    chain_repairs: int
    #: wall-clock of the slowest repair -- the client-observed outage
    recovery_ms: float
    failover_ms: List[float]
    #: acked-but-unreplicated ops on killed primaries
    lost_ack_window: int
    #: max per-link replication lag observed across surviving nodes
    replication_lag_ms: float
    kills: int
    restarts: int
    isolations: int
    actions_executed: List[Tuple[int, str, str]]
    actions_skipped: List[Tuple[int, str, str]]
    keys_checked: int
    mismatches: int
    #: every key equal to the uninterrupted single-node reference
    recovered_ok: bool
    replay: "ReplayResult"

    def summary(self) -> Dict[str, float]:
        return {
            "failovers": float(self.failovers),
            "chain_repairs": float(self.chain_repairs),
            "recovery_ms": self.recovery_ms,
            "lost_ack_window": float(self.lost_ack_window),
            "replication_lag_ms": self.replication_lag_ms,
            "kills": float(self.kills),
            "restarts": float(self.restarts),
            "recovered_ok": float(self.recovered_ok),
            "mismatches": float(self.mismatches),
        }


def evaluate_cluster_recovery(
    trace: AccessTrace,
    *,
    config: Optional[ClusterConfig] = None,
    partitions: int = 3,
    replicas: int = 1,
    ack: Optional[str] = None,
    store: str = "memory",
    store_config: Optional[dict] = None,
    chaos: Optional[ClusterFaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    merge_operator: Optional[MergeOperator] = None,
    service_rate: Optional[float] = None,
    batch_size: Optional[int] = None,
    pipeline_depth: Optional[int] = None,
    verify: bool = True,
    storage_root: Optional[str] = None,
    telemetry=None,
) -> ClusterRecoveryResult:
    """Replay ``trace`` against a cluster under a chaos plan and verify.

    1. replay the trace uninterrupted on a single local store (the
       content oracle, exactly as ``evaluate_crash_recovery`` does),
    2. replay it against a fresh ``partitions`` x ``replicas + 1``
       cluster while the chaos plan kills/restarts/isolates servers at
       its scheduled offsets,
    3. verify every unique key against the oracle and harvest the
       failure-handling counters.

    The cluster replay's gate carries the chaos hook and *no* fault
    plan or retry policy: the :class:`ClusterConnector`'s failover loop
    is the retry layer (bounded by ``retry_policy``), and wrapping it
    again would hide failures the experiment exists to measure.

    Zero acked-write loss is expected only at ``ack=all``; weaker ack
    levels trade durability for latency, and the resulting mismatches
    (correlated with ``lost_ack_window``) are the honest measurement
    of that trade.
    """
    from ..core.replayer import TraceReplayer  # deferred: cycle with repro.core

    if config is None:
        config = ClusterConfig(
            partitions=partitions,
            replicas=replicas,
            ack=ack if ack is not None else "all",
            store=store,
            store_config=dict(store_config or {}),
        )
    elif ack is not None and ack != config.ack:
        config = ClusterConfig(**{**config.to_dict(), "ack": ack})
    if retry_policy is None:
        retry_policy = RetryPolicy()

    # 1. Reference: uninterrupted single-node run, kept open as oracle.
    reference = create_connector(
        config.store, merge_operator, **dict(config.store_config)
    )
    with tracing.span("cluster.reference", ops=len(trace)):
        TraceReplayer(reference, measure_latency=False).replay(trace)

    actions = chaos.schedule(config.partitions, len(trace)) if chaos else []
    cluster = StoreCluster(config, merge_operator, storage_root=storage_root)
    connector: Optional[ClusterConnector] = None
    try:
        connector = ClusterConnector(cluster, retry_policy=retry_policy)
        hook = ChaosHook(connector, cluster, actions)

        # 2. The chaos replay.
        with tracing.span("cluster.replay", ops=len(trace), chaos=len(actions)):
            replay = TraceReplayer(
                GatedConnector(connector, hook),
                service_rate=service_rate,
                batch_size=batch_size,
                pipeline_depth=pipeline_depth,
                telemetry=telemetry,
            ).replay(trace)
        hook.finish()

        # replication lag over the *surviving* fleet (dead nodes report {})
        lag_ms = 0.0
        for name in cluster.names():
            stats = cluster.replication_stats(name)
            lag_ms = max(lag_ms, float(stats.get("lag_ms_max", 0.0) or 0.0))

        # 3. Verify through the cluster's read path against the oracle.
        keys_checked = 0
        mismatches = 0
        if verify:
            with tracing.span("cluster.verify"):
                for key in trace.unique_keys():
                    keys_checked += 1
                    if connector.get(key) != reference.get(key):
                        mismatches += 1

        return ClusterRecoveryResult(
            store=config.store,
            cluster=config.label,
            operations=replay.operations,
            failovers=connector.failovers,
            chain_repairs=connector.chain_repairs,
            recovery_ms=max(connector.failover_ms) if connector.failover_ms else 0.0,
            failover_ms=list(connector.failover_ms),
            lost_ack_window=hook.lost_ack_window,
            replication_lag_ms=lag_ms,
            kills=hook.kills,
            restarts=hook.restarts,
            isolations=hook.isolations,
            actions_executed=list(hook.executed),
            actions_skipped=list(hook.skipped),
            keys_checked=keys_checked,
            mismatches=mismatches,
            recovered_ok=verify and mismatches == 0,
            replay=replay,
        )
    finally:
        if connector is not None:
            try:
                connector.close()
            except Exception:
                pass
        cluster.stop()
        reference.close()
