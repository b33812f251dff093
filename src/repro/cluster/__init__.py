"""Distributed cluster mode: partitioned + replicated store serving.

Composes the remote layer's pieces (the ``select.poll``-loop
:class:`~repro.kvstores.remote.StoreServer`, the ``OP_BATCH`` frame,
the crc32 partitioner shared with ``shard_trace``) into a real cluster:

* :class:`ClusterConfig` -- partitions x replication factor x ack level
* :class:`StoreCluster` -- spawns and supervises the in-process server
  fleet (kill / restart)
* :class:`ClusterConnector` -- the client: consistent-hash routing,
  cross-partition batch splitting, chain configuration, failover
* :class:`ChaosHook` / :func:`evaluate_cluster_recovery` -- fire a
  :class:`~repro.faults.ClusterFaultPlan` mid-replay and report what
  clients actually observed (recovery time, lost-ack window, tail
  latency), like ``evaluate_crash_recovery`` does for one node
"""

from .chaos import ChaosHook, ClusterRecoveryResult, evaluate_cluster_recovery
from .config import ACK_LEVELS, ClusterConfig, load_cluster_config
from .connector import ClusterConnector
from .manager import ClusterNode, StoreCluster

__all__ = [
    "ACK_LEVELS",
    "ChaosHook",
    "ClusterConfig",
    "ClusterConnector",
    "ClusterNode",
    "ClusterRecoveryResult",
    "StoreCluster",
    "evaluate_cluster_recovery",
    "load_cluster_config",
]
