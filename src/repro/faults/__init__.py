"""Fault injection and crash-recovery evaluation (the robustness axis).

The paper promises *robust* evaluation of streaming state stores; this
package supplies the machinery the happy-path harness lacks:

* :class:`FaultPlan` / :class:`FaultSchedule` -- deterministic, seeded
  schedules of transient errors, latency spikes, stalls, and crashes
* :class:`RetryPolicy` -- bounded retries with exponential backoff +
  jitter and a per-op deadline
* :class:`GatedConnector` -- applies a schedule (or any hook) and a
  retry policy to any connector
* :func:`evaluate_crash_recovery` -- kill an LSM-family store
  mid-replay, time ``recover()``, and verify contents against an
  uninterrupted run
"""

from .cluster import (
    CLUSTER_ACTIONS,
    ClusterAction,
    ClusterFaultPlan,
    load_cluster_fault_plan,
)
from .corruption import (
    CorruptingStorage,
    DiskFaultPlan,
    DiskFaultStats,
    DiskFullError,
    flip_bits,
    load_disk_fault_plan,
    tear_blob,
)
from .errors import FaultInjectionError, InjectedCrash, TransientStoreError
from .gate import FaultStats, GatedConnector
from .plan import FaultPlan, FaultSchedule, OpFaults, load_fault_plan
from .recovery import (
    RECOVERABLE_STORES,
    CrashRecoveryResult,
    check_recoverable,
    crash_recovery_matrix,
    evaluate_crash_recovery,
)
from .retry import RetryPolicy

__all__ = [
    "CLUSTER_ACTIONS",
    "ClusterAction",
    "ClusterFaultPlan",
    "CorruptingStorage",
    "CrashRecoveryResult",
    "DiskFaultPlan",
    "DiskFaultStats",
    "DiskFullError",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSchedule",
    "FaultStats",
    "GatedConnector",
    "InjectedCrash",
    "OpFaults",
    "RECOVERABLE_STORES",
    "RetryPolicy",
    "TransientStoreError",
    "check_recoverable",
    "crash_recovery_matrix",
    "evaluate_crash_recovery",
    "flip_bits",
    "load_cluster_fault_plan",
    "load_disk_fault_plan",
    "load_fault_plan",
    "tear_blob",
]
