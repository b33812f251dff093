"""The metric catalogue and the workload sizes.

``BENCHMARK.json`` lists the same names, units and directions (a test
pins the two together); this module additionally knows which workloads
a metric is *defined* on.  A metric that is not defined on a workload
is emitted there as the constant 0.

Sizes were tuned once on the 2-core reference container so that one
timed pass takes about a second (a run then holds six to ten passes,
enough for one to land in a quiet spell); they must not change
afterwards, or every recorded number loses its baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

PIPELINE = "pipeline-borg-memory"
COMPARE = "compare-incremental-stores"
PACED = "paced-holistic-lsm"
YCSB = "ycsb-read-lsm"
REMOTE_SYNC = "remote-sync-memory"
REMOTE_PIPELINED = "remote-pipelined-memory"

WORKLOAD_NAMES = (PIPELINE, COMPARE, PACED, YCSB, REMOTE_SYNC, REMOTE_PIPELINED)

LSM = (PACED, YCSB)
REMOTE = (REMOTE_SYNC, REMOTE_PIPELINED)
BORG = (PIPELINE, COMPARE, PACED, REMOTE_SYNC, REMOTE_PIPELINED)

#: full-size inputs; ``rate`` is the open-loop target in ops/s,
#: ``depth`` the in-flight window of the pipelined client
SIZES: Dict[str, Dict[str, int]] = {
    PIPELINE: {"events": 22_000},
    COMPARE: {"events": 5_000},
    PACED: {"events": 8_000, "rate": 40_000},
    YCSB: {"records": 20_000, "ops": 32_000, "value_size": 256},
    REMOTE_SYNC: {"events": 3_000},
    REMOTE_PIPELINED: {"events": 12_000, "depth": 16},
}

#: ops of the workload's trace replayed up the local ladder rungs, and
#: up the (20x slower) rungs that cross the loopback socket
LADDER_OPS = 200_000
LADDER_REMOTE_OPS = 40_000

_SMOKE_DIVISOR = 50
_SCALED_KEYS = ("events", "records", "ops")


def sizes_for(workload: str, smoke: bool) -> Dict[str, int]:
    """The workload's inputs, shrunk ~50x under ``--smoke``."""
    sizes = dict(SIZES[workload])
    if smoke:
        for key in _SCALED_KEYS:
            if key in sizes:
                sizes[key] = max(100, sizes[key] // _SMOKE_DIVISOR)
    return sizes


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the baseline median by which the metric may worsen
    bound: Optional[float] = None
    #: workloads the metric is defined on (``None`` = all six)
    workloads: Optional[Tuple[str, ...]] = None
    #: exact counts repeat bit-for-bit under one seed
    count: bool = False

    def defined_on(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: reported by the untraced run of every workload, bounded in
#: ``BENCHMARK.json``.  The sandbox's own speed drifts by several
#: percent from minute to minute (README, "Noise"), so a timing's bound
#: is three times the spread its best pass showed, not the tenth the
#: issue hoped for.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("throughput_kops", "kops/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: user-visible too, but defined on some workloads only (or always 0),
#: which the driver's contract does not allow for a bounded metric;
#: they ride with the layer metrics and ``compare`` still bounds them
SCOPED = (
    Metric("failed_ops_ratio", "ratio", "lower", 0.0, None, count=True),
    Metric("write_amp", "ratio", "lower", 0.01, LSM, count=True),
    Metric("read_bytes_per_get", "B", "lower", 0.01, LSM, count=True),
    Metric("space_amp", "ratio", "lower", 0.01, LSM, count=True),
    Metric("pace_achieved_ratio", "ratio", "higher", 0.01, (PACED,)),
)

_LSM_ANY = LSM + (COMPARE,)

LAYERS = (
    Metric("datasets.generate_s", "s", "lower", workloads=BORG),
    Metric("datasets.kevents_per_s", "kevents/s", "higher", workloads=BORG),
    Metric("core.driver.run_s", "s", "lower", workloads=BORG),
    Metric("core.driver.kops", "kops/s", "higher", workloads=BORG),
    Metric("core.driver.ops_per_event", "ratio", "lower", workloads=BORG, count=True),
    Metric("trace.save_s", "s", "lower", workloads=(PIPELINE,)),
    Metric("trace.load_s", "s", "lower", workloads=(PIPELINE,)),
    Metric("trace.file_bytes_per_op", "B", "lower", workloads=(PIPELINE,), count=True),
    Metric("trace.mem_bytes_per_op", "B", "lower", workloads=(PIPELINE,), count=True),
    Metric("core.replayer.dispatch_ns_per_op", "ns", "lower"),
    Metric("core.replayer.timing_ns_per_op", "ns", "lower"),
    Metric("core.replayer.alloc_blocks_per_op", "count", "lower"),
    Metric("core.replayer.pace_lag_p50_us", "us", "lower", workloads=(PACED,)),
    Metric("core.replayer.pace_lag_p99_us", "us", "lower", workloads=(PACED,)),
    Metric("core.replayer.co_corrected_p99_us", "us", "lower", workloads=(PACED,)),
    Metric("core.replayer.op_p99_us", "us", "lower"),
    Metric("core.replayer.op_p999_us", "us", "lower"),
    Metric("core.evaluator.overhead_s", "s", "lower", workloads=(COMPARE,)),
    Metric("kvstores.memory.ns_per_op", "ns", "lower"),
    Metric("kvstores.lsm.get_ns_per_op", "ns", "lower", workloads=_LSM_ANY),
    Metric("kvstores.lsm.put_ns_per_op", "ns", "lower", workloads=(YCSB, COMPARE)),
    Metric("kvstores.lsm.merge_ns_per_op", "ns", "lower", workloads=(PACED,)),
    Metric("kvstores.lsm.delete_ns_per_op", "ns", "lower", workloads=(PACED, COMPARE)),
    Metric("kvstores.lsm.flushes", "count", "lower", workloads=_LSM_ANY, count=True),
    Metric("kvstores.lsm.compactions", "count", "lower", workloads=_LSM_ANY, count=True),
    Metric("kvstores.lsm.bytes_written", "B", "lower", workloads=_LSM_ANY, count=True),
    Metric("kvstores.lsm.bytes_read", "B", "lower", workloads=_LSM_ANY, count=True),
    Metric("kvstores.lsm.stall_count", "count", "lower", workloads=_LSM_ANY, count=True),
    Metric("kvstores.lsm.stall_ms", "ms", "lower", workloads=_LSM_ANY),
    Metric("kvstores.lsm.block_cache_hit_ratio", "ratio", "higher",
           workloads=_LSM_ANY, count=True),
    Metric("kvstores.lsm.kops", "kops/s", "higher", workloads=(COMPARE,)),
    Metric("kvstores.lethe.kops", "kops/s", "higher", workloads=(COMPARE,)),
    Metric("kvstores.faster.kops", "kops/s", "higher", workloads=(COMPARE,)),
    Metric("kvstores.btree.kops", "kops/s", "higher", workloads=(COMPARE,)),
    Metric("kvstores.btree.page_ins", "count", "lower", workloads=(COMPARE,), count=True),
    Metric("kvstores.btree.page_outs", "count", "lower", workloads=(COMPARE,), count=True),
    Metric("kvstores.storage.write_calls", "count", "lower", workloads=LSM, count=True),
    Metric("kvstores.storage.write_bytes", "B", "lower", workloads=LSM, count=True),
    Metric("kvstores.storage.read_calls", "count", "lower", workloads=LSM, count=True),
    Metric("kvstores.storage.read_bytes", "B", "lower", workloads=LSM, count=True),
    Metric("kvstores.remote.hop_ns_per_op", "ns", "lower", workloads=REMOTE),
    Metric("kvstores.remote.rtt_ns_per_op", "ns", "lower", workloads=REMOTE),
    Metric("kvstores.remote.server_store_ns_per_op", "ns", "lower", workloads=REMOTE),
    Metric("kvstores.remote.send_calls_per_op", "ratio", "lower", workloads=REMOTE),
    Metric("kvstores.remote.recv_calls_per_op", "ratio", "lower", workloads=REMOTE),
    Metric("kvstores.remote.coalesced_ops_per_flush", "ratio", "higher",
           workloads=(REMOTE_PIPELINED,)),
    Metric("lake.append_s", "s", "lower", workloads=(PIPELINE,)),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
    Metric("bench.ladder_residual_ratio", "ratio", "lower",
           workloads=(PIPELINE, YCSB) + REMOTE),
)

#: what a ``--trace 1`` run prints, in order
PER_LAYER = SCOPED + LAYERS


def emit(catalogue: Tuple[Metric, ...], workload: str, values: Dict[str, float]) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of ``catalogue``.

    Raises ``KeyError`` when the workload did not produce a metric that
    is defined on it, so a forgotten measurement fails the run instead
    of printing a silent 0."""
    out = {}
    for metric in catalogue:
        value = values[metric.name] if metric.defined_on(workload) else 0
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out
