"""Cluster-mode benchmark: ack-level cost and failover latency.

Replays one mixed trace through four serving topologies:

* **local** -- in-process connector, the no-network floor every other
  number sits on top of.
* **remote-1** -- one :class:`StoreServer` behind one client: the cost
  of a loopback round trip per op.
* **3x1@-** -- three partitions, no replicas: partitioned round trips,
  no replication.
* **3x2@none / one / all** -- three partitions, one replica each, at
  the three ack levels: what synchronous chain replication costs per
  acked write versus fire-and-forget.

A final **failover** cell runs :func:`evaluate_cluster_recovery` with a
seeded primary kill mid-replay and reports the client-observed failover
latency, recovery wall-clock, and the lost-ack window -- the robustness
numbers the chaos harness exists to measure.

**Read the caveat in the JSON before quoting numbers**: it stamps the
CPU count the run saw; servers, replicas and the client share those
cores in one process.  Ack-level *ordering* (none <= one <= all cost)
and the failover-latency *mechanism* are meaningful; absolute
throughput belongs to the machine that measured it.

Writes ``BENCH_cluster.json`` next to the repo root.

Run:  PYTHONPATH=src python benchmarks/bench_cluster.py [--smoke]
"""

from __future__ import annotations

import random

from _harness import env_block, median_run, one_cpu_note, scaled, write_bench

from repro.cluster import (  # noqa: E402
    ClusterConfig,
    ClusterConnector,
    StoreCluster,
    evaluate_cluster_recovery,
)
from repro.core import TraceReplayer  # noqa: E402
from repro.faults import ClusterAction, ClusterFaultPlan, RetryPolicy  # noqa: E402
from repro.kvstores import InMemoryStore, connect, create_store  # noqa: E402
from repro.kvstores.remote import RemoteStoreClient, StoreServer  # noqa: E402
from repro.trace import AccessTrace, OpType  # noqa: E402

SEED = 42
VALUE_SIZE = 64
NUM_KEYS = 2_000
STORE = "memory"  # bounds protocol cost, not store cost

OPS = scaled(20_000, 2_000)
REPS = scaled(3, 1)

RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)


def make_trace(ops: int) -> AccessTrace:
    """Mixed workload (70% put / 20% get / 10% merge), uniform keys."""
    rng = random.Random(SEED)
    trace = AccessTrace()
    for i in range(ops):
        key = b"key%06d" % rng.randrange(NUM_KEYS)
        draw = rng.random()
        if draw < 0.7:
            trace.record(OpType.PUT, key, VALUE_SIZE, i)
        elif draw < 0.9:
            trace.record(OpType.GET, key, 0, i)
        else:
            trace.record(OpType.MERGE, key, VALUE_SIZE, i)
    return trace


def _summary(result):
    summary = result.summary()
    return {
        "throughput_kops": summary["throughput_kops"],
        "p50_us": summary["p50_us"],
        "p99_us": summary["p99_us"],
    }


def run_local(trace):
    connector = connect(InMemoryStore())
    try:
        return _summary(TraceReplayer(connector, use_histograms=True).replay(trace))
    finally:
        connector.close()


def run_remote_single(trace):
    with StoreServer(create_store(STORE)) as server:
        host, port = server.address
        with RemoteStoreClient(host, port, store_name=STORE) as client:
            result = TraceReplayer(client, use_histograms=True).replay(trace)
    return _summary(result)


def run_cluster(trace, partitions, replicas, ack):
    config = ClusterConfig(partitions=partitions, replicas=replicas, ack=ack)
    with StoreCluster(config) as cluster:
        with ClusterConnector(cluster, retry_policy=RETRY) as connector:
            result = TraceReplayer(connector, use_histograms=True).replay(trace)
    return _summary(result)


def run_failover(trace):
    chaos = ClusterFaultPlan(
        actions=(
            ClusterAction(at=len(trace) // 2, action="kill", target="primary:0"),
        )
    )
    result = evaluate_cluster_recovery(
        trace, partitions=3, replicas=1, ack="all", chaos=chaos, retry_policy=RETRY
    )
    return {
        "failovers": result.failovers,
        "failover_ms": [round(ms, 3) for ms in result.failover_ms],
        "recovery_ms": round(result.recovery_ms, 3),
        "lost_ack_window": result.lost_ack_window,
        "replication_lag_ms": round(result.replication_lag_ms, 3),
        "mismatches": result.mismatches,
        "recovered_ok": result.recovered_ok,
    }


MODES = {
    "local": lambda trace: run_local(trace),
    "remote-1": lambda trace: run_remote_single(trace),
    "3x1@-": lambda trace: run_cluster(trace, 3, 0, "none"),
    "3x2@none": lambda trace: run_cluster(trace, 3, 1, "none"),
    "3x2@one": lambda trace: run_cluster(trace, 3, 1, "one"),
    "3x2@all": lambda trace: run_cluster(trace, 3, 1, "all"),
}


def main():
    trace = make_trace(OPS)
    print(f"cluster benchmark: {OPS} ops, store={STORE}, reps={REPS}")

    modes = {}
    base = None
    for label, runner in MODES.items():
        cell = median_run(lambda: runner(trace), REPS)
        if base is None:
            base = cell["throughput_kops"]
        cell["relative_to_local"] = round(cell["throughput_kops"] / base, 3)
        for key in ("throughput_kops", "p50_us", "p99_us"):
            cell[key] = round(cell[key], 1)
        modes[label] = cell
        print(
            f"  {label:<10} {cell['throughput_kops']:>8.1f} kops "
            f"({cell['relative_to_local']:.3f}x local)  "
            f"p50={cell['p50_us']:.1f}us p99={cell['p99_us']:.1f}us"
        )

    failover = run_failover(trace)
    print(
        f"  failover   recovery={failover['recovery_ms']}ms "
        f"failover_ms={failover['failover_ms']} "
        f"lost_ack={failover['lost_ack_window']} "
        f"recovered_ok={failover['recovered_ok']}"
    )

    results = {
        "env": env_block(),
        "method": {
            "ops": OPS,
            "store": STORE,
            "reps_per_cell": REPS,
            "aggregation": "median by throughput",
            "topologies": list(MODES),
            "failover_scenario": (
                "3 partitions, RF=2, ack=all; seeded plan kills the "
                "partition-0 primary at the trace midpoint; client "
                "failover latency measured from error to promotion"
            ),
        },
        "caveat": one_cpu_note(
            "servers, replicas, and the client time-slice a single "
            "core, so absolute throughput is a scheduling artifact; "
            "the ack-level cost ordering (none <= one <= all) and the "
            "failover-latency mechanism are the portable results."
        ),
        "modes": modes,
        "failover": failover,
    }
    write_bench("cluster", results)


if __name__ == "__main__":
    main()
