"""Multi-process sharded replay benchmark: single vs threads vs processes.

Replays one mixed trace through the three execution modes:

* **single** -- one :class:`TraceReplayer`, the baseline every other
  BENCH file reports.
* **threads** -- :class:`ShardedReplayer`, N worker threads over CRC32
  key partitions.  On CPython the GIL serializes them: this mode buys
  isolation per shard, not parallel CPU.
* **processes** -- :class:`ProcessShardedReplayer`, the same partitions
  replayed by N worker *processes* attached zero-copy to one
  shared-memory image of the trace.

Every cell is the median of ``REPS`` runs.  Process-mode elapsed time
includes process startup, shared-memory serialization, and result
transport -- the honest end-to-end cost of the mode, not just the hot
loop.

**Read the caveat in the JSON before quoting speedups**: it states the
CPU count the run saw.  Worker processes run in parallel only up to
that count, and on this bench's small in-memory trace process startup,
the shared-memory image and result transport are a large share of
every run.  The store-bound figure is elsewhere: on a 2-CPU box, two
workers replayed the 327,858-op ``sliding-incremental`` trace (Borg,
30k events, seed 7) on rocksdb at 1.23-1.36x single (DESIGN.md §6.3).

Writes ``BENCH_mp_replay.json`` next to the repo root.

Run:  PYTHONPATH=src python benchmarks/bench_mp_replay.py [--smoke]
"""

from __future__ import annotations

import random

from _harness import env_block, median_run, one_cpu_note, scaled, write_bench

from repro.core import (  # noqa: E402
    ConnectorSpec,
    ProcessShardedReplayer,
    ShardedReplayer,
    TraceReplayer,
)
from repro.kvstores import create_connector  # noqa: E402
from repro.trace import AccessTrace, OpType  # noqa: E402

SEED = 42
VALUE_SIZE = 64
NUM_KEYS = 2_000
STORE = "memory"  # bounds orchestration overhead, not store cost
WORKER_COUNTS = (2, 4)

OPS = scaled(60_000, 4_000)
REPS = scaled(5, 1)


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


def run_single(trace, workers):
    replayer = TraceReplayer(create_connector(STORE), use_histograms=True)
    result = replayer.replay(trace)
    replayer.connector.close()
    return _summary(result)


def run_threads(trace, workers):
    replayer = ShardedReplayer(
        lambda: create_connector(STORE), num_workers=workers, use_histograms=True
    )
    result = replayer.replay(trace)
    replayer.close()
    return _summary(result)


def run_processes(trace, workers):
    replayer = ProcessShardedReplayer(
        ConnectorSpec.for_store(STORE), num_workers=workers
    )
    return _summary(replayer.replay(trace))


MODES = {
    "single": run_single,
    "threads": run_threads,
    "processes": run_processes,
}


def main():
    trace = make_trace(OPS)
    print(f"mp-replay benchmark: {OPS} ops, store={STORE}, reps={REPS}")

    modes = {}
    base = None
    for workers in WORKER_COUNTS:
        for mode, runner in MODES.items():
            if mode == "single" and workers != WORKER_COUNTS[0]:
                continue  # worker count is meaningless for the baseline
            cell = median_run(lambda: runner(trace, workers), REPS)
            if mode == "single":
                base = cell["throughput_kops"]
            cell["speedup_vs_single"] = round(cell["throughput_kops"] / base, 2)
            for key in ("throughput_kops", "p50_us", "p99_us"):
                cell[key] = round(cell[key], 1)
            label = "single" if mode == "single" else f"{mode}-x{workers}"
            modes[label] = cell
            print(
                f"  {label:<14} {cell['throughput_kops']:>8.1f} kops "
                f"({cell['speedup_vs_single']:.2f}x vs single)  "
                f"p50={cell['p50_us']:.1f}us p99={cell['p99_us']:.1f}us"
            )

    results = {
        "env": env_block(),
        "method": {
            "ops": OPS,
            "store": STORE,
            "worker_counts": list(WORKER_COUNTS),
            "reps_per_cell": REPS,
            "aggregation": "median by throughput",
            "elapsed": (
                "process mode includes fork, shared-memory image "
                "serialization, per-worker shard gathering, and result "
                "transport -- end-to-end cost, not hot-loop-only"
            ),
        },
        "caveat": one_cpu_note(
            "worker processes run in parallel only up to the CPU count "
            "above; on this small in-memory trace process startup, the "
            "shared-memory image and result transport are a large share "
            "of each process-mode run, so speedup_vs_single shows that "
            "cost as much as parallelism. On a 2-CPU box two workers "
            "replayed a 328k-op rocksdb trace at 1.23-1.36x single."
        ),
        "modes": modes,
    }
    write_bench("mp_replay", results)


if __name__ == "__main__":
    main()
