"""Trace-engine benchmark: the columnar AccessTrace pipeline.

Times generate -> save -> load -> replay on a fixed Borg-derived
workload through the struct-of-arrays :class:`AccessTrace` (op /
value-size / timestamp columns + interned key pool) and the replayer's
dispatch fast path, then replays the same trace sharded.

Writes ``BENCH_trace_engine.json`` (seconds per stage, trace memory,
peak RSS, sharded-replay throughput) next to the repo root so future
PRs have a perf trajectory to regress against.

Run:  PYTHONPATH=src python benchmarks/bench_trace_engine.py
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from _harness import env_block, write_bench

from repro.core import (  # noqa: E402
    Driver,
    GadgetConfig,
    ShardedReplayer,
    TraceReplayer,
    sliding_window_model,
)
from repro.datasets import BorgConfig, generate_borg  # noqa: E402
from repro.kvstores import create_connector  # noqa: E402
from repro.trace import AccessTrace  # noqa: E402

#: fixed workload: Borg task events through an incremental sliding window
BORG_EVENTS = 30_000
SEED = 42
SHARD_WORKERS = 4


def make_driver():
    tasks, _ = generate_borg(BorgConfig(target_events=BORG_EVENTS, seed=SEED))
    model = sliding_window_model(5000, 1000, value_size=64)
    return Driver(model, [tasks], GadgetConfig(interleave="time"))


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def peak_rss_bytes():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * 1024 if sys.platform != "darwin" else rss


def main():
    tmp_dir = os.environ.get("TMPDIR", "/tmp")
    columnar_path = os.path.join(tmp_dir, "bench_trace_engine_v2.gdgt")

    results = {
        "workload": {
            "dataset": "borg",
            "events": BORG_EVENTS,
            "operator": "sliding-window-incremental(5000,1000)",
            "seed": SEED,
        },
        "env": env_block(),
    }

    # -- columnar pipeline --------------------------------------------------
    trace, generate_s = timed(lambda: make_driver().run())
    ops = len(trace)
    _, save_s = timed(lambda: trace.save(columnar_path))
    loaded, load_s = timed(lambda: AccessTrace.load(columnar_path))
    assert len(loaded) == ops
    connector = create_connector("memory")
    # exact-mode latency lists (histogram mode trades throughput for
    # O(1) latency memory)
    replayer = TraceReplayer(connector, use_histograms=False)
    result, replay_s = timed(lambda: replayer.replay(loaded))
    connector.close()
    columnar_total = generate_s + save_s + load_s + replay_s
    results["columnar"] = {
        "operations": ops,
        "generate_s": round(generate_s, 4),
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "replay_s": round(replay_s, 4),
        "total_s": round(columnar_total, 4),
        "replay_kops": round(result.throughput_ops / 1000.0, 1),
        "trace_bytes": trace.nbytes,
        "bytes_per_op": round(trace.nbytes / ops, 2),
        "file_bytes": os.path.getsize(columnar_path),
    }

    # -- sharded replay -----------------------------------------------------
    single_rate = result.throughput_ops
    sharded = ShardedReplayer(
        lambda: create_connector("memory"),
        num_workers=SHARD_WORKERS,
        use_histograms=False,  # measurement parity with the single-thread run
    )
    sharded_result, _ = timed(lambda: sharded.replay(loaded))
    sharded.close()
    results["sharded_replay"] = {
        "workers": SHARD_WORKERS,
        "aggregate_kops": round(sharded_result.throughput_ops / 1000.0, 1),
        "single_thread_kops": round(single_rate / 1000.0, 1),
        "speedup_vs_single": round(sharded_result.throughput_ops / single_rate, 2),
        "note": (
            "thread workers; wall-clock speedup requires multiple cores "
            "and GIL-free store calls (cpu_count above)"
        ),
    }

    results["peak_rss_bytes"] = peak_rss_bytes()

    try:
        os.remove(columnar_path)
    except OSError:
        pass

    print(json.dumps(results, indent=2))
    write_bench("trace_engine", results)
    return results


if __name__ == "__main__":
    main()
