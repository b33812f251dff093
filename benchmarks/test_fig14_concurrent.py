"""Figure 14: concurrent operators sharing one RocksDB instance.

Paper setup: an incremental sliding window and a holistic sliding
window (5s length, 1s slide).  Concurrent-A co-locates two operators of
the same type; Concurrent-B co-locates the two different types.  Paper
claims: co-location costs the incremental operator ~1.7x throughput
(same-type) and the holistic one ~1.4x, with latency inflation.
"""

from conftest import emit
from repro.core import (
    Gadget,
    GadgetConfig,
    PerformanceEvaluator,
    sliding_window_model,
)
from repro.datasets import BorgConfig, generate_borg
from repro.trace import interleave_traces

GCFG = GadgetConfig(interleave="time")
N = 30_000


def make_traces():
    tasks, _ = generate_borg(BorgConfig(target_events=8_000, value_size=64))
    incremental = Gadget(
        sliding_window_model(5000, 1000, value_size=64), [tasks], GCFG
    ).generate()[:N]
    holistic = Gadget(
        sliding_window_model(5000, 1000, holistic=True, value_size=64),
        [tasks],
        GCFG,
    ).generate()[:N]
    return incremental, holistic


def run_concurrent():
    incremental, holistic = make_traces()
    evaluator = PerformanceEvaluator(stores=("rocksdb",))
    rows = []
    results = {}

    alone_incr = evaluator.evaluate("incremental alone", incremental)[0]
    alone_hol = evaluator.evaluate("holistic alone", holistic)[0]
    results["alone-incr"] = alone_incr.throughput_kops
    results["alone-hol"] = alone_hol.throughput_kops
    rows.append(["incremental", "alone", round(alone_incr.throughput_kops, 1),
                 round(alone_incr.p999_us, 1)])
    rows.append(["holistic", "alone", round(alone_hol.throughput_kops, 1),
                 round(alone_hol.p999_us, 1)])

    # Concurrent-A: two operators of the same type share the store.
    same_incr = evaluator.evaluate(
        "incremental x2", interleave_traces([incremental, incremental])
    )[0]
    same_hol = evaluator.evaluate(
        "holistic x2", interleave_traces([holistic, holistic])
    )[0]
    # Per-operator throughput is half the shared instance's total.
    results["concA-incr"] = same_incr.throughput_kops / 2.0
    results["concA-hol"] = same_hol.throughput_kops / 2.0
    rows.append(["incremental", "concurrent-A", round(results["concA-incr"], 1),
                 round(same_incr.p999_us, 1)])
    rows.append(["holistic", "concurrent-A", round(results["concA-hol"], 1),
                 round(same_hol.p999_us, 1)])

    # Concurrent-B: the two different operator types share the store.
    mixed = evaluator.evaluate(
        "mixed", interleave_traces([incremental, holistic])
    )[0]
    results["concB"] = mixed.throughput_kops / 2.0
    rows.append(["mixed", "concurrent-B", round(results["concB"], 1),
                 round(mixed.p999_us, 1)])
    return rows, results


def test_fig14_concurrent_operators(benchmark, capsys):
    rows, results = benchmark.pedantic(run_concurrent, rounds=1, iterations=1)
    emit(
        capsys,
        ["operator", "deployment", "per-op kops", "p99.9 us"],
        rows,
        "Figure 14: concurrent operators on one RocksDB instance",
    )
    # Co-location costs each operator throughput versus running alone.
    assert results["concA-incr"] < results["alone-incr"]
    assert results["concA-hol"] < results["alone-hol"]
    # Same-type co-location roughly halves per-operator throughput
    # (the paper reports 1.4-1.7x degradation).
    assert results["concA-incr"] < 0.75 * results["alone-incr"]
