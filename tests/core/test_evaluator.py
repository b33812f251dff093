"""Tests for the performance evaluator."""

import pytest

from repro.core import (
    DEFAULT_STORES,
    GadgetConfig,
    PerformanceEvaluator,
    RunSpec,
    SourceConfig,
    generate_workload_trace,
)
from repro.core.evaluator import EvaluationRow
from repro.core.histogram import LatencyHistogram
from repro.core.replayer import ReplayResult
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.recovery import CrashRecoveryResult
from repro.trace import AccessTrace, OpType, interleave_traces


def small_trace(events=300):
    return generate_workload_trace(
        "tumbling-incremental", [SourceConfig(num_events=events)]
    )


class TestEvaluate:
    def test_rows_for_all_stores(self):
        rows = PerformanceEvaluator(stores=("memory", "faster")).evaluate(
            "w", small_trace()
        )
        assert [r.store for r in rows] == ["memory", "faster"]
        assert all(r.throughput_kops > 0 for r in rows)

    def test_default_store_lineup(self):
        assert DEFAULT_STORES == ("rocksdb", "lethe", "faster", "berkeleydb")

    def test_store_configs_forwarded(self):
        evaluator = PerformanceEvaluator(
            stores=("rocksdb",),
            store_configs={"rocksdb": {"write_buffer_size": 2048}},
        )
        connector = evaluator._connector("rocksdb")
        assert connector.store.config.write_buffer_size == 2048

    def test_compaction_spec_skips_stores_that_cannot_run_it(self):
        # faster and berkeleydb have no compaction pipeline and lethe's
        # FADE refuses tiered: only rocksdb replays, and nothing raises
        rows = PerformanceEvaluator().evaluate(
            "w", small_trace(), RunSpec(compaction="tiered", background=True)
        )
        assert [(r.store, r.compaction) for r in rows] == [("rocksdb", "tiered")]
        assert rows[0].write_stalls is not None

    def test_compaction_spec_without_a_taker_errors(self):
        evaluator = PerformanceEvaluator(stores=("lethe", "faster"))
        with pytest.raises(ValueError, match="recoverable"):
            evaluator.evaluate("w", small_trace(), RunSpec(compaction="tiered"))

    def test_row_fields(self):
        row = PerformanceEvaluator(stores=("memory",)).evaluate("w", small_trace())[0]
        assert row.workload == "w"
        assert row.p50_us <= row.p999_us


class TestConcurrent:
    def test_interleaved_concurrent(self):
        traces = [small_trace(200), small_trace(200)]
        _, result = PerformanceEvaluator().run(
            "rocksdb", "concurrent", interleave_traces(traces)
        )
        assert result.operations == sum(len(t) for t in traces)

    def test_interleaving_preserves_per_trace_order(self):
        from repro.trace import interleave_traces

        a = AccessTrace()
        for i in range(5):
            a.record(OpType.PUT, f"a{i}".encode())
        b = AccessTrace()
        for i in range(3):
            b.record(OpType.PUT, f"b{i}".encode())
        merged = interleave_traces([a, b])
        a_keys = [x.key for x in merged if x.key.startswith(b"a")]
        assert a_keys == [x.key for x in a]


def phase(operations, elapsed_s, samples, histograms, **counters):
    """A replay phase holding ``samples`` (op -> latencies in ns)."""
    if not histograms:
        return ReplayResult("rocksdb", operations, elapsed_s, latencies_ns=samples, **counters)
    recorded = {}
    for op, values in samples.items():
        recorded[op] = LatencyHistogram()
        recorded[op].record_many(values)
    return ReplayResult("rocksdb", operations, elapsed_s, histograms=recorded, **counters)


class TestCrashRecoveryRow:
    """A kill-recover-verify row covers both replay phases: the fault
    counters of the faulted pre-crash phase, percentiles over the
    samples of both phases, throughput over the whole experiment."""

    @pytest.mark.parametrize("histograms", [False, True], ids=["exact", "hist"])
    def test_row_merges_both_phases(self, histograms):
        pre = phase(
            5, 0.5, {OpType.GET: [1000, 2000], OpType.PUT: [3000]}, histograms,
            injected_faults=4, retries=3, failed_ops=2,
        )
        post = phase(
            4, 0.4, {OpType.GET: [4000], OpType.PUT: [5000, 6000, 7000]}, histograms
        )
        result = CrashRecoveryResult(
            store="rocksdb", crash_at=5, operations=9, recovery_s=0.1,
            wal_records_replayed=3, recovered_ok=True, keys_checked=4,
            mismatches=0, pre_crash=pre, resumed=post,
        )
        row = EvaluationRow.from_recovery("w", result)
        assert (row.injected_faults, row.retries, row.failed_ops) == (4, 3, 2)
        assert row.throughput_kops == pytest.approx(9 / 1.0 / 1000.0)
        both = phase(
            9, 1.0,
            {OpType.GET: [1000, 2000, 4000], OpType.PUT: [3000, 5000, 6000, 7000]},
            histograms,
        )
        expected = [both.latency_percentile(p) for p in (50.0, 99.0, 99.9)]
        assert [row.p50_us, row.p99_us, row.p999_us] == expected
        if not histograms:
            assert expected == [4.0, 7.0, 7.0]
        assert row.recovery_ms == pytest.approx(100.0)
        assert (row.wal_replayed, row.recovered_ok) == (3, True)

    def test_transient_faults_before_the_crash(self):
        trace = small_trace(300)
        plan = FaultPlan(seed=4, transient_error_rate=0.05, error_burst=3)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0, jitter=0)
        evaluator = PerformanceEvaluator(stores=("rocksdb",))
        row = evaluator.evaluate("w", trace, RunSpec(
            crash_at=len(trace) // 2, fault_plan=plan, retry_policy=policy
        ))[0]
        assert row.injected_faults > 0
        assert row.retries == 2 * row.failed_ops > 0
        assert row.injected_faults == 3 * row.failed_ops + 1  # + the crash
