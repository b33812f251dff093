"""Mid-replay crash + recover(): metrics and content verification."""

import pytest

from repro.core import (
    EvaluationRow,
    PerformanceEvaluator,
    RunSpec,
    SourceConfig,
    generate_workload_trace,
)
from repro.faults import (
    RECOVERABLE_STORES,
    FaultPlan,
    RetryPolicy,
    evaluate_crash_recovery,
)

TINY_LSM = dict(
    write_buffer_size=4096,
    block_cache_size=8192,
    level_base_bytes=16384,
    target_file_size=8192,
    max_levels=4,
)


@pytest.fixture(scope="module")
def trace():
    return generate_workload_trace(
        "tumbling-incremental", [SourceConfig(num_events=2_000, seed=9)]
    )


class TestEvaluateCrashRecovery:
    @pytest.mark.parametrize("store_name", RECOVERABLE_STORES)
    def test_recovered_contents_match_uninterrupted_run(self, trace, store_name):
        result = evaluate_crash_recovery(
            store_name, trace, crash_at=len(trace) // 2, store_config=TINY_LSM
        )
        assert result.recovered_ok
        assert result.mismatches == 0
        assert result.keys_checked > 0
        assert result.operations == len(trace)
        assert result.crash_at == len(trace) // 2

    def test_recovery_metrics_reported(self, trace):
        result = evaluate_crash_recovery(
            "rocksdb", trace, crash_at=len(trace) // 2, store_config=TINY_LSM
        )
        assert result.recovery_s > 0
        assert result.recovery_ms == pytest.approx(result.recovery_s * 1000.0)
        # A crash between flushes must leave unflushed WAL records.
        assert result.wal_records_replayed > 0
        assert result.pre_crash.crashed_at == result.crash_at
        assert result.resumed.operations == len(trace) - result.crash_at
        summary = result.summary()
        assert summary["recovered_ok"] == 1.0
        assert summary["mismatches"] == 0.0

    def test_crash_composes_with_transient_faults(self, trace):
        plan = FaultPlan(seed=17, transient_error_rate=0.02, error_burst=2)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0)
        result = evaluate_crash_recovery(
            "rocksdb",
            trace,
            crash_at=600,
            plan=plan,
            retry_policy=policy,
            store_config=TINY_LSM,
        )
        assert result.recovered_ok
        assert result.pre_crash.retries > 0
        assert result.pre_crash.failed_ops == 0

    def test_crash_at_out_of_range_rejected(self, trace):
        with pytest.raises(ValueError, match="crash_at"):
            evaluate_crash_recovery("rocksdb", trace, crash_at=0)
        with pytest.raises(ValueError, match="crash_at"):
            evaluate_crash_recovery("rocksdb", trace, crash_at=len(trace) + 5)

    def test_unrecoverable_store_rejected(self, trace):
        with pytest.raises(ValueError, match="crash recovery"):
            evaluate_crash_recovery("memory", trace, crash_at=10)


class TestEvaluatorIntegration:
    def test_rows_carry_recovery_columns(self, trace):
        evaluator = PerformanceEvaluator(
            stores=("rocksdb", "lethe", "memory"),
            store_configs={"rocksdb": TINY_LSM, "lethe": TINY_LSM},
        )
        rows = evaluator.evaluate("crash-test", trace, RunSpec(crash_at=700))
        assert [row.store for row in rows] == ["rocksdb", "lethe"]
        for row in rows:
            assert isinstance(row, EvaluationRow)
            assert row.recovered_ok is True
            assert row.recovery_ms > 0
            assert row.wal_replayed is not None and row.wal_replayed > 0
            assert row.throughput_kops > 0

    def test_no_recoverable_store_errors(self, trace):
        evaluator = PerformanceEvaluator(stores=("memory", "faster"))
        with pytest.raises(ValueError, match="recoverable"):
            evaluator.evaluate("crash-test", trace, RunSpec(crash_at=700))

    def test_faulted_evaluate_reports_identical_schedules(self, trace):
        plan = FaultPlan(seed=23, transient_error_rate=0.02, error_burst=2)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0)
        evaluator = PerformanceEvaluator(stores=("memory", "faster"))
        rows = evaluator.evaluate(
            "faulted", trace, RunSpec(fault_plan=plan, retry_policy=policy)
        )
        assert len(rows) == 2
        first, second = rows
        # Comparable rows: both stores saw the same fault timeline.
        assert first.injected_faults == second.injected_faults > 0
        assert first.retries == second.retries > 0
        assert first.failed_ops == second.failed_ops == 0

    def test_unfaulted_rows_keep_zero_fault_columns(self, trace):
        evaluator = PerformanceEvaluator(stores=("memory",))
        row = evaluator.evaluate("plain", trace)[0]
        assert row.injected_faults == 0
        assert row.retries == 0
        assert row.failed_ops == 0
        assert row.recovery_ms is None
        assert row.recovered_ok is None
