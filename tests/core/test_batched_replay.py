"""Micro-batched replay: state identity with per-op replay, honest
latency accounting, and batch plumbing through faults, sharding, the
evaluator, and the CLI."""

import pytest

from repro.core import (
    PerformanceEvaluator,
    RunSpec,
    SourceConfig,
    TraceReplayer,
    generate_workload_trace,
)
from repro.core.replayer import ShardedReplayer
from repro.cli import main
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.recovery import evaluate_crash_recovery
from repro.kvstores import create_connector


def small_trace(n=400, workload="tumbling-incremental"):
    return generate_workload_trace(workload, [SourceConfig(num_events=n)])


def final_state(connector, trace):
    return {key: connector.get(key) for key in trace.unique_keys()}


class TestStateIdentity:
    @pytest.mark.parametrize("store", ["memory", "rocksdb", "faster"])
    @pytest.mark.parametrize("batch_size", [2, 7, 64])
    def test_batched_replay_matches_per_op(self, store, batch_size):
        trace = small_trace()
        per_op = create_connector(store)
        batched = create_connector(store)
        TraceReplayer(per_op).replay(trace)
        TraceReplayer(batched, batch_size=batch_size).replay(trace)
        assert final_state(batched, trace) == final_state(per_op, trace)
        per_op.close()
        batched.close()

    def test_batch_size_one_equals_none(self):
        trace = small_trace(200)
        a, b = create_connector("memory"), create_connector("memory")
        result_a = TraceReplayer(a, batch_size=None).replay(trace)
        result_b = TraceReplayer(b, batch_size=1).replay(trace)
        assert result_a.operations == result_b.operations == len(trace)
        assert final_state(a, trace) == final_state(b, trace)

    def test_batch_size_zero_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayer(create_connector("memory"), batch_size=0)


class TestBatchedLatency:
    def test_percentiles_nonzero_and_monotone(self):
        connector = create_connector("memory")
        trace = small_trace(1000)
        result = TraceReplayer(connector, batch_size=16).replay(trace)
        summary = result.summary()
        assert 0 < summary["p50_us"] <= summary["p99_us"] <= summary["p99.9_us"]
        assert result.operations == len(trace)
        assert len(result.all_latencies()) == result.operations

    def test_latencies_never_negative(self):
        connector = create_connector("rocksdb", write_buffer_size=2048)
        result = TraceReplayer(connector, batch_size=32).replay(small_trace(1500))
        assert connector.store.stats.flushes > 0
        assert all(v >= 0 for v in result.all_latencies())

    def test_batched_with_service_rate(self):
        connector = create_connector("memory")
        result = TraceReplayer(
            connector, service_rate=50_000, batch_size=8
        ).replay(small_trace(100))
        assert result.operations == 200
        assert all(v >= 0 for v in result.all_latencies())


class TestBatchedFaults:
    PLAN = FaultPlan(seed=7, transient_error_rate=0.02, error_burst=2)

    def test_faults_state_parity_with_retry(self):
        trace = small_trace(300)
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)
        per_op = create_connector("memory")
        batched = create_connector("memory")
        r1 = TraceReplayer(
            per_op, fault_plan=self.PLAN, retry_policy=policy
        ).replay(trace)
        r2 = TraceReplayer(
            batched, fault_plan=self.PLAN, retry_policy=policy, batch_size=16
        ).replay(trace)
        # The schedule draws one verdict per logical op regardless of
        # batching, and the retry policy outlasts every burst: both
        # replays see the same faults and absorb all of them.
        assert r1.failed_ops == r2.failed_ops == 0
        assert r1.injected_faults == r2.injected_faults > 0
        assert final_state(batched, trace) == final_state(per_op, trace)

    def test_faults_without_retry_counts_failed_ops(self):
        trace = small_trace(300)
        per_op = create_connector("memory")
        batched = create_connector("memory")
        r1 = TraceReplayer(per_op, fault_plan=self.PLAN).replay(trace)
        r2 = TraceReplayer(batched, fault_plan=self.PLAN, batch_size=16).replay(trace)
        assert r1.failed_ops == r2.failed_ops > 0
        assert final_state(batched, trace) == final_state(per_op, trace)

    def test_crash_recovery_with_batching(self):
        trace = small_trace(400)
        result = evaluate_crash_recovery(
            "rocksdb", trace, crash_at=300, batch_size=16
        )
        assert result.recovered_ok
        assert result.mismatches == 0
        assert result.operations == len(trace)


class TestBatchedSharding:
    def test_sharded_batched_matches_per_op(self):
        trace = small_trace(500)
        per_op = create_connector("memory")
        TraceReplayer(per_op).replay(trace)
        sharded = ShardedReplayer(
            lambda: create_connector("memory"), num_workers=3, batch_size=8
        )
        result = sharded.replay(trace)
        assert result.operations == len(trace)
        merged = {}
        for connector in sharded.connectors:
            for key in trace.unique_keys():
                value = connector.get(key)
                if value is not None:
                    merged[key] = value
        expected = {
            k: v for k, v in final_state(per_op, trace).items() if v is not None
        }
        assert merged == expected


class TestEvaluatorBatching:
    def test_rows_carry_batch_size(self):
        trace = small_trace(200)
        evaluator = PerformanceEvaluator(stores=("memory",))
        row = evaluator.evaluate("w", trace, RunSpec(batch_size=32))[0]
        assert row.batch_size == 32
        assert row.throughput_kops > 0
        default_row = evaluator.evaluate("w", trace)[0]
        assert default_row.batch_size == 1


class TestCLIBatching:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.gdgt")
        assert main([
            "generate", "-w", "tumbling-incremental", "-o", path,
            "--events", "300",
        ]) == 0
        return path

    def test_replay_with_batch(self, trace_path, capsys):
        assert main(["replay", trace_path, "--store", "memory",
                     "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "batch size" in out
        assert "16" in out

    def test_replay_batch_with_crash_at(self, trace_path, capsys):
        assert main(["replay", trace_path, "--store", "rocksdb",
                     "--batch", "8", "--crash-at", "200"]) == 0
        assert "recover" in capsys.readouterr().out.lower()

    def test_compare_with_batch_column(self, trace_path, capsys):
        assert main(["compare", trace_path, "--stores", "memory", "faster",
                     "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "batch" in out

    def test_replay_sharded_with_batch(self, trace_path, capsys):
        assert main(["replay", trace_path, "--store", "memory",
                     "--shards", "2", "--batch", "8"]) == 0
        assert "batch size" in capsys.readouterr().out

    def test_batch_rejects_nonpositive(self, trace_path):
        with pytest.raises(SystemExit):
            main(["replay", trace_path, "--batch", "0"])
