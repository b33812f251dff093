"""Pipelined replay: state identity with per-op replay across
backends, honest latency populations, fault/crash composition, and
pipeline plumbing through sharding, the evaluator, and the CLI."""

import pytest

from repro.cli import main
from repro.core import (
    PerformanceEvaluator,
    RunSpec,
    SourceConfig,
    TraceReplayer,
    generate_workload_trace,
)
from repro.core.replayer import ShardedReplayer
from repro.faults import FaultPlan, RetryPolicy
from repro.kvstores import InMemoryStore, create_connector
from repro.kvstores.remote import RemoteStoreClient, StoreServer

FAST_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)


def small_trace(n=400, workload="tumbling-incremental"):
    return generate_workload_trace(workload, [SourceConfig(num_events=n)])


def final_state(connector, trace):
    return {key: connector.get(key) for key in trace.unique_keys()}


class TestStateIdentity:
    @pytest.mark.parametrize("store", ["memory", "rocksdb", "faster"])
    @pytest.mark.parametrize("depth", [2, 16, 64])
    def test_pipelined_replay_matches_per_op(self, store, depth):
        trace = small_trace()
        per_op = create_connector(store)
        pipelined = create_connector(store)
        sync_result = TraceReplayer(per_op).replay(trace)
        pipe_result = TraceReplayer(pipelined, pipeline_depth=depth).replay(trace)
        assert final_state(pipelined, trace) == final_state(per_op, trace)
        # identical latency populations: every op measured exactly once
        assert pipe_result.operations == sync_result.operations == len(trace)
        for op, latencies in sync_result.latencies_ns.items():
            assert len(pipe_result.latencies_ns[op]) == len(latencies)
        per_op.close()
        pipelined.close()

    def test_remote_pipelined_matches_sync(self):
        trace = small_trace(300)
        contents = {}
        for depth in (None, 16):
            with StoreServer(InMemoryStore()) as server:
                host, port = server.address
                with RemoteStoreClient(
                    host, port, retry_policy=FAST_RETRY
                ) as client:
                    result = TraceReplayer(
                        client, pipeline_depth=depth
                    ).replay(trace)
                    assert result.operations == len(trace)
                    contents[depth] = final_state(client, trace)
        assert contents[16] == contents[None]

    def test_depth_one_equals_none(self):
        trace = small_trace(200)
        a, b = create_connector("memory"), create_connector("memory")
        result_a = TraceReplayer(a, pipeline_depth=None).replay(trace)
        result_b = TraceReplayer(b, pipeline_depth=1).replay(trace)
        assert result_a.operations == result_b.operations == len(trace)
        assert final_state(a, trace) == final_state(b, trace)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayer(create_connector("memory"), pipeline_depth=0)

    def test_batch_and_pipeline_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="alternative round-trip"):
            TraceReplayer(
                create_connector("memory"), batch_size=8, pipeline_depth=8
            )

    def test_histogram_mode_populations_match(self):
        trace = small_trace(500)
        sync = create_connector("memory")
        piped = create_connector("memory")
        r1 = TraceReplayer(sync, use_histograms=True).replay(trace)
        r2 = TraceReplayer(
            piped, use_histograms=True, pipeline_depth=16
        ).replay(trace)
        assert r1.histograms and set(r2.histograms) == set(r1.histograms)
        for op, hist in r1.histograms.items():
            assert (
                r2.histograms[op].to_dict()["total"]
                == hist.to_dict()["total"]
            )
        sync.close()
        piped.close()


class TestPipelinedFaults:
    PLAN = FaultPlan(seed=7, transient_error_rate=0.02, error_burst=2)

    def test_faults_state_parity_with_retry(self):
        trace = small_trace(300)
        per_op = create_connector("memory")
        piped = create_connector("memory")
        r1 = TraceReplayer(
            per_op, fault_plan=self.PLAN, retry_policy=FAST_RETRY
        ).replay(trace)
        r2 = TraceReplayer(
            piped,
            fault_plan=self.PLAN,
            retry_policy=FAST_RETRY,
            pipeline_depth=16,
        ).replay(trace)
        # The schedule draws one verdict per logical op regardless of
        # windowing, and the retry policy outlasts every burst.
        assert r1.failed_ops == r2.failed_ops == 0
        assert r1.injected_faults == r2.injected_faults > 0
        assert final_state(piped, trace) == final_state(per_op, trace)

    def test_faults_without_retry_counts_failed_ops(self):
        trace = small_trace(300)
        per_op = create_connector("memory")
        piped = create_connector("memory")
        r1 = TraceReplayer(per_op, fault_plan=self.PLAN).replay(trace)
        r2 = TraceReplayer(
            piped, fault_plan=self.PLAN, pipeline_depth=16
        ).replay(trace)
        assert r1.failed_ops == r2.failed_ops > 0
        assert final_state(piped, trace) == final_state(per_op, trace)

    def test_crash_stops_submissions_and_drains_prefix(self):
        trace = small_trace(400)
        connector = create_connector("memory")
        result = TraceReplayer(
            connector,
            fault_plan=FaultPlan(seed=3, crash_at=250),
            pipeline_depth=16,
        ).replay(trace)
        # prefix semantics: nothing past the crash point is submitted,
        # but everything already in the window drains to the store
        assert result.crashed_at == 250
        assert result.operations == 250
        connector.close()


class TestShardedPipelined:
    def test_sharded_threads_apply_window_per_shard(self):
        trace = small_trace(600)
        baseline = create_connector("memory")
        TraceReplayer(baseline).replay(trace)
        sharded = ShardedReplayer(
            lambda: create_connector("memory"),
            num_workers=3,
            pipeline_depth=8,
        )
        result = sharded.replay(trace)
        assert result.operations == len(trace)
        merged = {}
        for worker in sharded.connectors:
            for key in trace.unique_keys():
                value = worker.get(key)
                if value is not None:
                    merged[key] = value
        expected = {
            key: value
            for key, value in final_state(baseline, trace).items()
            if value is not None
        }
        assert merged == expected
        sharded.close()
        baseline.close()


class TestEvaluatorPipelined:
    def test_rows_record_pipeline_depth(self):
        trace = small_trace(200)
        evaluator = PerformanceEvaluator(stores=["memory"])
        rows = evaluator.evaluate("wl", trace, RunSpec(pipeline_depth=4))
        assert [row.pipeline_depth for row in rows] == [4]
        assert rows[0].throughput_kops > 0

    def test_default_depth_is_one(self):
        rows = PerformanceEvaluator(stores=["memory"]).evaluate(
            "wl", small_trace(100)
        )
        assert rows[0].pipeline_depth == 1

    def test_sharded_processes_reject_pipeline(self):
        with pytest.raises(ValueError, match="threads"):
            PerformanceEvaluator().run(
                "memory",
                "wl",
                small_trace(100),
                RunSpec(shards=2, processes=True, pipeline_depth=8),
            )


@pytest.fixture
def trace_path(tmp_path):
    path = str(tmp_path / "t.gdgt")
    small_trace(200).save(path)
    return path


class TestCLIPipelined:
    def test_replay_with_pipeline_flag(self, trace_path, capsys):
        assert main([
            "replay", trace_path, "--store", "memory", "--pipeline", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline depth" in out
        assert "16" in out

    def test_pipeline_conflicts_with_batch(self, trace_path):
        with pytest.raises(SystemExit):
            main([
                "replay", trace_path, "--store", "memory",
                "--pipeline", "16", "--batch", "8",
            ])

    def test_pipeline_conflicts_with_processes(self, trace_path):
        with pytest.raises(SystemExit):
            main([
                "replay", trace_path, "--store", "memory",
                "--pipeline", "16", "--shards", "2", "--processes",
            ])

    def test_pipeline_conflicts_with_crash_at(self, trace_path):
        with pytest.raises(SystemExit):
            main([
                "replay", trace_path, "--store", "memory",
                "--pipeline", "16", "--crash-at", "100",
            ])

    def test_compare_shows_pipe_column(self, trace_path, capsys):
        assert main([
            "compare", trace_path, "--stores", "memory", "rocksdb",
            "--pipeline", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "pipe" in out
