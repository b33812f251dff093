"""Multi-process sharded replay: single ≡ thread-sharded ≡
process-sharded equivalence, shared-memory lifecycle (no leaked
segments, crash paths included), worker failure transport, and the
per-shard fault determinism that makes thread mode and process mode
interchangeable experiments."""

import glob
import os

import pytest

from repro.core import (
    ConnectorSpec,
    PerformanceEvaluator,
    ProcessShardedReplayer,
    RunSpec,
    ShardedReplayer,
    TraceReplayer,
    WorkerCrashError,
    WorkerProcessError,
    store_content_digest,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.kvstores import create_connector
from repro.trace import AccessTrace, OpType


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(120)


def make_trace(n=1200, distinct=31):
    trace = AccessTrace()
    ops = list(OpType)
    for i in range(n):
        trace.record(ops[i % 4], f"key-{i % distinct}".encode(), 16, i)
    return trace


def trace_keys(trace):
    klist = trace.unique_keys()
    return sorted({klist[kid] for kid in set(trace.key_ids)})


def digest_of(connector, trace):
    return store_content_digest(connector, trace_keys(trace))


def hist_totals(result):
    return {op.value: hist.total for op, hist in result.histograms.items()}


def shm_segments():
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/*"))


class TestEquivalence:
    """The tentpole property: one trace, three execution modes, the
    same per-op histogram populations and the same store contents."""

    @pytest.mark.parametrize("store", ["memory", "rocksdb", "berkeleydb"])
    def test_single_thread_process_agree(self, store):
        trace = make_trace()

        single = TraceReplayer(create_connector(store), use_histograms=True)
        base = single.replay(trace)
        base_digest = digest_of(single.connector, trace)
        single.connector.close()

        threaded = ShardedReplayer(
            lambda: create_connector(store), num_workers=3, use_histograms=True
        )
        thread_result = threaded.replay(trace)
        thread_digest = 0
        for connector in threaded.connectors:
            thread_digest ^= digest_of(connector, trace)
        threaded.close()

        proc = ProcessShardedReplayer(
            ConnectorSpec.for_store(store), num_workers=3, collect_digests=True
        )
        proc_result = proc.replay(trace)

        assert hist_totals(thread_result.merged_result()) == hist_totals(base)
        assert hist_totals(proc_result.merged_result()) == hist_totals(base)
        assert proc_result.merged_result().operations == len(trace)
        assert thread_digest == base_digest
        assert proc.last_content_digest == base_digest

    def test_batched_mode_agrees(self):
        trace = make_trace()
        single = TraceReplayer(
            create_connector("memory"), use_histograms=True, batch_size=16
        )
        base = single.replay(trace)
        base_digest = digest_of(single.connector, trace)
        single.connector.close()

        proc = ProcessShardedReplayer(
            ConnectorSpec.for_store("memory"),
            num_workers=3,
            batch_size=16,
            collect_digests=True,
        )
        result = proc.replay(trace)
        assert hist_totals(result.merged_result()) == hist_totals(base)
        assert proc.last_content_digest == base_digest

    def test_faulted_replay_matches_thread_mode_exactly(self):
        """Per-shard plans derive from (seed, shard) alone, so thread
        mode and process mode inject the *same* fault schedules."""
        trace = make_trace()
        plan = FaultPlan(seed=17, transient_error_rate=0.02, error_burst=2)
        # the policy must outlast the burst, else ops legitimately fail
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.0, seed=9)

        threaded = ShardedReplayer(
            lambda: create_connector("memory"),
            num_workers=3,
            use_histograms=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        thread_result = threaded.replay(trace)
        thread_digest = 0
        for connector in threaded.connectors:
            thread_digest ^= digest_of(connector, trace)
        threaded.close()

        proc = ProcessShardedReplayer(
            ConnectorSpec.for_store("memory"),
            num_workers=3,
            fault_plan=plan,
            retry_policy=policy,
            collect_digests=True,
        )
        proc_result = proc.replay(trace)

        by_shard_thread = [r.injected_faults for r in thread_result.shard_results]
        by_shard_proc = [r.injected_faults for r in proc_result.shard_results]
        assert by_shard_thread == by_shard_proc
        assert (
            thread_result.merged_result().retries
            == proc_result.merged_result().retries
        )
        assert thread_result.merged_result().failed_ops == 0
        assert proc_result.merged_result().failed_ops == 0
        assert proc.last_content_digest == thread_digest

    def test_storage_root_partitions_disk_stores(self, tmp_path):
        trace = make_trace(400)
        proc = ProcessShardedReplayer(
            ConnectorSpec.for_store("rocksdb", storage_root=str(tmp_path)),
            num_workers=2,
        )
        result = proc.replay(trace)
        assert result.merged_result().operations == len(trace)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard-0",
            "shard-1",
        ]


class TestSharedMemoryLifecycle:
    def test_no_segments_leaked_on_success(self):
        before = shm_segments()
        proc = ProcessShardedReplayer(
            ConnectorSpec.for_store("memory"), num_workers=2
        )
        proc.replay(make_trace(300))
        assert shm_segments() - before == set()

    def test_no_segments_leaked_when_worker_dies(self):
        before = shm_segments()
        proc = ProcessShardedReplayer(
            ConnectorSpec.from_factory(_exit_bomb), num_workers=3
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            proc.replay(make_trace())
        assert excinfo.value.shard == 1
        assert excinfo.value.exitcode == 42
        assert shm_segments() - before == set()

    def test_no_segments_leaked_when_worker_raises(self):
        before = shm_segments()
        proc = ProcessShardedReplayer(
            ConnectorSpec.from_factory(_raising_connector), num_workers=3
        )
        with pytest.raises(WorkerProcessError):
            proc.replay(make_trace())
        assert shm_segments() - before == set()


class TestFailureTransport:
    def test_worker_exception_carries_type_and_traceback(self):
        proc = ProcessShardedReplayer(
            ConnectorSpec.from_factory(_raising_connector), num_workers=2
        )
        with pytest.raises(WorkerProcessError) as excinfo:
            proc.replay(make_trace())
        message = str(excinfo.value)
        assert "RuntimeError" in message
        assert "store exploded" in message
        assert "worker traceback" in message

    def test_sibling_failures_attach_to_primary(self):
        proc = ProcessShardedReplayer(
            ConnectorSpec.from_factory(_raising_everywhere), num_workers=3
        )
        with pytest.raises(WorkerProcessError) as excinfo:
            proc.replay(make_trace())
        siblings = getattr(excinfo.value, "shard_errors", [])
        # every worker fails on its first op; all surface, one primary
        assert len(siblings) == 2

    def test_crash_trips_stop_event_for_siblings(self):
        """After shard 1 dies, the live sibling unwinds cooperatively
        instead of replaying its slow shard to completion."""
        import time

        proc = ProcessShardedReplayer(
            ConnectorSpec.from_factory(_slow_exit_bomb), num_workers=2
        )
        started = time.perf_counter()
        with pytest.raises(WorkerCrashError):
            # sibling's shard alone would take ~>6s at 5ms/op; crash
            # detection (~1s) plus decimated stop checks end it early
            proc.replay(make_trace(2600, distinct=301))
        assert time.perf_counter() - started < 5.0


class TestValidation:
    def test_rejects_live_connector(self):
        with pytest.raises(TypeError):
            ProcessShardedReplayer(create_connector("memory"))

    def test_rejects_crash_plans(self):
        with pytest.raises(ValueError, match="crash"):
            ProcessShardedReplayer(
                ConnectorSpec.for_store("memory"),
                fault_plan=FaultPlan(seed=1, crash_at=5),
            )

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ProcessShardedReplayer(ConnectorSpec.for_store("memory"), num_workers=0)

    def test_unknown_spec_kind(self):
        with pytest.raises(ValueError, match="unknown connector spec"):
            ConnectorSpec(kind="carrier-pigeon").build(0)


class TestMetricsMerge:
    def test_per_worker_series_merge(self, tmp_path):
        metrics_dir = str(tmp_path / "metrics")
        proc = ProcessShardedReplayer(
            ConnectorSpec.for_store("memory"),
            num_workers=2,
            metrics_dir=metrics_dir,
        )
        proc.replay(make_trace())
        assert proc.last_metrics_path is not None
        from repro.obs import read_series

        header, samples = read_series(proc.last_metrics_path)
        assert header["shards"] == 2
        assert header["total_ops"] == 1200
        assert {s["shard"] for s in samples} <= {0, 1}
        # samples interleave in time order
        times = [s["t_s"] for s in samples]
        assert times == sorted(times)


class TestEvaluatorAndRemote:
    def test_evaluate_sharded_processes(self):
        evaluator = PerformanceEvaluator()
        _, result = evaluator.run(
            "memory", "w", make_trace(600), RunSpec(shards=2, processes=True)
        )
        assert result.merged_result().operations == 600

    def test_remote_spec_drives_one_server(self):
        from repro.kvstores.memory import InMemoryStore
        from repro.kvstores.remote import StoreServer

        trace = make_trace(800)
        with StoreServer(InMemoryStore()) as server:
            host, port = server.address
            proc = ProcessShardedReplayer(
                ConnectorSpec.for_remote(host, port), num_workers=3
            )
            result = proc.replay(trace)
            assert result.merged_result().operations == len(trace)
            # all shards wrote into ONE server-side store
            written = sum(
                1
                for key in trace_keys(trace)
                if server._connector.get(key) is not None
            )
            assert written > 0


# -- module-level worker factories (must survive fork into children) --------


def _exit_bomb(index):
    connector = create_connector("memory")
    if index != 1:
        return connector
    original = connector.put
    state = {"count": 0}

    def put(key, value):
        state["count"] += 1
        if state["count"] > 20:
            os._exit(42)
        original(key, value)

    connector.put = put
    return connector


def _slow_exit_bomb(index):
    import time

    connector = create_connector("memory")
    if index == 1:
        def put(key, value):
            os._exit(42)

        connector.put = put
        return connector
    # the surviving sibling is slow on every op, so completing its
    # shard without the stop event would blow the test's time bound
    for name in ("get", "put", "merge", "delete"):
        original = getattr(connector, name)

        def slowed(*args, _original=original):
            time.sleep(0.005)
            return _original(*args)

        setattr(connector, name, slowed)
    return connector


def _raising_connector(index):
    connector = create_connector("memory")
    if index != 1:
        return connector
    original = connector.put
    state = {"count": 0}

    def put(key, value):
        state["count"] += 1
        if state["count"] > 20:
            raise RuntimeError("store exploded")
        original(key, value)

    connector.put = put
    return connector


def _raising_everywhere(index):
    connector = create_connector("memory")

    def put(key, value):
        raise RuntimeError(f"shard {index} store exploded")

    connector.put = put
    return connector
