"""Sharded parallel replay: partitioning, aggregation, and the
replayer fast path / throttle behaviour."""

import time

import pytest

from repro.core import (
    PerformanceEvaluator,
    RunSpec,
    ShardedReplayer,
    TraceReplayer,
    shard_trace,
)
from repro.kvstores import create_connector
from repro.trace import AccessTrace, OpType


def make_trace(n=400, distinct=23):
    trace = AccessTrace()
    ops = list(OpType)
    for i in range(n):
        trace.record(ops[i % 4], f"key-{i % distinct}".encode(), 16, i)
    return trace


class TestShardTrace:
    def test_partitions_cover_trace_exactly(self):
        trace = make_trace(500)
        shards = shard_trace(trace, 4)
        assert len(shards) == 4
        assert sum(len(s) for s in shards) == len(trace)
        merged = sorted(
            (a.key, a.timestamp) for shard in shards for a in shard
        )
        assert merged == sorted((a.key, a.timestamp) for a in trace)

    def test_same_key_always_same_shard(self):
        shards = shard_trace(make_trace(600), 4)
        seen = {}
        for index, shard in enumerate(shards):
            for access in shard:
                assert seen.setdefault(access.key, index) == index

    def test_per_key_order_preserved_within_shard(self):
        trace = make_trace(600)
        for shard in shard_trace(trace, 4):
            timestamps = {}
            for access in shard:
                previous = timestamps.get(access.key, -1)
                assert access.timestamp > previous
                timestamps[access.key] = access.timestamp

    def test_deterministic_across_calls(self):
        trace = make_trace(300)
        first = [s.accesses for s in shard_trace(trace, 3)]
        second = [s.accesses for s in shard_trace(trace, 3)]
        assert first == second

    def test_single_shard_is_whole_trace(self):
        trace = make_trace(50)
        (only,) = shard_trace(trace, 1)
        assert only.accesses == trace.accesses

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_trace(make_trace(10), 0)


class TestShardedReplayer:
    def test_replays_every_operation(self):
        trace = make_trace(800)
        replayer = ShardedReplayer(lambda: create_connector("memory"), num_workers=4)
        result = replayer.replay(trace)
        replayer.close()
        assert result.operations == len(trace)
        assert len(result.shard_results) == 4
        assert result.throughput_ops > 0

    def test_merged_histogram_counts_match(self):
        trace = make_trace(500)
        replayer = ShardedReplayer(lambda: create_connector("memory"), num_workers=3)
        result = replayer.replay(trace)
        replayer.close()
        merged = result.merged_result()
        total = sum(h.total for h in merged.histograms.values())
        assert total == len(trace)
        assert merged.latency_percentile(99.0) >= 0

    def test_store_state_matches_single_thread_union(self):
        """Key-disjoint shards on fresh stores must end with exactly the
        state a single-threaded replay leaves in one store."""
        trace = make_trace(600, distinct=31)
        single = create_connector("memory")
        TraceReplayer(single).replay(trace)

        replayer = ShardedReplayer(lambda: create_connector("memory"), num_workers=4)
        replayer.replay(trace)

        distinct = {a.key for a in trace}
        for key in distinct:
            expected = single.get(key)
            values = [c.get(key) for c in replayer.connectors]
            present = [v for v in values if v is not None]
            if expected is None:
                assert present == []
            else:
                assert present == [expected]
        replayer.close()
        single.close()

    def test_shared_connector_mode(self):
        trace = make_trace(400)
        connector = create_connector("memory")
        replayer = ShardedReplayer(connector, num_workers=4)
        result = replayer.replay(trace)
        assert result.operations == len(trace)
        assert result.store == connector.name
        connector.close()

    def test_connector_list_mode_requires_matching_count(self):
        with pytest.raises(ValueError):
            ShardedReplayer([create_connector("memory")], num_workers=2)

    def test_aggregate_service_rate_split_across_workers(self):
        trace = make_trace(200)
        replayer = ShardedReplayer(
            lambda: create_connector("memory"),
            num_workers=2,
            service_rate=4000.0,
        )
        result = replayer.replay(trace)
        replayer.close()
        # Largest shard paced at 2000 ops/s bounds the wall-clock.
        largest = max(r.operations for r in result.shard_results)
        assert result.elapsed_s >= 0.9 * largest / 2000.0

    def test_evaluator_sharded_modes(self):
        trace = make_trace(300)
        evaluator = PerformanceEvaluator(stores=("memory",))
        _, scale_out = evaluator.run("memory", "w", trace, RunSpec(shards=2))
        assert scale_out.operations == len(trace)
        assert "p99_us" in scale_out.summary()


class TestThrottleHybridSleep:
    def test_throttled_replay_hits_target_rate(self):
        trace = make_trace(100)
        replayer = TraceReplayer(create_connector("memory"), service_rate=1000.0)
        result = replayer.replay(trace)
        # 100 ops at 1000 ops/s should take ~0.1 s, not finish instantly
        # and not overshoot wildly.
        assert result.elapsed_s >= 0.09
        assert result.elapsed_s < 0.5

    def test_throttle_sleeps_instead_of_spinning(self):
        """At low service rates most of the wait must be blocking sleep,
        not a busy loop: process CPU time stays far below wall time."""
        trace = make_trace(30)
        # keep the pre-replay gc.collect() (a walk of the whole test
        # heap) out of the CPU time billed to the throttle
        replayer = TraceReplayer(
            create_connector("memory"), service_rate=150.0, disable_gc=False
        )
        cpu_before = time.process_time()
        result = replayer.replay(trace)
        cpu_used = time.process_time() - cpu_before
        assert result.elapsed_s >= 0.15
        # The seed busy-wait burned ~100% of a core; the hybrid throttle
        # should spin only the last ~1 ms of each 6.7 ms interval.
        assert cpu_used < 0.6 * result.elapsed_s


class TestWorkerFailureHandling:
    """The sharded-replay bugfix batch: a failing worker stops its
    siblings promptly, and their errors ride along on the primary."""

    def test_failure_stops_siblings_early(self):
        trace = make_trace(2600, distinct=301)

        def failing_factory_holder():
            built = [0]

            def factory_with_bomb():
                index = built[0]
                built[0] += 1
                connector = create_connector("memory")
                if index == 0:
                    state = {"count": 0}

                    def put(key, value):
                        state["count"] += 1
                        if state["count"] > 5:
                            raise RuntimeError("worker zero exploded")
                        connector.store.put(key, value)

                    connector.put = put
                else:
                    original = connector.put

                    def put(key, value):
                        time.sleep(0.005)
                        original(key, value)

                    connector.put = put
                return connector

            return factory_with_bomb

        replayer = ShardedReplayer(failing_factory_holder(), num_workers=2)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="worker zero exploded"):
            replayer.replay(trace)
        # the surviving shard alone would need seconds of sleeps; the
        # cooperative stop flag must end it well before that
        assert time.perf_counter() - started < 3.0
        replayer.close()

    def test_sibling_errors_attach_to_primary(self):
        def factory():
            connector = create_connector("memory")

            def put(key, value):
                raise RuntimeError("every shard explodes")

            connector.put = put
            return connector

        replayer = ShardedReplayer(factory, num_workers=3)
        with pytest.raises(RuntimeError) as excinfo:
            replayer.replay(make_trace(300))
        siblings = getattr(excinfo.value, "shard_errors", None)
        assert siblings is not None
        replayer.close()


class TestShardIndices:
    def test_indices_agree_with_shard_trace(self):
        from repro.core import shard_indices

        trace = make_trace(500)
        buckets = shard_indices(trace, 4)
        shards = shard_trace(trace, 4)
        for bucket, shard in zip(buckets, shards):
            assert trace.select(bucket).accesses == shard.accesses

    def test_rejects_nonpositive(self):
        from repro.core import shard_indices

        with pytest.raises(ValueError):
            shard_indices(make_trace(10), 0)
