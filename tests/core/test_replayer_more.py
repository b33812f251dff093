"""Additional replayer behaviours: GC control, background exclusion,
value synthesis determinism, what one latency sample times."""

import gc

import pytest

from repro.core import (
    GadgetConfig,
    SourceConfig,
    TraceReplayer,
    generate_workload_trace,
    synthesize_value,
)
from repro.core import replayer
from repro.kvstores import create_connector
from repro.trace import AccessTrace, OpType


def small_trace(n=300):
    return generate_workload_trace(
        "continuous-aggregation", [SourceConfig(num_events=n)]
    )


class TestGCControl:
    def test_gc_restored_after_replay(self):
        assert gc.isenabled()
        TraceReplayer(create_connector("memory")).replay(small_trace())
        assert gc.isenabled()

    def test_gc_left_disabled_if_it_was(self):
        gc.disable()
        try:
            TraceReplayer(create_connector("memory")).replay(small_trace())
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_gc_control_can_be_turned_off(self):
        replayer = TraceReplayer(create_connector("memory"), disable_gc=False)
        replayer.replay(small_trace())
        assert gc.isenabled()


class TestBackgroundExclusion:
    def test_latencies_never_negative(self):
        # Force plenty of flush/compaction background work.
        connector = create_connector("rocksdb", write_buffer_size=2048)
        result = TraceReplayer(connector).replay(small_trace(2000))
        assert all(v >= 0 for v in result.all_latencies())

    def test_background_excluded_from_tail(self):
        """With background exclusion, the write tail should not contain
        whole flush+compaction cycles (which cost milliseconds at this
        buffer size)."""
        connector = create_connector("rocksdb", write_buffer_size=4096)
        result = TraceReplayer(connector).replay(small_trace(3000))
        assert connector.store.stats.flushes > 0
        assert result.latency_percentile(99.9) < 3_000  # us


class TestSynthesizeValue:
    def test_deterministic_content(self):
        assert synthesize_value(16) == synthesize_value(16)

    def test_distinct_sizes_distinct_objects(self):
        assert synthesize_value(8) != synthesize_value(9)

    @pytest.mark.parametrize(
        "size", [0, 1, 17, 255, 256, 257, 1000, 65537, 1 << 20]
    )
    def test_bytes_follow_the_formula(self, size):
        expected = bytes((i * 131 + 17) & 0xFF for i in range(size))
        assert synthesize_value(size) == expected


class CounterClock:
    """The replayer's ``time``: each read of the clock advances it 1 ns,
    so a sample is the clock reads it spans plus what else moved it."""

    def __init__(self):
        self.ns = 0

    def perf_counter_ns(self):
        self.ns += 1
        return self.ns

    def perf_counter(self):
        return self.perf_counter_ns() / 1e9


def mixed_trace(ops=400):
    trace = AccessTrace()
    kinds = (OpType.PUT, OpType.GET, OpType.MERGE, OpType.DELETE)
    for i in range(ops):
        trace.record(kinds[i % 4], b"k%d" % (i % 37), 8 + i % 5)
    return trace


class TestWhatOneSampleTimes:
    @pytest.mark.parametrize("service_rate", [None, 1e9], ids=["closed", "paced"])
    def test_payload_lookup_is_outside_the_sample(self, monkeypatch, service_rate):
        """A payload lookup that moves the clock a millisecond shows in
        no sample: the clock starts after it, at the store call."""
        clock = CounterClock()

        class SlowValues(dict):
            def __getitem__(self, size):
                clock.ns += 10**6
                return bytes(size)

            get = __getitem__

        monkeypatch.setattr(replayer, "time", clock)
        monkeypatch.setattr(replayer, "_VALUE_CACHE", SlowValues())
        trace = mixed_trace()
        result = TraceReplayer(
            create_connector("memory"), service_rate=service_rate
        ).replay(trace)
        assert clock.ns > len(trace) // 2 * 10**6
        for op, count in trace.op_counts().items():
            samples = result.latencies_ns[op]
            assert len(samples) == count
            assert max(samples) < 10**6, op

    def test_value_cache_stays_bounded_through_the_walk(self, monkeypatch):
        cache = replayer._ValueCache()
        monkeypatch.setattr(replayer, "_VALUE_CACHE", cache)
        trace = AccessTrace()
        for size in range(1, 3 * replayer._VALUE_CACHE_MAX_ENTRIES + 1):
            trace.record(OpType.PUT, b"k", 16 * size)
        connector = create_connector("memory")
        TraceReplayer(connector).replay(trace)
        assert connector.get(b"k") == synthesize_value(16 * len(trace))
        assert 0 < len(cache) <= replayer._VALUE_CACHE_MAX_ENTRIES
        assert cache.nbytes == sum(map(len, cache.values()))
        assert cache.nbytes <= replayer._VALUE_CACHE_MAX_BYTES


class TestReplayEdgeCases:
    def test_empty_trace(self):
        result = TraceReplayer(create_connector("memory")).replay(AccessTrace())
        assert result.operations == 0
        assert result.latency_percentile(99) == 0.0

    def test_trace_with_only_deletes(self):
        trace = AccessTrace()
        for i in range(50):
            trace.record(OpType.DELETE, f"k{i}".encode())
        result = TraceReplayer(create_connector("rocksdb")).replay(trace)
        assert result.operations == 50

    def test_throughput_positive(self):
        result = TraceReplayer(create_connector("memory")).replay(small_trace())
        assert result.throughput_ops > 0
        assert result.elapsed_s > 0
