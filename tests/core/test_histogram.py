"""Tests for the log-bucketed latency histogram."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import ReplayResult, ReplayStopped, TraceReplayer
from repro.core.histogram import LatencyHistogram
from repro.core.replayer import _FOLD_OPS
from repro.faults import FaultPlan
from repro.kvstores import create_connector
from repro.trace import AccessTrace, OpType


class TestRecording:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.total == 0
        assert histogram.percentile(50) == 0
        assert histogram.mean == 0.0

    def test_single_value(self):
        histogram = LatencyHistogram()
        histogram.record(17)
        assert histogram.percentile(50) == 17
        assert histogram.min_value == 17
        assert histogram.max_value == 17

    def test_small_values_exact(self):
        histogram = LatencyHistogram(subbuckets=32)
        for value in range(32):
            histogram.record(value)
        for p, expected in ((50, 16), (100, 31)):
            assert abs(histogram.percentile(p) - expected) <= 1

    def test_negative_clamped(self):
        histogram = LatencyHistogram()
        histogram.record(-5)
        assert histogram.min_value == 0

    def test_mean(self):
        histogram = LatencyHistogram()
        histogram.record_many([10, 20, 30])
        assert histogram.mean == pytest.approx(20.0)

    def test_invalid_subbuckets(self):
        with pytest.raises(ValueError):
            LatencyHistogram(subbuckets=3)


#: negatives, 0 and values below every tested ``subbuckets``; ordinary
#: latencies; around 2**53, where a float would round; and past the
#: last bucket of every tested geometry
SAMPLES = st.one_of(
    st.integers(min_value=-(2**20), max_value=70),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2**53 - 64, max_value=2**53 + 64),
    st.integers(min_value=2**60, max_value=2**80),
)
GEOMETRIES = [{}, {"subbuckets": 2}, {"subbuckets": 16}, {"subbuckets": 64}]


class TestRecordMany:
    """``record_many`` folds a chunk at once; the result must be the
    one per-value ``record`` gives, bucket for bucket."""

    @settings(max_examples=300, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        prior=st.lists(SAMPLES, max_size=5),
        values=st.lists(SAMPLES, max_size=200),
        as_generator=st.booleans(),
    )
    def test_equals_sequential_record(self, geometry, prior, values, as_generator):
        folded = LatencyHistogram(**geometry)
        sequential = LatencyHistogram(**geometry)
        for value in prior:
            folded.record(value)
            sequential.record(value)
        folded.record_many((value for value in values) if as_generator else values)
        for value in values:
            sequential.record(value)
        assert folded.to_dict() == sequential.to_dict()

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_last_bucket_clamp(self, geometry):
        """Values around the last bucket land where ``record`` puts
        them: the edges and everything past them in the last bucket."""
        folded = LatencyHistogram(**geometry)
        sequential = LatencyHistogram(**geometry)
        low = (folded.subbuckets - 1) << folded.max_exponent
        top = low << 1 | (1 << folded.max_exponent) - 1
        # below the last bucket, its two edges, then two past it
        edge = [low - 1, low, top, top + 1, 2**80]
        folded.record_many(edge)
        for value in edge:
            sequential.record(value)
        assert folded.to_dict() == sequential.to_dict()
        assert folded._counts[-1] == 4

    @pytest.mark.parametrize("empty", [[], iter(())], ids=["list", "generator"])
    def test_empty_input_changes_nothing(self, empty):
        histogram = LatencyHistogram()
        histogram.record_many(empty)
        assert histogram.to_dict() == LatencyHistogram().to_dict()

    def test_import_repro_does_not_load_numpy(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = "import sys, repro, repro.core; sys.exit('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestAccuracy:
    def test_bounded_relative_error(self):
        """Percentiles must be within 1/subbuckets of exact values."""
        rng = random.Random(3)
        values = [int(rng.lognormvariate(8, 2)) for _ in range(20_000)]
        histogram = LatencyHistogram(subbuckets=64)
        histogram.record_many(values)
        exact = sorted(values)
        for percent in (50.0, 90.0, 99.0, 99.9):
            rank = min(len(exact) - 1, int(round(percent / 100 * len(exact))))
            expected = exact[rank]
            approx = histogram.percentile(percent)
            assert abs(approx - expected) <= max(2, expected / 16), percent

    def test_max_is_exact(self):
        rng = random.Random(5)
        values = [rng.randrange(10**9) for _ in range(1000)]
        histogram = LatencyHistogram()
        histogram.record_many(values)
        assert histogram.percentile(100) == max(values)

    def test_huge_values_saturate_safely(self):
        histogram = LatencyHistogram(max_exponent=10)
        histogram.record(2**50)
        assert histogram.total == 1
        assert histogram.percentile(50) <= 2**50


class TestMerge:
    def test_merge_totals(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many([1, 2, 3])
        b.record_many([1000, 2000])
        a.merge(b)
        assert a.total == 5
        assert a.max_value == 2000
        assert a.min_value == 1

    def test_merge_geometry_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram(subbuckets=32).merge(LatencyHistogram(subbuckets=64))


class TestDictExport:
    def test_round_trip_preserves_everything(self):
        histogram = LatencyHistogram()
        histogram.record_many([1, 7, 1500, 1500, 250_000, 9_000_000])
        rebuilt = LatencyHistogram.from_dict(histogram.to_dict())
        assert rebuilt.total == histogram.total
        assert rebuilt.sum_values == histogram.sum_values
        assert rebuilt.min_value == histogram.min_value
        assert rebuilt.max_value == histogram.max_value
        assert rebuilt.nonzero_buckets() == histogram.nonzero_buckets()
        for percent in (50.0, 90.0, 99.0, 99.9):
            assert rebuilt.percentile(percent) == histogram.percentile(percent)

    def test_round_trip_keeps_geometry(self):
        histogram = LatencyHistogram(subbuckets=64, max_exponent=30)
        histogram.record(12345)
        rebuilt = LatencyHistogram.from_dict(histogram.to_dict())
        assert rebuilt.subbuckets == 64
        assert rebuilt.max_exponent == 30

    def test_rebuilt_histograms_merge(self):
        """The reason to_dict exists: sampler intervals re-aggregate."""
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many([100, 200, 300])
        b.record_many([5000, 6000])
        merged = LatencyHistogram.from_dict(a.to_dict())
        merged.merge(LatencyHistogram.from_dict(b.to_dict()))
        direct = LatencyHistogram()
        direct.record_many([100, 200, 300, 5000, 6000])
        assert merged.total == direct.total
        assert merged.percentile(50.0) == direct.percentile(50.0)
        assert merged.percentile(99.0) == direct.percentile(99.0)

    def test_empty_histogram_round_trips(self):
        rebuilt = LatencyHistogram.from_dict(LatencyHistogram().to_dict())
        assert rebuilt.total == 0
        assert rebuilt.percentile(99.0) == 0

    def test_dict_counts_are_sparse(self):
        histogram = LatencyHistogram()
        histogram.record(1000)
        data = histogram.to_dict()
        assert len(data["counts"]) == 1


class TestReplayerIntegration:
    def test_histogram_mode(self):
        from repro.core import SourceConfig, TraceReplayer, generate_workload_trace
        from repro.kvstores import create_connector

        trace = generate_workload_trace(
            "continuous-aggregation", [SourceConfig(num_events=400)]
        )
        replayer = TraceReplayer(
            create_connector("memory"), use_histograms=True
        )
        result = replayer.replay(trace)
        assert result.all_latencies() == []  # no per-sample lists
        assert sum(h.total for h in result.histograms.values()) == len(trace)
        assert result.latency_percentile(50) > 0
        assert result.latency_percentile(99.9) >= result.latency_percentile(50)
        assert result.summary()["p50_us"] > 0

    def test_histogram_summary_buckets(self):
        histogram = LatencyHistogram()
        histogram.record_many([500, 1500, 1_000_000])
        buckets = histogram.nonzero_buckets()
        assert sum(count for _, count in buckets) == 3
        summary = histogram.summary()
        assert summary["max"] == pytest.approx(1000.0)

    def test_percentile_with_non_default_geometry(self):
        """Regression: the merged histogram took the default geometry,
        so any other raised ``histograms have different geometry``."""
        histogram = LatencyHistogram(subbuckets=16)
        histogram.record_many([1_000, 2_000, 3_000])
        result = ReplayResult("memory", 3, 1.0, histograms={OpType.GET: histogram})
        assert result.latency_percentile(50.0) == histogram.percentile(50.0) / 1000.0


def percentile_calls(result):
    """What ``summary()`` reported before it sorted or merged once."""
    return {
        "throughput_kops": result.throughput_ops / 1000.0,
        "p50_us": result.latency_percentile(50.0),
        "p99_us": result.latency_percentile(99.0),
        "p99.9_us": result.latency_percentile(99.9),
    }


SAMPLES = st.dictionaries(
    st.sampled_from(list(OpType)),
    st.lists(st.integers(0, 10**9), max_size=300),
)


class TestSummary:
    """``summary()`` sorts or merges once and reads it three times; the
    numbers equal three ``latency_percentile`` calls exactly."""

    @settings(max_examples=60, deadline=None)
    @given(samples=SAMPLES)
    def test_exact_mode(self, samples):
        result = ReplayResult("memory", 7, 0.5, latencies_ns=samples)
        assert result.summary() == percentile_calls(result)

    @settings(max_examples=60, deadline=None)
    @given(samples=SAMPLES, subbuckets=st.sampled_from([2, 16, 32]))
    def test_histogram_mode(self, samples, subbuckets):
        histograms = {}
        for op, values in samples.items():
            histograms[op] = LatencyHistogram(subbuckets)
            histograms[op].record_many(values)
        result = ReplayResult("memory", 7, 0.5, histograms=histograms)
        assert result.summary() == percentile_calls(result)

    @pytest.mark.parametrize(
        "result",
        [
            ReplayResult("memory", 0, 0.0),
            ReplayResult("memory", 0, 1.0, latencies_ns={op: [] for op in OpType}),
            ReplayResult("memory", 0, 1.0, histograms={OpType.GET: LatencyHistogram()}),
        ],
        ids=["nothing", "empty-lists", "empty-histogram"],
    )
    def test_empty(self, result):
        assert result.summary() == percentile_calls(result)
        assert result.summary()["p99.9_us"] == 0.0

    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_single_op_type(self, mode):
        rng = random.Random(3)
        values = [rng.randrange(10**6) for _ in range(1_001)]
        if mode == "exact":
            result = ReplayResult("memory", 1_001, 0.2, latencies_ns={OpType.PUT: values})
        else:
            histogram = LatencyHistogram()
            histogram.record_many(values)
            result = ReplayResult("memory", 1_001, 0.2, histograms={OpType.PUT: histogram})
        assert result.summary() == percentile_calls(result)

    def test_sharded_result(self):
        from repro.core.replayer import ShardedReplayResult

        shards = [
            ReplayResult("memory", 3, 0.1, latencies_ns={OpType.GET: [5_000, 1_000, 9_000]}),
            ReplayResult("memory", 2, 0.1, latencies_ns={OpType.PUT: [2_000, 7_000]}),
        ]
        sharded = ShardedReplayResult("memory", shards, 0.25)
        expected = percentile_calls(sharded.merged_result())
        expected["throughput_kops"] = sharded.throughput_ops / 1000.0
        assert sharded.summary() == expected

    def test_merging_an_empty_histogram_changes_nothing(self):
        histogram = LatencyHistogram(16)
        histogram.record_many([3, 700, 90_000])
        before = histogram.to_dict()
        histogram.merge(LatencyHistogram(16))
        assert histogram.to_dict() == before
        with pytest.raises(ValueError, match="different geometry"):
            histogram.merge(LatencyHistogram(32))


def mixed_trace(n, seed=7):
    """``n`` ops of random types over 300 keys, so that batches vary in
    length."""
    rng = random.Random(seed)
    ops = list(OpType)
    trace = AccessTrace()
    for i in range(n):
        trace.record(rng.choice(ops), f"key-{rng.randrange(300)}".encode(), 16, i)
    return trace


@pytest.fixture(scope="module")
def fold_trace():
    trace = mixed_trace(20_003)
    assert len(trace) % _FOLD_OPS
    return trace


#: options reaching each replay loop; the "guarded" cases add a fault
#: plan, which the same loop replays through its fault injector
LOOPS = {
    "per-op": {},
    "per-op-paced": {"service_rate": 1e7},
    "batched": {"batch_size": 16},
    "pipelined": {"pipeline_depth": 8},
    "paced-batched": {"service_rate": 1e7, "batch_size": 16},
    "paced-pipelined": {"service_rate": 1e7, "pipeline_depth": 8},
}


class TestFoldOnEveryExit:
    """Histogram mode stages samples and folds them every ``_FOLD_OPS``
    ops; every way out of every loop must fold what is staged."""

    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize("loop", LOOPS)
    def test_every_sample_folded(self, fold_trace, loop, guarded):
        options = dict(LOOPS[loop])
        if guarded:
            options["fault_plan"] = FaultPlan()
        replayer = TraceReplayer(create_connector("memory"), use_histograms=True, **options)
        result = replayer.replay(fold_trace)
        totals = {op: histogram.total for op, histogram in result.histograms.items()}
        assert totals == fold_trace.op_counts()

    @pytest.mark.parametrize("crash_at", [_FOLD_OPS - 1, _FOLD_OPS, _FOLD_OPS + 1])
    @pytest.mark.parametrize("loop", ["per-op", "batched", "pipelined"])
    def test_crash_folds_the_applied_prefix(self, fold_trace, loop, crash_at):
        plan = FaultPlan(seed=5, transient_error_rate=0.01, crash_at=crash_at)
        connector = create_connector("memory")
        replayer = TraceReplayer(
            connector, use_histograms=True, fault_plan=plan, **LOOPS[loop]
        )
        result = replayer.replay(fold_trace)
        assert result.crashed_at == crash_at
        assert result.failed_ops > 0
        samples = sum(histogram.total for histogram in result.histograms.values())
        assert samples == crash_at - result.failed_ops
        assert samples == connector.store.stats.total_ops

    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize("loop", LOOPS)
    def test_stop_folds_then_propagates(self, fold_trace, loop, guarded, monkeypatch):
        folded = []
        record_many = LatencyHistogram.record_many

        def spy(histogram, values):
            folded.append(len(values))
            record_many(histogram, values)

        monkeypatch.setattr(LatencyHistogram, "record_many", spy)
        connector = create_connector("memory")
        stats = connector.store.stats
        options = dict(LOOPS[loop])
        if guarded:
            options["fault_plan"] = FaultPlan()
        replayer = TraceReplayer(
            connector,
            use_histograms=True,
            stop_check=lambda: stats.total_ops >= 10_000,
            **options,
        )
        with pytest.raises(ReplayStopped):
            replayer.replay(fold_trace)
        # the partial chunk past the first fold was folded on the way out
        assert sum(folded) == stats.total_ops > _FOLD_OPS


class TestFromDictValidation:
    """Malformed payloads (hand-edited JSONL, version skew, worker bugs)
    must fail loudly with context, never corrupt silently."""

    def base(self, **overrides):
        histogram = LatencyHistogram()
        histogram.record_many([100, 200, 3000])
        data = histogram.to_dict()
        data.update(overrides)
        return data

    def test_out_of_range_bucket_index(self):
        data = self.base()
        data["counts"] = {"999999": 3}
        with pytest.raises(ValueError, match="bucket index"):
            LatencyHistogram.from_dict(data)

    def test_negative_bucket_index(self):
        data = self.base()
        data["counts"] = {"-1": 3}
        with pytest.raises(ValueError, match="bucket index"):
            LatencyHistogram.from_dict(data)

    def test_non_integer_index(self):
        data = self.base()
        data["counts"] = {"not-a-number": 3}
        with pytest.raises(ValueError, match="integer"):
            LatencyHistogram.from_dict(data)

    def test_negative_count(self):
        data = self.base()
        data["counts"] = {"10": -5}
        with pytest.raises(ValueError, match="count"):
            LatencyHistogram.from_dict(data)

    def test_total_must_match_counts(self):
        data = self.base(total=999)
        with pytest.raises(ValueError, match="total"):
            LatencyHistogram.from_dict(data)

    def test_negative_sum(self):
        data = self.base(sum=-1)
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict(data)

    def test_empty_histogram_invariants(self):
        data = LatencyHistogram().to_dict()
        data["min"] = 7  # empty histograms must keep min=-1
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict(data)

    def test_max_below_min(self):
        data = self.base()
        data["min"], data["max"] = 500, 100
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict(data)
