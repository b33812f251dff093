"""End-to-end integration tests across subsystems."""

import pytest

from repro.analysis import (
    composition_of,
    ks_test_keys,
    measure_amplification,
    max_working_set,
    working_set_over_time,
)
from repro.core import (
    Gadget,
    GadgetConfig,
    PerformanceEvaluator,
    SourceConfig,
    TraceReplayer,
    generate_workload_trace,
)
from repro.kvstores import create_connector
from repro.streaming import (
    ContinuousAggregation,
    RuntimeConfig,
    TumblingWindows,
    WindowOperator,
    run_operator,
)
from repro.trace import AccessTrace, OpType, interleave_traces
from repro.ycsb import YCSBWorkload


class TestCharacterizationPipeline:
    """Dataset -> engine -> analysis: the section 3 pipeline."""

    def test_composition_algebra_incremental(self, borg_tasks):
        trace = run_operator(
            WindowOperator(TumblingWindows(5000)), [borg_tasks], RuntimeConfig()
        )
        comp = composition_of(trace)
        # the W-ID algebra: gets are exactly half of all operations
        assert abs(comp.get - 0.5) < 1e-9
        assert comp.put + comp.delete == pytest.approx(0.5)

    def test_holistic_is_write_heavy(self, borg_tasks):
        trace = run_operator(
            WindowOperator(TumblingWindows(5000), holistic=True),
            [borg_tasks],
            RuntimeConfig(),
        )
        assert composition_of(trace).classify() == "write-heavy"

    def test_aggregation_preserves_key_distribution(self, borg_tasks):
        trace = run_operator(ContinuousAggregation(), [borg_tasks], RuntimeConfig())
        result = ks_test_keys([e.key for e in borg_tasks], trace.key_sequence())
        assert result.passes()
        assert result.statistic < 0.01

    def test_window_distorts_key_distribution(self, borg_tasks):
        trace = run_operator(
            WindowOperator(TumblingWindows(5000)), [borg_tasks], RuntimeConfig()
        )
        result = ks_test_keys([e.key for e in borg_tasks], trace.key_sequence())
        assert not result.passes()

    def test_window_state_is_ephemeral(self, borg_tasks):
        trace = run_operator(
            WindowOperator(TumblingWindows(5000)), [borg_tasks], RuntimeConfig()
        )
        samples = working_set_over_time(trace, step=100)
        peak = max(size for _, size in samples)
        final = samples[-1][1]
        assert final < peak / 2  # state drains as windows fire

    def test_aggregation_working_set_grows(self, borg_tasks):
        trace = run_operator(ContinuousAggregation(), [borg_tasks], RuntimeConfig())
        samples = working_set_over_time(trace, step=100)
        assert samples[-1][1] == max(size for _, size in samples)

    def test_amplification_bounds(self, borg_tasks):
        trace = run_operator(
            WindowOperator(TumblingWindows(5000)), [borg_tasks], RuntimeConfig()
        )
        amp = measure_amplification(borg_tasks, trace)
        assert amp.event_amplification >= 2.0
        assert amp.keyspace_amplification > 1.0


class TestOfflineOnlineParity:
    def test_offline_trace_replays_identically(self, tmp_path):
        gadget = Gadget("tumbling-incremental", [SourceConfig(num_events=400)])
        path = str(tmp_path / "w.trace")
        trace = gadget.save_trace(path)
        loaded = AccessTrace.load(path)
        result = TraceReplayer(create_connector("rocksdb")).replay(loaded)
        assert result.operations == len(trace)

    def test_online_mode_touches_store(self):
        connector = create_connector("faster")
        gadget = Gadget("continuous-aggregation", [SourceConfig(num_events=100)])
        gadget.run_online(connector)
        assert connector.store.stats.gets == 100
        assert connector.store.stats.puts == 100


class TestYCSBvsGadgetLocality:
    """Section 4's claim: tuned YCSB still misses streaming locality."""

    def test_ycsb_has_no_deletes_but_streaming_does(self, borg_tasks):
        ycsb = YCSBWorkload.core("A", operation_count=2000).generate()
        streaming = generate_workload_trace(
            "tumbling-incremental", [borg_tasks], GadgetConfig(interleave="time")
        )
        assert ycsb.op_counts()[OpType.DELETE] == 0
        assert streaming.op_counts()[OpType.DELETE] > 0

    def test_ycsb_working_set_never_shrinks(self):
        ycsb = YCSBWorkload.core("A", operation_count=3000).generate()
        sizes = [s for _, s in working_set_over_time(ycsb, step=100)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_streaming_working_set_shrinks(self, borg_tasks):
        streaming = generate_workload_trace(
            "tumbling-incremental", [borg_tasks], GadgetConfig(interleave="time")
        )
        sizes = [s for _, s in working_set_over_time(streaming, step=100)]
        assert any(b < a for a, b in zip(sizes, sizes[1:]))


class TestStoreEvaluationPipeline:
    def test_full_matrix_small(self, borg_tasks):
        trace = generate_workload_trace(
            "tumbling-incremental",
            [borg_tasks[:1000]],
            GadgetConfig(interleave="time"),
        )
        rows = PerformanceEvaluator().evaluate("tumbling-incremental", trace)
        assert len(rows) == 4
        assert all(row.throughput_kops > 0 for row in rows)

    def test_concurrent_slower_than_isolated(self, borg_tasks):
        trace = generate_workload_trace(
            "sliding-incremental",
            [borg_tasks[:2000]],
            GadgetConfig(interleave="time"),
        )
        evaluator = PerformanceEvaluator()
        isolated = evaluator.evaluate("w", trace)[0]  # rocksdb row
        _, concurrent = evaluator.run(
            "rocksdb", "concurrent", interleave_traces([trace, trace])
        )
        # Sharing a store doubles the work; per-op throughput of the
        # pair can't exceed twice the isolated run's.
        assert concurrent.operations == 2 * len(trace)
