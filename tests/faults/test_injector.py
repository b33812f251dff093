"""Fault-injecting connector: schedule application and replay wiring."""

import pytest

from repro.core import SourceConfig, TraceReplayer, generate_workload_trace
from repro.faults import (
    FaultPlan,
    GatedConnector,
    InjectedCrash,
    RetryPolicy,
    TransientStoreError,
)
from repro.kvstores import InMemoryStore, connect


def no_sleep(_):
    pass


@pytest.fixture(scope="module")
def trace():
    return generate_workload_trace(
        "tumbling-incremental", [SourceConfig(num_events=1_500, seed=3)]
    )


class TestInjection:
    def test_transient_error_raised_then_op_succeeds(self):
        plan = FaultPlan(seed=1, transient_error_rate=1.0, error_burst=2)
        connector = GatedConnector(
            connect(InMemoryStore()), plan.schedule(), sleep=no_sleep
        )
        with pytest.raises(TransientStoreError):
            connector.put(b"k", b"v")
        with pytest.raises(TransientStoreError):
            connector.put(b"k", b"v")
        connector.put(b"k", b"v")  # burst spent: the retry goes through
        assert connector.inner.get(b"k") == b"v"
        assert connector.injected.transient_errors == 2

    def test_retry_does_not_advance_schedule(self):
        """The crash must fire at its planned index even when earlier
        ops needed retries (regression: retries used to consume the
        next op's draw)."""
        plan = FaultPlan(
            seed=2, transient_error_rate=0.5, error_burst=2, crash_at=40
        )
        connector = GatedConnector(
            connect(InMemoryStore()), plan.schedule(), sleep=no_sleep
        )
        executed = 0
        with pytest.raises(InjectedCrash) as excinfo:
            for i in range(100):
                while True:
                    try:
                        connector.put(f"k{i}".encode(), b"v")
                        break
                    except TransientStoreError:
                        continue
                executed += 1
        assert excinfo.value.op_index == 40
        assert executed == 40

    def test_crash_is_sticky(self):
        plan = FaultPlan(seed=0, crash_at=0)
        connector = GatedConnector(
            connect(InMemoryStore()), plan.schedule(), sleep=no_sleep
        )
        for _ in range(3):
            with pytest.raises(InjectedCrash):
                connector.put(b"k", b"v")

    def test_latency_spikes_sleep_and_are_counted(self):
        plan = FaultPlan(seed=3, latency_spike_rate=1.0, latency_spike_ms=2.0)
        slept = []
        connector = GatedConnector(
            connect(InMemoryStore()), plan.schedule(), sleep=slept.append
        )
        for i in range(10):
            connector.put(f"k{i}".encode(), b"v")
        assert connector.injected.latency_spikes == 10
        assert slept == pytest.approx([0.002] * 10)
        assert connector.injected.injected_delay_s == pytest.approx(0.02)

    def test_identical_schedules_across_two_stores(self, trace):
        """The evaluator's comparability invariant: two stores replayed
        under the same plan see the same fault timeline."""
        plan = FaultPlan(seed=7, transient_error_rate=0.02, error_burst=2,
                         latency_spike_rate=0.01)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0)
        results = []
        for _ in range(2):
            replayer = TraceReplayer(
                connect(InMemoryStore()), fault_plan=plan, retry_policy=policy
            )
            results.append(replayer.replay(trace))
        a, b = results
        assert a.injected_faults == b.injected_faults > 0
        assert a.retries == b.retries > 0
        assert a.failed_ops == b.failed_ops == 0


class TestReplayerIntegration:
    def test_faulted_replay_contents_match_unfaulted(self, trace):
        plan = FaultPlan(seed=11, transient_error_rate=0.05, error_burst=3)
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)
        plain_store, faulted_store = InMemoryStore(), InMemoryStore()
        TraceReplayer(connect(plain_store)).replay(trace)
        result = TraceReplayer(
            connect(faulted_store), fault_plan=plan, retry_policy=policy
        ).replay(trace)
        assert result.failed_ops == 0
        assert result.retries > 0
        for key in trace.unique_keys():
            assert faulted_store.get(key) == plain_store.get(key)

    def test_crash_stops_replay_at_index(self, trace):
        plan = FaultPlan(seed=0, crash_at=200)
        result = TraceReplayer(
            connect(InMemoryStore()), fault_plan=plan
        ).replay(trace)
        assert result.crashed_at == 200
        assert result.operations == 200

    def test_no_retry_policy_counts_failed_ops(self, trace):
        plan = FaultPlan(seed=13, transient_error_rate=0.05)
        result = TraceReplayer(
            connect(InMemoryStore()), fault_plan=plan
        ).replay(trace)
        assert result.failed_ops > 0
        assert result.failed_ops == result.injected_faults
        assert result.retries == 0

    def test_sharded_replay_under_faults(self, trace):
        from repro.core import ShardedReplayer

        plan = FaultPlan(seed=5, transient_error_rate=0.02, error_burst=2)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        replayer = ShardedReplayer(
            lambda: connect(InMemoryStore()),
            num_workers=2,
            fault_plan=plan,
            retry_policy=policy,
        )
        result = replayer.replay(trace)
        replayer.close()
        merged = result.merged_result()
        assert result.operations == len(trace)
        assert merged.injected_faults > 0
        assert merged.failed_ops == 0

    def test_sharded_replay_rejects_crash_plans(self):
        from repro.core import ShardedReplayer

        with pytest.raises(ValueError, match="crash"):
            ShardedReplayer(
                lambda: connect(InMemoryStore()),
                num_workers=2,
                fault_plan=FaultPlan(crash_at=10),
            )
