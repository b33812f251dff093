"""Chaos harness: seeded schedules, recovery evaluation, determinism."""

import pytest

from repro.cluster import (
    ChaosHook,
    ClusterConfig,
    ClusterConnector,
    StoreCluster,
    evaluate_cluster_recovery,
)
from repro.core import (
    EvaluationRow,
    PerformanceEvaluator,
    RunSpec,
    SourceConfig,
    generate_workload_trace,
)
from repro.faults import (
    ClusterAction,
    ClusterFaultPlan,
    FaultPlan,
    GatedConnector,
    RetryPolicy,
)
from repro.obs import ReplayTelemetry, read_series

FAST_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(120)


@pytest.fixture(scope="module")
def trace():
    return generate_workload_trace(
        "tumbling-incremental", [SourceConfig(num_events=2_000, seed=9)]
    )


class TestSchedule:
    def test_scripted_actions_pass_through_sorted(self):
        plan = ClusterFaultPlan(
            actions=(
                ClusterAction(at=900, action="restart", target="p0r1"),
                ClusterAction(at=300, action="kill", target="p0r1"),
            )
        )
        schedule = plan.schedule(partitions=3, num_ops=2_000)
        assert [a.at for a in schedule] == [300, 900]

    def test_random_kills_land_in_window(self):
        plan = ClusterFaultPlan(seed=7, random_kills=4, kill_window=(100, 500))
        schedule = plan.schedule(partitions=3, num_ops=2_000)
        kills = [a for a in schedule if a.action == "kill"]
        assert len(kills) == 4
        for action in kills:
            assert 100 <= action.at < 500
            role, _, partition = action.target.partition(":")
            assert role in ("primary", "replica")
            assert 0 <= int(partition) < 3

    def test_restart_after_schedules_paired_restarts(self):
        plan = ClusterFaultPlan(seed=7, random_kills=2, restart_after=300)
        schedule = plan.schedule(partitions=2, num_ops=4_000)
        kills = [a for a in schedule if a.action == "kill"]
        restarts = [a for a in schedule if a.action == "restart"]
        assert len(kills) == 2 and len(restarts) == 2
        by_target = {a.target: a.at for a in kills}
        for restart in restarts:
            assert restart.at == by_target[restart.target] + 300

    def test_same_seed_same_schedule(self):
        """The determinism contract: schedules are a pure function of
        the plan, so two runs under one seed kill identically."""
        for seed in (0, 1, "trial-a"):
            plan_a = ClusterFaultPlan(seed=seed, random_kills=3, restart_after=100)
            plan_b = ClusterFaultPlan(seed=seed, random_kills=3, restart_after=100)
            assert plan_a.schedule(3, 5_000) == plan_b.schedule(3, 5_000)
        assert ClusterFaultPlan(seed=1, random_kills=3).schedule(
            3, 5_000
        ) != ClusterFaultPlan(seed=2, random_kills=3).schedule(3, 5_000)


class TestChaosConnector:
    def test_actions_fire_at_logical_offsets(self):
        config = ClusterConfig(partitions=2, replicas=1, ack="all")
        plan = ClusterFaultPlan(
            actions=(ClusterAction(at=10, action="kill", target="replica:0"),)
        )
        with StoreCluster(config) as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as inner:
                hook = ChaosHook(inner, cluster, plan.schedule(2, 100))
                chaos = GatedConnector(inner, hook)
                for i in range(10):  # ops 0..9: before the offset
                    chaos.put(b"k%02d" % i, b"v")
                assert hook.kills == 0
                chaos.put(b"k10", b"v")  # op index 10: fires first
                assert hook.kills == 1
                assert hook.executed[0][1] == "kill"
                chaos.close()

    def test_finish_skips_unreached_actions(self):
        config = ClusterConfig(partitions=2, replicas=1, ack="all")
        plan = ClusterFaultPlan(
            actions=(ClusterAction(at=10_000, action="kill", target="replica:0"),)
        )
        with StoreCluster(config) as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as inner:
                hook = ChaosHook(inner, cluster, plan.schedule(2, 20_000))
                chaos = GatedConnector(inner, hook)
                chaos.put(b"k", b"v")
                hook.finish()
                assert hook.kills == 0
                assert len(hook.skipped) == 1
                chaos.close()


class TestEvaluateClusterRecovery:
    def test_acceptance_kill_replica_then_primary_zero_loss(self, trace):
        """The PR's acceptance scenario: 3 partitions, RF=2, a seeded
        plan kills one replica then one primary mid-replay.  At
        ``ack=all`` the replay completes with zero acked-write loss
        against a single-node oracle."""
        chaos = ClusterFaultPlan(
            seed=11,
            actions=(
                ClusterAction(at=len(trace) // 4, action="kill", target="replica:0"),
                ClusterAction(at=len(trace) // 2, action="kill", target="primary:1"),
            ),
        )
        result = evaluate_cluster_recovery(
            trace,
            partitions=3,
            replicas=1,
            ack="all",
            chaos=chaos,
            retry_policy=FAST_RETRY,
        )
        assert result.recovered_ok
        assert result.mismatches == 0
        assert result.keys_checked == len(trace.unique_keys())
        assert result.kills == 2
        assert result.failovers >= 1
        assert result.chain_repairs >= 2
        assert result.lost_ack_window == 0  # ack=all: nothing in flight
        assert result.cluster == "3x2@all"
        assert result.replay.operations == len(trace)
        assert len(result.actions_executed) == 2 and not result.actions_skipped

    def test_restart_rejoins_and_recovers(self, trace):
        chaos = ClusterFaultPlan(
            actions=(
                ClusterAction(at=500, action="kill", target="replica:2"),
                ClusterAction(at=1_500, action="restart", target="replica:2"),
            )
        )
        result = evaluate_cluster_recovery(
            trace, partitions=3, replicas=1, ack="all",
            chaos=chaos, retry_policy=FAST_RETRY,
        )
        assert result.recovered_ok
        assert result.restarts == 1

    def test_determinism_same_seed_identical_histogram_populations(self, trace):
        """Property: same seed => identical kill/restart schedule =>
        both runs execute the same actions and record the same number
        of latency samples (merged histogram population)."""
        plan = ClusterFaultPlan(seed=23, random_kills=2, restart_after=400)

        def run():
            return evaluate_cluster_recovery(
                trace, partitions=3, replicas=1, ack="all",
                chaos=plan, retry_policy=FAST_RETRY,
            )

        first, second = run(), run()
        assert first.actions_executed == second.actions_executed
        assert first.actions_skipped == second.actions_skipped
        assert first.replay.operations == second.replay.operations
        merged_a = first.replay._merged_histogram()
        merged_b = second.replay._merged_histogram()
        merged_a.record_many(first.replay.all_latencies())
        merged_b.record_many(second.replay.all_latencies())
        assert merged_a.total == merged_b.total
        assert merged_a.total == len(trace)
        assert first.recovered_ok and second.recovered_ok

    def test_weaker_ack_is_measured_not_hidden(self, trace):
        """``ack=none`` may lose in-flight writes; the harness reports
        the mismatch count honestly instead of asserting zero."""
        chaos = ClusterFaultPlan(
            actions=(
                ClusterAction(at=len(trace) // 2, action="kill", target="primary:0"),
            )
        )
        result = evaluate_cluster_recovery(
            trace, partitions=3, replicas=1, ack="none",
            chaos=chaos, retry_policy=FAST_RETRY,
        )
        assert result.replay.operations == len(trace)
        assert result.mismatches >= 0  # honest accounting, no assertion of 0
        assert result.recovered_ok == (result.mismatches == 0)


class TestActionsAcrossModes:
    """A chaos action fires at its planned op offset in every replay
    mode: inside a batch it waits only for the members before it."""

    def test_batch_and_pipeline_fire_where_sync_does(self):
        trace = generate_workload_trace(
            "sliding-holistic", [SourceConfig(num_events=2_000, seed=9)]
        )
        chaos = ClusterFaultPlan(
            actions=(
                ClusterAction(at=1_001, action="kill", target="replica:0"),
                ClusterAction(at=2_003, action="kill", target="primary:1"),
                ClusterAction(at=3_007, action="kill", target="replica:2"),
            )
        )
        executed = {}
        for mode, options in (
            ("sync", {}),
            ("batch", {"batch_size": 16}),
            ("pipeline", {"pipeline_depth": 8}),
        ):
            result = evaluate_cluster_recovery(
                trace, partitions=3, replicas=1, ack="all",
                chaos=chaos, retry_policy=FAST_RETRY, **options,
            )
            assert result.mismatches == 0, mode
            executed[mode] = result.actions_executed
        assert [at for at, _, _ in executed["sync"]] == [1_001, 2_003, 3_007]
        assert executed["batch"] == executed["sync"]
        assert executed["pipeline"] == executed["sync"]


class TestChaosTelemetry:
    def test_cluster_gauges_reach_the_series(self, trace, tmp_path):
        """The telemetry session registers the cluster connector under
        the chaos gate, so its failover and reconnect gauges sample."""
        metrics_path = str(tmp_path / "chaos.jsonl")
        chaos = ClusterFaultPlan(
            actions=(
                ClusterAction(at=len(trace) // 2, action="kill", target="primary:1"),
            )
        )
        result = evaluate_cluster_recovery(
            trace, partitions=3, replicas=1, ack="all", chaos=chaos,
            retry_policy=FAST_RETRY,
            telemetry=ReplayTelemetry(metrics_path=metrics_path),
        )
        assert result.recovered_ok
        _header, samples = read_series(metrics_path)
        gauges = samples[-1]["gauges"]
        assert gauges["cluster.failovers"] >= 1
        assert "cluster.chain_repairs" in gauges
        assert "cluster.isolated" in gauges
        nodes = [f"p{p}r{r}" for p in range(3) for r in range(2)]
        reconnects = sorted(
            name for name in gauges
            if name.startswith("cluster.") and name.endswith(".reconnects")
        )
        assert reconnects == sorted(f"cluster.{node}.reconnects" for node in nodes)


class TestEvaluatorIntegration:
    def test_evaluate_cluster_populates_row(self, trace):
        chaos = ClusterFaultPlan(
            actions=(
                ClusterAction(at=1_000, action="kill", target="primary:0"),
            )
        )
        evaluator = PerformanceEvaluator(stores=["memory"])
        rows = evaluator.evaluate("tumbling", trace, RunSpec(
            cluster=ClusterConfig(partitions=3, replicas=1, ack="all"),
            chaos=chaos, retry_policy=FAST_RETRY,
        ))
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, EvaluationRow)
        assert row.store == "memory"
        assert row.cluster == "3x2@all"
        assert row.failovers == 1
        assert row.replication_lag_ms is not None
        assert row.recovered_ok is True
        assert row.throughput_kops > 0

    def test_fault_plan_cluster_field_feeds_evaluator(self, trace):
        plan = FaultPlan(
            cluster={"actions": [{"at": 800, "action": "kill", "target": "replica:1"}]}
        )
        assert isinstance(plan.cluster, ClusterFaultPlan)
        evaluator = PerformanceEvaluator(stores=["memory"])
        rows = evaluator.evaluate("tumbling", trace, RunSpec(
            cluster=ClusterConfig(partitions=3, replicas=1, ack="all"),
            chaos=plan.cluster, retry_policy=FAST_RETRY,
        ))
        assert rows[0].recovered_ok is True
