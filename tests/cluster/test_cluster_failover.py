"""Replication chains and failover."""

import threading
import time

import pytest

from repro.cluster import ClusterConfig, ClusterConnector, StoreCluster
from repro.faults import RetryPolicy
from repro.kvstores.remote import RemoteStoreClient, RemoteStoreError

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(60)


def make_cluster(ack="all", partitions=2, replicas=1):
    return StoreCluster(
        ClusterConfig(partitions=partitions, replicas=replicas, ack=ack)
    )


def read_node_directly(cluster, name, key):
    """Bypass the connector: what does this node itself hold?"""
    host, port = cluster.address(name)
    with RemoteStoreClient(host, port, store_name=name) as client:
        return client.get(key)


class TestReplication:
    @pytest.mark.parametrize("ack", ["all", "one"])
    def test_sync_ack_replicates_before_returning(self, ack):
        """With a synchronous first hop, an acked write is already on
        the replica by the time ``put`` returns -- no drain needed."""
        with make_cluster(ack=ack) as cluster:
            with ClusterConnector(cluster) as connector:
                for i in range(50):
                    connector.put(b"k%02d" % i, b"v%02d" % i)
                for i in range(50):
                    key = b"k%02d" % i
                    partition = connector._partition(key)
                    replica = connector.chain(partition)[1]
                    assert read_node_directly(cluster, replica, key) == b"v%02d" % i

    def test_ack_none_pipelines_asynchronously(self):
        with make_cluster(ack="none") as cluster:
            with ClusterConnector(cluster) as connector:
                for i in range(100):
                    connector.put(b"k%02d" % (i % 20), b"v%03d" % i)
                stats = cluster.replication_stats(connector.chain(0)[0])
                assert stats["sync"] is False
                assert stats["ops_sent"] > 0

    def test_replication_stats_counts_forwards(self):
        with make_cluster(ack="all") as cluster:
            with ClusterConnector(cluster) as connector:
                keys = [b"a", b"b", b"c", b"d", b"e", b"f"]
                for key in keys:
                    connector.put(key, b"v")
                sent = 0
                for partition in range(connector.partitions):
                    stats = cluster.replication_stats(connector.chain(partition)[0])
                    assert stats["sync"] is True
                    assert stats["pending"] == 0  # sync: acked == sent
                    sent += stats["ops_sent"]
                assert sent == len(keys)


class TestFailover:
    def test_replica_kill_shrinks_chain(self):
        with make_cluster() as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as connector:
                connector.put(b"k", b"v")
                replica = connector.chain(connector._partition(b"k"))[1]
                cluster.kill(replica)
                connector.repair_partition(connector._partition(b"k"))
                assert connector.chain_repairs == 1
                assert connector.failovers == 0  # primary unchanged
                assert replica not in connector.chain(connector._partition(b"k"))
                connector.put(b"k2", b"v2")  # writes keep flowing
                assert connector.get(b"k") == b"v"

    def test_primary_kill_promotes_replica(self):
        with make_cluster() as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as connector:
                for i in range(30):
                    connector.put(b"k%02d" % i, b"v%02d" % i)
                partition = connector._partition(b"k00")
                old_primary = connector.chain(partition)[0]
                old_replica = connector.chain(partition)[1]
                cluster.kill(old_primary)
                # next op on the partition discovers the death and fails over
                assert connector.get(b"k00") == b"v00"
                assert connector.failovers == 1
                assert connector.chain(partition)[0] == old_replica
                # acked writes survived the primary's death (ack=all)
                for i in range(30):
                    key = b"k%02d" % i
                    if connector._partition(key) == partition:
                        assert connector.get(key) == b"v%02d" % i

    def test_failover_budget_is_bounded(self):
        """When every chain member is dead the client gives up after the
        retry policy's attempt budget instead of spinning."""
        with make_cluster() as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as connector:
                connector.put(b"k", b"v")
                partition = connector._partition(b"k")
                for name in list(connector.chain(partition)):
                    cluster.kill(name)
                with pytest.raises(
                    RemoteStoreError, match="no live replicas|unavailable after"
                ):
                    connector.get(b"k")

    def test_restart_and_resync_rejoins_chain(self):
        with make_cluster() as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as connector:
                for i in range(40):
                    connector.put(b"k%02d" % i, b"v%02d" % i)
                partition = 0
                replica = connector.chain(partition)[1]
                cluster.kill(replica)
                connector.repair_partition(partition)
                assert len(connector.chain(partition)) == 1
                # replacement node: new port, empty store, resynced on attach
                cluster.restart(replica)
                connector.attach_replica(partition, replica)
                assert connector.chain(partition) == [f"p{partition}r0", replica]
                for i in range(40):
                    key = b"k%02d" % i
                    if connector._partition(key) == partition:
                        assert read_node_directly(cluster, replica, key) == b"v%02d" % i

    def test_isolate_blocks_then_heal_restores(self):
        with make_cluster(partitions=1) as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as connector:
                connector.put(b"k", b"v")
                primary = connector.chain(0)[0]
                replica = connector.chain(0)[1]
                connector.isolate(primary)
                # isolated primary looks dead to the client: failover
                assert connector.get(b"k") == b"v"
                assert connector.chain(0)[0] == replica
                connector.heal(primary)
                connector.attach_replica(0, primary)
                assert primary in connector.chain(0)


@pytest.fixture
def sleeps(monkeypatch):
    """Record the client thread's ``time.sleep`` calls instead of
    sleeping (server threads keep the real one)."""
    recorded = []
    real_sleep = time.sleep
    main = threading.main_thread()

    def fake_sleep(seconds):
        if threading.current_thread() is main:
            recorded.append(seconds)
        else:
            real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", fake_sleep)
    return recorded


def always_failing(calls):
    """An op that reaches a live primary and fails every time."""

    def fn(client):
        calls.append(client)
        raise RemoteStoreError("injected failure")

    return fn


class TestFailoverBackoff:
    """A failover retries through ``RetryPolicy.call``: its jittered
    backoff, its attempt budget and its ``op_timeout_s``."""

    def test_seeded_policy_sleeps_its_jittered_schedule(self, sleeps):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, seed=11)
        twin = RetryPolicy(max_attempts=4, base_delay_s=0.001, seed=11)
        expected = []
        with pytest.raises(RemoteStoreError):
            twin.call(
                always_failing([]), None,
                retry_on=(RemoteStoreError,), sleep=expected.append,
            )
        with make_cluster(partitions=1) as cluster:
            with ClusterConnector(cluster, retry_policy=policy) as connector:
                with pytest.raises(RemoteStoreError, match="unavailable after 4"):
                    connector._on_primary(0, always_failing([]))
        assert len(expected) == 3
        assert expected != list(twin.base_delays())  # jitter applied
        assert sleeps == expected

    def test_no_policy_never_sleeps(self, sleeps):
        with make_cluster(partitions=1) as cluster:
            with ClusterConnector(cluster) as connector:
                connector.put(b"k", b"v")
                cluster.kill(connector.chain(0)[0])
                assert connector.get(b"k") == b"v"  # failed over
                assert connector.failovers == 1
                calls = []
                with pytest.raises(RemoteStoreError, match="unavailable after 2"):
                    # one survivor: chain length 1, budget 1 + 1
                    connector._on_primary(0, always_failing(calls))
                assert len(calls) == 2
        assert sleeps == []

    def test_exhausted_budget_names_partition_attempts_and_chain(self, sleeps):
        with make_cluster(partitions=1) as cluster:
            with ClusterConnector(cluster, retry_policy=FAST_RETRY) as connector:
                calls = []
                with pytest.raises(
                    RemoteStoreError,
                    match=r"^partition 0 unavailable after 4 attempts "
                    r"\(chain \['p0r0', 'p0r1'\]\): injected failure$",
                ):
                    connector._on_primary(0, always_failing(calls))
                assert len(calls) == 4
                assert connector.chain_repairs == 3  # one per retry
        assert sleeps == []  # a zero-delay policy never sleeps

    def test_op_timeout_stops_before_the_budget(self, sleeps):
        # delays 0.05 then 0.2 s; the second would overrun 0.1 s
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.05, multiplier=4.0,
            jitter=0.0, op_timeout_s=0.1,
        )
        with make_cluster(partitions=1) as cluster:
            with ClusterConnector(cluster, retry_policy=policy) as connector:
                calls = []
                with pytest.raises(RemoteStoreError, match="unavailable after 2"):
                    connector._on_primary(0, always_failing(calls))
                assert len(calls) == 2
        assert sleeps == [0.05]
