"""Cluster connector basics: routing, batching, single-node equivalence."""

from zlib import crc32

import pytest

from repro.cluster import ClusterConfig, ClusterConnector, StoreCluster
from repro.core import SourceConfig, generate_workload_trace
from repro.core.replayer import TraceReplayer, shard_indices
from repro.kvstores import InMemoryStore, connect
from repro.kvstores.api import OP_DELETE, OP_GET, OP_MERGE, OP_PUT


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    """Socket-backed tests must fail fast, not wedge the suite."""
    hang_guard(60)


@pytest.fixture(scope="module")
def trace():
    return generate_workload_trace(
        "tumbling-incremental", [SourceConfig(num_events=2_000, seed=9)]
    )


@pytest.fixture
def cluster():
    config = ClusterConfig(partitions=3, replicas=1, ack="all")
    with StoreCluster(config) as cluster:
        yield cluster


class TestPartitioning:
    def test_matches_shard_trace_partitioner(self, trace, cluster):
        """Key routing is byte-identical to ``shard_trace``: a cluster of
        N partitions sees exactly the key sets an N-way sharded replay
        would, so sharded and clustered results are comparable."""
        with ClusterConnector(cluster) as connector:
            shards = shard_indices(trace, connector.partitions)
            unique = trace.unique_keys()
            for shard, indices in enumerate(shards):
                for index in indices[:50]:
                    key = unique[trace.key_ids[index]]
                    assert connector._partition(key) == shard
                    assert crc32(key) % connector.partitions == shard

    def test_keys_land_on_their_partition_primary(self, cluster):
        with ClusterConnector(cluster) as connector:
            keys = [b"alpha", b"bravo", b"charlie", b"delta", b"echo"]
            for key in keys:
                connector.put(key, b"v:" + key)
            for key in keys:
                partition = connector._partition(key)
                primary = connector.chain(partition)[0]
                # read the primary directly: the key must live there
                assert connector._client(primary).get(key) == b"v:" + key

    def test_roundtrip_all_ops(self, cluster):
        with ClusterConnector(cluster) as connector:
            connector.put(b"k1", b"v1")
            assert connector.get(b"k1") == b"v1"
            connector.merge(b"m", b"a")
            connector.merge(b"m", b"b")
            assert connector.get(b"m") == b"ab"
            connector.delete(b"k1")
            assert connector.get(b"k1") is None
            assert connector.get(b"never-written") is None


class TestBatchSplitting:
    def test_multi_get_reassembles_in_request_order(self, cluster):
        with ClusterConnector(cluster) as connector:
            keys = [b"k%03d" % i for i in range(40)]
            for i, key in enumerate(keys):
                connector.put(key, b"v%03d" % i)
            # interleave hits and misses so order bugs can't hide
            probe = []
            for i, key in enumerate(keys):
                probe.append(key)
                probe.append(b"miss%03d" % i)
            values = connector.multi_get(probe)
            for i in range(40):
                assert values[2 * i] == b"v%03d" % i
                assert values[2 * i + 1] is None

    def test_multi_get_touches_every_partition(self, cluster):
        with ClusterConnector(cluster) as connector:
            keys = [b"k%03d" % i for i in range(64)]
            touched = {connector._partition(k) for k in keys}
            assert touched == set(range(connector.partitions))
            assert connector.multi_get(keys) == [None] * len(keys)

    def test_apply_batch_splits_across_partitions(self, cluster):
        with ClusterConnector(cluster) as connector:
            ops = []
            for i in range(30):
                ops.append((OP_PUT, b"b%03d" % i, b"x%03d" % i))
            ops.append((OP_MERGE, b"b000", b"+tail"))
            ops.append((OP_DELETE, b"b001", b""))
            connector.apply_batch(ops)
            assert connector.get(b"b000") == b"x000+tail"
            assert connector.get(b"b001") is None
            for i in range(2, 30):
                assert connector.get(b"b%03d" % i) == b"x%03d" % i

    def test_apply_batch_is_write_only_before_sending(self):
        """A read in ``apply_batch`` raises the stores' ``ValueError``
        on the single-partition and the scatter-gather path alike, and
        no partition is sent a byte of the batch."""
        config = ClusterConfig(partitions=2, replicas=0)
        with StoreCluster(config) as cluster:
            with ClusterConnector(cluster) as connector:
                keys = [b"w%03d" % i for i in range(16)]
                by_partition = {}
                for key in keys:
                    by_partition.setdefault(connector._partition(key), key)
                assert len(by_partition) == 2
                one, other = by_partition[0], by_partition[1]
                # connect both partitions' clients before counting sends
                assert connector.multi_get([one, other]) == [None, None]
                batches = [
                    [(OP_PUT, one, b"v"), (OP_GET, one, b"")],
                    [(OP_PUT, one, b"v"), (OP_PUT, other, b"v"), (OP_GET, other, b"")],
                ]
                for batch in batches:
                    sent = sum(c.send_calls for c in connector._clients.values())
                    with pytest.raises(ValueError, match="apply_batch is write-only"):
                        connector.apply_batch(batch)
                    assert sum(
                        c.send_calls for c in connector._clients.values()
                    ) == sent
                assert connector.multi_get([one, other]) == [None, None]


class TestSingleNodeEquivalence:
    def test_replay_digest_matches_single_node(self, trace, cluster):
        """The acceptance bar for routing: a full trace replayed through
        the cluster yields byte-identical content to one local store."""
        reference = connect(InMemoryStore())
        try:
            TraceReplayer(reference, measure_latency=False).replay(trace)
            with ClusterConnector(cluster) as connector:
                TraceReplayer(connector, measure_latency=False).replay(trace)
                mismatches = sum(
                    1
                    for key in trace.unique_keys()
                    if connector.get(key) != reference.get(key)
                )
                assert mismatches == 0
        finally:
            reference.close()


class TestConnectorSurface:
    def test_endpoints_and_chains(self, cluster):
        with ClusterConnector(cluster) as connector:
            assert connector.endpoints() == sorted(cluster.names())
            for partition in range(connector.partitions):
                chain = connector.chain(partition)
                assert chain[0] == f"p{partition}r0"
                assert len(chain) == 2
            assert connector.failovers == 0
            assert connector.take_background_ns() == 0

    def test_name_carries_topology_label(self, cluster):
        with ClusterConnector(cluster) as connector:
            assert connector.name == "cluster:memory:3x2@all"

    def test_background_probe_is_a_c_call(self, cluster):
        """No store runs in the client process, so the replayer's
        per-op background probe is ``int`` itself: no Python frame."""
        with ClusterConnector(cluster) as connector:
            assert connector.take_background_ns is int
