"""The cluster connector's one scatter-gather: ``multi_get``,
``apply_batch`` and a pipelined window each cost one ``OP_BATCH`` send
per touched partition, and a store-level rejection on one partition is
replayed alone while the other partitions' members apply exactly once."""

import pytest

from repro.cluster import ClusterConfig, ClusterConnector, StoreCluster
from repro.kvstores.api import KVStoreError, OP_GET, OP_MERGE
from repro.kvstores.remote import RemoteStoreError


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(60)


@pytest.fixture
def cluster():
    with StoreCluster(ClusterConfig(partitions=3, replicas=0)) as cluster:
        yield cluster


def keys_on(conn, partitions, per_partition=3):
    """``per_partition`` keys on each of ``partitions``, interleaved."""
    chosen = {p: [] for p in partitions}
    i = 0
    while any(len(ks) < per_partition for ks in chosen.values()):
        key = b"key%05d" % i
        bucket = chosen.get(conn._partition(key))
        if bucket is not None and len(bucket) < per_partition:
            bucket.append(key)
        i += 1
    return [k for group in zip(*chosen.values()) for k in group]


def send_calls(conn):
    return {p: conn._client(conn.chain(p)[0]).send_calls for p in range(conn.partitions)}


def reject_writes_on(cluster, conn, partition):
    """Make the partition's primary store reject every write batch."""
    store = cluster.node(conn.chain(partition)[0]).server.store

    def apply_batch(ops):
        raise KVStoreError("poisoned partition")

    store.apply_batch = apply_batch


@pytest.mark.parametrize("touched", [(1,), (0, 1, 2)])
@pytest.mark.parametrize("mode", ["multi_get", "apply_batch", "window"])
def test_one_send_per_touched_partition(cluster, mode, touched):
    with ClusterConnector(cluster) as conn:
        keys = keys_on(conn, touched)
        before = send_calls(conn)
        if mode == "multi_get":
            assert conn.multi_get(keys) == [None] * len(keys)
        elif mode == "apply_batch":
            conn.apply_batch([(OP_MERGE, key, b"x") for key in keys])
        else:
            session = conn.pipeline(len(keys), lambda *a: None)
            for key in keys:
                session.submit(OP_MERGE, key, b"x", 0)
            assert session.pending == 0 and session.flushes == 1
        after = send_calls(conn)
        assert {p: after[p] - before[p] for p in after} == {
            p: int(p in touched) for p in range(conn.partitions)
        }


@pytest.mark.parametrize("mode", ["apply_batch", "window"])
def test_rejection_on_one_partition_replays_it_alone(cluster, mode):
    with ClusterConnector(cluster) as conn:
        keys = keys_on(conn, (0, 1, 2))
        reject_writes_on(cluster, conn, 1)
        ops = [(OP_MERGE, key, b"x") for key in keys]
        with pytest.raises(RemoteStoreError, match=r"^partition 1 unavailable"):
            if mode == "apply_batch":
                conn.apply_batch(ops)
            else:
                session = conn.pipeline(len(ops), lambda *a: None)
                for opcode, key, value in ops:
                    session.submit(opcode, key, value, 0)
        # every other partition's member applied exactly once, and each
        # connection still answers its own requests
        values = conn.multi_get(keys)
        for key, value in zip(keys, values):
            assert value == (None if conn._partition(key) == 1 else b"x")


def test_window_completes_in_submit_order(cluster):
    with ClusterConnector(cluster) as conn:
        keys = keys_on(conn, (0, 1, 2))
        conn.apply_batch([(OP_MERGE, key, key) for key in keys])
        done = []
        session = conn.pipeline(len(keys), lambda *c: done.append((c[1], c[3])))
        for i, key in enumerate(keys):
            session.submit(OP_GET, key, b"", i)
        assert done == list(enumerate(keys))
        assert len({conn._partition(key) for key in keys[:3]}) == 3
