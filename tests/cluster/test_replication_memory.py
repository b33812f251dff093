"""An async replication link reads its acks without a per-read buffer.

Under ``ack="none"`` the primary forwards each write fire-and-forget
and its event loop drains the replica's acks as they arrive.  The link
reads them with ``recv_into`` its own ack buffer and copies out only
the bytes received.  A ``recv(1 << 16)`` per readable event would
allocate a 64 KiB bytes object each time, so ``tracemalloc``'s peak
over a write run would reach one such buffer.  This test fails by
design on the link that drained with ``recv(1 << 16)``: its peak there
was 72,694 B, against 7,764 B with ``recv_into``.
"""

import tracemalloc

import pytest

from repro.cluster import ClusterConfig, ClusterConnector, StoreCluster

READ_BUFFER = 1 << 16


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(60)


def test_async_ack_drain_peak_below_one_read_buffer():
    # a small key set, overwritten: the store's own footprint stays flat
    writes = [(b"key%02d" % (i % 32), b"v" * 64) for i in range(2000)]
    config = ClusterConfig(partitions=1, replicas=1, ack="none")
    with StoreCluster(config) as cluster:
        with ClusterConnector(cluster) as conn:
            for key, value in writes:  # warm every buffer and key
                conn.put(key, value)
            tracemalloc.start()
            try:
                for key, value in writes:
                    conn.put(key, value)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            primary = conn.chain(0)[0]
            assert cluster.replication_stats(primary)["ops_sent"] == 2 * len(writes)
    assert peak < READ_BUFFER
