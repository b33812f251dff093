"""Pipelined remote I/O: bounded in-flight windows, FIFO reply
correlation, drain-on-error recovery, allocation-free framing, and
TCP_NODELAY on every data-path socket."""

import gc
import socket
import sys

import pytest

from repro.faults import RetryPolicy
from repro.kvstores import InMemoryStore, connect
from repro.kvstores.api import OP_DELETE, OP_GET, OP_MERGE, OP_PUT
from repro.kvstores.remote import (
    RemoteStoreClient,
    RemoteStoreError,
    StoreServer,
    _frame_op_into,
    _recv_into_exact,
)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    """A reintroduced pipeline deadlock should fail fast, not wedge."""
    hang_guard(60)


@pytest.fixture
def server():
    with StoreServer(InMemoryStore()) as srv:
        yield srv


def client_for(server, **kwargs):
    host, port = server.address
    return RemoteStoreClient(host, port, **kwargs)


class Collector:
    """Completion sink that records (opcode, arrival, complete, value)."""

    def __init__(self):
        self.completions = []

    def __call__(self, opcode, arrival_ns, complete_ns, value):
        self.completions.append((opcode, arrival_ns, complete_ns, value))

    @property
    def values(self):
        return [value for _, _, _, value in self.completions]


class TestWindow:
    def test_pipelined_writes_match_sync_and_coalesce(self, server):
        local = connect(InMemoryStore())
        with client_for(server) as client:
            sink = Collector()
            session = client.pipeline(8, sink)
            for i in range(100):
                key = b"k%03d" % (i % 25)
                if i % 10 == 9:
                    session.submit(OP_DELETE, key, b"", 0)
                    local.delete(key)
                elif i % 3 == 0:
                    session.submit(OP_MERGE, key, b"m%d" % i, 0)
                    local.merge(key, b"m%d" % i)
                else:
                    session.submit(OP_PUT, key, b"v%d" % i, 0)
                    local.put(key, b"v%d" % i)
            session.drain()
            assert len(sink.completions) == 100
            assert session.pending == 0
            keys = [b"k%03d" % i for i in range(25)]
            assert client.multi_get(keys) == [local.get(key) for key in keys]
            # the mechanism: 100 ops left in far fewer sendall bursts
            assert session.flushes < 30
            assert session.coalesced_ops == 100
            assert client.pipeline_flushes == session.flushes
            assert client.flush_coalesced_ops == 100
        local.close()

    def test_fifo_get_values_correlate_positionally(self, server):
        """Reply correlation is positional: interleaved puts and gets
        complete with exactly the value the op would have seen in
        program order -- no IDs on the wire."""
        expected = []
        shadow = {}
        with client_for(server) as client:
            sink = Collector()
            session = client.pipeline(16, sink)
            for i in range(200):
                key = b"k%02d" % (i % 7)
                if i % 2:
                    session.submit(OP_GET, key, b"", 0)
                    expected.append(shadow.get(key))
                else:
                    value = b"v%03d" % i
                    session.submit(OP_PUT, key, value, 0)
                    shadow[key] = value
                    expected.append(None)  # OK replies carry no value
            session.drain()
            assert sink.values == expected

    def test_window_never_exceeds_depth(self, server):
        with client_for(server) as client:
            session = client.pipeline(8, Collector())
            for _ in range(7):
                session.submit(OP_PUT, b"k", b"v", 0)
                assert session.pending <= 8
            assert session.flushes == 0  # window not yet full
            session.submit(OP_PUT, b"k", b"v", 0)
            # full window: flushed, then drained to depth//2 so reply
            # reads overlap the next burst's framing
            assert session.flushes >= 1
            assert session.pending <= 4
            session.drain()

    def test_latency_spans_submit_to_reply(self, server):
        """arrival_ns is the caller's stamp and complete_ns is taken at
        reply parse, so window queueing time is inside the interval."""
        import time

        with client_for(server) as client:
            sink = Collector()
            session = client.pipeline(4, sink)
            stamps = []
            for i in range(20):
                stamp = time.perf_counter_ns()
                stamps.append(stamp)
                session.submit(OP_PUT, b"k%d" % i, b"v", stamp)
            session.drain()
            arrivals = [arrival for _, arrival, _, _ in sink.completions]
            assert arrivals == stamps  # FIFO: completions in submit order
            assert all(
                complete >= arrival
                for _, arrival, complete, _ in sink.completions
            )


class TestRecovery:
    def test_killed_server_aborts_window_and_retry_resends(self):
        """A transport death mid-window re-queues every un-acked op;
        the retry policy reconnects and re-sends them, so the drain
        completes with every op landed (at-least-once)."""
        server = StoreServer(InMemoryStore()).start()
        port = server.port
        client = client_for(server, retry_policy=RetryPolicy(
            max_attempts=8, base_delay_s=0.05, jitter=0.0
        ))
        try:
            sink = Collector()
            session = client.pipeline(8, sink)
            for i in range(20):
                session.submit(OP_PUT, b"k%02d" % i, b"v%02d" % i, 0)
            session.drain()  # window empty: everything below is un-acked
            server.kill()
            fresh = InMemoryStore()  # a restarted process starts empty
            replacement = StoreServer(fresh, port=port).start()
            try:
                for i in range(20, 40):
                    session.submit(OP_PUT, b"k%02d" % i, b"v%02d" % i, 0)
                session.drain()
                assert len(sink.completions) >= 40  # re-sends may re-ack
                assert client.reconnects >= 1
                assert session.aborted_windows >= 1
                # every op of the aborted window was re-sent and landed
                for i in range(20, 40):
                    assert fresh.get(b"k%02d" % i) == b"v%02d" % i
            finally:
                replacement.stop()
        finally:
            client.close()
            server.stop()

    def test_unrecoverable_death_raises_typed_error(self):
        server = StoreServer(InMemoryStore()).start()
        client = client_for(server, retry_policy=RetryPolicy(
            max_attempts=2, base_delay_s=0.0, jitter=0.0
        ))
        try:
            session = client.pipeline(4, Collector())
            session.submit(OP_PUT, b"k", b"v", 0)
            session.drain()
            server.kill()
            with pytest.raises(RemoteStoreError):
                for i in range(50):
                    session.submit(OP_PUT, b"k%d" % i, b"v", 0)
                session.drain()
        finally:
            client.close()
            server.stop()


class _PoisonStore(InMemoryStore):
    POISON = b"poison"

    def put(self, key, value):
        if key == self.POISON:
            raise RuntimeError("poisoned key")
        super().put(key, value)


class TestStoreErrors:
    def test_reply_error_raises_and_is_not_resent(self):
        """REPLY_ERROR is not a transport failure: the op completes
        exceptionally and is never re-sent, and the connection (and the
        rest of the window) survives."""
        with StoreServer(_PoisonStore()) as server:
            with client_for(server, retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, jitter=0.0
            )) as client:
                session = client.pipeline(4, Collector())
                session.submit(OP_PUT, b"good", b"1", 0)
                session.submit(OP_PUT, _PoisonStore.POISON, b"2", 0)
                with pytest.raises(RemoteStoreError, match="poisoned"):
                    session.drain()
                assert client.reconnects == 0  # rejected, not re-sent
                assert client.get(b"good") == b"1"
                assert client.get(_PoisonStore.POISON) is None


class _ScriptedSocket:
    """Socket fed from a preset byte string; sends are counted and
    dropped."""

    def __init__(self, payload):
        self._payload = payload
        self._pos = 0
        self.sent_bytes = 0

    def rewind(self):
        self._pos = 0

    def recv_into(self, buf):
        n = min(len(buf), len(self._payload) - self._pos)
        buf[:n] = self._payload[self._pos : self._pos + n]
        self._pos += n
        return n

    def sendall(self, data):
        self.sent_bytes += len(data)


class TestAllocationFree:
    def _steady_state_blocks(self, step, warmup=50, iterations=2000):
        """Net allocated-block growth across ``iterations`` calls of
        ``step`` after a warmup (buffers grown, caches primed)."""
        for _ in range(warmup):
            step()
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(iterations):
                step()
            after = sys.getallocatedblocks()
        finally:
            gc.enable()
        return after - before

    def test_recv_into_exact_is_allocation_free(self):
        sock = _ScriptedSocket(b"x" * 64)
        buf = bytearray(64)

        def step():
            sock.rewind()
            _recv_into_exact(sock, buf, 64)

        # zero heap churn per call once warm; the bound leaves room for
        # interpreter-internal noise only
        assert self._steady_state_blocks(step) < 50

    def test_frame_op_into_is_allocation_free(self):
        buf = bytearray(4096)
        key, value = b"key%06d" % 7, b"v" * 64

        def step():
            _frame_op_into(buf, 0, OP_PUT, key, value)

        assert self._steady_state_blocks(step) < 50

    def test_send_staged_bursts_leave_nothing_behind(self, server):
        """A burst's joined ``bytes`` and its parts are freed once sent:
        2,000 bursts grow the heap by no more than interpreter noise."""
        with client_for(server) as client:
            real = client._sock
            sock = client._sock = _ScriptedSocket(b"")
            try:
                session = client.pipeline(16, Collector())
                burst = [
                    (OP_PUT if i % 2 else OP_MERGE, b"key%06d" % i, b"v" * 64, 0)
                    for i in range(8)
                ]

                def step():
                    session._staged.extend(burst)
                    session._send_staged()
                    session._inflight.clear()

                assert self._steady_state_blocks(step) < 50
                # warmup + measured bursts, each 8 x (header + key + value)
                assert sock.sent_bytes == (50 + 2000) * 8 * (9 + 9 + 64)
            finally:
                client._sock = real


class TestNoDelay:
    def _nodelay(self, sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_client_socket_sets_nodelay(self, server):
        with client_for(server) as client:
            assert self._nodelay(client._sock)

    def test_server_accepted_sockets_set_nodelay(self, server):
        with client_for(server) as client:
            client.put(b"k", b"v")  # guarantees the accept completed
            conns = list(server._connections)
            assert conns, "server accepted no connection"
            assert all(self._nodelay(sock) for sock in conns)

    def test_replication_link_socket_sets_nodelay(self, server):
        with StoreServer(InMemoryStore()) as downstream:
            with client_for(server) as client:
                client.admin(
                    "configure",
                    {"downstream": list(downstream.address), "sync": True},
                )
                client.put(b"k", b"v")  # traverses the link
                link = server._replication
                assert link is not None
                assert self._nodelay(link._sock)
