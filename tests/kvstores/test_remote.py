"""Tests for external state management (store server + remote client)."""

import select
import socket
import threading
import time

import pytest

from repro.kvstores import InMemoryStore, create_store
from repro.kvstores.api import OP_GET, OP_PUT
from repro.kvstores.remote import (
    _HEADER,
    _REPLY_HEAD,
    REPLY_OK,
    REPLY_VALUE,
    RemoteStoreClient,
    StoreServer,
)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    """A reintroduced protocol hang should fail fast, not wedge the suite."""
    hang_guard(60)


@pytest.fixture
def server():
    with StoreServer(create_store("rocksdb")) as srv:
        yield srv


def client_for(server):
    host, port = server.address
    return RemoteStoreClient(host, port, store_name=server.store.name)


class TestRemoteOperations:
    def test_put_get_roundtrip(self, server):
        with client_for(server) as client:
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"

    def test_get_missing(self, server):
        with client_for(server) as client:
            assert client.get(b"missing") is None

    def test_empty_value(self, server):
        with client_for(server) as client:
            client.put(b"k", b"")
            assert client.get(b"k") == b""

    def test_merge_over_the_wire(self, server):
        with client_for(server) as client:
            client.merge(b"k", b"a")
            client.merge(b"k", b"b")
            assert client.get(b"k") == b"ab"

    def test_delete(self, server):
        with client_for(server) as client:
            client.put(b"k", b"v")
            client.delete(b"k")
            assert client.get(b"k") is None

    def test_large_values(self, server):
        payload = bytes(range(256)) * 512  # 128 KB
        with client_for(server) as client:
            client.put(b"big", payload)
            assert client.get(b"big") == payload

    def test_sequential_consistency_per_client(self, server):
        with client_for(server) as client:
            for i in range(300):
                client.put(f"k{i % 10}".encode(), f"v{i}".encode())
            for i in range(290, 300):
                assert client.get(f"k{i % 10}".encode()) == f"v{i}".encode()


class TestMultipleClients:
    def test_two_clients_share_state(self, server):
        with client_for(server) as a, client_for(server) as b:
            a.put(b"k", b"from-a")
            assert b.get(b"k") == b"from-a"

    def test_concurrent_disjoint_writers(self, server):
        """The dataflow model's per-key single-writer setting: tasks on
        disjoint key ranges may share an external store."""
        errors = []

        def worker(prefix):
            try:
                with client_for(server) as client:
                    for i in range(200):
                        key = f"{prefix}-{i}".encode()
                        client.put(key, key)
                    for i in range(200):
                        key = f"{prefix}-{i}".encode()
                        assert client.get(key) == key
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(p,)) for p in ("a", "b", "c")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestReplayerIntegration:
    def test_trace_replay_against_remote_store(self):
        from repro.core import SourceConfig, TraceReplayer, generate_workload_trace

        trace = generate_workload_trace(
            "continuous-aggregation", [SourceConfig(num_events=300)]
        )
        with StoreServer(InMemoryStore()) as server:
            with client_for(server) as client:
                result = TraceReplayer(client).replay(trace)
        assert result.operations == len(trace)
        assert result.throughput_ops > 0

    def test_remote_slower_than_embedded(self):
        """The external-state overhead: every access pays the IPC hop."""
        from repro.core import SourceConfig, TraceReplayer, generate_workload_trace
        from repro.kvstores import connect

        trace = generate_workload_trace(
            "continuous-aggregation", [SourceConfig(num_events=500)]
        )
        embedded = TraceReplayer(connect(InMemoryStore())).replay(trace)
        with StoreServer(InMemoryStore()) as server:
            with client_for(server) as client:
                remote = TraceReplayer(client).replay(trace)
        assert remote.throughput_ops < embedded.throughput_ops


class _ModifySpy:
    """Records the poll mask of every interest change the server loop
    makes (all go through ``StoreServer._interest``), then forwards the
    call."""

    def __init__(self, server):
        self.events = []
        self._interest = server._interest
        server._interest = self

    def __call__(self, conn, events):
        self.events.append(events)
        return self._interest(conn, events)


def _recv_exact(sock, length):
    """Read exactly ``length`` bytes from a raw socket."""
    data = bytearray()
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        assert chunk, "peer closed the connection"
        data += chunk
    return bytes(data)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestInterestSet:
    """The server touches a connection's poll interest only when it
    changes: a reply flushed in full never re-arms ``POLLOUT``."""

    def test_fully_flushed_replies_leave_the_selector_alone(self):
        with StoreServer(InMemoryStore()) as server:
            with client_for(server) as client:
                client.put(b"k", b"v")
                spy = _ModifySpy(server)
                for _ in range(1000):
                    assert client.get(b"k") == b"v"
                assert spy.events == []

    def test_backpressure_delivers_every_reply_in_order(self):
        """A reader that stops reading forces ``POLLOUT`` interest;
        once it reads again every reply arrives, in request order, and
        the connection is back to read-only interest."""
        values = [bytes([i]) * (256 * 1024) for i in range(4)]
        with StoreServer(InMemoryStore()) as server:
            with client_for(server) as client:
                for i, value in enumerate(values):
                    client.put(b"big%d" % i, value)
            spy = _ModifySpy(server)
            with socket.socket() as raw:
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16 * 1024)
                raw.connect(server.address)
                raw.settimeout(5.0)
                gets = 0
                while not any(e & select.POLLOUT for e in spy.events):
                    assert gets < 200, "server never had to wait to write"
                    raw.sendall(_HEADER.pack(OP_GET, 4, 0) + b"big%d" % (gets % 4))
                    gets += 1
                    time.sleep(0.002)
                for i in range(gets):
                    status, length = _REPLY_HEAD.unpack(
                        _recv_exact(raw, _REPLY_HEAD.size)
                    )
                    assert (status, length) == (REPLY_VALUE, len(values[i % 4]))
                    assert _recv_exact(raw, length) == values[i % 4]
                (conn,) = list(server._connections.values())
                _wait_until(lambda: not conn.writing)
                assert spy.events[-1] == select.POLLIN
                # the connection keeps serving
                raw.sendall(_HEADER.pack(OP_GET, 4, 0) + b"big1")
                head = _recv_exact(raw, _REPLY_HEAD.size)
                assert _REPLY_HEAD.unpack(head) == (REPLY_VALUE, len(values[1]))
                assert _recv_exact(raw, len(values[1])) == values[1]


class TestServerParse:
    """The server parses each received chunk where it landed and stages
    only an incomplete tail, so frames split anywhere across sends are
    answered once, in order."""

    def _exchange(self, server, pieces, replies):
        with socket.socket() as raw:
            raw.connect(server.address)
            raw.settimeout(5.0)
            for piece in pieces:
                raw.sendall(piece)
                time.sleep(0.02)  # each piece arrives as its own recv
            got = [_recv_exact(raw, len(reply)) for reply in replies]
            raw.settimeout(0.1)
            with pytest.raises(socket.timeout):
                raw.recv(1)  # nothing beyond the expected replies
        return got

    def test_complete_frame_then_a_split_one(self):
        get_k = _HEADER.pack(OP_GET, 1, 0) + b"k"
        reply = _REPLY_HEAD.pack(REPLY_VALUE, 1) + b"v"
        with StoreServer(InMemoryStore()) as server:
            with client_for(server) as client:
                client.put(b"k", b"v")
            for cut in range(1, len(get_k)):
                pieces = [get_k + get_k[:cut], get_k[cut:]]
                assert self._exchange(server, pieces, [reply, reply]) == [reply] * 2

    def test_large_value_across_many_recvs(self):
        value = bytes(range(256)) * 1024  # 256 KiB: several server recvs
        put = _HEADER.pack(OP_PUT, 3, len(value)) + b"big" + value
        get_big = _HEADER.pack(OP_GET, 3, 0) + b"big"
        with StoreServer(InMemoryStore()) as server:
            ok = _REPLY_HEAD.pack(REPLY_OK, 0)
            found = _REPLY_HEAD.pack(REPLY_VALUE, len(value)) + value
            pieces = [put[:1000], put[1000:] + get_big]
            assert self._exchange(server, pieces, [ok, found]) == [ok, found]
