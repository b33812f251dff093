"""Remote-protocol robustness: timeouts, error replies, drain-on-stop.

Regression tests for the hang class of bugs: before the timeout fixes,
a hung or killed :class:`StoreServer` left ``RemoteStoreClient`` (and
any replay driving it) blocked forever in its receive loop, and an
unknown opcode killed the handler without a reply, deadlocking the
client.  Every test arms the ``hang_guard`` fixture so a reintroduced
hang fails fast instead of wedging the suite.
"""

import socket
import threading
import time

import pytest

from repro.faults import RetryPolicy
from repro.kvstores import InMemoryStore
from repro.kvstores.api import OP_PUT
from repro.kvstores.remote import (
    _HEADER,
    _REPLY_HEAD,
    REPLY_BATCH,
    REPLY_ERROR,
    REPLY_MISSING,
    REPLY_OK,
    REPLY_VALUE,
    RemoteStoreClient,
    RemoteStoreError,
    StoreServer,
)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(30)


@pytest.fixture
def server():
    with StoreServer(InMemoryStore()) as srv:
        yield srv


def client_for(server, **kwargs):
    host, port = server.address
    return RemoteStoreClient(host, port, store_name="remote", **kwargs)


class TestClientTimeouts:
    def test_hung_server_raises_typed_error_within_timeout(self):
        # A listener that accepts connections but never replies -- the
        # shape of a wedged server process.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = RemoteStoreClient(host, port, timeout=0.2)
            start = time.monotonic()
            with pytest.raises(RemoteStoreError, match="timed out"):
                client.get(b"k")
            assert time.monotonic() - start < 2.0
            client.close()
        finally:
            listener.close()

    def test_connect_to_dead_address_raises_typed_error(self):
        # Bind-then-close to get a port with nothing listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        with pytest.raises(RemoteStoreError, match="cannot connect"):
            RemoteStoreClient(host, port, timeout=0.5)

    def test_server_killed_mid_session_raises_typed_error(self, server):
        client = client_for(server, timeout=0.5)
        client.put(b"k", b"v")
        server.stop()
        start = time.monotonic()
        with pytest.raises(RemoteStoreError):
            client.put(b"k2", b"v")
        assert time.monotonic() - start < 2.0
        client.close()


class TestTimeoutContract:
    @pytest.fixture
    def deaf_peer(self):
        """A listener whose accepted connection never reads a byte."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            yield listener
        finally:
            listener.close()

    def test_writes_to_a_peer_that_never_reads_time_out(self, deaf_peer):
        host, port = deaf_peer.getsockname()
        client = RemoteStoreClient(host, port, timeout=0.2)
        peer, _ = deaf_peer.accept()
        value = b"v" * (1 << 20)
        with peer:
            start = time.monotonic()
            with pytest.raises(RemoteStoreError, match="timed out"):
                for _ in range(64):
                    client.put(b"k", value)
            assert time.monotonic() - start < 2.0
            assert client._sock is None

    def test_a_send_that_never_drains_times_out(self, deaf_peer):
        """No reply is awaited here: only the send side's timeout can
        end the loop once the socket buffers are full."""
        host, port = deaf_peer.getsockname()
        client = RemoteStoreClient(host, port, timeout=0.2)
        peer, _ = deaf_peer.accept()
        items = [(OP_PUT, b"k", b"v" * (1 << 20))]
        with peer:
            start = time.monotonic()
            with pytest.raises(RemoteStoreError, match="timed out"):
                for _ in range(64):
                    client.batch_send(items)
            assert time.monotonic() - start < 2.0
            assert client._sock is None

    def test_no_timeout_client_round_trips(self, server):
        client = client_for(server, timeout=None)
        assert client._sock.gettimeout() is None
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"
        client.close()


def _scripted_server(replies):
    """A one-connection peer that answers its i-th request frame with
    the raw bytes ``replies[i]``; returns ``(address, thread)``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def recv_exact(sock, length):
        data = b""
        while len(data) < length:
            chunk = sock.recv(length - len(data))
            if not chunk:
                raise ConnectionError("client closed")
            data += chunk
        return data

    def serve():
        with listener:
            sock, _ = listener.accept()
        with sock:
            for reply in replies:
                try:
                    _opcode, key_len, value_len = _HEADER.unpack(
                        recv_exact(sock, _HEADER.size)
                    )
                    recv_exact(sock, key_len + value_len)
                except ConnectionError:
                    return
                sock.sendall(reply)
            sock.recv(1)  # hold the connection until the client hangs up

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


class TestUnexpectedReplies:
    """A sync reply the request cannot have produced breaks the framing:
    the client raises a protocol violation and drops the socket instead
    of returning a wrong answer and reading the next reply out of step."""

    @pytest.mark.parametrize(
        "reply",
        [
            _REPLY_HEAD.pack(REPLY_BATCH, 3) + b"abc",
            _REPLY_HEAD.pack(REPLY_OK, 2) + b"xx",
            _REPLY_HEAD.pack(REPLY_MISSING, 1) + b"x",
            _REPLY_HEAD.pack(9, 0),
            # one request in flight, two replies' worth of bytes
            (_REPLY_HEAD.pack(REPLY_VALUE, 2) + b"ok") * 2,
        ],
        ids=["batch", "ok-with-body", "missing-with-body", "unknown", "trailing"],
    )
    def test_protocol_violation_drops_the_socket(self, reply):
        ok = _REPLY_HEAD.pack(REPLY_VALUE, 2) + b"ok"
        (host, port), thread = _scripted_server([reply, ok])
        client = RemoteStoreClient(host, port, timeout=2.0)
        with pytest.raises(RemoteStoreError, match="protocol violation"):
            client.get(b"k")
        assert client._sock is None
        with pytest.raises(RemoteStoreError, match="is not connected to"):
            client.get(b"k")
        thread.join(timeout=5)


class TestErrorReplies:
    def test_unknown_opcode_gets_error_reply_not_silence(self, server):
        client = client_for(server)
        with pytest.raises(RemoteStoreError, match="unknown opcode 9"):
            client._request_once(9, b"", b"")
        client.close()

    def test_unknown_opcode_frame_is_reply_error(self, server):
        # Speak the wire format directly to pin down the reply byte.
        host, port = server.address
        with socket.create_connection((host, port), timeout=2.0) as sock:
            sock.settimeout(2.0)
            sock.sendall(bytes([200]) + (0).to_bytes(4, "little") * 2)
            status = sock.recv(1)
            assert status == bytes([REPLY_ERROR])

    def test_store_exception_reported_and_connection_survives(self):
        class ExplodingStore(InMemoryStore):
            def merge(self, key, operand):
                raise RuntimeError("merge operator exploded")

        with StoreServer(ExplodingStore()) as server:
            client = client_for(server)
            with pytest.raises(RemoteStoreError, match="merge operator exploded"):
                client.merge(b"k", b"v")
            # Same connection keeps serving after the error reply.
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
            client.close()


class TestRetryPolicy:
    def test_reconnects_through_a_dropped_socket(self, server):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        client = client_for(server, timeout=2.0, retry_policy=policy)
        client.put(b"k", b"v")
        client._sock.close()  # simulate a transient network failure
        assert client.get(b"k") == b"v"
        assert client.reconnects == 1
        client.close()

    def test_gives_up_with_typed_error_when_server_stays_dead(self):
        server = StoreServer(InMemoryStore()).start()
        host, port = server.address
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        client = RemoteStoreClient(host, port, timeout=0.3, retry_policy=policy)
        client.put(b"k", b"v")
        server.stop()
        with pytest.raises(RemoteStoreError):
            client.put(b"k2", b"v")
        client.close()


class TestDrainOnStop:
    def test_stop_waits_for_inflight_operation(self):
        class StrictStore(InMemoryStore):
            """Fails loudly if an operation overlaps ``close()``."""

            completed_puts = 0

            def put(self, key, value):
                assert not self.closed, "put started after close"
                time.sleep(0.25)
                assert not self.closed, "store closed mid-operation"
                super().put(key, value)
                self.completed_puts += 1

        store = StrictStore()
        server = StoreServer(store).start()
        client = client_for(server, timeout=5.0)
        errors = []

        def slow_put():
            try:
                client.put(b"k", b"v")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=slow_put)
        worker.start()
        time.sleep(0.05)  # let the put reach the server
        server.stop()
        worker.join()
        assert errors == []
        assert store.completed_puts == 1
        assert store.closed
        client.close()

    def test_requests_after_shutdown_are_refused_not_hung(self, server):
        client = client_for(server, timeout=1.0)
        client.put(b"k", b"v")
        server.stop()
        with pytest.raises(RemoteStoreError):
            client.get(b"k")


class TestReplayTermination:
    def test_replay_against_killed_server_terminates_with_typed_error(self):
        """Acceptance criterion: a replay whose server dies mid-run must
        stop within the configured timeout with a typed error, not hang."""
        from repro.core import SourceConfig, TraceReplayer, generate_workload_trace

        trace = generate_workload_trace(
            "continuous-aggregation", [SourceConfig(num_events=400)]
        )
        server = StoreServer(InMemoryStore()).start()
        host, port = server.address
        client = RemoteStoreClient(host, port, timeout=0.5)
        replayer = TraceReplayer(client)
        replayer.replay(trace[: len(trace) // 2])
        server.stop()
        start = time.monotonic()
        with pytest.raises(RemoteStoreError):
            replayer.replay(trace[len(trace) // 2 :])
        assert time.monotonic() - start < 5.0
        client.close()
