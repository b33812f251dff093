"""Syscalls per synchronous remote op: one ``sendall`` and one ``recv_into``.

The client reads each reply with one ``recv_into`` into its reusable
buffer and parses the header where it landed, so a sync op costs
exactly one send and one receive whatever its reply carries: a value,
nothing, or an error message.  Only a reply larger than the buffer
needs more receives.  The client's ``send_calls``/``recv_calls``
counters are checked against the calls its socket actually saw.
"""

from collections import Counter

import pytest

from repro.kvstores import InMemoryStore
from repro.kvstores.api import OP_GET, OP_PUT
from repro.kvstores.remote import RemoteStoreClient, RemoteStoreError, StoreServer


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(30)


class _RejectingStore(InMemoryStore):
    def merge(self, key, operand):
        if key == b"bad":
            raise RuntimeError("merge rejected")
        super().merge(key, operand)


class _CountingSocket:
    """Delegates to a real socket, counting its data-path calls."""

    def __init__(self, sock):
        self._sock = sock
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._sock, name)
        if name not in ("send", "sendall", "recv", "recv_into"):
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


@pytest.fixture
def client():
    with StoreServer(_RejectingStore()) as server:
        host, port = server.address
        with RemoteStoreClient(host, port) as client:
            client._sock = _CountingSocket(client._sock)
            client.put(b"hit", b"value")
            yield client


def _deltas(client, op):
    """(sends, recvs) one call of ``op`` adds, by the client's counters
    and by the socket's own count, which must agree."""
    sock = client._sock
    sends, recvs = client.send_calls, client.recv_calls
    before = Counter(sock.calls)
    op(client)
    seen = sock.calls - before
    counted = (client.send_calls - sends, client.recv_calls - recvs)
    assert counted == (seen["send"] + seen["sendall"], seen["recv"] + seen["recv_into"])
    return counted


def _reject(client):
    with pytest.raises(RemoteStoreError, match="merge rejected"):
        client.merge(b"bad", b"x")


SYNC_OPS = {
    "get_hit": lambda client: client.get(b"hit"),
    "get_miss": lambda client: client.get(b"absent"),
    "put": lambda client: client.put(b"k", b"v" * 100),
    "merge": lambda client: client.merge(b"k", b"w"),
    "delete": lambda client: client.delete(b"k"),
    "error_reply": _reject,
}


@pytest.mark.parametrize("op", sorted(SYNC_OPS))
def test_sync_op_is_one_send_and_one_recv(client, op):
    for _ in range(20):
        assert _deltas(client, SYNC_OPS[op]) == (1, 1)


def test_batch_round_trip_is_one_send_and_one_recv(client):
    writes = [(OP_PUT, b"key%02d" % i, b"v" * i) for i in range(16)]
    reads = [(OP_GET, b"key%02d" % i, b"") for i in range(16)]
    replies = {}

    def round_trip(items):
        def run(client):
            client.batch_send(items)
            replies[items[0][0]] = client.batch_recv(16)

        return run

    assert _deltas(client, round_trip(writes)) == (1, 1)
    assert replies[OP_PUT] == []  # every write acked OK
    assert _deltas(client, round_trip(reads)) == (1, 1)
    assert [data for _status, data in replies[OP_GET]] == [b"v" * i for i in range(16)]


def test_value_larger_than_the_reply_buffer_round_trips(client):
    value = bytes(range(256)) * 1024  # 256 KiB
    client.put(b"big", value)
    got = []
    _sends, recvs = _deltas(client, lambda client: got.append(client.get(b"big")))
    assert got == [value]
    assert recvs >= 2
    # the connection is still in frame after the multi-receive reply
    assert client.get(b"hit") == b"value"


@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 6, (1 << 16) - 5, 1 << 16, 1 << 17])
def test_values_around_the_buffer_size_round_trip(client, size):
    value = bytes(i % 251 for i in range(size))
    client.put(b"sized", value)
    assert client.get(b"sized") == value
    assert client.get(b"hit") == b"value"
