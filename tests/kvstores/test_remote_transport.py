"""Typed transport errors on every client receive path.

A peer that never answers surfaces as ``timed out``, a peer that closes
as ``lost connection``; either way the client drops its socket, so the
next call (or a retry policy) starts from a clean reconnect.  Every
entry point of a client whose socket is gone raises ``is not connected
to`` instead of touching a dead file descriptor.
"""

import socket

import pytest

from repro.kvstores.api import OP_GET, OP_PUT
from repro.kvstores.remote import RemoteStoreClient, RemoteStoreError


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(30)


@pytest.fixture
def listener():
    """A bare listening socket: connections complete, nothing answers."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(4)
    try:
        yield sock
    finally:
        sock.close()


def connect(listener):
    host, port = listener.getsockname()
    client = RemoteStoreClient(host, port, timeout=0.2)
    peer, _ = listener.accept()
    return client, peer


def sync_get(client):
    client.get(b"k")


def batch_round_trip(client):
    client.batch_send([(OP_GET, b"k", b"")])
    client.batch_recv(1)


def pipelined_drain(client):
    session = client.pipeline(4, lambda *completion: None)
    session.submit(OP_PUT, b"k", b"v", 0)
    session.drain()


RECEIVE_PATHS = {
    "sync": sync_get,
    "batch": batch_round_trip,
    "pipelined": pipelined_drain,
}


@pytest.mark.parametrize("path", sorted(RECEIVE_PATHS))
def test_silent_peer_times_out(listener, path):
    client, peer = connect(listener)
    with peer:
        with pytest.raises(RemoteStoreError, match="timed out"):
            RECEIVE_PATHS[path](client)
        assert client._sock is None


@pytest.mark.parametrize("path", sorted(RECEIVE_PATHS))
def test_closing_peer_is_lost_connection(listener, path):
    client, peer = connect(listener)
    peer.close()
    with pytest.raises(RemoteStoreError, match="lost connection"):
        RECEIVE_PATHS[path](client)
    assert client._sock is None


ENTRY_POINTS = {
    "request": lambda client: client._request_raw(OP_GET, b"k", b""),
    "batch_send": lambda client: client.batch_send([(OP_GET, b"k", b"")]),
    "batch_recv": lambda client: client.batch_recv(1),
    "send_staged": lambda client: client.pipeline(4, None)._send_staged(),
    "recv_some": lambda client: client.pipeline(4, None)._recv_some(),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_dropped_socket_is_not_connected(listener, entry):
    client, peer = connect(listener)
    with peer:
        client._drop_socket()
        with pytest.raises(RemoteStoreError, match="is not connected to"):
            ENTRY_POINTS[entry](client)
        assert client._sock is None
