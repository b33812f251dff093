"""Wire-format goldens for the remote store protocol.

The bytes the client puts on the socket (a per-op frame, an
``OP_BATCH`` frame, an ``OP_ADMIN`` frame, a pipelined burst) and the
reply stream the server answers one fixed session with are pinned as
hex, so a refactor of the framing code cannot change what goes over
the wire.  Also pins the two hostile-input rules: a batch member with
an unknown opcode gets a per-op ``REPLY_ERROR`` and the connection keeps
serving; an unknown top-level opcode gets ``REPLY_ERROR`` and then the
connection closes.
"""

import contextlib
import socket
import struct

import pytest

from repro.kvstores import InMemoryStore
from repro.kvstores.api import OP_DELETE, OP_GET, OP_MERGE, OP_PUT
from repro.kvstores.remote import (
    OP_ADMIN,
    OP_BATCH,
    REPLY_ERROR,
    REPLY_OK,
    REPLY_VALUE,
    RemoteStoreClient,
    StoreServer,
)

#: request frame header: opcode, key length, value length
REQUEST = struct.Struct("<BII")
#: reply frame header: status, body length
REPLY = struct.Struct("<BI")

PER_OP_FRAME = (
    "0204000000090000006b0065796f706572616e642dff"
)
BATCH_FRAME = (
    "05040000002e0000000101000000010000006131000200000000000000626202"
    "0100000002000000612b32030300000000000000636363"
)
ADMIN_FRAME = (
    "060900000022000000636f6e6669677572657b22646f776e73747265616d223a"
    "206e756c6c2c202273796e63223a20747275657d"
)
PIPELINED_BURST = (
    "0102000000020000007031763103020000000000000070320202000000010000"
    "0070316d"
)
REPLY_STREAM = (
    "000000000002000000000102000000763102000000000200000000040f000000"
    "020000000002000000000200000000042b000000020000000001010000003303"
    "16000000756e6b6e6f776e206261746368206f70636f64652039000000000001"
    "a20000007b2270656572223a206e756c6c2c202273796e63223a2066616c7365"
    "2c20226f70735f73656e74223a20302c20226f70735f61636b6564223a20302c"
    "202270656e64696e67223a20302c20226572726f7273223a20302c202262726f"
    "6b656e223a2066616c73652c20226c61675f6d735f6c617374223a20302e302c"
    "20226c61675f6d735f6d6178223a20302e302c20226c61675f6d735f61766722"
    "3a20302e307d"
)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(30)


@contextlib.contextmanager
def captured_client():
    """A client connected to a bare listener.  The caller holds the
    server end of the socket: it scripts the replies and reads the
    client's bytes verbatim."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    try:
        client = RemoteStoreClient(host, port, timeout=2.0)
        peer, _ = listener.accept()
        with peer:
            peer.settimeout(2.0)
            yield client, peer
            client._drop_socket()
    finally:
        listener.close()


def read_to_eof(client, peer):
    """Everything the client sent: close its end, drain ours."""
    client._drop_socket()
    data = bytearray()
    while True:
        chunk = peer.recv(4096)
        if not chunk:
            return bytes(data)
        data += chunk


def per_op_frame():
    with captured_client() as (client, peer):
        peer.sendall(REPLY.pack(REPLY_OK, 0))
        client.merge(b"k\x00ey", b"operand-\xff")
        return read_to_eof(client, peer)


def batch_frame():
    with captured_client() as (client, peer):
        client.batch_send(
            [
                (OP_PUT, b"a", b"1"),
                (OP_GET, b"bb", b""),
                (OP_MERGE, b"a", b"+2"),
                (OP_DELETE, b"ccc", b""),
            ]
        )
        return read_to_eof(client, peer)


def admin_frame():
    with captured_client() as (client, peer):
        body = b'{"ok": true}'
        peer.sendall(REPLY.pack(REPLY_VALUE, len(body)) + body)
        assert client.admin_json("configure", {"downstream": None, "sync": True}) == {
            "ok": True
        }
        return read_to_eof(client, peer)


def pipelined_burst():
    with captured_client() as (client, peer):
        peer.sendall(REPLY.pack(REPLY_OK, 0) * 3)
        session = client.pipeline(8, lambda *completion: None)
        session.submit(OP_PUT, b"p1", b"v1", 0)
        session.submit(OP_DELETE, b"p2", b"", 0)
        session.submit(OP_MERGE, b"p1", b"m", 0)
        session.drain()
        assert session.flushes == 1
        return read_to_eof(client, peer)


def request(opcode, key=b"", value=b""):
    return REQUEST.pack(opcode, len(key), len(value)) + key + value


def batch_request(items):
    payload = b"".join(request(*item) for item in items)
    return REQUEST.pack(OP_BATCH, len(items), len(payload)) + payload


#: one session: get-miss, put, get-hit, merge, delete, an all-OK batch,
#: a mixed batch whose third member carries unknown opcode 9, ``stats``
SESSION = [
    request(OP_GET, b"k1"),
    request(OP_PUT, b"k1", b"v1"),
    request(OP_GET, b"k1"),
    request(OP_MERGE, b"k1", b"+m"),
    request(OP_DELETE, b"k1"),
    batch_request([(OP_PUT, b"a", b"1"), (OP_MERGE, b"a", b"2"), (OP_DELETE, b"b")]),
    batch_request(
        [(OP_PUT, b"c", b"3"), (OP_GET, b"c"), (9, b"x"), (OP_GET, b"zz")]
    ),
    request(OP_ADMIN, b"stats"),
]


def recv_exact(sock, length):
    data = bytearray()
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        assert chunk, "server closed the connection mid-reply"
        data += chunk
    return bytes(data)


def recv_reply(sock):
    head = recv_exact(sock, REPLY.size)
    _, length = REPLY.unpack(head)
    return head + recv_exact(sock, length)


def reply_stream():
    with StoreServer(InMemoryStore()) as server:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            replies = bytearray()
            for frame in SESSION:
                sock.sendall(frame)
                replies += recv_reply(sock)
            return bytes(replies)


def reply_stream_sent_as(send):
    """The session's reply stream when ``send(sock, data)`` puts all of
    its request bytes on the socket before any reply is read."""
    with StoreServer(InMemoryStore()) as server:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send(sock, b"".join(SESSION))
            return b"".join(recv_reply(sock) for _ in SESSION)


def one_byte_sends(sock, data):
    for i in range(len(data)):
        sock.sendall(data[i : i + 1])


class TestClientFrames:
    def test_per_op_frame(self):
        assert per_op_frame().hex() == PER_OP_FRAME

    def test_batch_frame(self):
        assert batch_frame().hex() == BATCH_FRAME

    def test_admin_frame(self):
        assert admin_frame().hex() == ADMIN_FRAME

    def test_pipelined_burst_is_per_op_frames_back_to_back(self):
        assert pipelined_burst().hex() == PIPELINED_BURST


class TestServerReplies:
    def test_reply_stream(self):
        """Includes the mixed batch's per-op error for its opcode-9
        member and, after it, the ``stats`` reply on the same
        connection."""
        assert reply_stream().hex() == REPLY_STREAM

    def test_reply_stream_for_one_coalesced_send(self):
        """Every frame of the session arrives in one ``sendall``."""
        stream = reply_stream_sent_as(lambda sock, data: sock.sendall(data))
        assert stream.hex() == REPLY_STREAM

    def test_reply_stream_for_one_byte_sends(self):
        """Every frame, header included, arrives split across sends."""
        assert reply_stream_sent_as(one_byte_sends).hex() == REPLY_STREAM

    def test_unknown_top_level_opcode_replies_then_closes(self):
        with StoreServer(InMemoryStore()) as server:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                sock.sendall(request(9, b"k") + request(OP_GET, b"k"))
                status, length = REPLY.unpack(recv_exact(sock, REPLY.size))
                assert status == REPLY_ERROR
                assert recv_exact(sock, length) == b"unknown opcode 9"
                # the frame after the bad one is never answered
                assert sock.recv(64) == b""
