"""Wire-format golden for replication forwarding.

A server configured with a downstream peer forwards every write it
accepts.  The bytes the downstream receives for a forwarded put, merge,
delete and write batch are pinned as hex, so a refactor of the link's
framing cannot change what a replica is sent: a per-op write is
forwarded as the same ``<BII`` frame a client sends, a batch's writes
as one ``OP_BATCH`` frame, and a read is never forwarded.
"""

import socket

import pytest

from repro.kvstores import InMemoryStore
from repro.kvstores.api import OP_DELETE, OP_MERGE, OP_PUT
from repro.kvstores.remote import RemoteStoreClient, StoreServer

#: put k1=v1, merge k1 +m, delete k1, then one OP_BATCH of
#: put a=1, merge a 2, delete b
FORWARDED = (
    "0102000000020000006b3176310202000000020000006b312b6d030200000000"
    "0000006b31050300000020000000010100000001000000613102010000000100"
    "0000613203010000000000000062"
)


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(30)


def forwarded_bytes():
    """Everything a downstream replica is sent over one session."""
    downstream = socket.socket()
    downstream.bind(("127.0.0.1", 0))
    downstream.listen(1)
    host, port = downstream.getsockname()
    try:
        with StoreServer(InMemoryStore()) as server:
            with RemoteStoreClient(*server.address, timeout=2.0) as client:
                # an async link: the server sends and never waits for an ack
                client.admin("configure", {"downstream": [host, port], "sync": False})
                replica, _ = downstream.accept()
                with replica:
                    replica.settimeout(2.0)
                    client.put(b"k1", b"v1")
                    client.merge(b"k1", b"+m")
                    assert client.get(b"k1") == b"v1+m"
                    client.delete(b"k1")
                    client.apply_batch(
                        [(OP_PUT, b"a", b"1"), (OP_MERGE, b"a", b"2"), (OP_DELETE, b"b", b"")]
                    )
                    assert client.multi_get([b"a", b"b"]) == [b"12", None]
                    server.stop()  # closes the link: the replica reads to EOF
                    data = bytearray()
                    while True:
                        chunk = replica.recv(4096)
                        if not chunk:
                            return bytes(data)
                        data += chunk
    finally:
        downstream.close()


def test_forwarded_writes_golden():
    assert forwarded_bytes().hex() == FORWARDED
