"""The server's read path allocates no read-sized buffer per read.

Every connection's reads land in one server-owned buffer via
``recv_into``, and only the bytes received are copied out to be parsed.
A ``recv(1 << 16)`` per read would allocate a 64 KiB bytes object on
every readable event, so ``tracemalloc``'s peak over a pipelined replay
would reach one such buffer.  This test fails by design on the server
loop that read with ``recv(1 << 16)``: its peak there was 90,691 B,
against 33,112 B with ``recv_into``.
"""

import tracemalloc

import pytest

from repro.kvstores import InMemoryStore
from repro.kvstores.api import OP_GET, OP_PUT
from repro.kvstores.remote import RemoteStoreClient, StoreServer

READ_BUFFER = 1 << 16


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(60)


class _Count:
    """Completion sink that keeps nothing, so the heap measures the
    transport alone."""

    def __init__(self):
        self.done = 0

    def __call__(self, opcode, arrival_ns, complete_ns, value):
        self.done += 1


def test_pipelined_reads_peak_below_one_read_buffer():
    ops = [
        (OP_PUT if i % 2 else OP_GET, b"key%05d" % (i % 512), b"v" * 64)
        for i in range(2000)
    ]
    with StoreServer(InMemoryStore()) as server:
        host, port = server.address
        with RemoteStoreClient(host, port) as client:
            sink = _Count()
            session = client.pipeline(16, sink)
            # warm every buffer, and let the store hold every key
            for opcode, key, value in ops:
                session.submit(opcode, key, value, 0)
            session.drain()
            tracemalloc.start()
            try:
                for opcode, key, value in ops:
                    session.submit(opcode, key, value, 0)
                session.drain()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    assert sink.done == 2 * len(ops)
    assert peak < READ_BUFFER
