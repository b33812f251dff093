"""Python calls per synchronous remote op, on each side of the socket.

A sync op is one body on each side.  The client's ``get``/``put``/
``merge``/``delete`` reach one request body that frames, sends and
parses the reply where it landed; the server serves a readable
connection in one body that reads, executes and replies, and reaches
the store through the connector's forwarding op.

Counted with ``sys.setprofile`` on the replaying thread (the calls an
op of the client makes, its own frame included) and
``threading.setprofile`` on the server's loop thread, over a replay of
sliding-incremental (3k Borg events, seed 7, 32,856 ops) against
``StoreServer(InMemoryStore())``.  Before the server became a
``select.poll`` loop with one body per readable connection, and the
client one request body, the same replay counted 9.0 calls per op on
the client (``get`` -> ``_request`` -> ``_request_once`` ->
``tracing.active`` -> ``_request_raw`` -> ``_grow`` ->
``_frame_op_into`` -> ``_reply`` -> ``_read_reply``) and 7.0 on the
server (``EpollSelector.select`` -> ``_key_from_fd`` -> ``_read`` ->
``_process`` -> ``StoreConnector.get`` -> ``InMemoryStore.get`` ->
``_flush``).
"""

import sys
import threading

import pytest

from repro.core import Driver, TraceReplayer, make_workload
from repro.datasets import BorgConfig, generate_borg
from repro.kvstores import InMemoryStore
from repro.kvstores.remote import RemoteStoreClient, RemoteStoreError, StoreServer

OPS = ("get", "put", "merge", "delete")
CLIENT_OPS = {getattr(RemoteStoreClient, op).__code__ for op in OPS}


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(120)


class _ClientCalls:
    """Profile hook: counts every call made inside a client op, the
    op's own frame included."""

    def __init__(self):
        self.calls = 0
        self._depth = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            if self._depth or frame.f_code in CLIENT_OPS:
                self.calls += 1
                self._depth += 1
        elif event == "return" and self._depth:
            self._depth -= 1


class _ServerCalls:
    """Profile hook for the server thread: counts calls while armed."""

    def __init__(self):
        self.armed = False
        self.calls = 0

    def __call__(self, frame, event, arg):
        if event == "call" and self.armed:
            self.calls += 1


def test_a_sync_replay_costs_two_client_and_three_server_calls_per_op():
    tasks = generate_borg(BorgConfig(target_events=3000, seed=7))[0]
    trace = Driver(make_workload("sliding-incremental"), [tasks]).run()
    server_calls = _ServerCalls()
    threading.setprofile(server_calls)
    try:
        server = StoreServer(InMemoryStore()).start()
    finally:
        threading.setprofile(None)
    try:
        host, port = server.address
        with RemoteStoreClient(host, port, store_name="memory") as client:
            client.put(b"warm", b"up")  # the accept is done before counting
            replayer = TraceReplayer(client)
            client_calls = _ClientCalls()
            server_calls.armed = True
            sys.setprofile(client_calls)
            try:
                replayer.replay(trace)
            finally:
                sys.setprofile(None)
                server_calls.armed = False
    finally:
        server.stop()
    ops = len(trace)
    assert ops == 32_856
    # parent: 9.0 on the client, 7.0 on the server
    assert client_calls.calls / ops <= 2.0
    assert server_calls.calls / ops <= 3.0


class _RejectingStore(InMemoryStore):
    def merge(self, key, operand):
        if key == b"bad":
            raise RuntimeError("merge rejected")
        super().merge(key, operand)


NAMES = {
    getattr(RemoteStoreClient, name).__code__: f"RemoteStoreClient.{name}"
    for name in OPS + ("_request",)
}


def _frames(fn, *args):
    """The Python frames ``fn(*args)`` runs, the client's ops and its
    request body by name, the rest by ``co_name``."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(NAMES.get(frame.f_code, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def _reject(client):
    with pytest.raises(RemoteStoreError, match="merge rejected"):
        client.merge(b"bad", b"x")


@pytest.mark.parametrize(
    "op, call",
    [
        ("get", lambda client: client.get(b"hit")),
        ("get", lambda client: client.get(b"absent")),
        ("put", lambda client: client.put(b"k", b"v" * 100)),
        ("merge", lambda client: client.merge(b"k", b"w")),
        ("delete", lambda client: client.delete(b"k")),
        ("merge", _reject),
    ],
    ids=["get_hit", "get_miss", "put", "merge", "delete", "error_reply"],
)
def test_each_op_runs_one_request_body(op, call):
    with StoreServer(_RejectingStore()) as server:
        host, port = server.address
        with RemoteStoreClient(host, port) as client:
            client.put(b"hit", b"value")
            frames = _frames(call, client)
    body = "RemoteStoreClient._request"
    assert frames.count(body) == 1
    op_frame = f"RemoteStoreClient.{op}"
    start = frames.index(op_frame)
    assert frames[start + 1] == body
    if call is not _reject:
        # nothing after the body: the reply is parsed where it landed
        assert frames[start:] == [op_frame, body]
