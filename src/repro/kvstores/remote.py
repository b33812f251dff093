"""External state management: a store behind a socket (paper section 8).

Streaming systems like MillWheel and Pravega keep state in an external
store rather than an embedded one, decoupling compute from state at the
cost of a network hop per access.  The paper notes Gadget extends to
this setting with the right store wrappers; this module provides them:

* :class:`StoreServer` -- serves any :class:`~repro.kvstores.api.KVStore`
  over a length-prefixed binary protocol on localhost
* :class:`RemoteStoreClient` -- a connector-compatible client, so the
  replayer and evaluator drive an external store exactly like an
  embedded one (every access now pays serialization + a socket round
  trip, the external-state overhead the paper's introduction cites)

The server multiplexes every connection on one ``select.poll`` event
loop thread: N replay processes fan in over N sockets without a thread
per connection, and store access is serialized naturally by the single
loop (single-writer semantics per key are preserved by the dataflow
model itself -- one task writes any given key).  Each side of a
synchronous op is one body: the server reads, executes and replies in
one body per readable connection, and the client frames, sends and
parses in one request body.

There is one wire protocol, strictly ordered per connection.  A request
is a :data:`_HEADER` (opcode, key length, value length) followed by the
key and the value; an :data:`OP_BATCH` request carries N such frames as
its payload and :data:`OP_ADMIN` a control command.  A reply is a
:data:`_REPLY_HEAD` (status, body length) followed by the body.

Failure semantics (the robustness axis):

* the kernel bounds every client ``send``/``recv`` by a configurable
  timeout; a hung or killed server surfaces as a typed
  :class:`RemoteStoreError` instead of blocking the replayer forever
* protocol-level failures (unknown opcode, a store exception on the
  server) come back as an explicit ``REPLY_ERROR`` frame rather than a
  silently dead connection
* an optional :class:`~repro.faults.RetryPolicy` makes the client
  reconnect-and-retry through transient server outages; retried writes
  are at-least-once, which is safe for the replayer's idempotent
  ``put``/``delete`` and benchmark-acceptable for ``merge``
* :meth:`StoreServer.stop` drains in-flight requests before closing
  the underlying store, so a shutdown never yanks the store out from
  under a handler mid-operation
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..obs import tracing
from .api import BatchOp, KVStore, KVStoreError
from .connectors import PipelineSession, StoreConnector, connect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.retry import RetryPolicy

#: request frame, and each op inside a batch: opcode, key length, value length
_HEADER = struct.Struct("<BII")
#: reply frame, and each op's reply inside a batch reply: status, data length
_REPLY_HEAD = struct.Struct("<BI")

OP_GET = 0
OP_PUT = 1
OP_MERGE = 2
OP_DELETE = 3
OP_CLOSE = 4
#: N ops in one request, vectored replies in one response.  The
#: header's ``key_len`` field carries the op count and ``value_len`` the
#: total payload length; the payload is ``count`` back-to-back
#: :data:`_HEADER`-framed ops.
OP_BATCH = 5
#: control plane: key = command name (``ping``, ``configure``, ``stats``,
#: ``scan``), value = JSON arguments; the reply is a ``REPLY_VALUE``
#: frame whose payload is command-specific (JSON, except ``scan`` which
#: returns :data:`_HEADER`-framed key/value pairs).  The cluster
#: layer drives replication chains, failover probes, and replica
#: resync entirely through this opcode, so reconfiguration is
#: serialized on the server's event loop like any other request.
OP_ADMIN = 6

_KNOWN_OPS = frozenset((OP_GET, OP_PUT, OP_MERGE, OP_DELETE))
_WRITE_OPS = frozenset((OP_PUT, OP_MERGE, OP_DELETE))

#: sentinel returned by the client's batch request when every op in the
#: reply is ``REPLY_OK`` with no data (the common all-writes-succeeded
#: case); lets ``apply_batch`` skip per-item reply parsing entirely
_BATCH_ALL_OK: List[Tuple[int, bytes]] = []

REPLY_MISSING = 0
REPLY_VALUE = 1
REPLY_OK = 2
REPLY_ERROR = 3
#: reply frame carrying one :data:`_REPLY_HEAD`-framed reply per batched op
REPLY_BATCH = 4

#: the encoded ``(REPLY_OK, 0)`` reply item; an all-writes-succeeded
#: batch reply body is just this item repeated ``count`` times, which
#: both ends exploit to avoid per-item framing work
_OK_ITEM = _REPLY_HEAD.pack(REPLY_OK, 0)
#: the encoded ``(REPLY_MISSING, 0)`` reply to a get of an absent key
_MISSING_ITEM = _REPLY_HEAD.pack(REPLY_MISSING, 0)

#: default per-operation socket timeout for clients, in seconds
DEFAULT_TIMEOUT_S = 5.0


class RemoteStoreError(KVStoreError):
    """A remote store operation failed (timeout, dead server, or an
    error reply from the protocol)."""


def _require_writes(ops: Sequence[BatchOp]) -> None:
    """``apply_batch`` is write-only, remote or local: refuse a read
    opcode before any byte of the batch is sent."""
    for opcode, _key, _value in ops:
        if opcode not in _WRITE_OPS:
            raise ValueError(
                f"apply_batch is write-only; cannot apply opcode {opcode}"
            )


def _recv_into_exact(sock: socket.socket, buf, length: int, received: int = 0) -> int:
    """Fill ``buf[received:length]`` from the socket without allocating.

    The caller supplies (and reuses) the buffer; data lands in place via
    ``recv_into`` so a reply read costs zero heap churn.  Returns the
    number of ``recv_into`` calls made (the client's syscalls-per-op
    accounting).  A kernel-side receive timeout surfaces as
    ``BlockingIOError``; the client converts it to a
    :class:`RemoteStoreError`, the server treats it like a dead peer.
    """
    calls = 0
    with memoryview(buf) as view:
        while received < length:
            n = sock.recv_into(view[received:length])
            calls += 1
            if n == 0:
                raise ConnectionError("peer closed the connection")
            received += n
    return calls


#: size of the reusable reply buffer (and of the server's read buffer):
#: a reply that fits arrives with one ``recv_into`` and is parsed where
#: it landed
_REPLY_BUF_SIZE = 1 << 16


class _ProtocolViolation(Exception):
    """A reply that cannot belong to the one request in flight."""


def _read_reply(
    sock: socket.socket, view: memoryview, n: Optional[int] = None
) -> Tuple[int, bytes, int]:
    """Read the reply to the one request in flight on ``sock``.

    One ``recv_into`` fills the reusable ``view``; the header is parsed
    in place and a body that fits is sliced from the same buffer.  Only
    a header split across segments, or a body that has not all arrived,
    costs further calls.  A caller that made the first ``recv_into``
    itself passes its count as ``n`` and the read continues from there.
    Returns ``(status, body, recv calls made here)``.  With exactly one
    request outstanding, bytes past the reply's end mean the framing is
    broken: raises :class:`_ProtocolViolation`.
    """
    calls = 0
    if n is None:
        n = sock.recv_into(view)
        calls = 1
    if n == 0:
        raise ConnectionError("peer closed the connection")
    head = _REPLY_HEAD.size
    if n < head:
        calls += _recv_into_exact(sock, view, head, n)
        n = head
    status, length = _REPLY_HEAD.unpack_from(view)
    end = head + length
    if n > end:
        raise _ProtocolViolation(f"{n - end} bytes past the end of reply {status}")
    if end <= len(view):
        if n < end:
            calls += _recv_into_exact(sock, view, end, n)
        return status, bytes(view[head:end]) if length else b"", calls
    body = bytearray(length)
    body[: n - head] = view[head:n]
    calls += _recv_into_exact(sock, body, length, n - head)
    return status, bytes(body), calls


def _kernel_timeouts(sock: socket.socket, timeout: Optional[float]) -> None:
    """Make ``sock`` blocking, each ``send``/``recv`` bounded by the
    kernel to ``timeout`` seconds (``None``: unbounded).  CPython's own
    timeout mode would ``poll()`` before every call; an expiry of
    ``SO_RCVTIMEO``/``SO_SNDTIMEO`` surfaces as ``BlockingIOError``."""
    sock.settimeout(None)
    if timeout is None:
        return
    micros = max(1, round(timeout * 1_000_000))  # a zero timeval means "never"
    timeval = struct.pack("ll", micros // 1_000_000, micros % 1_000_000)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


def _grow(buf: bytearray, need: int) -> None:
    """Amortized-doubling capacity growth for a reusable frame buffer."""
    if len(buf) < need:
        buf.extend(b"\x00" * max(need - len(buf), len(buf)))


def _frame_op_into(
    buf: bytearray, pos: int, opcode: int, key: bytes, value: bytes
) -> int:
    """Frame one op at ``buf[pos:]`` (caller guarantees capacity);
    returns the end offset.  A framed op costs zero allocations on a
    warm buffer."""
    key_len = len(key)
    value_len = len(value)
    _HEADER.pack_into(buf, pos, opcode, key_len, value_len)
    pos += _HEADER.size
    buf[pos : pos + key_len] = key
    pos += key_len
    buf[pos : pos + value_len] = value
    return pos + value_len


def _frame_batch_into(
    buf: bytearray, items: Sequence[Tuple[int, bytes, bytes]]
) -> int:
    """Frame one :data:`OP_BATCH` request into a reusable buffer;
    returns the frame length."""
    payload_len = sum(
        _HEADER.size + len(key) + len(value) for _, key, value in items
    )
    need = _HEADER.size + payload_len
    _grow(buf, need)
    _HEADER.pack_into(buf, 0, OP_BATCH, len(items), payload_len)
    pos = _HEADER.size
    for opcode, key, value in items:
        pos = _frame_op_into(buf, pos, opcode, key, value)
    return need


def _decode_batch_items(payload: bytes, count: int) -> List[Tuple[int, bytes, bytes]]:
    """Decode ``count`` :data:`_HEADER`-framed ops; raises
    ``ValueError``/``struct.error`` on malformed payloads."""
    items: List[Tuple[int, bytes, bytes]] = []
    offset = 0
    for _ in range(count):
        opcode, key_len, value_len = _HEADER.unpack_from(payload, offset)
        offset += _HEADER.size
        if offset + key_len + value_len > len(payload):
            raise ValueError("batch item exceeds payload")
        key = payload[offset : offset + key_len]
        offset += key_len
        value = payload[offset : offset + value_len]
        offset += value_len
        items.append((opcode, key, value))
    if offset != len(payload):
        raise ValueError("trailing bytes after batch items")
    return items


def _split_batch_reply(body: bytes, count: int) -> List[Tuple[int, bytes]]:
    """``(status, data)`` per op of a :data:`REPLY_BATCH` body; raises
    ``struct.error`` on a malformed one."""
    replies: List[Tuple[int, bytes]] = []
    offset = 0
    for _ in range(count):
        status, length = _REPLY_HEAD.unpack_from(body, offset)
        offset += _REPLY_HEAD.size
        replies.append((status, body[offset : offset + length]))
        offset += length
    return replies


def _execute_batch(
    connector: StoreConnector, items: List[Tuple[int, bytes, bytes]]
) -> bytes:
    """Run a decoded batch and build the vectored reply body.

    Consecutive reads become one ``multi_get`` and consecutive writes
    one ``apply_batch``, so the server amortizes exactly like an
    embedded store.  A failing run marks its members ``REPLY_ERROR``
    (message embedded per op) and execution continues with the next
    run -- one bad op never kills the connection.
    """
    count = len(items)
    # Fast path for the common shape: a batch that is entirely writes
    # succeeding as one run needs no per-item reply framing at all.
    if all(item[0] in _WRITE_OPS for item in items):
        try:
            connector.apply_batch(items)
            return _OK_ITEM * count
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
            item = _REPLY_HEAD.pack(REPLY_ERROR, len(message)) + message
            return item * count
    statuses: List[Tuple[int, bytes]] = [(REPLY_ERROR, b"unhandled")] * count
    i = 0
    while i < count:
        opcode = items[i][0]
        if opcode == OP_GET:
            j = i
            while j < count and items[j][0] == OP_GET:
                j += 1
            try:
                values = connector.multi_get([items[k][1] for k in range(i, j)])
                for k, value in zip(range(i, j), values):
                    statuses[k] = (
                        (REPLY_MISSING, b"") if value is None else (REPLY_VALUE, value)
                    )
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
                for k in range(i, j):
                    statuses[k] = (REPLY_ERROR, message)
            i = j
        elif opcode in _WRITE_OPS:
            j = i
            while j < count and items[j][0] in _WRITE_OPS:
                j += 1
            try:
                connector.apply_batch(items[i:j])
                statuses[i:j] = [(REPLY_OK, b"")] * (j - i)
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
                for k in range(i, j):
                    statuses[k] = (REPLY_ERROR, message)
            i = j
        else:
            statuses[i] = (REPLY_ERROR, f"unknown batch opcode {opcode}".encode())
            i += 1
    body = bytearray()
    for status, data in statuses:
        body += _REPLY_HEAD.pack(status, len(data))
        body += data
    return bytes(body)


def _frame_complete(buf: bytearray) -> bool:
    """Whether ``buf`` starts with at least one whole request frame."""
    if len(buf) < _HEADER.size:
        return False
    opcode, key_len, value_len = _HEADER.unpack_from(buf)
    if opcode == OP_BATCH:
        body = value_len
    elif opcode in _KNOWN_OPS or opcode == OP_ADMIN:
        body = key_len + value_len
    else:  # OP_CLOSE and unknown opcodes act on the header alone
        body = 0
    return len(buf) >= _HEADER.size + body


#: poll events that send a connection through its read body: data, and
#: hang-up, error or a stale descriptor, which its ``recv_into`` then
#: turns into a close
_READABLE = select.POLLIN | select.POLLPRI | select.POLLHUP | select.POLLERR | select.POLLNVAL
#: a connection's interest while replies wait for a short send to finish
_READ_WRITE = select.POLLIN | select.POLLOUT


class _Connection:
    """Per-client state on the event loop: the staged tail of an
    incomplete frame, pending output."""

    __slots__ = ("sock", "fd", "inbuf", "outbuf", "close_after_flush", "writing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: kept so the poll set can drop the socket after it is closed
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: set when the last queued reply must be the connection's final
        #: word (unknown opcode, shutdown refusal): flush, then close
        self.close_after_flush = False
        #: whether the poll set watches this socket for ``POLLOUT``
        #: (replies left over from a short send); the interest set is
        #: only touched when this flips
        self.writing = False


#: how long :meth:`StoreServer.stop` keeps trying to flush queued
#: replies to slow readers before closing their sockets anyway
_DRAIN_DEADLINE_S = 5.0

#: exclusive upper bound used by the admin ``scan`` command; covers any
#: key the harness generates (keys sort strictly below 64 0xff bytes)
_SCAN_END = b"\xff" * 64


class _ReplicationError(Exception):
    """A downstream replication forward failed.  Internal to the server:
    surfaced to the client as a ``REPLY_ERROR`` frame so the cluster
    layer can repair the chain and retry."""


class _ReplicationLink:
    """Downstream half of a replication chain, owned by the loop thread.

    A configured server forwards every write it accepts to one
    downstream peer over a dedicated socket.  ``sync=True`` makes the
    forward part of the request's critical path: the frame is sent and
    its reply awaited *before* the local apply, so an acked write is
    already at the next node (chain ack levels ``one``/``all``).
    ``sync=False`` pipelines frames fire-and-forget and counts acks as
    they drain back through the server's poll loop; the gap between
    ``ops_sent`` and ``ops_acked`` is exactly the lost-ack window a
    primary death would leave (ack level ``none``).

    Because a downstream replica runs the same server code, its own
    configured link forwards the write further -- chains of any length
    compose without extra machinery.
    """

    def __init__(
        self,
        server: "StoreServer",
        host: str,
        port: int,
        sync: bool,
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.peer = (host, port)
        self.sync = sync
        self.broken = False
        self.ops_sent = 0
        self.ops_acked = 0
        self.errors = 0
        self.lag_ms_last = 0.0
        self.lag_ms_max = 0.0
        self._lag_ms_sum = 0.0
        self._lag_samples = 0
        self._server = server
        self._registered = False
        #: (send monotonic, op count) per in-flight async frame
        self._pending: "deque" = deque()
        self._inbuf = bytearray()
        #: reusable batch-frame and ack buffers: a forwarded batch and
        #: every ack land in these once they are warm
        self._framebuf = bytearray(4096)
        self._ackview = memoryview(bytearray(_REPLY_BUF_SIZE))
        try:
            sock = socket.create_connection(self.peer, timeout=timeout)
        except OSError as exc:
            raise _ReplicationError(
                f"cannot reach replica at {host}:{port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _kernel_timeouts(sock, timeout)
        self._sock = sock
        self._fd = sock.fileno()
        if not sync:
            server._watch(self._fd, self.drain)
            self._registered = True

    # -- forwarding ----------------------------------------------------------

    def forward(self, opcode: int, key: bytes, value: bytes) -> None:
        # one joined ``bytes``, as the client's ``_request`` frames an op
        self._transmit(
            b"".join((_HEADER.pack(opcode, len(key), len(value)), key, value)), 1
        )

    def forward_batch(self, items: Sequence[Tuple[int, bytes, bytes]]) -> None:
        need = _frame_batch_into(self._framebuf, items)
        with memoryview(self._framebuf)[:need] as frame:
            self._transmit(frame, len(items))

    def _transmit(self, frame, ops: int) -> None:
        if self.broken:
            if self.sync:
                raise _ReplicationError(
                    f"replication link to {self.peer[0]}:{self.peer[1]} is down"
                )
            self.errors += ops
            return
        began = time.monotonic()
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            self._fail(ops, exc)
            return  # _fail raised already when sync
        self.ops_sent += ops
        if self.sync:
            try:
                self._read_sync_ack(ops)
            except (OSError, struct.error, _ProtocolViolation) as exc:
                self._fail(ops, exc)
                return
            self.ops_acked += ops
            self._record_lag((time.monotonic() - began) * 1000.0)
        else:
            self._pending.append((began, ops))

    def _read_sync_ack(self, ops: int) -> None:
        status, body, _calls = _read_reply(self._sock, self._ackview)
        if status == REPLY_BATCH and body != _OK_ITEM * ops:
            # the first rejected member fails the whole forward
            status, body = next(
                (item for item in _split_batch_reply(body, ops)
                 if item[0] == REPLY_ERROR),
                (REPLY_OK, b""),
            )
        if status == REPLY_OK or status == REPLY_BATCH:
            return
        replica = f"replica {self.peer[0]}:{self.peer[1]}"
        if status == REPLY_ERROR:
            raise _ReplicationError(
                f"{replica} rejected a forwarded write: "
                f"{body.decode('utf-8', 'replace')}"
            )
        raise _ReplicationError(
            f"{replica} protocol violation: reply {status} to a forwarded write"
        )

    def _fail(self, ops: int, exc: Exception) -> None:
        self.errors += ops
        self.broken = True
        self.close()
        if self.sync:
            if isinstance(exc, _ReplicationError):
                raise exc
            raise _ReplicationError(
                f"replication to {self.peer[0]}:{self.peer[1]} failed: {exc}"
            ) from exc

    # -- async ack drain (poll callback) -------------------------------------

    def drain(self) -> None:
        """Consume acks the downstream piped back; loop-thread only."""
        try:
            n = self._sock.recv_into(self._ackview)
        except BlockingIOError:
            return
        except OSError as exc:
            self._fail(self.pending_ops(), exc)
            return
        if not n:
            self._fail(self.pending_ops(), ConnectionError("replica closed"))
            return
        buf = self._inbuf
        buf += self._ackview[:n]
        head_size = _REPLY_HEAD.size
        end = len(buf)
        pos = 0
        while end - pos >= head_size:
            status, length = _REPLY_HEAD.unpack_from(buf, pos)
            frame_end = pos + head_size + length
            if frame_end > end:
                break
            pos = frame_end
            if not self._pending:
                continue  # stray frame; nothing to attribute it to
            sent, ops = self._pending.popleft()
            self._record_lag((time.monotonic() - sent) * 1000.0)
            if status == REPLY_ERROR:
                self.errors += ops
            else:
                self.ops_acked += ops
        del buf[:pos]

    def _record_lag(self, lag_ms: float) -> None:
        self.lag_ms_last = lag_ms
        if lag_ms > self.lag_ms_max:
            self.lag_ms_max = lag_ms
        self._lag_ms_sum += lag_ms
        self._lag_samples += 1

    # -- introspection -------------------------------------------------------

    def pending_ops(self) -> int:
        """Writes acked to clients but not yet confirmed downstream --
        the window that dies with this node."""
        return sum(ops for _, ops in self._pending)

    def stats(self) -> Dict[str, object]:
        return {
            "peer": f"{self.peer[0]}:{self.peer[1]}",
            "sync": self.sync,
            "ops_sent": self.ops_sent,
            "ops_acked": self.ops_acked,
            "pending": self.pending_ops(),
            "errors": self.errors,
            "broken": self.broken,
            "lag_ms_last": round(self.lag_ms_last, 3),
            "lag_ms_max": round(self.lag_ms_max, 3),
            "lag_ms_avg": round(
                self._lag_ms_sum / self._lag_samples if self._lag_samples else 0.0,
                3,
            ),
        }

    def close(self) -> None:
        if self._registered:
            self._server._unwatch(self._fd)
            self._registered = False
        try:
            self._sock.close()
        except OSError:
            pass


class StoreServer:
    """Serves a store on 127.0.0.1 from one ``select.poll`` event loop.

    All client connections multiplex onto a single non-blocking loop
    thread, so N replay processes cost N sockets, not N threads --
    and store access needs no lock because only the loop thread ever
    touches the store.  Requests on one connection still execute in
    arrival order, and one op executes at a time globally (the same
    serialization the old lock provided).

    The loop keeps one ``select.poll`` object and an fd -> handler dict:
    the listener, the wake socket and each replication link map to a
    callable, each client connection to its :class:`_Connection`.  A
    readable connection is served in one body, :meth:`_process`: one
    ``recv_into`` the server's read buffer, every complete frame
    executed, the replies sent optimistically.  ``POLLOUT`` is armed
    only after a short send and dropped once the queue is empty.

    It serves per-op frames, :data:`OP_BATCH` and :data:`OP_ADMIN`.  An
    unknown top-level opcode is answered with ``REPLY_ERROR`` and the
    connection is then closed: the rest of its byte stream cannot be
    framed.  An unknown opcode inside a batch fails only that member.
    """

    def __init__(self, store: KVStore, port: int = 0) -> None:
        self.store = store
        self._connector = connect(store)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        # the wake pipe lets stop() interrupt a parked poll() at once
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._poller = select.poll()
        #: fd -> a :class:`_Connection`, or a callable run when readable
        self._handlers: Dict[int, object] = {}
        self._connections: Dict[socket.socket, _Connection] = {}
        #: every connection's reads land here; each read's frames are
        #: walked over a copy of just the bytes received
        self._readview = memoryview(bytearray(_REPLY_BUF_SIZE))
        self._closing = False
        self._killed = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        #: downstream replication link (None = unreplicated); configured
        #: via the ``configure`` admin command so changes serialize on
        #: the event loop with the traffic they affect
        self._replication: Optional[_ReplicationLink] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound.  The listener is bound in
        ``__init__``, so with ``port=0`` the kernel-assigned port is
        readable here immediately after construction -- before
        :meth:`start` -- which is how cluster tests spin up N servers
        without port-collision flakes."""
        return self._listener.getsockname()  # type: ignore[return-value]

    @property
    def port(self) -> int:
        """The kernel-assigned listening port (see :attr:`address`)."""
        return self.address[1]

    def start(self) -> "StoreServer":
        self._watch(self._listener.fileno(), self._accept)
        self._watch(self._wake_r.fileno(), self._drain_wake)
        self._thread = threading.Thread(
            target=self._serve, name="store-server", daemon=True
        )
        self._thread.start()
        return self

    # -- event loop ----------------------------------------------------------

    def _watch(self, fd: int, handler: object) -> None:
        """Poll ``fd`` for input; ``handler`` serves it."""
        self._handlers[fd] = handler
        self._poller.register(fd, select.POLLIN)

    def _unwatch(self, fd: int) -> None:
        if self._handlers.pop(fd, None) is not None:
            self._poller.unregister(fd)

    def _interest(self, conn: _Connection, events: int) -> None:
        """The one place a connection's poll interest changes: ``POLLOUT``
        joins ``POLLIN`` while replies wait on a short send."""
        self._poller.modify(conn.fd, events)
        conn.writing = bool(events & select.POLLOUT)

    def _serve(self) -> None:
        poll = self._poller.poll
        handlers = self._handlers
        while not self._closing:
            for fd, events in poll():
                handler = handlers.get(fd)
                if handler.__class__ is not _Connection:
                    if handler is not None:  # None: closed earlier this round
                        handler()
                    continue
                if events & _READABLE and not self._process(handler):
                    continue
                if events & select.POLLOUT:
                    self._flush(handler)
        self._close_all(drain=not self._killed)

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._connections[sock] = conn
            self._watch(conn.fd, conn)

    def _process(self, conn: _Connection, data: Optional[bytes] = None) -> bool:
        """Serve one readable connection in one body: read, execute
        every complete frame, send the replies.

        One ``recv_into`` fills the server's read buffer and the frames
        are walked over a copy of the bytes received; the drain on
        ``stop()`` passes the staged bytes as ``data`` instead.  This is
        the one request parser: per-op, :data:`OP_BATCH` and
        :data:`OP_ADMIN` frames, and staged tails.  An offset walks the
        bytes where they landed (each key and value is one slice); only
        an incomplete tail is staged in ``conn.inbuf``, and a staged
        frame is parsed once it is whole, so it is copied once, not once
        per read.  Replies queue on ``conn.outbuf`` and go out with one
        optimistic ``send``; only a short send reaches :meth:`_flush`.

        Returns False if the connection was closed (``conn`` must not
        be touched again).
        """
        if data is None:
            try:
                n = conn.sock.recv_into(self._readview)
            except BlockingIOError:
                return True
            except OSError:
                self._close_connection(conn)
                return False
            if not n:
                self._close_connection(conn)
                return False
            data = self._readview[:n].tobytes()
            staged = conn.inbuf
            if staged:
                staged += data
                if not _frame_complete(staged):
                    return True
                data = bytes(staged)
                staged.clear()
        if conn.close_after_flush:
            return True
        header_size = _HEADER.size
        unpack_from = _HEADER.unpack_from
        end = len(data)
        # Store calls go through the connector's class, whose methods look
        # each op up on the store per call, so a store patched after start-up
        # (a per-op tracer) is still reached; binding four locals up front
        # costs a one-frame request more than it saves a 16-frame burst.
        connector = self._connector
        ops = type(connector)
        out = conn.outbuf
        pack_reply = _REPLY_HEAD.pack
        pos = 0
        while not conn.close_after_flush and end - pos >= header_size:
            opcode, key_len, value_len = unpack_from(data, pos)
            start = pos + header_size
            if opcode in _KNOWN_OPS:
                key_end = start + key_len
                frame_end = key_end + value_len
                if frame_end > end:
                    break
                key = data[start:key_end]
                value = data[key_end:frame_end]
                pos = frame_end
                if self._closing:
                    self._queue_error(conn, "server is shutting down")
                    conn.close_after_flush = True
                    break
                try:
                    if opcode == OP_GET:
                        result = ops.get(connector, key)
                        if result is None:
                            out += _MISSING_ITEM
                        else:
                            out += pack_reply(REPLY_VALUE, len(result))
                            out += result
                        continue
                    repl = self._replication
                    # Downstream-first for sync links (see the batch path).
                    if repl is not None and repl.sync:
                        repl.forward(opcode, key, value)
                    if opcode == OP_PUT:
                        ops.put(connector, key, value)
                    elif opcode == OP_MERGE:
                        ops.merge(connector, key, value)
                    else:  # OP_DELETE
                        ops.delete(connector, key)
                    if repl is not None and not repl.sync:
                        repl.forward(opcode, key, value)
                except _ReplicationError as exc:
                    self._queue_error(conn, str(exc))
                    continue
                except Exception as exc:  # store failure: report, keep serving
                    self._queue_error(conn, f"{type(exc).__name__}: {exc}")
                    continue
                out += _OK_ITEM
                continue
            if opcode == OP_BATCH:
                frame_end = start + value_len
                if frame_end > end:
                    break
                payload = data[start:frame_end]
                pos = frame_end
                if self._closing:
                    self._queue_error(conn, "server is shutting down")
                    conn.close_after_flush = True
                    break
                try:
                    items = _decode_batch_items(payload, key_len)
                except (ValueError, struct.error) as exc:
                    self._queue_error(conn, f"malformed batch: {exc}")
                    continue
                repl = self._replication
                writes = (
                    [item for item in items if item[0] in _WRITE_OPS]
                    if repl is not None
                    else []
                )
                # Chain order: a sync link confirms the downstream copy
                # BEFORE the local apply, so a write this server acks is
                # already at the next node -- and a forward failure is
                # reported before anything diverges locally.
                if repl is not None and writes and repl.sync:
                    try:
                        repl.forward_batch(writes)
                    except _ReplicationError as exc:
                        self._queue_error(conn, str(exc))
                        continue
                body = _execute_batch(connector, items)
                if repl is not None and writes and not repl.sync:
                    repl.forward_batch(writes)
                out += pack_reply(REPLY_BATCH, len(body))
                out += body
                continue
            if opcode == OP_ADMIN:
                key_end = start + key_len
                frame_end = key_end + value_len
                if frame_end > end:
                    break
                command = data[start:key_end]
                payload = data[key_end:frame_end]
                pos = frame_end
                if self._closing:
                    self._queue_error(conn, "server is shutting down")
                    conn.close_after_flush = True
                    break
                try:
                    response = self._admin(
                        command.decode("utf-8", errors="replace"), payload
                    )
                except Exception as exc:
                    self._queue_error(conn, f"{type(exc).__name__}: {exc}")
                    continue
                out += pack_reply(REPLY_VALUE, len(response))
                out += response
                continue
            if opcode == OP_CLOSE:
                self._close_connection(conn)
                return False
            # Always answer: dying without a reply leaves the client
            # deadlocked on the socket.
            self._queue_error(conn, f"unknown opcode {opcode}")
            conn.close_after_flush = True
            break
        if pos < end:
            conn.inbuf += data[pos:]
        if out:
            try:
                sent = conn.sock.send(out)
            except OSError:  # _flush sorts a full buffer from a dead peer
                sent = 0
            del out[:sent]
            if out or conn.writing or conn.close_after_flush:
                return self._flush(conn)
        return True

    # -- control plane -------------------------------------------------------

    def _admin(self, command: str, payload: bytes) -> bytes:
        """Execute one :data:`OP_ADMIN` command on the loop thread."""
        args = json.loads(payload.decode("utf-8")) if payload else {}
        if command == "ping":
            return b'{"ok": true}'
        if command == "configure":
            downstream = args.get("downstream")
            sync = bool(args.get("sync", True))
            self._configure_replication(
                tuple(downstream) if downstream else None, sync
            )
            return b'{"ok": true}'
        if command == "stats":
            return json.dumps(self.replication_stats()).encode("utf-8")
        if command == "scan":
            items = list(self._connector.scan(b"", _SCAN_END))
            body = b"".join(
                _HEADER.pack(OP_PUT, len(key), len(value)) + key + value
                for key, value in items
            )
            return struct.pack("<I", len(items)) + body
        raise ValueError(f"unknown admin command {command!r}")

    def _configure_replication(
        self, downstream: Optional[Tuple[str, int]], sync: bool
    ) -> None:
        if self._replication is not None:
            self._replication.close()
            self._replication = None
        if downstream is not None:
            self._replication = _ReplicationLink(
                self, downstream[0], int(downstream[1]), sync
            )

    def replication_stats(self) -> Dict[str, object]:
        """Snapshot of the downstream link's counters (all-zero when
        unreplicated).  Plain attribute reads, safe to call from any
        thread; the chaos harness reads a primary's ``pending`` the
        instant before killing it to measure the lost-ack window."""
        link = self._replication
        if link is None:
            return {
                "peer": None,
                "sync": False,
                "ops_sent": 0,
                "ops_acked": 0,
                "pending": 0,
                "errors": 0,
                "broken": False,
                "lag_ms_last": 0.0,
                "lag_ms_max": 0.0,
                "lag_ms_avg": 0.0,
            }
        return link.stats()

    def _queue_error(self, conn: _Connection, message: str) -> None:
        payload = message.encode("utf-8", errors="replace")
        conn.outbuf += _REPLY_HEAD.pack(REPLY_ERROR, len(payload))
        conn.outbuf += payload

    def _flush(self, conn: _Connection) -> bool:
        """Send queued replies until the socket would block, arming
        ``POLLOUT`` if some are left and dropping it once none are.
        Returns False if the connection was closed."""
        sock = conn.sock
        out = conn.outbuf
        while out:
            try:
                sent = sock.send(out)
            except BlockingIOError:
                break
            except OSError:
                self._close_connection(conn)
                return False
            if sent == 0:
                break
            del out[:sent]
        if out:
            if not conn.writing:
                self._interest(conn, _READ_WRITE)
        else:
            if conn.close_after_flush:
                self._close_connection(conn)
                return False
            if conn.writing:
                self._interest(conn, select.POLLIN)
        return True

    def _close_connection(self, conn: _Connection) -> None:
        if self._connections.pop(conn.sock, None) is None:
            return
        self._unwatch(conn.fd)
        try:
            conn.sock.close()
        except OSError:
            pass

    def _close_all(self, drain: bool) -> None:
        """Close every socket the loop owns, as the loop thread exits.

        ``drain`` (``stop()``): staged requests are refused and queued
        replies flushed first, which makes ``stop()`` a clean barrier
        between served traffic and ``store.close()``.  Otherwise
        (``kill()``) SO_LINGER 0 resets each connection unanswered, so
        clients see the death at once instead of a clean FIN.
        """
        self._unwatch(self._listener.fileno())
        self._listener.close()
        deadline = time.monotonic() + _DRAIN_DEADLINE_S
        for conn in list(self._connections.values()):
            sock = conn.sock
            try:
                if not drain:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                else:
                    # complete frames received before shutdown are
                    # refused, not dropped (the client would hang)
                    staged, conn.inbuf = bytes(conn.inbuf), bytearray()
                    if self._process(conn, staged) and conn.outbuf:
                        sock.settimeout(max(0.05, deadline - time.monotonic()))
                        sock.sendall(conn.outbuf)
            except OSError:
                pass
            self._close_connection(conn)
        if self._replication is not None:
            self._replication.close()
            self._replication = None
        self._unwatch(self._wake_r.fileno())
        self._wake_r.close()

    # -- lifecycle -----------------------------------------------------------

    def kill(self) -> None:
        """Die abruptly, as a ``SIGKILL`` would: in-flight requests are
        never answered, queued replies are dropped, connections are
        reset, and the store is :meth:`~repro.kvstores.api.KVStore.abandon`-ed
        (nothing flushed, background workers hard-stopped).  The chaos
        harness's primitive; contrast :meth:`stop`, which drains."""
        if self._stopped:
            return
        self._killed = True
        self._closing = True
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        else:
            self._close_all(drain=False)
        try:
            self._wake_w.close()
        except OSError:
            pass
        self._stopped = True
        try:
            self.store.abandon()
        except Exception:
            pass

    def stop(self) -> None:
        """Stop accepting, drain in-flight requests, then close the store.

        The loop thread finishes whatever operation it is executing
        (ops run to completion between ``poll()`` rounds), refuses
        anything that arrived after the flag went up, flushes replies,
        and exits; only then -- with no thread left that could touch
        the store -- does ``store.close()`` run.
        """
        if self._stopped:
            return
        self._closing = True
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        elif not self._stopped:
            self._close_all(drain=True)  # never started; just release sockets
        try:
            self._wake_w.close()
        except OSError:
            pass
        self._stopped = True
        self.store.close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RemoteStoreClient:
    """Connector-compatible client for a :class:`StoreServer`.

    Drop-in for :class:`~repro.kvstores.connectors.StoreConnector`:
    the trace replayer and the performance evaluator can measure an
    external store without code changes.

    ``timeout`` bounds the connect and, in the kernel, each ``send`` and
    ``recv``; a server that hangs or dies mid-run raises
    :class:`RemoteStoreError` instead of wedging the replay.  Pass
    ``retry_policy`` (a :class:`~repro.faults.RetryPolicy`) to have the
    client drop the broken socket, reconnect, and retry the operation
    with the policy's backoff before giving up.
    """

    def __init__(
        self,
        host: str,
        port: int,
        store_name: str = "remote",
        timeout: Optional[float] = DEFAULT_TIMEOUT_S,
        connect_timeout: Optional[float] = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> None:
        self.name = store_name
        self._address = (host, port)
        #: ``host:port``, embedded in every error message -- with N
        #: servers in play, "connection reset" without an address is
        #: undebuggable
        self._peer = f"{host}:{port}"
        self._timeout = timeout
        self._connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self._retry_policy = retry_policy
        self._sock: Optional[socket.socket] = None
        self.reconnects = 0
        #: syscalls-per-op accounting: data-path ``sendall`` bursts and
        #: ``recv``/``recv_into`` calls (the pipeline benchmark's
        #: coalescing evidence)
        self.send_calls = 0
        self.recv_calls = 0
        #: pipelined-mode gauges (stay zero for synchronous use)
        self.inflight_depth = 0
        self.flush_coalesced_ops = 0
        self.pipeline_flushes = 0
        self.aborted_windows = 0
        #: reusable batch-frame and reply buffers: a batch frame and
        #: every reply land in these once they are warm
        self._framebuf = bytearray(4096)
        self._replyview = memoryview(bytearray(_REPLY_BUF_SIZE))
        self._connect()

    # -- connection management ---------------------------------------------

    def _connect(self) -> None:
        with tracing.span("remote.connect", peer=f"{self._address[0]}:{self._address[1]}"):
            try:
                sock = socket.create_connection(
                    self._address, timeout=self._connect_timeout
                )
            except OSError as exc:
                raise RemoteStoreError(
                    f"cannot connect to {self.name} at {self._peer}: {exc}"
                ) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _kernel_timeouts(sock, self._timeout)
        self._sock = sock

    def _drop_socket(self) -> None:
        """Discard a socket whose request/reply framing is no longer
        trustworthy (timeout mid-reply, connection reset)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _not_connected(self) -> RemoteStoreError:
        return RemoteStoreError(
            f"{self.name} client is not connected to {self._peer}"
        )

    def _transport_error(self, exc: OSError) -> RemoteStoreError:
        """Drop the socket after a send/receive failure and type it: a
        timeout means a hung or dead server, anything else a lost
        connection."""
        self._drop_socket()
        if isinstance(exc, BlockingIOError):  # SO_RCVTIMEO/SO_SNDTIMEO expiry
            return RemoteStoreError(
                f"{self.name} operation against {self._peer} timed out "
                f"after {self._timeout}s (server hung or dead)"
            )
        return RemoteStoreError(
            f"lost connection to {self.name} server at {self._peer}: {exc}"
        )

    def _protocol_violation(self, detail: str) -> RemoteStoreError:
        """Drop a socket whose reply framing can no longer be trusted."""
        self._drop_socket()
        return RemoteStoreError(
            f"{self.name} server at {self._peer} protocol violation: {detail}"
        )

    def _server_error(self, message: bytes) -> RemoteStoreError:
        """A ``REPLY_ERROR``: the op failed, the connection stays good."""
        text = message.decode("utf-8", errors="replace")
        return RemoteStoreError(
            f"{self.name} server at {self._peer} error: "
            f"{text or 'unspecified server error'}"
        )

    def _reply(self, sock: socket.socket, n: Optional[int] = None) -> Tuple[int, bytes]:
        """:func:`_read_reply` (continuing after a first ``recv_into``
        of ``n`` bytes, if given), counting its ``recv_into`` calls."""
        try:
            status, body, calls = _read_reply(sock, self._replyview, n)
        except OSError as exc:
            raise self._transport_error(exc) from exc
        except _ProtocolViolation as exc:
            raise self._protocol_violation(str(exc)) from None
        self.recv_calls += calls
        return status, body

    # -- protocol ----------------------------------------------------------

    def _request(
        self, opcode: int, key: bytes, value: bytes = b"", wrapped: bool = False
    ) -> Optional[bytes]:
        """One request in one body: frame it, ``sendall`` it,
        ``recv_into`` the reply buffer and parse the reply where it
        landed.

        The frame is the packed header, key and value joined into one
        ``bytes``, as a pipelined burst is: on a 2-vCPU x86 container,
        a loopback put/get loop pinned to one CPU measured that ~1 µs
        per op cheaper than ``pack_into`` plus two slice stores into
        the reusable frame buffer and a ``memoryview`` to send it.

        A reply that is not exactly the bytes of the first receive (a
        split header, a body still arriving or larger than the buffer,
        bytes past its end) continues through :func:`_read_reply`.  With
        a retry policy or an active tracer the request first goes
        through their wrappers, which come back here ``wrapped``.
        """
        if not wrapped:
            policy = self._retry_policy
            if policy is not None:
                return policy.call(
                    self._attempt, self._request_once, opcode, key, value,
                    retry_on=(RemoteStoreError,),
                )
            # the module global, not ``tracing.active()``: no frame per op
            if tracing._tracer is not None:
                return self._request_once(opcode, key, value)
        sock = self._sock
        if sock is None:
            raise self._not_connected()
        view = self._replyview
        try:
            sock.sendall(b"".join((_HEADER.pack(opcode, len(key), len(value)), key, value)))
            self.send_calls += 1
            n = sock.recv_into(view)
        except OSError as exc:
            raise self._transport_error(exc) from exc
        head = _REPLY_HEAD.size
        if n >= head:
            status, length = _REPLY_HEAD.unpack_from(view)
            if n == head + length:
                if status == REPLY_VALUE:
                    self.recv_calls += 1
                    return view[head:n].tobytes()
                if not length and (status == REPLY_OK or status == REPLY_MISSING):
                    self.recv_calls += 1
                    return None
        # an error reply, or one that is not exactly this first receive
        status, body = self._reply(sock, n)
        self.recv_calls += 1
        if status == REPLY_VALUE:
            return body
        if status == REPLY_ERROR:
            raise self._server_error(body)
        if (status == REPLY_OK or status == REPLY_MISSING) and not body:
            return None
        raise self._protocol_violation(
            f"reply {status} with a {len(body)}-byte body to opcode {opcode}"
        )

    def _request_once(self, opcode: int, key: bytes, value: bytes) -> Optional[bytes]:
        with tracing.span("remote.rpc", op=opcode):
            return self._request_raw(opcode, key, value)

    def _request_raw(self, opcode: int, key: bytes, value: bytes) -> Optional[bytes]:
        """:meth:`_request` without the retry and tracing wrappers."""
        return self._request(opcode, key, value, True)

    def _attempt(self, once, *args):
        """One try under the retry policy: reconnect, then ``once(*args)``."""
        if self._sock is None:
            self._connect()
            self.reconnects += 1
            tracing.instant("remote.reconnect", total=self.reconnects)
        return once(*args)

    # -- batch frames --------------------------------------------------------

    def _batch_request_once(
        self, items: Sequence[Tuple[int, bytes, bytes]]
    ) -> List[Tuple[int, bytes]]:
        """Send one :data:`OP_BATCH` frame; return ``(status, data)``
        per op."""
        if tracing.active() is None:
            self.batch_send(items)
            return self.batch_recv(len(items))
        with tracing.span("remote.batch_rpc", n=len(items)):
            self.batch_send(items)
            return self.batch_recv(len(items))

    def batch_send(self, items: Sequence[Tuple[int, bytes, bytes]]) -> None:
        """Frame and send one :data:`OP_BATCH` request WITHOUT reading
        the reply -- the scatter half of the cluster layer's
        scatter-gather fan-out.  Every :meth:`batch_send` must be paired
        with a :meth:`batch_recv` on the same connection (the protocol
        is strictly ordered, so replies correlate positionally)."""
        sock = self._sock
        if sock is None:
            raise self._not_connected()
        need = _frame_batch_into(self._framebuf, items)
        try:
            with memoryview(self._framebuf)[:need] as frame:
                sock.sendall(frame)
            self.send_calls += 1
        except OSError as exc:
            raise self._transport_error(exc) from exc

    def batch_recv(self, count: int) -> List[Tuple[int, bytes]]:
        """Read one batch reply for a ``count``-op :meth:`batch_send` --
        the gather half."""
        sock = self._sock
        if sock is None:
            raise self._not_connected()
        status, body = self._reply(sock)
        if status == REPLY_ERROR:
            raise self._server_error(body)
        if status != REPLY_BATCH:
            raise self._protocol_violation(f"reply {status} to a batch")
        if body == _OK_ITEM * count:
            # All writes succeeded: one memcmp instead of per-item
            # unpacking (the hot shape of batched write replay).
            return _BATCH_ALL_OK
        try:
            return _split_batch_reply(body, count)
        except struct.error as exc:
            self._drop_socket()
            raise RemoteStoreError(
                f"{self.name} server at {self._peer} sent a malformed "
                f"batch reply: {exc}"
            ) from exc

    def _batch_request(
        self, items: Sequence[Tuple[int, bytes, bytes]]
    ) -> List[Tuple[int, bytes]]:
        if self._retry_policy is None:
            return self._batch_request_once(items)
        return self._retry_policy.call(
            self._attempt, self._batch_request_once, items,
            retry_on=(RemoteStoreError,),
        )

    # -- control plane -------------------------------------------------------

    def admin(self, command: str, payload: Optional[dict] = None) -> bytes:
        """Send one :data:`OP_ADMIN` request; returns the raw response.

        Used by the cluster layer for liveness probes (``ping``),
        replication-chain reconfiguration (``configure``), counter
        harvesting (``stats``), and resync snapshots (``scan``).
        Honours the client's retry policy like any data operation.
        """
        body = json.dumps(payload).encode("utf-8") if payload else b""
        return self._request(OP_ADMIN, command.encode("utf-8"), body) or b""

    def admin_json(self, command: str, payload: Optional[dict] = None) -> dict:
        """:meth:`admin`, decoding the JSON response."""
        return json.loads(self.admin(command, payload).decode("utf-8"))

    def admin_scan(self) -> List[Tuple[bytes, bytes]]:
        """Full key/value snapshot of the server's store, decoded from
        the ``scan`` admin command's binary framing.  Requires a
        scan-capable backing store (memory, B+Tree, LSM -- not FASTER)."""
        data = self.admin("scan")
        (count,) = struct.unpack_from("<I", data, 0)
        items = _decode_batch_items(data[4:], count)
        return [(key, value) for _, key, value in items]

    @property
    def peer(self) -> str:
        """``host:port`` of the server this client targets."""
        return self._peer

    # -- connector API -------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        return self._request(OP_GET, key)

    def put(self, key: bytes, value: bytes) -> None:
        self._request(OP_PUT, key, value)

    def merge(self, key: bytes, operand: bytes) -> None:
        self._request(OP_MERGE, key, operand)

    def delete(self, key: bytes) -> None:
        self._request(OP_DELETE, key)

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Vectored get in ONE round trip (one :data:`OP_BATCH` frame)."""
        if not keys:
            return []
        out: List[Optional[bytes]] = []
        for status, data in self._batch_request([(OP_GET, key, b"") for key in keys]):
            if status == REPLY_VALUE:
                out.append(data)
            elif status == REPLY_MISSING:
                out.append(None)
            else:
                raise self._server_error(data)
        return out

    def apply_batch(self, ops: Sequence[BatchOp]) -> None:
        """Write batch in ONE round trip (one :data:`OP_BATCH` frame);
        a read opcode raises ``ValueError`` before anything is sent."""
        if not ops:
            return
        _require_writes(ops)
        replies = self._batch_request(list(ops))
        if replies is _BATCH_ALL_OK:
            return
        for status, data in replies:
            if status == REPLY_ERROR:
                raise self._server_error(data)

    # network time is genuinely client-visible: always 0, as a C call
    take_background_ns = KVStore.take_background_ns

    def flush(self) -> None:
        """The server owns durability; nothing to do client-side."""

    def pipeline(self, depth: int, on_complete) -> "_RemotePipeline":
        """Open a bounded in-flight window over this connection (see
        :class:`_RemotePipeline`)."""
        return _RemotePipeline(self, depth, on_complete)

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.sendall(_HEADER.pack(OP_CLOSE, 0, 0))
        except OSError:
            pass
        self._drop_socket()

    def __enter__(self) -> "RemoteStoreClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _RemotePipeline(PipelineSession):
    """A bounded in-flight window over one client connection.

    The protocol is strictly ordered per connection, so correlation is
    positional: op k's reply is the k-th reply frame, no IDs on the
    wire, the same per-op frames a synchronous request sends.
    Submitted ops are staged and flushed in coalesced bursts: each
    burst is its ops' header, key and value parts joined into one
    ``bytes`` and sent with one ``sendall``.  Replies drain through a
    chunked ``recv_into`` loop that completes ops FIFO.  The window
    never exceeds ``depth`` un-acked ops; once full, the session
    flushes and drains down to ``depth//2`` so reply reads overlap the
    next burst's framing (half-window hysteresis -- at depth 16 a
    steady-state burst carries 8 ops per ``sendall``/``recv`` pair
    instead of 1 per round trip).

    Failure semantics: a transport failure (timeout, reset, dead
    server) aborts the whole window -- every un-acked op is re-queued
    and, under the client's single :class:`RetryPolicy` budget, re-sent
    after a reconnect.  Re-sent ops are at-least-once, exactly like the
    synchronous client's retry (idempotent put/delete, benchmark-
    acceptable merge).  A ``REPLY_ERROR`` frame is NOT a transport
    failure: the server processed and rejected that one op, so it is
    completed exceptionally (raised to the submitter) and never
    re-sent.
    """

    def __init__(self, client: RemoteStoreClient, depth: int, on_complete) -> None:
        super().__init__(client, depth, on_complete)
        self._client = client
        #: submitted-not-yet-sent (opcode, key, value, arrival_ns)
        self._staged: deque = deque()
        #: on the wire awaiting replies, FIFO == reply order
        self._inflight: deque = deque()
        self._recvbuf = bytearray()
        self._chunkbuf = bytearray(1 << 16)
        self.aborted_windows = 0

    @property
    def pending(self) -> int:
        return len(self._staged) + len(self._inflight)

    def submit(self, opcode: int, key: bytes, value: bytes,
               arrival_ns: int) -> None:
        self._staged.append((opcode, key, value, arrival_ns))
        depth = self.depth
        if len(self._staged) + len(self._inflight) >= depth:
            self.flush()
            self._collect(depth // 2)

    def flush(self) -> None:
        if not self._staged:
            return
        if tracing.active() is None:
            self._flush_raw()
            return
        with tracing.span(
            "remote.pipeline_flush",
            n=len(self._staged), inflight=len(self._inflight),
        ):
            self._flush_raw()

    def _flush_raw(self) -> None:
        try:
            self._send_staged()
        except RemoteStoreError as exc:
            self._recover(exc)

    def _send_staged(self) -> None:
        """One coalesced ``sendall`` for every staged op; on success
        they move to the in-flight queue.  Raises
        :class:`RemoteStoreError` on transport failure (socket
        dropped, ops left staged for the caller's recovery)."""
        client = self._client
        staged = self._staged
        sock = client._sock
        if sock is None:
            raise client._not_connected()
        pack = _HEADER.pack
        parts: List[bytes] = []
        for opcode, key, value, _arrival in staged:
            parts += (pack(opcode, len(key), len(value)), key, value)
        try:
            sock.sendall(b"".join(parts))
        except OSError as exc:
            raise client._transport_error(exc) from exc
        n = len(staged)
        client.send_calls += 1
        self._inflight.extend(staged)
        staged.clear()
        self.flushes += 1
        self.coalesced_ops += n
        client.pipeline_flushes += 1
        client.flush_coalesced_ops += n
        client.inflight_depth = len(self._inflight)

    def drain(self) -> None:
        """Flush staged frames and wait for every in-flight reply."""
        self.flush()
        self._collect(0)

    def _collect(self, target: int) -> None:
        while len(self._inflight) > target:
            self._recv_some()
        self._client.inflight_depth = len(self._inflight)

    def _recv_some(self) -> None:
        client = self._client
        sock = client._sock
        if sock is None:
            self._recover(client._not_connected())
            return
        try:
            n = sock.recv_into(self._chunkbuf)
        except OSError as exc:
            self._recover(client._transport_error(exc), cause=exc)
            return
        if n == 0:
            self._recover(client._transport_error(
                ConnectionError("peer closed the connection")
            ))
            return
        client.recv_calls += 1
        with memoryview(self._chunkbuf)[:n] as chunk:
            self._recvbuf += chunk
        self._complete_replies()

    def _complete_replies(self) -> None:
        """Parse every complete reply frame staged in the receive
        buffer and complete its in-flight op, oldest first."""
        client = self._client
        buf = self._recvbuf
        inflight = self._inflight
        on_complete = self._on_complete
        head_size = _REPLY_HEAD.size
        pos = 0
        now = time.perf_counter_ns()
        try:
            while len(buf) - pos >= head_size:
                status, length = _REPLY_HEAD.unpack_from(buf, pos)
                if len(buf) - pos < head_size + length:
                    break
                body_start = pos + head_size
                pos = body_start + length
                if not inflight:
                    raise client._protocol_violation(
                        f"reply {status} with no request in flight"
                    )
                opcode, _key, _value, arrival = inflight.popleft()
                if status == REPLY_VALUE:
                    on_complete(opcode, arrival, now,
                                bytes(buf[body_start:pos]))
                elif status == REPLY_OK or status == REPLY_MISSING:
                    on_complete(opcode, arrival, now, None)
                elif status == REPLY_ERROR:
                    raise client._server_error(bytes(buf[body_start:pos]))
                else:
                    raise client._protocol_violation(
                        f"reply {status} to a pipelined op"
                    )
        finally:
            del buf[:pos]
        self._client.inflight_depth = len(inflight)

    def _recover(self, error: RemoteStoreError,
                 cause: Optional[BaseException] = None) -> None:
        """Transport failure: abort the window, re-queue every un-acked
        op, and -- under the client's retry policy -- reconnect and
        re-send them, the same steps and budget as a synchronous retry
        (the policy's ``op_timeout_s`` bounds the re-send too).  Without
        a policy the pending ops stay staged and the error propagates
        (an outer layer may reconnect and flush)."""
        client = self._client
        client._drop_socket()
        pending = list(self._inflight)
        pending.extend(self._staged)
        self._inflight.clear()
        self._staged.clear()
        self._recvbuf.clear()
        self._staged.extend(pending)
        self.aborted_windows += 1
        client.aborted_windows += 1
        client.inflight_depth = 0
        tracing.instant("remote.pipeline_abort", pending=len(pending))
        policy = client._retry_policy
        if policy is None:
            raise error from cause
        policy.call(
            client._attempt, self._send_staged,
            retry_on=(RemoteStoreError,), failed=error,
        )
