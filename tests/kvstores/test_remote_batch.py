"""Batch frames: OP_BATCH round-trips, vectored replies, and per-op
frames interleaved with batches on one connection."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.kvstores import InMemoryStore, connect
from repro.kvstores.api import OP_DELETE, OP_GET, OP_MERGE, OP_PUT
from repro.kvstores.remote import (
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
    """A reintroduced protocol hang should fail fast, not wedge the suite."""
    hang_guard(60)


@pytest.fixture
def server():
    with StoreServer(InMemoryStore()) as srv:
        yield srv


def client_for(server):
    host, port = server.address
    return RemoteStoreClient(host, port)


class TestBatchRoundTrip:
    def test_apply_batch_then_multi_get(self, server):
        with client_for(server) as client:
            client.apply_batch(
                [
                    (OP_PUT, b"a", b"1"),
                    (OP_MERGE, b"b", b"x"),
                    (OP_MERGE, b"b", b"y"),
                    (OP_PUT, b"c", b"3"),
                    (OP_DELETE, b"c", b""),
                ]
            )
            assert client.multi_get([b"a", b"b", b"c", b"nope"]) == [
                b"1",
                b"xy",
                None,
                None,
            ]

    def test_multi_get_duplicate_keys_and_empty_values(self, server):
        with client_for(server) as client:
            client.apply_batch([(OP_PUT, b"k", b"")])
            assert client.multi_get([b"k", b"k", b"gone"]) == [b"", b"", None]

    def test_empty_batches_are_no_ops(self, server):
        with client_for(server) as client:
            client.apply_batch([])
            assert client.multi_get([]) == []

    def test_large_batch_single_round_trip(self, server):
        with client_for(server) as client:
            ops = [(OP_PUT, b"k%04d" % i, bytes([i % 256]) * 50) for i in range(500)]
            client.apply_batch(ops)
            keys = [op[1] for op in ops]
            assert client.multi_get(keys) == [op[2] for op in ops]

    def test_mixed_batch_vectored_replies(self, server):
        """The wire format supports read/write-mixed batches even though
        the replayer only sends homogeneous runs; reply items line up
        positionally with the request items."""
        with client_for(server) as client:
            replies = client._batch_request(
                [
                    (OP_PUT, b"m", b"v"),
                    (OP_GET, b"m", b""),
                    (OP_GET, b"absent", b""),
                    (OP_DELETE, b"m", b""),
                    (OP_GET, b"m", b""),
                ]
            )
            assert [status for status, _ in replies] == [
                REPLY_OK,
                REPLY_VALUE,
                REPLY_MISSING,
                REPLY_OK,
                REPLY_MISSING,
            ]
            assert replies[1][1] == b"v"


class TestCompatibility:
    def test_per_op_client_against_v2_server(self, server):
        """Per-op frames and batch frames interleave freely on one
        connection: each reply answers its own request, in order."""
        with client_for(server) as client:
            client.put(b"k", b"v")
            client.merge(b"k", b"w")
            assert client.multi_get([b"k", b"x"]) == [b"vw", None]
            assert client.get(b"k") == b"vw"
            client.apply_batch([(OP_DELETE, b"k", b""), (OP_PUT, b"x", b"1")])
            assert client.get(b"k") is None
            assert client.get(b"x") == b"1"
            assert client.reconnects == 0
            assert client.send_calls == 7


class _PoisonStore(InMemoryStore):
    """Raises on any write touching the poison key."""

    POISON = b"poison"

    def put(self, key, value):
        if key == self.POISON:
            raise RuntimeError("poisoned key")
        super().put(key, value)

    def apply_batch(self, ops):
        if any(op[1] == self.POISON for op in ops):
            raise RuntimeError("poisoned key")
        super().apply_batch(ops)


class TestBatchErrors:
    def test_failed_batch_reports_error_and_connection_survives(self):
        with StoreServer(_PoisonStore()) as server:
            with client_for(server) as client:
                with pytest.raises(RemoteStoreError, match="poisoned"):
                    client.apply_batch(
                        [(OP_PUT, b"ok", b"1"), (OP_PUT, b"poison", b"2")]
                    )
                # One bad batch never kills the connection: the same
                # socket keeps serving batches and per-op requests.
                client.apply_batch([(OP_PUT, b"ok2", b"3")])
                assert client.get(b"ok2") == b"3"
                assert client.reconnects == 0

    def test_error_items_are_vectored_per_op(self):
        with StoreServer(_PoisonStore()) as server:
            with client_for(server) as client:
                replies = client._batch_request(
                    [
                        (OP_GET, b"nope", b""),
                        (OP_PUT, b"poison", b"2"),
                        (OP_GET, b"nope", b""),
                    ]
                )
                statuses = [status for status, _ in replies]
                assert statuses == [REPLY_MISSING, REPLY_ERROR, REPLY_MISSING]
                assert b"poisoned" in replies[1][1]

    def test_batch_rejects_read_opcode_in_apply_batch(self, server):
        """``apply_batch`` is write-only like every local store's: a read
        member fails the call before any byte of the batch is sent."""
        with client_for(server) as client:
            with pytest.raises(ValueError, match="apply_batch is write-only"):
                client.apply_batch([(OP_PUT, b"k", b"v"), (OP_GET, b"k", b"")])
            assert client.send_calls == 0
            assert client.get(b"k") is None  # the put was not sent either


KEYS = st.binary(min_size=1, max_size=4)
VALUES = st.binary(min_size=0, max_size=16)
BATCHES = st.lists(
    st.lists(
        st.one_of(
            st.tuples(st.just(OP_PUT), KEYS, VALUES),
            st.tuples(st.just(OP_MERGE), KEYS, VALUES),
            st.tuples(st.just(OP_DELETE), KEYS, st.just(b"")),
        ),
        min_size=1,
        max_size=12,
    ),
    max_size=8,
)


@given(batches=BATCHES)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_remote_batches_match_local_per_op(batches):
    """Any sequence of write batches lands identically through the wire
    (batch frames) and locally per-op."""
    local = connect(InMemoryStore())
    for batch in batches:
        for opcode, key, value in batch:
            if opcode == OP_PUT:
                local.put(key, value)
            elif opcode == OP_MERGE:
                local.merge(key, value)
            else:
                local.delete(key)
    with StoreServer(InMemoryStore()) as server:
        with client_for(server) as client:
            for batch in batches:
                client.apply_batch(batch)
            keys = sorted({op[1] for batch in batches for op in batch})
            assert client.multi_get(keys) == [local.get(key) for key in keys]
    local.close()
