"""A connector that translates nothing costs no frame of its own.

``StoreConnector`` binds each op it does not translate to the store's
own method, so the replay walk reaches the store in one Python frame.
These tests pin that contract: which ops are the store's own, which
stay the connector's, that an instance patch and its removal leave a
working op, that the store server still reaches a store patched after
it started, that a replay runs no forwarding, probe, closed-check,
payload or histogram-bucket frame per op on the memory store, and that
every store still refuses every op once closed.
"""

import sys

import pytest

from repro.core import Driver, TraceReplayer, make_workload, synthesize_value
from repro.kvstores import (
    STORE_NAMES,
    BTreeStore,
    FasterStore,
    InMemoryStore,
    LetheStore,
    ReadModifyWriteConnector,
    RocksLSMStore,
    StoreConnector,
    connect,
    create_store,
)
from repro.kvstores.api import StoreClosedError
from repro.kvstores.remote import RemoteStoreClient, StoreServer

OPS = ("get", "put", "merge", "delete")
NATIVE_MERGE_STORES = {
    "memory": InMemoryStore,
    "rocksdb": RocksLSMStore,
    "lethe": LetheStore,
    "faster": FasterStore,
}


class TestConnectorOps:
    @pytest.mark.parametrize("name", sorted(NATIVE_MERGE_STORES))
    def test_ops_are_the_stores_own_methods(self, name):
        store = NATIVE_MERGE_STORES[name]()
        connector = connect(store)
        for op in OPS:
            assert getattr(connector, op) == getattr(store, op)
        assert connector.take_background_ns == store.take_background_ns

    def test_probe_that_can_only_return_zero_is_a_c_call(self):
        connector = connect(InMemoryStore())
        assert connector.take_background_ns is int
        assert connector.take_background_ns() == 0

    def test_btree_merge_stays_the_connectors(self):
        store = BTreeStore()
        connector = connect(store)
        assert connector.merge.__func__ is ReadModifyWriteConnector.merge
        assert connector.get == store.get
        assert connector.put == store.put
        assert connector.delete == store.delete
        # the B+Tree's own probe, bound directly
        assert connector.take_background_ns == store.take_background_ns

    def test_a_subclass_override_wins(self):
        class Upper(StoreConnector):
            def put(self, key, value):
                self.store.put(key, value.upper())

        store = InMemoryStore()
        connector = Upper(store)
        assert connector.put.__func__ is Upper.put
        assert connector.get == store.get
        connector.put(b"k", b"v")
        assert connector.get(b"k") == b"V"

    @pytest.mark.parametrize("op", OPS)
    def test_instance_patch_and_its_removal_leave_a_working_op(self, op):
        store = InMemoryStore()
        connector = connect(store)
        seen = []
        inner = getattr(connector, op)

        def patched(*args):
            seen.append(args)
            return inner(*args)

        setattr(connector, op, patched)
        args = (b"k",) if op in ("get", "delete") else (b"k", b"v")
        getattr(connector, op)(*args)
        assert seen == [args]
        delattr(connector, op)
        # the class's forwarding method shows through again
        assert getattr(connector, op).__func__ is getattr(StoreConnector, op)
        getattr(connector, op)(*args)
        assert len(seen) == 1
        assert store.stats.total_ops == 2


def test_server_reaches_a_store_patched_after_start(hang_guard):
    """The server connects at start-up; a per-op tracer patches the
    store later, and the server's calls must reach the patch."""
    hang_guard(30)
    store = InMemoryStore()
    with StoreServer(store) as server:
        host, port = server.address
        client = RemoteStoreClient(host, port, store_name="memory")
        try:
            seen = []
            for op in OPS:
                inner = getattr(store, op)

                def patched(*args, _inner=inner, _op=op):
                    seen.append(_op)
                    return _inner(*args)

                setattr(store, op, patched)
            client.put(b"k", b"v")
            client.merge(b"k", b"w")
            assert client.get(b"k") == b"vw"
            client.delete(b"k")
            assert seen == ["put", "merge", "get", "delete"]
        finally:
            client.close()


def test_replay_on_memory_runs_one_frame_per_op(borg_tasks):
    """No forwarding, background-probe, closed-check, payload or
    histogram-bucket frame per op: once every payload size is cached,
    the store's op is the one Python frame an op runs."""
    trace = Driver(make_workload("sliding-incremental"), [borg_tasks]).run()[:4000]
    for size in set(trace.value_sizes):
        synthesize_value(size)
    connector = connect(InMemoryStore())
    replayer = TraceReplayer(connector, use_histograms=True)
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[frame.f_code] = codes.get(frame.f_code, 0) + 1

    sys.setprofile(profile)
    try:
        replayer.replay(trace)
    finally:
        sys.setprofile(None)
    names = {code.co_name for code in codes}
    assert "take_background_ns" not in names
    assert "_check_open" not in names
    assert not names & {"synthesize_value", "__missing__", "_index"}
    forwarding = {getattr(StoreConnector, op).__code__ for op in OPS}
    assert not forwarding & set(codes)
    store_ops = sum(codes.get(getattr(InMemoryStore, op).__code__, 0) for op in OPS)
    assert store_ops == len(trace)
    # the rest is per replay (set-up, result, one histogram fold per op
    # type), 82 frames here: no per-op frame hides in it
    assert sum(codes.values()) - store_ops < 100


@pytest.mark.parametrize("name", STORE_NAMES)
@pytest.mark.parametrize("op", OPS)
def test_closed_store_refuses_every_op(name, op):
    store = create_store(name)
    connector = connect(store)
    connector.close()
    args = (b"k",) if op in ("get", "delete") else (b"k", b"v")
    with pytest.raises(StoreClosedError, match=f"^{store.name} store is closed$"):
        getattr(connector, op)(*args)
