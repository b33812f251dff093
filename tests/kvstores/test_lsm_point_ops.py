"""The LSM's point ops run in one frame.

``put``/``merge``/``delete`` hand one write body the record's fields;
that body bumps the sequence, encodes the WAL frame inline, appends it,
applies the memtable's stack rule and checks rotation.  A ``get`` whose
newest active-memtable record is a put or a tombstone returns from
``get``.  These tests pin what that must not change (the WAL bytes,
recovery, the memtable, FADE's cadence) and the frames it saves,
counted with ``sys.setprofile`` over a replay.
"""

import random
import sys
from collections import Counter

import pytest

from repro.core import Driver, TraceReplayer, make_workload, synthesize_value
from repro.datasets import BorgConfig, generate_borg
from repro.kvstores import LetheStore, RocksLSMStore, connect
from repro.kvstores.integrity import ChecksumKind
from repro.kvstores.lsm import LetheConfig, LSMConfig
from repro.kvstores.lsm.memtable import Memtable
from repro.kvstores.lsm.record import (
    WAL_HEADER_SIZE,
    Record,
    RecordKind,
    decode_wal,
    frame_record,
)
from repro.kvstores.storage import MemoryStorage

#: no rotation: every write stays in the WAL and the active memtable
UNFLUSHED = dict(write_buffer_size=1 << 30)


def random_ops(n, seed=3, keys=40):
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        key = b"k%02d" % rng.randrange(keys)
        kind = rng.choice((RecordKind.PUT, RecordKind.MERGE, RecordKind.MERGE, RecordKind.DELETE))
        ops.append((kind, key, b"" if kind is RecordKind.DELETE else b"v%d" % i))
    return ops


def apply(store, ops):
    for kind, key, value in ops:
        if kind is RecordKind.PUT:
            store.put(key, value)
        elif kind is RecordKind.MERGE:
            store.merge(key, value)
        else:
            store.delete(key)


def wal_blobs(storage):
    return {name: storage.read(name) for name in storage.list() if name.startswith("wal-")}


class TestWalFrames:
    @pytest.mark.parametrize("checksum", list(ChecksumKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("kind", list(RecordKind), ids=lambda k: k.name)
    def test_inline_frame_is_frame_record(self, kind, checksum):
        storage = MemoryStorage()
        store = RocksLSMStore(LSMConfig(checksum=checksum.name.lower()), storage=storage)
        value = b"" if kind is RecordKind.DELETE else b"value-\x00\xff"
        apply(store, [(kind, b"key", value)])
        expected = frame_record(Record(kind, 1, b"key", value), checksum)
        assert storage.read("wal-current")[WAL_HEADER_SIZE:] == expected
        assert store.stats.bytes_written == len(expected)
        assert store._wal_bytes == len(expected)

    def test_foreground_and_background_write_the_same_wal(self):
        ops = random_ops(500)
        inline = RocksLSMStore(LSMConfig(**UNFLUSHED), storage=MemoryStorage())
        background = RocksLSMStore(
            LSMConfig(background=True, **UNFLUSHED), storage=MemoryStorage()
        )
        apply(inline, ops)
        apply(background, ops)
        try:
            assert list(wal_blobs(inline.storage)) == ["wal-current"]
            assert list(wal_blobs(background.storage)) == ["wal-000001"]
            assert (
                inline.storage.read("wal-current")
                == background.storage.read("wal-000001")
            )
            assert background._segment_bytes["wal-000001"] == inline._wal_bytes
            assert background._wal_bytes == inline._wal_bytes
            assert vars(background.stats.snapshot()) == vars(inline.stats.snapshot())
        finally:
            inline.close()
            background.close()

    def test_memtable_holds_what_add_all_builds_from_the_wal(self):
        """The write body's stack rule and arena bytes are
        :meth:`Memtable.add_all`'s."""
        store = RocksLSMStore(LSMConfig(**UNFLUSHED))
        apply(store, random_ops(2000))
        rebuilt = Memtable()
        rebuilt.add_all(decode_wal(store.storage.read("wal-current")).records)
        assert store._memtable.entries == rebuilt.entries
        assert list(store._memtable.entries) == list(rebuilt.entries)
        assert store._memtable.approximate_bytes == rebuilt.approximate_bytes


@pytest.mark.parametrize("config", [UNFLUSHED, dict(write_buffer_size=2048)], ids=["wal", "flushed"])
def test_reopened_store_has_identical_contents(config):
    storage = MemoryStorage()
    store = RocksLSMStore(LSMConfig(**config), storage=storage)
    ops = random_ops(3000)
    apply(store, ops)
    keys = sorted({key for _, key, _ in ops})
    expected = [store.get(key) for key in keys]
    revived = RocksLSMStore(LSMConfig(**config), storage=storage)
    revived.recover()
    assert [revived.get(key) for key in keys] == expected
    assert list(revived.scan(b"", b"\xff")) == list(store.scan(b"", b"\xff"))
    assert revived._sequence == store._sequence
    assert revived._memtable.entries == store._memtable.entries
    assert revived._memtable.approximate_bytes == store._memtable.approximate_bytes


def test_get_decides_from_the_newest_active_record():
    store = RocksLSMStore(LSMConfig(**UNFLUSHED))
    store.put(b"a", b"1")
    store.merge(b"b", b"x")
    store.put(b"c", b"3")
    store.delete(b"c")
    store.put(b"d", b"4")
    store.merge(b"d", b"y")
    assert [store.get(k) for k in (b"a", b"b", b"c", b"d", b"e")] == [
        b"1",
        b"x",
        None,
        b"4y",
        None,
    ]
    assert store.stats.gets == 5


# -- frames per op ---------------------------------------------------------


@pytest.fixture(scope="module")
def borg_seed7():
    return generate_borg(BorgConfig(target_events=3000, seed=7))[0]


#: what each foreground frame of the store may call directly: the
#: storage append, maintenance, a FADE pass, and (for a get the active
#: memtable does not decide) the full resolution
FOREGROUND_CALLEES = {
    "put": {"_write"},
    "merge": {"_write"},
    "delete": {"_write"},
    "_write": {"append", "_rotate_memtable", "_request_fade"},
    "get": {"_get_resolved"},
}

#: calls/op ceilings per trace (the per-record write path, with a frame
#: each for the sequence, record, frame, checksum and memtable, ran
#: 11.28 / 10.58 and 15.48 / 16.41 for rocksdb / lethe)
CEILINGS = {"sliding-incremental": 6.0, "sliding-holistic": 9.5}


def profile_replay(store, trace):
    replayer = TraceReplayer(connect(store))
    codes = Counter()
    edges = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[code] += 1
            edges[frame.f_back.f_code, code] += 1

    sys.setprofile(profile)
    try:
        replayer.replay(trace)
    finally:
        sys.setprofile(None)
    return codes, edges


def memtable_decided_gets(store_cls, trace):
    """Gets of ``trace`` whose newest active-memtable record is a put or
    a tombstone, counted on an unprofiled replay."""
    store = store_cls()
    decided = [0]
    inner = store.get

    def get(key):
        stack = store._memtable.entries.get(key)
        if stack and stack[-1].kind is not RecordKind.MERGE:
            decided[0] += 1
        return inner(key)

    store.get = get
    TraceReplayer(connect(store)).replay(trace)
    return decided[0]


@pytest.mark.parametrize("workload", sorted(CEILINGS))
@pytest.mark.parametrize(
    "store_cls", [RocksLSMStore, LetheStore], ids=["rocksdb", "lethe"]
)
def test_point_ops_run_one_frame(borg_seed7, workload, store_cls):
    trace = Driver(make_workload(workload), [borg_seed7]).run()
    for size in set(trace.value_sizes):
        synthesize_value(size)
    # a first replay takes any lazy import out of the counted ones
    TraceReplayer(connect(store_cls())).replay(trace[:2000])
    codes, edges = profile_replay(store_cls(), trace)
    assert (codes, edges) == profile_replay(store_cls(), trace)  # counts repeat

    store_codes = {
        name: getattr(RocksLSMStore, name).__code__ for name in FOREGROUND_CALLEES
    }
    for name, code in store_codes.items():
        callees = {callee.co_name for caller, callee in edges if caller is code}
        assert callees <= FOREGROUND_CALLEES[name], name
    gets = codes[store_codes["get"]]
    resolved = edges[store_codes["get"], RocksLSMStore._get_resolved.__code__]
    # one frame per get the active memtable decides
    assert gets - resolved == memtable_decided_gets(store_cls, trace)
    # a holistic window's state is merge operands: no get is decided
    assert (gets - resolved > 0) == (workload == "sliding-incremental")
    writes = sum(codes[store_codes[op]] for op in ("put", "merge", "delete"))
    assert codes[store_codes["_write"]] == writes
    assert sum(codes.values()) / len(trace) <= CEILINGS[workload]


def test_fade_fires_at_the_same_write_counts_on_a_holistic_replay(borg_seed7):
    """FADE runs every ``fade_check_interval`` writes counted since the
    previous pass; a batch counts each member and triggers at its end."""
    trace = Driver(make_workload("sliding-holistic"), [borg_seed7]).run()
    interval = 700

    def fired(batch_size):
        store = LetheStore(
            LetheConfig(fade_check_interval=interval), clock=lambda: 0.0
        )
        at, runs = [], []
        request_fade = store._request_fade
        store._request_fade = lambda: (at.append(store._writes), request_fade())
        for op in ("put", "merge", "delete", "apply_batch"):
            inner = getattr(store, op)

            def counted(*args, _inner=inner, _op=op):
                runs.append(len(args[0]) if _op == "apply_batch" else 1)
                return _inner(*args)

            setattr(store, op, counted)
        TraceReplayer(connect(store), batch_size=batch_size).replay(trace)
        assert store._writes == sum(runs)
        return at, runs

    def counted_since_last(runs):
        # the write counter as a tally reset at every pass
        at, since, total = [], 0, 0
        for run in runs:
            since += run
            total += run
            if since >= interval:
                at.append(total)
                since = 0
        return at

    per_op, runs = fired(None)
    assert set(runs) == {1}
    assert per_op == counted_since_last(runs)
    assert per_op == list(range(interval, len(runs) + 1, interval))
    assert len(per_op) >= 20

    batched, runs = fired(16)
    assert max(runs) == 16
    assert batched == counted_since_last(runs)
    assert batched != per_op
