"""FASTER and B+Tree point ops run in one frame; no store's background
probe runs a Python frame.

``FasterStore``'s four ops inline the hash-index probe, the
mutable-region test, the in-memory record read and the in-place
update.  ``BTreeStore.get`` descends in its own frame, ``put`` walks
down with a path stack, and a page-cache hit or page update is one
frame.  Every paper store accrues background time in a dict whose
``pop`` is the probe.

The goldens pin what none of that may change: every store counter, the
page cache's LRU order, the stored blobs and the contents, on a
streaming trace and on YCSB A/D/F.
"""

import hashlib
import sys
import threading
import time

import pytest

from repro.core import Driver, TraceReplayer, make_workload
from repro.datasets import BorgConfig, generate_borg
from repro.kvstores import (
    BTreeStore,
    FasterStore,
    LetheStore,
    RocksLSMStore,
    connect,
    create_connector,
)
from repro.kvstores.api import AppendMergeOperator
from repro.kvstores.btree import BTreeConfig
from repro.kvstores.btree.node import LeafNode
from repro.kvstores.btree.pagecache import PageCache
from repro.kvstores.connectors import ReadModifyWriteConnector
from repro.kvstores.faster import FasterConfig, HybridLog, LogRecord
from repro.kvstores.lsm import LetheConfig, LSMConfig
from repro.ycsb import YCSBWorkload

#: small budgets that make FASTER seal segments and read them back and
#: make the B+Tree split, rebalance and page out on a short trace
TIGHT = {
    "faster": dict(memory_budget=8 * 1024, segment_size=2 * 1024),
    "berkeleydb": dict(order=8, cache_bytes=8 * 1024),
}


def make_store(name, tight):
    overrides = TIGHT[name] if tight else {}
    if name == "faster":
        return FasterStore(FasterConfig(**overrides))
    return BTreeStore(BTreeConfig(**overrides))


@pytest.fixture(scope="module")
def borg_seed7():
    return generate_borg(BorgConfig(target_events=3000, seed=7))[0]


def run_case(name, case, borg):
    """Replay ``case`` on a fresh store; return it with the keys to read
    back."""
    workload, tight = case
    store = make_store(name, tight)
    connector = connect(store)
    if workload.startswith("ycsb-"):
        ycsb = YCSBWorkload.core(
            workload[-1], record_count=1000, operation_count=5000, seed=7
        )
        ycsb.preload(connector)
        trace = ycsb.generate()
        keys = set(ycsb.load_keys())
    else:
        trace = Driver(make_workload(workload), [borg]).run()
        keys = set()
    TraceReplayer(connector).replay(trace)
    keys.update(trace.unique_keys())
    return store, sorted(keys)


def blobs_digest(store):
    storage = store.storage_backend()
    digest = hashlib.sha256()
    for name in sorted(storage.list()):
        data = storage.read(name)
        digest.update(b"%s:%d:" % (name.encode(), len(data)) + data)
    return digest.hexdigest()[:16]


def contents_digest(store, keys):
    digest = hashlib.sha256()
    for key in keys:
        value = store.get(key)
        digest.update(key + b"=" + (b"<none>" if value is None else value) + b";")
    return digest.hexdigest()[:16]


def counters(store):
    stats = vars(store.stats.snapshot())
    stats.pop("extra")
    out = {k: v for k, v in stats.items() if v}
    if isinstance(store, FasterStore):
        log = store.log
        out.update(
            probes=store.index.probes,
            index_updates=store.index.updates,
            entries=len(store.index),
            appends=log.appends,
            in_place=log.in_place_updates,
            disk_reads=log.disk_reads,
            head=log.head,
            tail=log.tail,
            memory_bytes=log.memory_bytes,
            disk_records=log.disk_records,
            segments=len(log.sealed_segments()),
        )
    else:
        pages = store._pages
        cache = pages._cache
        lru = hashlib.sha256(repr((list(cache._entries), sorted(pages._dirty))).encode())
        out.update(
            hits=pages.hits,
            misses=pages.misses,
            evictions=cache.evictions,
            page_ins=pages.page_ins,
            page_outs=pages.page_outs,
            resident=pages.resident_pages,
            used=cache.used_bytes,
            height=store.height,
            entries=len(store),
            lru=lru.hexdigest()[:16],
        )
    return out


def fingerprint(name, case, borg):
    store, keys = run_case(name, case, borg)
    out = counters(store)
    out["blobs"] = blobs_digest(store)
    out["contents"] = contents_digest(store, keys)
    return out


CASES = [
    ("sliding-incremental", False),
    ("sliding-incremental", True),
    ("sliding-holistic", False),
    ("sliding-holistic", True),
    ("ycsb-A", False),
    ("ycsb-D", False),
    ("ycsb-D", True),
    ("ycsb-F", False),
]

#: recorded before the one-frame ops, by the per-method stores: the
#: YCSB-D rows over workload D's unfolded "latest" reads
GOLDENS = {
    ('faster', ('sliding-incremental', False)): {'gets': 16428, 'puts': 15000, 'deletes': 1428, 'bytes_written': 1020081, 'bytes_read': 1514495, 'probes': 31428, 'index_updates': 2861, 'entries': 1433, 'appends': 2861, 'in_place': 13567, 'disk_reads': 0, 'head': 0, 'tail': 197569, 'memory_bytes': 197569, 'disk_records': 0, 'segments': 0, 'blobs': 'e3b0c44298fc1c14', 'contents': '496dc3b94114bec9'},
    ('faster', ('sliding-incremental', True)): {'gets': 16428, 'puts': 15000, 'deletes': 1428, 'bytes_written': 1038540, 'bytes_read': 1514495, 'probes': 31428, 'index_updates': 3740, 'entries': 1433, 'appends': 3740, 'in_place': 12688, 'disk_reads': 909, 'head': 278170, 'tail': 286348, 'memory_bytes': 8178, 'disk_records': 3602, 'segments': 132, 'blobs': '1923f344025ac7f0', 'contents': '496dc3b94114bec9'},
    ('faster', ('sliding-holistic', False)): {'gets': 1428, 'merges': 15000, 'deletes': 1428, 'bytes_written': 6238308, 'bytes_read': 6760447, 'probes': 16428, 'index_updates': 16428, 'entries': 1433, 'appends': 16428, 'in_place': 0, 'disk_reads': 86, 'head': 6554385, 'tail': 6816156, 'memory_bytes': 261771, 'disk_records': 15741, 'segments': 392, 'blobs': '3cd301112f768332', 'contents': '2c50bdca510d1971'},
    ('faster', ('sliding-holistic', True)): {'gets': 1428, 'merges': 15000, 'deletes': 1428, 'bytes_written': 6238308, 'bytes_read': 6760447, 'probes': 16428, 'index_updates': 16428, 'entries': 1433, 'appends': 16428, 'in_place': 0, 'disk_reads': 6674, 'head': 6808277, 'tail': 6816156, 'memory_bytes': 7879, 'disk_records': 16369, 'segments': 2901, 'blobs': '86a1f4f3a7061282', 'contents': '2c50bdca510d1971'},
    ('faster', ('ycsb-A', False)): {'gets': 2505, 'puts': 3495, 'bytes_written': 903616, 'bytes_read': 701400, 'probes': 6000, 'index_updates': 1112, 'entries': 1000, 'appends': 1112, 'in_place': 2383, 'disk_reads': 47, 'head': 49280, 'tail': 311360, 'memory_bytes': 262080, 'disk_records': 176, 'segments': 2, 'blobs': '6c9cd8fd114c052f', 'contents': '78ec34f345c1d1b4'},
    ('faster', ('ycsb-D', False)): {'gets': 4766, 'puts': 1234, 'bytes_written': 325776, 'bytes_read': 1334480, 'probes': 6000, 'index_updates': 1234, 'entries': 1234, 'appends': 1234, 'in_place': 0, 'disk_reads': 25, 'head': 83440, 'tail': 345520, 'memory_bytes': 262080, 'disk_records': 298, 'segments': 5, 'blobs': '262e726902edea66', 'contents': '91ad90dea68e222f'},
    ('faster', ('ycsb-D', True)): {'gets': 4766, 'puts': 1234, 'bytes_written': 325776, 'bytes_read': 1334480, 'probes': 6000, 'index_updates': 1234, 'entries': 1234, 'appends': 1234, 'in_place': 0, 'disk_reads': 2099, 'head': 337400, 'tail': 345520, 'memory_bytes': 8120, 'disk_records': 1205, 'segments': 150, 'blobs': 'd5ca5d911251ca2e', 'contents': '91ad90dea68e222f'},
    ('faster', ('ycsb-F', False)): {'gets': 5000, 'puts': 3495, 'bytes_written': 903616, 'bytes_read': 1400000, 'probes': 8495, 'index_updates': 1112, 'entries': 1000, 'appends': 1112, 'in_place': 2383, 'disk_reads': 86, 'head': 49280, 'tail': 311360, 'memory_bytes': 262080, 'disk_records': 176, 'segments': 2, 'blobs': '6c9cd8fd114c052f', 'contents': '78ec34f345c1d1b4'},
    ('berkeleydb', ('sliding-incremental', False)): {'gets': 16428, 'puts': 15000, 'deletes': 1428, 'bytes_written': 1275000, 'bytes_read': 959680, 'hits': 46122, 'misses': 0, 'evictions': 0, 'page_ins': 0, 'page_outs': 0, 'resident': 1, 'used': 481, 'height': 1, 'entries': 5, 'lru': '4e21ec031c873806', 'blobs': 'e3b0c44298fc1c14', 'contents': '496dc3b94114bec9'},
    ('berkeleydb', ('sliding-incremental', True)): {'gets': 16428, 'puts': 15000, 'deletes': 1428, 'bytes_written': 1275000, 'bytes_read': 959680, 'hits': 88899, 'misses': 631, 'evictions': 631, 'page_ins': 631, 'page_outs': 624, 'resident': 1, 'used': 481, 'height': 1, 'entries': 5, 'lru': '4e21ec031c873806', 'blobs': 'c0666161d14a21e1', 'contents': '496dc3b94114bec9'},
    ('berkeleydb', ('sliding-holistic', False)): {'gets': 16428, 'puts': 15000, 'deletes': 1428, 'bytes_written': 6523320, 'bytes_read': 6205632, 'hits': 46122, 'misses': 0, 'evictions': 0, 'page_ins': 0, 'page_outs': 0, 'resident': 1, 'used': 2849, 'height': 1, 'entries': 5, 'lru': '4e21ec031c873806', 'blobs': 'e3b0c44298fc1c14', 'contents': '2c50bdca510d1971'},
    ('berkeleydb', ('sliding-holistic', True)): {'gets': 16428, 'puts': 15000, 'deletes': 1428, 'bytes_written': 6523320, 'bytes_read': 6200832, 'hits': 85324, 'misses': 4271, 'evictions': 4451, 'page_ins': 4271, 'page_outs': 3755, 'resident': 1, 'used': 2849, 'height': 1, 'entries': 9, 'lru': '4e21ec031c873806', 'blobs': 'e7de4483bd3ac68c', 'contents': '2c50bdca510d1971'},
    ('berkeleydb', ('ycsb-A', False)): {'gets': 2505, 'puts': 3495, 'bytes_written': 922680, 'bytes_read': 641280, 'hits': 11764, 'misses': 199, 'evictions': 201, 'page_ins': 199, 'page_outs': 186, 'resident': 29, 'used': 255100, 'height': 2, 'entries': 1000, 'lru': 'd6b951a9137d0f0e', 'blobs': 'f009966cfe5f3d6b', 'contents': '78ec34f345c1d1b4'},
    ('berkeleydb', ('ycsb-D', False)): {'gets': 4766, 'puts': 1234, 'bytes_written': 325776, 'bytes_read': 1220096, 'hits': 11835, 'misses': 135, 'evictions': 144, 'page_ins': 135, 'page_outs': 32, 'resident': 29, 'used': 255240, 'height': 2, 'entries': 1234, 'lru': '329ade5a127e9b0e', 'blobs': 'bb5faaed059253e6', 'contents': '91ad90dea68e222f'},
    ('berkeleydb', ('ycsb-D', True)): {'gets': 4766, 'puts': 1234, 'bytes_written': 325776, 'bytes_read': 1220096, 'hits': 17735, 'misses': 6371, 'evictions': 6705, 'page_ins': 6371, 'page_outs': 560, 'resident': 17, 'used': 6768, 'height': 5, 'entries': 1234, 'lru': 'f1f0672ea09cb5d9', 'blobs': 'ae1b34edd508543f', 'contents': '91ad90dea68e222f'},
    ('berkeleydb', ('ycsb-F', False)): {'gets': 5000, 'puts': 3495, 'bytes_written': 922680, 'bytes_read': 1280000, 'hits': 16754, 'misses': 199, 'evictions': 201, 'page_ins': 199, 'page_outs': 186, 'resident': 29, 'used': 255100, 'height': 2, 'entries': 1000, 'lru': 'd6b951a9137d0f0e', 'blobs': 'f009966cfe5f3d6b', 'contents': '78ec34f345c1d1b4'},
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0] + ("-tight" if c[1] else ""))
@pytest.mark.parametrize("name", ["faster", "berkeleydb"])
def test_counters_blobs_and_contents_match_the_goldens(borg_seed7, name, case):
    assert fingerprint(name, case, borg_seed7) == GOLDENS[name, case]


# -- frames per op ---------------------------------------------------------


def frames_of(names, fn, *args):
    """The Python frames ``fn(*args)`` runs, in call order, each named
    through ``names`` (code object -> name) or else by its co_name."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(names.get(frame.f_code, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def code_names(*functions):
    return {f.__code__: f.__qualname__ for f in functions}


class TestFasterFrames:
    """Each op is one store frame; an append adds the record's
    constructor and the log append, a merge its operator's
    ``full_merge``."""

    NAMES = code_names(
        FasterStore.get, FasterStore.put, FasterStore.merge, FasterStore.delete,
        LogRecord.__init__, HybridLog.append, AppendMergeOperator.full_merge,
    )
    APPEND = ["LogRecord.__init__", "HybridLog.append"]

    def test_each_op(self):
        store = FasterStore()
        log = store.log
        assert frames_of(self.NAMES, store.put, b"k", b"v1") == ["FasterStore.put"] + self.APPEND
        assert frames_of(self.NAMES, store.get, b"k") == ["FasterStore.get"]
        assert frames_of(self.NAMES, store.get, b"nope") == ["FasterStore.get"]
        # in place: the new value fits the record's allocation
        assert frames_of(self.NAMES, store.put, b"k", b"v2") == ["FasterStore.put"]
        assert log.in_place_updates == 1
        assert frames_of(self.NAMES, store.merge, b"k", b"") == [
            "FasterStore.merge", "AppendMergeOperator.full_merge",
        ]
        assert log.in_place_updates == 2
        # a grown value: read-copy-update appends
        assert frames_of(self.NAMES, store.merge, b"k", b"+w") == [
            "FasterStore.merge", "AppendMergeOperator.full_merge",
        ] + self.APPEND
        assert store.get(b"k") == b"v2+w"
        assert frames_of(self.NAMES, store.delete, b"k") == ["FasterStore.delete"] + self.APPEND
        assert frames_of(self.NAMES, store.delete, b"k-missing") == ["FasterStore.delete"]
        assert store.get(b"k") is None
        assert (store.index.probes, store.index.updates, log.appends) == (8, 3, 3)

    def test_a_read_below_head_goes_through_the_log(self):
        store = FasterStore(FasterConfig(memory_budget=256, segment_size=64))
        for i in range(20):
            store.put(b"k%02d" % i, b"v" * 20)
        assert store.log.head > 0
        frames = frames_of(self.NAMES, store.get, b"k00")
        assert frames[:2] == ["FasterStore.get", "read"]
        assert store.log.disk_reads == 1


class TestBTreeFrames:
    """A resident descent is one page-cache frame per level; a put adds
    the page update, and a new key the leaf's insert."""

    NAMES = code_names(
        BTreeStore.get, BTreeStore.put, PageCache.get, PageCache.update,
        LeafNode.insert, ReadModifyWriteConnector.merge,
        AppendMergeOperator.full_merge,
    )

    def store(self):
        store = BTreeStore(BTreeConfig(order=4))
        for i in range(8):
            store.put(b"k%d" % i, b"v")
        assert store.height == 2
        return store

    def test_each_op(self):
        store = self.store()
        descent = ["PageCache.get"] * 2
        assert frames_of(self.NAMES, store.get, b"k3") == ["BTreeStore.get"] + descent
        assert frames_of(self.NAMES, store.get, b"k35") == ["BTreeStore.get"] + descent
        assert frames_of(self.NAMES, store.put, b"k3", b"w") == (
            ["BTreeStore.put"] + descent + ["PageCache.update"]
        )
        assert frames_of(self.NAMES, store.put, b"k35", b"w") == (
            ["BTreeStore.put"] + descent + ["LeafNode.insert", "PageCache.update"]
        )
        connector = connect(store)
        assert frames_of(self.NAMES, connector.merge, b"k3", b"x") == (
            ["ReadModifyWriteConnector.merge", "BTreeStore.get"] + descent
            + ["AppendMergeOperator.full_merge", "BTreeStore.put"] + descent
            + ["PageCache.update"]
        )
        assert store.get(b"k3") == b"wx"
        assert store._pages.misses == 0

    def test_a_split_climbs_the_path(self):
        store = self.store()
        before = store.height
        for i in range(8, 40):
            store.put(b"k%02d" % i, b"v")
        assert store.height > before
        assert [k for k, _ in store.scan(b"", b"\xff")] == sorted(
            [b"k%d" % i for i in range(8)] + [b"k%02d" % i for i in range(8, 40)]
        )


# -- the background probe --------------------------------------------------


@pytest.mark.parametrize("name", ["rocksdb", "lethe", "faster", "berkeleydb", "memory"])
def test_no_store_probe_runs_a_python_frame(name):
    connector = create_connector(name)
    assert connector.take_background_ns is connector.store.take_background_ns
    assert frames_of({}, connector.take_background_ns) == []
    assert connector.take_background_ns() == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: FasterStore(FasterConfig(memory_budget=1024, segment_size=256)),
        lambda: BTreeStore(BTreeConfig(order=4, cache_bytes=512)),
        lambda: RocksLSMStore(LSMConfig(write_buffer_size=1024)),
    ],
    ids=["faster", "berkeleydb", "rocksdb"],
)
def test_the_probe_takes_what_accrued_once(make):
    store = make()
    for i in range(400):
        store.put(b"k%03d" % i, b"v" * 32)
    taken = store.take_background_ns()
    assert taken > 0
    assert store.take_background_ns() == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: RocksLSMStore(LSMConfig(background=True)),
        lambda: LetheStore(LetheConfig(background=True)),
    ],
    ids=["rocksdb", "lethe"],
)
def test_lsm_probe_racing_accruing_threads_loses_and_repeats_nothing(make):
    """Background mode accrues writer stalls on writer threads while the
    replay thread probes: every nanosecond accrued is taken exactly
    once (three writers and a prober, more threads than the two cores
    this ran on)."""
    store = make()
    writers, rounds = 3, 10_000
    done = threading.Event()
    taken = [0]

    def probe():
        take = store.take_background_ns
        while not done.is_set():
            taken[0] += take()

    def accrue():
        for delta in range(1, rounds + 1):
            store._add_background_ns(delta)
            if delta == rounds // 2:
                # the rest accrues while the prober is known to be taking
                deadline = time.monotonic() + 10
                while not taken[0] and time.monotonic() < deadline:
                    time.sleep(0.001)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    prober = threading.Thread(target=probe)
    accruers = [threading.Thread(target=accrue) for _ in range(writers)]
    try:
        prober.start()
        for thread in accruers:
            thread.start()
        for thread in accruers:
            thread.join(60)
        done.set()
        prober.join(60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
        store.close()
    assert not prober.is_alive() and not any(t.is_alive() for t in accruers)
    assert taken[0] + store.take_background_ns() == writers * rounds * (rounds + 1) // 2
    assert taken[0] > 0
