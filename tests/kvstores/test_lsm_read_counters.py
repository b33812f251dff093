"""Exact read-path counters of a small YCSB-B run on the LSM stores.

The read path may get faster, but it must do the same work: the same
block-cache hits, misses and evictions, the same bytes read from
storage and charged to ``stats.bytes_read``, and the same value for
every ``get``.  The pinned numbers were recorded before block reads
stopped decoding whole blocks, and must not move.
"""

import hashlib

import pytest

from repro.core.replayer import synthesize_value
from repro.kvstores.lsm import LetheStore, RocksLSMStore
from repro.kvstores.storage import MemoryStorage
from repro.trace import OpType
from repro.ycsb import YCSBWorkload


class CountingStorage(MemoryStorage):
    def __init__(self) -> None:
        super().__init__()
        self.read_calls = 0
        self.read_bytes = 0

    def read(self, name):
        data = super().read(name)
        self.read_calls += 1
        self.read_bytes += len(data)
        return data

    def read_range(self, name, offset, length):
        data = super().read_range(name, offset, length)
        self.read_calls += 1
        self.read_bytes += len(data)
        return data


def ycsb_b_counters(make_store):
    """Preload 2k records, replay 3k YCSB-B ops; return the read counters."""

    def workload():
        return YCSBWorkload.core(
            "B", record_count=2000, operation_count=3000, value_size=256, seed=7
        )

    storage = CountingStorage()
    store = make_store(storage)
    workload().preload(store)
    digest = hashlib.sha256()
    gets = 0
    for access in workload().generate():
        if access.op is OpType.GET:
            value = store.get(access.key)
            gets += 1
            digest.update(access.key)
            digest.update(b"\x00missing" if value is None else value)
        else:
            store.put(access.key, synthesize_value(access.value_size))
    cache = store.block_cache
    return {
        "gets": gets,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "bytes_read": store.stats.bytes_read,
        "read_calls": storage.read_calls,
        "read_bytes": storage.read_bytes,
        "digest": digest.hexdigest(),
    }


STORES = {
    "rocksdb": lambda storage: RocksLSMStore(storage=storage),
    # A fixed clock: FADE's tombstone ages never depend on wall time.
    "lethe": lambda storage: LetheStore(storage=storage, clock=lambda: 0.0),
}

# Lethe departs from rocksdb only around tombstones and YCSB-B writes
# none, so both stores do the same work.
EXPECTED = {
    "gets": 2850,
    "cache_hits": 292,
    "cache_misses": 1383,
    "cache_evictions": 1366,
    "bytes_read": 965797,
    "read_calls": 1519,
    "read_bytes": 5924323,
    "digest": "9c78e29f91637b34840869b3326f4c97373159b4026a8dfe7d3776470af4a4d5",
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_ycsb_b_read_counters_are_pinned(name):
    assert ycsb_b_counters(STORES[name]) == EXPECTED
