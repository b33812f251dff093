"""Byte goldens of every blob the persistent stores write under the
default checksum kind.

One fixed, seeded put/merge/delete workload runs against rocksdb,
lethe, berkeleydb and faster with ``checksum=None``: single ops first,
then the same mix as write batches.  It is sized so that each store
flushes and compacts, pages out, or seals segments.  The sha256 of
every blob left in storage is pinned, so any change to an on-disk
layout written by default moves a digest.
"""

import hashlib
import random

import pytest

from repro.kvstores import connect
from repro.kvstores.api import OP_DELETE, OP_MERGE, OP_PUT
from repro.kvstores.btree import BTreeConfig, BTreeStore
from repro.kvstores.faster import FasterConfig, FasterStore
from repro.kvstores.integrity import DEFAULT_CHECKSUM_KIND, ChecksumKind
from repro.kvstores.lsm import LetheConfig, LetheStore, LSMConfig, RocksLSMStore
from repro.kvstores.storage import MemoryStorage

pytestmark = pytest.mark.skipif(
    DEFAULT_CHECKSUM_KIND is not ChecksumKind.CRC32,
    reason="goldens are recorded under the zlib CRC-32 default kind",
)

_LSM_KNOBS = dict(
    write_buffer_size=4096,
    block_size=512,
    block_cache_size=8192,
    level_base_bytes=16384,
    target_file_size=8192,
    max_levels=4,
)

STORES = {
    "rocksdb": lambda s: RocksLSMStore(LSMConfig(**_LSM_KNOBS), storage=s),
    # A fixed clock: FADE"s tombstone ages never depend on wall time.
    "lethe": lambda s: LetheStore(
        LetheConfig(**_LSM_KNOBS), storage=s, clock=lambda: 0.0
    ),
    "berkeleydb": lambda s: BTreeStore(BTreeConfig(cache_bytes=4096), storage=s),
    "faster": lambda s: FasterStore(
        FasterConfig(memory_budget=8 * 1024, segment_size=16 * 1024), storage=s
    ),
}


def workload_ops(count=4000, seed=1234):
    rng = random.Random(seed)
    ops = []
    for i in range(count):
        key = b"key-%04d" % rng.randrange(300)
        roll = rng.random()
        if roll < 0.55:
            value = b"p%d-" % i + bytes(rng.randrange(97, 123) for _ in range(24))
            ops.append((OP_PUT, key, value))
        elif roll < 0.9:
            ops.append((OP_MERGE, key, b"m%d" % i))
        else:
            ops.append((OP_DELETE, key, b""))
    return ops


def run_workload(store) -> None:
    # The connector turns merge into read-modify-write on the stores
    # without a native merge, as the replayer does.
    connector = connect(store)
    ops = workload_ops()
    apply = {
        OP_PUT: connector.put,
        OP_MERGE: connector.merge,
        OP_DELETE: lambda key, _: connector.delete(key),
    }
    for opcode, key, value in ops[:3000]:
        apply[opcode](key, value)
    for start in range(3000, len(ops), 8):
        connector.apply_batch(ops[start : start + 8])


def did_background_work(name, store) -> bool:
    if name in ("rocksdb", "lethe"):
        return store.stats.flushes > 0 and store.stats.compactions > 0
    if name == "berkeleydb":
        return store._pages.page_outs > 0
    return len(store.log.sealed_segments()) > 0


def blob_digests(name):
    storage = MemoryStorage()
    store = STORES[name](storage)
    run_workload(store)
    assert did_background_work(name, store)
    return {
        blob: hashlib.sha256(storage.read(blob)).hexdigest()
        for blob in sorted(storage.list())
    }


GOLDENS = {
    "berkeleydb": {
        "btree-page-00000000":
            "21d8634ad720f3420e8428179b4f2ea1571cdb7b4354ca2427017df733603d1c",
        "btree-page-00000001":
            "54cf762d12eff6df70f1844fb48aedc41375bce36a80e8801f58adb83a47f847",
        "btree-page-00000002":
            "586f110db3dfb3577d763042296910253ff24301ab1c42df23384842272d09ad",
        "btree-page-00000003":
            "7dbb77caf92306487c58d3d7e955cc413493cbcaf9b02282cde9ab4b5d377377",
        "btree-page-00000004":
            "f1d749593e12d3cf42358bbfeaa021f96429984cecfc5bb01af97b1e8a3f21ea",
        "btree-page-00000005":
            "0734c813c794a1623c564318ca6d62bc6f9795315600c55b67817607ebe0c983",
        "btree-page-00000009":
            "9fe527e3f2d488b1c4186713e1680c01e31a09fbfce62327851547c7767dbb4b",
        "btree-page-00000011":
            "10fcaacb75d9a4712882e55e836d0c71b326709eecd68de8c2cf8535b9d98fe5",
    },
    "faster": {
        "faster-seg-00000000":
            "e6e3dcc7b66185caa371b1b4f9c7f3130da1c5cfed8447695a6292647c545289",
        "faster-seg-00000001":
            "aa4723b06b5d56ca8c792a259014ea0716ffec2c47034bde526f53df56257851",
        "faster-seg-00000002":
            "dcf08b1c05d511dc46079cff7a63565f03b63c5355f1dfc57a28dd890caca7ed",
        "faster-seg-00000003":
            "e102540c07b27ac2367be29908a5a1cf83494f1b1482cecaaf6b2b78cb6169c3",
        "faster-seg-00000004":
            "fbb3b950bc5b956f9ae4bd422315ac0363c927105e03acdfc2bac1c92ea7f825",
        "faster-seg-00000005":
            "bdb05aba468f196b3d9f9f6d6a861c937ab5981c20877412baa247225afc29df",
        "faster-seg-00000006":
            "20f989d9150a8170f8be48d987c372562dce0890cfa23166c20d2e80bd26d22d",
        "faster-seg-00000007":
            "1c0426789ad1b75866bb390d7ca14cf96c791cfe318d4c3c682bb8d9d53b4c98",
        "faster-seg-00000008":
            "30d1d5a061e9ba2e054af7f00d76d32bc6d7635c5e2ac7ddccc3489fb69bef36",
    },
    "lethe": {
        "manifest-current":
            "3d73fe8c04e71bb7f187c86e88068289f17dccda4db47002d7e9a5199c719178",
        "sst-00000059":
            "c16ddbfc9613dfbc1d133175a418380bbbddba612061d5ab61f9103b8a578c09",
        "sst-00000060":
            "cad1410c771fe723e2d0da5b5ee6415db5e60a09317ac630891fe6c3810d9171",
        "wal-current":
            "88ceaeb453f136a57236137d01880b30f996c6d8fd3f4a5221397d7577639281",
    },
    "rocksdb": {
        "manifest-current":
            "3d73fe8c04e71bb7f187c86e88068289f17dccda4db47002d7e9a5199c719178",
        "sst-00000059":
            "c16ddbfc9613dfbc1d133175a418380bbbddba612061d5ab61f9103b8a578c09",
        "sst-00000060":
            "cad1410c771fe723e2d0da5b5ee6415db5e60a09317ac630891fe6c3810d9171",
        "wal-current":
            "88ceaeb453f136a57236137d01880b30f996c6d8fd3f4a5221397d7577639281",
    },
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_default_kind_blob_digests_are_pinned(name):
    assert blob_digests(name) == GOLDENS[name]
