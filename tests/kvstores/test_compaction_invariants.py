"""Level invariants checked after every compaction.

The compaction-metadata checks of a reference LSM, written as test-side
invariants: every output table's ``num_entries`` equals the records it
holds, its ``smallest_key``/``largest_key`` are its first and last
key, and where the policy keeps levels 1+ disjoint (leveled, and so
Lethe) each of those levels stays sorted and non-overlapping.  Run on a
seeded mixed put/merge/delete workload under every policy, inline and
with background workers.
"""

import itertools
import random

import pytest

from repro.kvstores import AppendMergeOperator
from repro.kvstores.lsm import POLICY_NAMES, LetheConfig, LetheStore, LSMConfig, RocksLSMStore
from repro.kvstores.storage import MemoryStorage

SIZES = dict(
    write_buffer_size=2048,
    block_size=256,
    block_cache_size=4096,
    level_base_bytes=4096,
    target_file_size=2048,
    max_levels=4,
    l0_compaction_trigger=2,
)


class Unfolded(AppendMergeOperator):
    """No partial merge: a key's operands above the bottom stay apart,
    so output tables hold keys with several records."""

    def partial_merge(self, left, right):
        return None


def watch_compactions(store):
    """Check the invariants after every installed compaction; return
    the list that collects what broke (read after the workload)."""
    broken = []
    checked = []
    install = store._install_compaction

    def checked_install(inputs, task):
        outputs = list(store._new_outputs)
        installed = install(inputs, task)
        if installed:
            checked.append(len(outputs))
            broken.extend(table_faults(outputs))
            with store._mutex:
                broken.extend(level_faults(store))
        return installed

    store._install_compaction = checked_install
    return broken, checked


def table_faults(tables):
    for table in tables:
        keys = [record.key for record in table.iter_records()]
        if table.num_entries != len(keys):
            yield f"{table}: num_entries {table.num_entries} != {len(keys)} records"
        if (table.smallest_key, table.largest_key) != (keys[0], keys[-1]):
            yield f"{table}: key range is not [{keys[0]!r}, {keys[-1]!r}]"


def level_faults(store):
    if store._policy.overlapping_runs:
        return
    for depth, level in enumerate(store._levels[1:], start=1):
        for left, right in zip(level, level[1:]):
            if not left.largest_key < right.smallest_key:
                yield f"L{depth}: {left} and {right} overlap or are out of order"


def mixed_workload(store, seed=11, ops=3000, keys=150):
    rng = random.Random(seed)
    for _ in range(ops):
        key = b"user%04d" % rng.randrange(keys)
        roll = rng.random()
        if roll < 0.5:
            store.put(key, b"v" * rng.randrange(1, 60))
        elif roll < 0.85:
            store.merge(key, b"m" * rng.randrange(1, 20))
        else:
            store.delete(key)
    store.flush()


def run_checked(store):
    try:
        broken, checked = watch_compactions(store)
        mixed_workload(store)
        if store.config.background:
            store.quiesce()
    finally:
        store.close()
    assert checked, "the workload ran no compaction"
    assert sum(checked) > len(checked), "no compaction wrote several tables"
    assert broken == []


@pytest.mark.parametrize("background", [False, True], ids=["inline", "background"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_invariants_hold_after_every_compaction(policy, background):
    config = LSMConfig(compaction_policy=policy, background=background, **SIZES)
    run_checked(RocksLSMStore(config, Unfolded(), storage=MemoryStorage()))


@pytest.mark.parametrize("background", [False, True], ids=["inline", "background"])
def test_invariants_hold_after_every_lethe_compaction(background):
    # a clock that ages tombstones past the threshold, so FADE compacts too
    config = LetheConfig(
        background=background, delete_persistence_threshold_s=5.0,
        fade_check_interval=200, **SIZES
    )
    clock = itertools.count(0, 0.5).__next__
    run_checked(LetheStore(config, Unfolded(), storage=MemoryStorage(), clock=clock))
