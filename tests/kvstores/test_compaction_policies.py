"""Compaction-policy zoo: conformance every policy must satisfy.

Each registered policy (leveled / tiered / universal) is run through
the same behavioral gauntlet -- correctness is policy-independent, only
the tree *shape* may differ:

* every written key stays readable through flushes and compactions
* deletes never resurrect, even after the tombstone is compacted
* a manifest + WAL recovery round-trips the full contents
* the L0 trigger actually fires (compactions happen)

Plus the registry surface itself and Lethe's veto of overlapping-run
policies (FADE requires disjoint levels).
"""

from types import SimpleNamespace

import pytest

from repro.kvstores.lsm import (
    POLICY_NAMES,
    LetheConfig,
    LetheStore,
    LSMConfig,
    RocksLSMStore,
)
from repro.kvstores.lsm.policies import (
    POLICIES,
    LeveledPolicy,
    TieredPolicy,
    UniversalPolicy,
    resolve_policy,
)
from repro.kvstores.storage import MemoryStorage


def tiny(policy, **overrides):
    defaults = dict(
        write_buffer_size=1024,
        block_cache_size=4096,
        level_base_bytes=4096,
        target_file_size=2048,
        max_levels=4,
        l0_compaction_trigger=2,
        compaction_policy=policy,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


class TestPolicyRegistry:
    def test_registry_names_are_sorted_and_complete(self):
        assert POLICY_NAMES == tuple(sorted(POLICIES))
        assert {"leveled", "tiered", "universal"} <= set(POLICY_NAMES)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_resolve_round_trips(self, name):
        assert resolve_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown compaction policy"):
            resolve_policy("mystery")

    def test_unknown_policy_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown compaction policy"):
            RocksLSMStore(tiny("mystery"), storage=MemoryStorage())

    def test_overlap_semantics(self):
        # leveled keeps levels >=1 disjoint; the others stack runs
        assert not LeveledPolicy().overlapping_runs
        assert TieredPolicy().overlapping_runs
        assert UniversalPolicy().overlapping_runs


@pytest.mark.parametrize("policy", POLICY_NAMES)
class TestPolicyConformance:
    def ingest(self, store, rounds=600, keys=60):
        for i in range(rounds):
            store.put(b"k%03d" % (i % keys), b"v%04d" % i)

    def test_all_keys_readable_after_compactions(self, policy):
        store = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        self.ingest(store)
        assert store.stats.compactions > 0, "trigger never fired"
        for k in range(60):
            assert store.get(b"k%03d" % k) is not None

    def test_newest_version_wins(self, policy):
        store = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        self.ingest(store, rounds=600, keys=60)
        # last write of key k was at round 540 + k
        for k in range(60):
            assert store.get(b"k%03d" % k) == b"v%04d" % (540 + k)

    def test_deletes_do_not_resurrect(self, policy):
        store = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        self.ingest(store, rounds=300)
        for k in range(0, 60, 3):
            store.delete(b"k%03d" % k)
        # keep compacting past the tombstones
        self.ingest(store, rounds=300, keys=30)
        store.flush()
        for k in range(30, 60, 3):  # not re-written by the second ingest
            assert store.get(b"k%03d" % k) is None

    def test_scan_is_sorted_and_deduplicated(self, policy):
        store = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        self.ingest(store)
        rows = list(store.scan(b"k000", b"k999"))
        keys = [key for key, _ in rows]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_recovery_round_trip(self, policy):
        storage = MemoryStorage()
        store = RocksLSMStore(tiny(policy), storage=storage)
        self.ingest(store)
        expected = dict(store.scan(b"k000", b"k999"))
        store.close()

        revived = RocksLSMStore(tiny(policy), storage=storage)
        revived.recover()
        assert dict(revived.scan(b"k000", b"k999")) == expected

    def test_scrub_clean_after_compactions(self, policy):
        store = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        self.ingest(store)
        assert store.scrub().clean

    def test_background_mode_matches_inline(self, policy):
        inline = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        background = RocksLSMStore(
            tiny(policy, background=True), storage=MemoryStorage()
        )
        try:
            self.ingest(inline)
            self.ingest(background)
            background.quiesce()
            assert dict(background.scan(b"k000", b"k999")) == dict(
                inline.scan(b"k000", b"k999")
            )
        finally:
            background.close()


class TestTreeShapes:
    """The one place policies *should* differ: the shape of the tree."""

    def build(self, policy):
        store = RocksLSMStore(tiny(policy), storage=MemoryStorage())
        for i in range(1200):
            store.put(b"k%03d" % (i % 120), b"v" * 48)
        store.flush()
        return store

    def test_leveled_keeps_l1_disjoint(self):
        store = self.build("leveled")
        for level in range(1, len(store._levels)):
            tables = sorted(store._levels[level], key=lambda t: t.smallest_key)
            for left, right in zip(tables, tables[1:]):
                assert left.largest_key < right.smallest_key

    def test_tiered_stacks_runs(self):
        store = self.build("tiered")
        # tiered never splits or re-partitions: each deeper level holds
        # whole merged runs, so data lives in far fewer, larger files
        assert store.stats.compactions > 0
        assert sum(store.level_file_counts()[1:]) >= 1


class TestUniversalRunCount:
    """An L1+ level counts as many sorted runs as it has tables covering
    one key: a full merge's disjoint outputs are one run, not a run per
    file, so the merge does not pick itself again."""

    @staticmethod
    def picker_view(level_one):
        levels = [[] for _ in range(7)]
        levels[1] = level_one
        return SimpleNamespace(
            config=LSMConfig(compaction_policy="universal"), _levels=levels
        )

    @staticmethod
    def table(smallest, largest):
        return SimpleNamespace(
            smallest_key=smallest, largest_key=largest, data_size=4096
        )

    def test_disjoint_tables_are_one_run(self):
        level_one = [self.table(b"k%d0" % i, b"k%d9" % i) for i in range(8)]
        assert UniversalPolicy().pick(self.picker_view(level_one)) is None

    def test_stacked_tables_still_hit_the_run_cap(self):
        level_one = [self.table(b"a", b"z") for _ in range(8)]
        task = UniversalPolicy().pick(self.picker_view(level_one))
        assert task is not None and task.reason == "run-count"

    def test_tables_sharing_a_boundary_key_both_cover_it(self):
        level_one = [self.table(b"a", b"m") for _ in range(4)]
        level_one += [self.table(b"m", b"z") for _ in range(4)]
        task = UniversalPolicy().pick(self.picker_view(level_one))
        assert task is not None and task.reason == "run-count"

    def test_load_past_a_full_merge_finishes(self):
        store = RocksLSMStore(
            LSMConfig(compaction_policy="universal"), storage=MemoryStorage()
        )
        pick, calls = store._policy.pick, []

        def bounded_pick(tree):
            calls.append(None)
            if len(calls) > 200:
                raise AssertionError("universal compaction keeps picking")
            return pick(tree)

        store._policy.pick = bounded_pick
        for i in range(8000):
            store.put(b"k%08d" % i, bytes(256))
        assert store.stats.compactions > 0
        assert store.get(b"k%08d" % 4321) == bytes(256)


class TestTieredRunCount:
    """A tier merge's output files are one run at their level: an L1+
    level counts its key-overlap depth, so a merge writing
    ``tier_trigger`` or more files does not fire the next level."""

    def test_disjoint_tables_are_one_run(self):
        level_one = [
            TestUniversalRunCount.table(b"k%d0" % i, b"k%d9" % i) for i in range(8)
        ]
        view = TestUniversalRunCount.picker_view(level_one)
        view.config = LSMConfig(compaction_policy="tiered")
        assert TieredPolicy().pick(view) is None

    def test_load_stays_off_the_last_level(self):
        store = RocksLSMStore(
            LSMConfig(compaction_policy="tiered"), storage=MemoryStorage()
        )
        for i in range(20000):
            store.put(b"k%08d" % (i * 7919 % 20000), bytes(256))
        store.flush()
        assert store.level_file_counts()[-1] == 0
        assert store.stats.compactions < 20


class TestLethePolicyVeto:
    @pytest.mark.parametrize("policy", ["tiered", "universal"])
    def test_overlapping_run_policies_rejected(self, policy):
        with pytest.raises(ValueError, match="FADE requires"):
            LetheStore(
                LetheConfig(compaction_policy=policy), storage=MemoryStorage()
            )

    def test_leveled_accepted(self):
        store = LetheStore(
            LetheConfig(compaction_policy="leveled"), storage=MemoryStorage()
        )
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
