"""The B+Tree leaf weight the page cache charges.

A leaf carries ``size_bytes`` as a maintained integer.  It must equal
``Σ(len(key) + len(value) + 8) + 16`` at every page-cache put, or
eviction order, page-outs and persisted bytes all move.
"""

import hashlib
import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, event, given, settings

from repro.kvstores import connect
from repro.kvstores.api import AppendMergeOperator
from repro.kvstores.btree import BTreeConfig, BTreeStore
from repro.kvstores.btree.node import LeafNode


def leaf_formula(leaf: LeafNode) -> int:
    return sum(len(k) + len(v) + 8 for k, v in zip(leaf.keys, leaf.values)) + 16


class _RecordingStore(BTreeStore):
    """Notes which tree mechanisms an op sequence reached."""

    def __init__(self, *args, **kwargs) -> None:
        self.reached = set()
        super().__init__(*args, **kwargs)

    def _split_leaf(self, leaf, page_id):
        self.reached.add("split")
        return super()._split_leaf(leaf, page_id)

    def _borrow_from_left(self, parent, parent_id, pos, left, left_id, child, child_id):
        self.reached.add("borrow_left" if child.is_leaf else "borrow_left_internal")
        return super()._borrow_from_left(parent, parent_id, pos, left, left_id, child, child_id)

    def _borrow_from_right(self, parent, parent_id, pos, child, child_id, right, right_id):
        self.reached.add("borrow_right" if child.is_leaf else "borrow_right_internal")
        return super()._borrow_from_right(parent, parent_id, pos, child, child_id, right, right_id)

    def _merge_children(self, parent, parent_id, left_pos):
        self.reached.add("merge_children")
        return super()._merge_children(parent, parent_id, left_pos)

    def delete(self, key):
        height = self.height
        super().delete(key)
        if self.height < height:
            self.reached.add("root_collapse")


def checked_store(order: int, cache_bytes: int, rebalance: bool = True) -> _RecordingStore:
    """A store whose page cache checks every leaf's weight at each put."""
    store = _RecordingStore(
        BTreeConfig(order=order, cache_bytes=cache_bytes, rebalance_on_delete=rebalance)
    )
    cache = store._pages._cache
    sizer = cache._sizer

    def checking_sizer(node):
        size = sizer(node)
        if node.is_leaf:
            assert size == leaf_formula(node)
        return size

    cache._sizer = checking_sizer
    return store


def check_invariants(store: BTreeStore, model: dict) -> None:
    cache = store._pages._cache
    for page_id, node in cache._entries.items():
        if node.is_leaf:
            assert node.size_bytes == leaf_formula(node), page_id
        assert cache._sizes[page_id] == node.size_bytes, page_id
    assert cache.used_bytes == sum(cache._sizes.values())
    assert len(store) == len(model)
    assert dict(store.scan(b"", b"\xff")) == model


def run_checked(store: BTreeStore, ops) -> None:
    connector = connect(store)
    merge = AppendMergeOperator().full_merge
    model: dict = {}
    for op, index, value in ops:
        key = b"k%03d" % index
        if op == "put":
            connector.put(key, value)
            model[key] = value
        elif op == "merge":
            connector.merge(key, value)
            model[key] = merge(model.get(key), (value,))
        else:
            connector.delete(key)
            model.pop(key, None)
        check_invariants(store, model)


def _ops(kinds, min_size, max_size):
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(0, 95),
            st.binary(min_size=0, max_size=64),
        ),
        min_size=min_size,
        max_size=max_size,
    )


#: a mixed phase that grows the tree, a drain deleting most or all keys
#: in a random order, then a short mixed tail
OPS = st.builds(
    lambda grow, order, kept, tail: grow + [("delete", i, b"") for i in order[kept:]] + tail,
    _ops(["put", "put", "merge", "delete"], 40, 250),
    st.permutations(range(96)),
    st.integers(0, 48),
    _ops(["put", "merge", "delete"], 0, 60),
)


class TestLeafWeight:
    def test_empty_leaf(self):
        assert LeafNode().size_bytes == 16

    def test_mutations_keep_the_formula(self):
        leaf = LeafNode([b"b", b"d"], [b"22", b"4444"])
        leaf.insert(0, b"a", b"1")
        leaf.insert(3, b"e", b"")
        assert leaf.size_bytes == leaf_formula(leaf)
        leaf.set_value(1, b"grown-value")
        assert leaf.size_bytes == leaf_formula(leaf)
        leaf.set_value(1, b"")
        assert leaf.size_bytes == leaf_formula(leaf)
        assert leaf.remove(-1) == (b"e", b"")
        assert leaf.remove(0) == (b"a", b"1")
        assert leaf.size_bytes == leaf_formula(leaf)
        assert leaf.keys == [b"b", b"d"]

    def test_split_off_and_absorb(self):
        keys = [b"k%d" % i for i in range(7)]
        leaf = LeafNode(list(keys), [b"v" * i for i in range(7)], next_leaf=99)
        seen = []

        def allocate(right):
            # the left leaf still holds every entry while the sibling is placed
            seen.append(len(leaf.keys))
            return 5

        right = leaf.split_off(allocate)
        assert seen == [7]
        assert leaf.keys == keys[:3] and right.keys == keys[3:]
        assert (leaf.next_leaf, right.next_leaf) == (5, 99)
        assert leaf.size_bytes == leaf_formula(leaf)
        assert right.size_bytes == leaf_formula(right)
        leaf.absorb(right)
        assert leaf.keys == keys and leaf.next_leaf == 99
        assert leaf.size_bytes == leaf_formula(leaf)


class TestWeightInvariant:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=OPS,
        order=st.integers(4, 8),
        cache_bytes=st.integers(512, 4096),
        rebalance=st.booleans(),
    )
    def test_weights_and_contents_after_every_op(self, ops, order, cache_bytes, rebalance):
        store = checked_store(order, cache_bytes, rebalance)
        run_checked(store, ops)
        for mechanism in sorted(store.reached):
            event(mechanism)
        if store._pages.page_ins:
            event("page_in")

    def test_seeded_run_reaches_every_mechanism(self):
        rng = random.Random(11)
        ops = []
        for phase_delete_rate in (0.1, 0.7, 0.1, 0.9):
            for _ in range(400):
                op = "delete" if rng.random() < phase_delete_rate else rng.choice(["put", "merge"])
                ops.append((op, rng.randrange(48), b"x" * rng.randrange(65)))
        store = checked_store(order=4, cache_bytes=1024)
        run_checked(store, ops)
        assert store.reached >= {
            "split",
            "borrow_left",
            "borrow_right",
            "merge_children",
            "root_collapse",
        }
        assert store._pages.page_outs > 0
        assert store._pages.page_ins > 0


def _churn(store: BTreeStore) -> None:
    rng = random.Random(2028)
    for _ in range(20_000):
        key = b"key-%05d" % rng.randrange(1500)
        if rng.random() < 0.3:
            store.delete(key)
        else:
            store.put(key, bytes([rng.randrange(256)]) * rng.randrange(65))


def test_page_cache_counters():
    """Counters of a seeded 20k-op put/delete run, recorded before leaves
    carried their weight: eviction order and page traffic are unchanged."""
    store = BTreeStore(BTreeConfig(order=8, cache_bytes=2048))
    _churn(store)
    cache = store._pages._cache
    storage = store.storage_backend()
    digest = hashlib.sha256()
    for name in storage.list():
        digest.update(name.encode() + b"\0" + storage.read(name))
    assert {
        "hits": store._pages.hits,
        "misses": store._pages.misses,
        "page_ins": store._pages.page_ins,
        "page_outs": store._pages.page_outs,
        "evictions": cache.evictions,
        "resident_pages": store._pages.resident_pages,
        "used_bytes": cache.used_bytes,
        "keys": len(store),
        "height": store.height,
    } == COUNTERS
    assert digest.hexdigest() == BLOBS_SHA256


COUNTERS = {
    "hits": 60473,
    "misses": 46541,
    "page_ins": 46541,
    "page_outs": 20013,
    "evictions": 46766,
    "resident_pages": 12,
    "used_bytes": 2030,
    "keys": 1038,
    "height": 4,
}
#: every blob left in storage, name and bytes, in name order
BLOBS_SHA256 = "54bbf01fb73f3f523eec32b986965600563eb871be361bc45256be6b52d683a0"
