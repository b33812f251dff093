"""Tests for the BerkeleyDB-like B+Tree store."""

import random

import pytest

from repro.kvstores.btree import BTreeConfig, BTreeStore
from repro.kvstores.btree.node import InternalNode, LeafNode, decode_node


class TestNodes:
    def test_leaf_roundtrip(self):
        leaf = LeafNode([b"a", b"b"], [b"1", b"2"], next_leaf=7)
        decoded = decode_node(leaf.encode())
        assert decoded.keys == [b"a", b"b"]
        assert decoded.values == [b"1", b"2"]
        assert decoded.next_leaf == 7

    def test_leaf_without_next(self):
        leaf = LeafNode([b"a"], [b"1"])
        decoded = decode_node(leaf.encode())
        assert decoded.next_leaf is None

    def test_internal_roundtrip(self):
        node = InternalNode([b"m"], [3, 9])
        decoded = decode_node(node.encode())
        assert decoded.keys == [b"m"]
        assert decoded.children == [3, 9]
        assert not decoded.is_leaf

    def test_size_accounting(self):
        leaf = LeafNode([b"abc"], [b"12345"])
        # Σ(len(key) + len(value) + 8) + 16
        assert leaf.size_bytes == 3 + 5 + 8 + 16


class TestBasicOperations:
    def test_put_get(self):
        store = BTreeStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_missing(self):
        assert BTreeStore().get(b"nope") is None

    def test_overwrite_in_place(self):
        store = BTreeStore()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_delete(self):
        store = BTreeStore()
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None
        assert len(store) == 0

    def test_delete_missing_is_noop(self):
        store = BTreeStore()
        store.delete(b"ghost")
        assert len(store) == 0

    def test_no_native_merge(self):
        from repro.kvstores import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            BTreeStore().merge(b"k", b"v")

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BTreeStore(BTreeConfig(order=2))


class TestTreeStructure:
    def test_splits_grow_height(self):
        store = BTreeStore(BTreeConfig(order=4))
        for i in range(100):
            store.put(f"k{i:04d}".encode(), b"v")
        assert store.height > 1
        for i in range(100):
            assert store.get(f"k{i:04d}".encode()) == b"v"

    def test_random_insert_order(self):
        store = BTreeStore(BTreeConfig(order=8))
        keys = [f"k{i:05d}".encode() for i in range(500)]
        rng = random.Random(5)
        rng.shuffle(keys)
        for key in keys:
            store.put(key, key)
        for key in keys:
            assert store.get(key) == key

    def test_scan_is_sorted(self):
        store = BTreeStore(BTreeConfig(order=8))
        keys = [f"k{i:04d}".encode() for i in range(200)]
        rng = random.Random(9)
        shuffled = list(keys)
        rng.shuffle(shuffled)
        for key in shuffled:
            store.put(key, b"v")
        out = [k for k, _ in store.scan(b"k0050", b"k0100")]
        assert out == keys[50:100]

    def test_scan_empty_range(self):
        store = BTreeStore()
        store.put(b"b", b"v")
        assert list(store.scan(b"c", b"d")) == []

    def test_scan_after_deletes(self):
        store = BTreeStore(BTreeConfig(order=4))
        for i in range(50):
            store.put(f"k{i:03d}".encode(), b"v")
        for i in range(0, 50, 2):
            store.delete(f"k{i:03d}".encode())
        out = [k for k, _ in store.scan(b"k000", b"k050")]
        assert out == [f"k{i:03d}".encode() for i in range(1, 50, 2)]


class TestPageCache:
    def test_eviction_and_reload(self):
        store = BTreeStore(BTreeConfig(order=8, cache_bytes=2048))
        for i in range(800):
            store.put(f"k{i:05d}".encode(), b"v" * 16)
        stats = store.cache_stats()
        assert stats["page_outs"] > 0
        # Everything must still be readable after paging.
        for i in range(0, 800, 31):
            assert store.get(f"k{i:05d}".encode()) == b"v" * 16
        assert store.cache_stats()["page_ins"] > 0

    def test_flush_persists_dirty_pages(self):
        store = BTreeStore(BTreeConfig(order=8, cache_bytes=1 << 20))
        store.put(b"a", b"1")
        store.flush()
        assert store._pages.page_outs >= 1

    def test_mutation_under_memory_pressure(self):
        """Heavy churn with a tiny cache must never lose updates."""
        store = BTreeStore(BTreeConfig(order=6, cache_bytes=1024))
        rng = random.Random(17)
        expected = {}
        for i in range(2000):
            key = f"k{rng.randrange(300):04d}".encode()
            if rng.random() < 0.25 and key in expected:
                store.delete(key)
                del expected[key]
            else:
                value = f"v{i}".encode()
                store.put(key, value)
                expected[key] = value
        for key, value in expected.items():
            assert store.get(key) == value, key
        for i in range(300):
            key = f"k{i:04d}".encode()
            if key not in expected:
                assert store.get(key) is None
