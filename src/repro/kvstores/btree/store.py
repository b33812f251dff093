"""BerkeleyDB-like B+Tree store.

The paper benchmarks the B+Tree flavour of BerkeleyDB with a 256 MB
cache.  Traits this implementation preserves:

* sorted pages with in-place leaf updates (fast for update-heavy
  streaming workloads, Figures 12-13)
* no lazy merge: a streaming "merge" becomes read-update-write, which
  copies a growing window bucket on every event (why BerkeleyDB loses
  the holistic workloads)
* every page access goes through a byte-budgeted page cache; misses pay
  deserialization just as BerkeleyDB pays a page-in
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from ..api import OP_DELETE, OP_MERGE, OP_PUT, KVStore
from ..integrity import ScrubReport, resolve_checksum_kind
from ..storage import Storage
from .node import InternalNode, LeafNode
from .pagecache import PageCache


@dataclass
class BTreeConfig:
    """The paper runs BerkeleyDB's B+Tree with a 256 MB cache; the
    default here is the same at 1/1000 scale."""

    order: int = 64  # max keys per page
    cache_bytes: int = 256 * 1024
    #: rebalance (borrow/merge) pages that fall below order // 2 keys.
    #: BerkeleyDB reclaims lazily by default; enabling this keeps the
    #: tree compact under streaming's delete-heavy workloads.
    rebalance_on_delete: bool = True
    #: checksum algorithm for persisted pages: "none" (same framing,
    #: CRC stored as 0), "crc32", "crc32c", or None/"default" for the
    #: platform default
    checksum: Optional[str] = None


@dataclass
class _SplitResult:
    separator: bytes
    right_page: int


class BTreeStore(KVStore):
    name = "berkeleydb"

    def __init__(
        self,
        config: Optional[BTreeConfig] = None,
        storage: Optional[Storage] = None,
    ) -> None:
        super().__init__()
        self.config = config or BTreeConfig()
        if self.config.order < 4:
            raise ValueError("order must be at least 4")
        self.checksum_kind = resolve_checksum_kind(self.config.checksum)
        self._pages = PageCache(self.config.cache_bytes, storage, self.checksum_kind)
        self._root_id = self._pages.allocate(LeafNode())
        #: the background probe, a C call: pops the dirty-page
        #: write-back time accrued since the last probe
        self.take_background_ns = partial(self._pages.background.pop, "ns", 0)
        self._height = 1
        self._count = 0

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        get_page = self._pages.get
        node = get_page(self._root_id)
        while not node.is_leaf:
            node = get_page(node.children[bisect_right(node.keys, key)])
        keys = node.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            value = node.values[index]
            self.stats.bytes_read += len(value)
            return value
        return None

    def put(self, key: bytes, value: bytes) -> None:
        """Walk down to the leaf, remembering the internal pages passed;
        a split climbs that path, re-reading each parent."""
        if self._closed:
            self._check_open()
        stats = self.stats
        stats.puts += 1
        stats.bytes_written += len(key) + len(value)
        pages = self._pages
        get_page = pages.get
        page_id = self._root_id
        node = get_page(page_id)
        path = []
        while not node.is_leaf:
            path.append(page_id)
            page_id = node.children[bisect_right(node.keys, key)]
            node = get_page(page_id)
        keys = node.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            # in-place overwrite: LeafNode.set_value, in this frame
            values = node.values
            node.size_bytes += len(value) - len(values[index])
            values[index] = value
        else:
            node.insert(index, key, value)
            self._count += 1
        pages.update(page_id, node)
        order = self.config.order
        if len(keys) <= order:
            return
        split = self._split_leaf(node, page_id)
        while path:
            # The child handed us a new right sibling; register it here.
            page_id = path.pop()
            node = get_page(page_id)
            index = bisect_right(node.keys, split.separator)
            node.keys.insert(index, split.separator)
            node.children.insert(index + 1, split.right_page)
            pages.update(page_id, node)
            if len(node.keys) <= order:
                return
            split = self._split_internal(node, page_id)
        new_root = InternalNode([split.separator], [self._root_id, split.right_page])
        self._root_id = pages.allocate(new_root)
        self._height += 1

    def delete(self, key: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.deletes += 1
        if not self.config.rebalance_on_delete:
            leaf, page_id = self._descend(key)
            index = bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                leaf.remove(index)
                self._pages.update(page_id, leaf)
                self._count -= 1
            return
        self._delete_rebalancing(self._root_id, key)
        root = self._pages.get(self._root_id)
        if not root.is_leaf and len(root.children) == 1:
            # The root collapsed to a single child: shrink the tree.
            old_root = self._root_id
            self._root_id = root.children[0]
            self._pages.free(old_root)
            self._height -= 1

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------

    def multi_get(self, keys) -> List[Optional[bytes]]:
        """Vectored get: probe keys in sorted order so consecutive keys
        landing in the same leaf reuse one descent (BerkeleyDB's bulk-get
        amortization)."""
        self._check_open()
        self.stats.gets += len(keys)
        resolved = {}
        leaf: Optional[LeafNode] = None
        for key in sorted(set(keys)):
            if (
                leaf is None
                or not leaf.keys
                or key < leaf.keys[0]
                or key > leaf.keys[-1]
            ):
                leaf, _ = self._descend(key)
            index = bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                value = leaf.values[index]
                self.stats.bytes_read += len(value)
                resolved[key] = value
            else:
                resolved[key] = None
        return [resolved[key] for key in keys]

    def apply_batch(self, ops) -> None:
        """Key-sorted write batch amortizing page-cache descents.

        The sort is stable, so multiple ops on the same key keep their
        order; ops on distinct keys commute, so sorting is safe.  Merges
        are rejected exactly as the per-op path does (the
        read-modify-write connector rewrites them before they get here).
        """
        self._check_open()
        for opcode, key, value in sorted(ops, key=itemgetter(1)):
            if opcode == OP_PUT:
                self.put(key, value)
            elif opcode == OP_DELETE:
                self.delete(key)
            elif opcode == OP_MERGE:
                self.merge(key, value)
            else:
                raise ValueError(f"apply_batch is write-only; cannot apply opcode {opcode}")

    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        leaf, _ = self._descend(start)
        while leaf is not None:
            index = bisect_left(leaf.keys, start)
            for key, value in zip(leaf.keys[index:], leaf.values[index:]):
                if key >= end:
                    return
                yield key, value
            start = b""  # only the first leaf needs the lower bound
            if leaf.next_leaf is None:
                return
            leaf = self._pages.get(leaf.next_leaf)

    def flush(self) -> None:
        self._pages.flush()

    def storage_backend(self) -> Storage:
        return self._pages.storage

    def scrub(self) -> ScrubReport:
        """Verify every persisted page; repair from resident copies."""
        report = self._pages.scrub()
        self.integrity.absorb(report)
        return report

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Tree mechanics
    # ------------------------------------------------------------------

    def _descend(self, key: bytes) -> Tuple[LeafNode, int]:
        page_id = self._root_id
        node = self._pages.get(page_id)
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            page_id = node.children[index]
            node = self._pages.get(page_id)
        return node, page_id

    def _split_leaf(self, leaf: LeafNode, page_id: int) -> _SplitResult:
        right = leaf.split_off(self._pages.allocate)
        self._pages.update(page_id, leaf)
        return _SplitResult(right.keys[0], leaf.next_leaf)

    def _split_internal(self, node: InternalNode, page_id: int) -> _SplitResult:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = InternalNode(node.keys[mid + 1 :], node.children[mid + 1 :])
        right_page = self._pages.allocate(right)
        del node.keys[mid:]
        del node.children[mid + 1 :]
        self._pages.update(page_id, node)
        return _SplitResult(separator, right_page)

    # ------------------------------------------------------------------
    # Deletion with rebalancing
    # ------------------------------------------------------------------

    @property
    def _min_keys(self) -> int:
        return self.config.order // 2

    def _delete_rebalancing(self, page_id: int, key: bytes) -> None:
        node = self._pages.get(page_id)
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.remove(index)
                self._pages.update(page_id, node)
                self._count -= 1
            return
        child_pos = bisect_right(node.keys, key)
        child_id = node.children[child_pos]
        self._delete_rebalancing(child_id, key)
        child = self._pages.get(child_id)
        if len(child.keys) >= self._min_keys:
            return
        # Re-fetch the parent: the recursive call may have evicted it.
        node = self._pages.get(page_id)
        self._rebalance_child(node, page_id, child_pos)

    def _rebalance_child(self, parent: InternalNode, parent_id: int, pos: int) -> None:
        child_id = parent.children[pos]
        child = self._pages.get(child_id)
        if pos > 0:
            left_id = parent.children[pos - 1]
            left = self._pages.get(left_id)
            if len(left.keys) > self._min_keys:
                self._borrow_from_left(parent, parent_id, pos, left, left_id,
                                       child, child_id)
                return
        if pos < len(parent.children) - 1:
            right_id = parent.children[pos + 1]
            right = self._pages.get(right_id)
            if len(right.keys) > self._min_keys:
                self._borrow_from_right(parent, parent_id, pos, child, child_id,
                                        right, right_id)
                return
        # No sibling can lend: merge with a neighbour.
        if pos > 0:
            self._merge_children(parent, parent_id, pos - 1)
        else:
            self._merge_children(parent, parent_id, pos)

    def _borrow_from_left(self, parent, parent_id, pos, left, left_id,
                          child, child_id) -> None:
        if child.is_leaf:
            child.insert(0, *left.remove(-1))
            parent.keys[pos - 1] = child.keys[0]
        else:
            # Rotate through the parent separator.
            child.keys.insert(0, parent.keys[pos - 1])
            parent.keys[pos - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._pages.update(left_id, left)
        self._pages.update(child_id, child)
        self._pages.update(parent_id, parent)

    def _borrow_from_right(self, parent, parent_id, pos, child, child_id,
                           right, right_id) -> None:
        if child.is_leaf:
            child.insert(len(child.keys), *right.remove(0))
            parent.keys[pos] = right.keys[0]
        else:
            child.keys.append(parent.keys[pos])
            parent.keys[pos] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._pages.update(right_id, right)
        self._pages.update(child_id, child)
        self._pages.update(parent_id, parent)

    def _merge_children(self, parent: InternalNode, parent_id: int, left_pos: int) -> None:
        """Merge ``children[left_pos + 1]`` into ``children[left_pos]``."""
        left_id = parent.children[left_pos]
        right_id = parent.children[left_pos + 1]
        left = self._pages.get(left_id)
        right = self._pages.get(right_id)
        if left.is_leaf:
            left.absorb(right)
        else:
            left.keys.append(parent.keys[left_pos])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_pos]
        del parent.children[left_pos + 1]
        self._pages.update(left_id, left)
        self._pages.update(parent_id, parent)
        self._pages.free(right_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    def cache_stats(self) -> dict:
        return {
            "hits": self._pages.hits,
            "misses": self._pages.misses,
            "page_ins": self._pages.page_ins,
            "page_outs": self._pages.page_outs,
            "resident_pages": self._pages.resident_pages,
        }
