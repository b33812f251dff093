"""Page cache for the B+Tree store.

All live pages are reached through this cache.  Pages evicted by the
byte budget are serialized into storage; a later access deserializes
them back -- charging realistic miss work without real disk latency.

Persisted pages carry the checksummed framing from
:mod:`repro.kvstores.btree.node`, and every page-in verifies the frame
before deserializing.  A damaged page raises
:class:`~repro.kvstores.integrity.CorruptionError`; :meth:`scrub`
repairs corrupt blobs whose page is still resident in the cache by
rewriting them from the in-memory copy.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Dict, Optional, Set

from ...obs import tracing
from ..cache import LRUCache
from ..integrity import ChecksumKind, CorruptionError, ScrubFinding, ScrubReport, timed_scrub
from ..storage import MemoryStorage, Storage, StorageError
from .node import decode_page, encode_page


class PageCache:
    def __init__(
        self,
        capacity_bytes: int = 256 * 1024,
        storage: Optional[Storage] = None,
        checksum_kind: ChecksumKind = ChecksumKind.NONE,
    ) -> None:
        self.storage = storage if storage is not None else MemoryStorage()
        self.checksum_kind = checksum_kind
        self._dirty: Set[int] = set()
        self._cache: LRUCache = LRUCache(
            capacity_bytes,
            # the node's own weight: maintained by a leaf, computed by an
            # internal node
            sizer=attrgetter("size_bytes"),
            on_evict=self._write_back,
        )
        #: the LRU's own entries: a hit and an update touch them here,
        #: in this frame, moving the LRU's counters as its methods would
        self._entries = self._cache._entries
        self._on_disk: Set[int] = set()
        self._next_page_id = 0
        self.page_ins = 0
        self.page_outs = 0
        #: write-back nanoseconds under ``"ns"`` until popped: the
        #: store's background probe is this dict's ``pop``
        self.background: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def allocate(self, node) -> int:
        page_id = self._next_page_id
        self._next_page_id += 1
        self._cache.put(page_id, node)
        self._dirty.add(page_id)
        return page_id

    def get(self, page_id: int):
        node = self._entries.get(page_id)
        if node is not None:
            self._entries.move_to_end(page_id)
            self._cache.hits += 1
            return node
        self._cache.misses += 1
        if page_id not in self._on_disk:
            raise KeyError(f"unknown page: {page_id}")
        with tracing.span("btree.page_in", page=page_id) as sp:
            raw = self.storage.read(self._blob(page_id))
            node = decode_page(raw, self._blob(page_id))
            sp.add(bytes=len(raw))
        self.page_ins += 1
        self._cache.put(page_id, node)
        return node

    def update(self, page_id: int, node) -> None:
        """Install a mutated node object and mark it dirty.

        Safe even if the page was evicted while the caller held a
        reference to the node: the object is simply re-cached.
        """
        cache = self._cache
        entries = self._entries
        size = node.size_bytes
        if page_id in entries:
            cache._used -= cache._sizes[page_id]
            entries.move_to_end(page_id)
        entries[page_id] = node
        cache._sizes[page_id] = size
        cache._used += size
        if cache._used > cache.capacity_bytes:
            cache._evict_to_fit()
        self._dirty.add(page_id)

    def free(self, page_id: int) -> None:
        self._cache.invalidate(page_id)
        self._dirty.discard(page_id)
        if page_id in self._on_disk:
            self.storage.delete(self._blob(page_id))
            self._on_disk.discard(page_id)

    def flush(self) -> None:
        """Write back every dirty resident page (keeps them cached)."""
        for page_id in list(self._dirty):
            node = self._cache.peek(page_id)
            if node is not None:
                self._persist(page_id, node)
        self._dirty.clear()

    def scrub(self) -> ScrubReport:
        """Verify every persisted page; repair from resident copies.

        A corrupt blob whose page still lives in the cache is rewritten
        from the in-memory node (repaired); with no resident copy the
        page is unrecoverable.
        """
        report = ScrubReport()
        with timed_scrub(report):
            for page_id in sorted(self._on_disk):
                blob = self._blob(page_id)
                report.structures_checked += 1
                try:
                    raw = self.storage.read(blob)
                except StorageError as exc:
                    self._scrub_repair(report, page_id, blob, f"unreadable page: {exc}")
                    continue
                try:
                    decode_page(raw, blob)
                except CorruptionError as exc:
                    self._scrub_repair(report, page_id, blob, exc.detail, exc.offset)
        return report

    def _scrub_repair(
        self, report: ScrubReport, page_id: int, blob: str, detail: str, offset: int = 0
    ) -> None:
        node = self._cache.peek(page_id)
        if node is not None:
            self._persist(page_id, node)
            report.add(ScrubFinding(blob, offset, detail, repaired=True))
        else:
            report.add(ScrubFinding(blob, offset, detail, repaired=False))

    # ------------------------------------------------------------------

    def _write_back(self, page_id: int, node) -> None:
        # Dirty-page write-back is trickle-flushed in the background by
        # BerkeleyDB; tracked so latency reporting can exclude it.
        if page_id in self._dirty:
            begin = time.perf_counter_ns()
            with tracing.span("btree.page_out", page=page_id):
                self._persist(page_id, node)
            self._dirty.discard(page_id)
            background = self.background
            background["ns"] = background.get("ns", 0) + time.perf_counter_ns() - begin

    def _persist(self, page_id: int, node) -> None:
        self.storage.write(self._blob(page_id), encode_page(node, self.checksum_kind))
        self._on_disk.add(page_id)
        self.page_outs += 1

    @staticmethod
    def _blob(page_id: int) -> str:
        return f"btree-page-{page_id:08d}"

    # -- stats -------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def resident_pages(self) -> int:
        return len(self._cache)
