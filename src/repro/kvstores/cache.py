"""Byte-budgeted LRU cache used for LSM block caches and B+Tree page caches."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """LRU cache with a capacity expressed in bytes.

    ``sizer`` maps a cached value to its byte weight; entries are evicted
    least-recently-used first once the budget is exceeded.  An optional
    ``on_evict`` hook lets callers write dirty pages back on eviction.
    """

    def __init__(
        self,
        capacity_bytes: int,
        sizer: Callable[[V], int] = len,  # type: ignore[assignment]
        on_evict: Optional[Callable[[K, V], None]] = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._sizer = sizer
        self._on_evict = on_evict
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._sizes: dict = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: K) -> Optional[V]:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: K) -> Optional[V]:
        """Read without touching recency or hit counters."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> None:
        size = self._sizer(value)
        if key in self._entries:
            self._used -= self._sizes[key]
            self._entries.move_to_end(key)
        self._entries[key] = value
        self._sizes[key] = size
        self._used += size
        if self._used > self.capacity_bytes:
            self._evict_to_fit()

    def invalidate(self, key: K) -> None:
        value = self._entries.pop(key, None)
        if value is not None or key in self._sizes:
            self._used -= self._sizes.pop(key, 0)

    def invalidate_where(self, predicate: Callable[[K], bool]) -> None:
        for key in [k for k in self._entries if predicate(k)]:
            self.invalidate(key)

    def clear(self) -> None:
        if self._on_evict is not None:
            for key, value in self._entries.items():
                self._on_evict(key, value)
        self._entries.clear()
        self._sizes.clear()
        self._used = 0

    def _evict_to_fit(self) -> None:
        while self._used > self.capacity_bytes and self._entries:
            key, value = self._entries.popitem(last=False)
            self._used -= self._sizes.pop(key)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)
