"""Hash index mapping keys to hybrid-log addresses.

FASTER's index is a cache-aligned hash table of bucket entries pointing
into the log.  In Python the faithful part is the *behaviour* -- O(1)
probes to a log address, with explicit counters for probes and resident
entries -- rather than the memory layout, so a dict carries the mapping.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional


class HashIndex:
    def __init__(self) -> None:
        self._slots: Dict[bytes, int] = {}
        self.probes = 0
        self.updates = 0

    def lookup(self, key: bytes) -> Optional[int]:
        """Return the log address of the newest record for ``key``."""
        self.probes += 1
        return self._slots.get(key)

    def update(self, key: bytes, address: int) -> None:
        self.updates += 1
        self._slots[key] = address

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: bytes) -> bool:
        return key in self._slots

    def keys(self) -> Iterator[bytes]:
        return iter(self._slots)
