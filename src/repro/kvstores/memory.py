"""Plain hash-map store used as a correctness oracle in tests."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .api import (
    OP_DELETE,
    OP_MERGE,
    OP_PUT,
    AppendMergeOperator,
    KVStore,
    MergeOperator,
)


class InMemoryStore(KVStore):
    """Dict-backed store with eager merges.

    Not part of the paper's evaluation; it serves as the reference
    implementation that the LSM, B+Tree, and FASTER stores are checked
    against in differential and property-based tests.
    """

    name = "memory"

    def __init__(self, merge_operator: Optional[MergeOperator] = None) -> None:
        super().__init__()
        self._data: Dict[bytes, bytes] = {}
        self._merge_operator = merge_operator or AppendMergeOperator()

    def get(self, key: bytes) -> Optional[bytes]:
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.puts += 1
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.deletes += 1
        self._data.pop(key, None)

    def merge(self, key: bytes, operand: bytes) -> None:
        if self._closed:
            self._check_open()
        self.stats.merges += 1
        existing = self._data.get(key)
        self._data[key] = self._merge_operator.full_merge(existing, (operand,))

    def multi_get(self, keys) -> List[Optional[bytes]]:
        self._check_open()
        self.stats.gets += len(keys)
        data = self._data
        return [data.get(key) for key in keys]

    def apply_batch(self, ops) -> None:
        self._check_open()
        stats = self.stats
        data = self._data
        full_merge = self._merge_operator.full_merge
        for opcode, key, value in ops:
            if opcode == OP_PUT:
                stats.puts += 1
                data[key] = value
            elif opcode == OP_MERGE:
                stats.merges += 1
                data[key] = full_merge(data.get(key), (value,))
            elif opcode == OP_DELETE:
                stats.deletes += 1
                data.pop(key, None)
            else:
                raise ValueError(
                    f"apply_batch is write-only; cannot apply opcode {opcode}"
                )

    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        for key in sorted(self._data):
            if start <= key < end:
                yield key, self._data[key]

    def __len__(self) -> int:
        return len(self._data)
