"""Lethe: a delete-aware LSM variant (Sarkar et al., SIGMOD '20).

Lethe's FADE mechanism bounds how long tombstones linger: every file
carries the age of its oldest tombstone, and files whose tombstones
exceed a *delete persistence threshold* are compacted preferentially so
deletes reach the bottom of the tree (and disappear) in bounded time.
The paper benchmarks Lethe with a 10 s threshold.

This implementation layers FADE onto :class:`RocksLSMStore`:

* each SSTable holding tombstones is stamped with the (logical) time
  its oldest tombstone entered the tree; compaction outputs inherit the
  oldest stamp of their inputs
* every ``fade_check_interval`` writes, files with expired tombstones
  are compacted toward the bottom, oldest stamp first -- inline on the
  write path, or handed to the compaction worker in background mode
* ordinary size-triggered compaction picks the file with the most
  tombstones instead of the largest file

FADE's single-file compactions assume disjoint levels, so Lethe only
runs with the leveled compaction policy; tiered/universal configs are
rejected at construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..api import MergeOperator
from ..storage import Storage
from .policies import CompactionTask
from .sstable import SSTable
from .store import LSMConfig, RocksLSMStore


@dataclass
class LetheConfig(LSMConfig):
    """LSM knobs plus FADE parameters."""

    delete_persistence_threshold_s: float = 10.0
    fade_check_interval: int = 2000


class LetheStore(RocksLSMStore):
    name = "lethe"

    def __init__(
        self,
        config: Optional[LetheConfig] = None,
        merge_operator: Optional[MergeOperator] = None,
        storage: Optional[Storage] = None,
        clock=time.monotonic,
    ) -> None:
        config = config or LetheConfig()
        self._tombstone_stamp: Dict[int, float] = {}
        self._clock = clock
        self._fade_at = config.fade_check_interval
        self.fade_compactions = 0
        super().__init__(config, merge_operator, storage)

    @property
    def lethe_config(self) -> LetheConfig:
        return self.config  # type: ignore[return-value]

    def _validate_policy(self) -> None:
        if self._policy.overlapping_runs:
            # FADE compacts one file against the (disjoint) next level;
            # under overlapping runs that would produce runs whose
            # sequence intervals interleave, breaking newest-first reads.
            raise ValueError(
                f"lethe's FADE requires the leveled compaction policy, "
                f"got {self._policy.name!r}"
            )

    # ------------------------------------------------------------------
    # Hooks into the base store
    # ------------------------------------------------------------------

    def _request_fade(self) -> None:
        """The base store's write path counted ``fade_check_interval``
        writes since the last pass (batch members each count one): run
        a FADE pass inline, or queue it for the compaction worker in
        background mode."""
        self._fade_at = self._writes + self.lethe_config.fade_check_interval
        if self._bg is not None:
            self._bg.request_fade()
            return
        begin = time.perf_counter_ns()
        self._run_fade()
        self._add_background_ns(time.perf_counter_ns() - begin)

    def _run_fade(self) -> None:
        self._enforce_delete_persistence()
        with self._mutex:
            self._write_manifest()  # FADE reshapes levels outside flushes

    def _note_flushed_table(self, table: SSTable) -> None:
        # Called under the tree mutex whenever a flush lands in L0:
        # stamp the moment its tombstones entered the tree.
        if table.num_tombstones:
            self._tombstone_stamp.setdefault(table.file_id, self._clock())

    def _run_compaction(self, inputs, from_levels, target_level) -> None:
        inherited = [
            self._tombstone_stamp[t.file_id]
            for t in inputs
            if t.file_id in self._tombstone_stamp
        ]
        for table in inputs:
            self._tombstone_stamp.pop(table.file_id, None)
        super()._run_compaction(inputs, from_levels, target_level)
        if inherited:
            oldest = min(inherited)
            for table in self._new_outputs:
                if table.num_tombstones:
                    self._tombstone_stamp[table.file_id] = oldest

    def _discard_compaction_outputs(self, outputs: List[SSTable]) -> None:
        for table in outputs:
            self._tombstone_stamp.pop(table.file_id, None)

    def _pick_compaction_file(self, level: int) -> Optional[SSTable]:
        candidates = self._levels[level]
        if not candidates:
            return None
        with_tombstones = [t for t in candidates if t.num_tombstones]
        if with_tombstones:
            return max(with_tombstones, key=lambda t: t.num_tombstones)
        return super()._pick_compaction_file(level)

    # ------------------------------------------------------------------
    # FADE
    # ------------------------------------------------------------------

    def expired_tombstone_files(self) -> List[Tuple[int, SSTable]]:
        """(level, table) pairs whose tombstones exceeded the threshold."""
        now = self._clock()
        threshold = self.lethe_config.delete_persistence_threshold_s
        expired = []
        for level_idx, level in enumerate(self._levels[:-1]):
            for table in level:
                stamp = self._tombstone_stamp.get(table.file_id)
                if stamp is not None and now - stamp >= threshold:
                    expired.append((level_idx, table))
        expired.sort(key=lambda pair: self._tombstone_stamp[pair[1].file_id])
        return expired

    def _enforce_delete_persistence(self) -> None:
        for level_idx, table in self.expired_tombstone_files():
            # The tree may have changed since the scan; re-check residency.
            if table not in self._levels[level_idx]:
                continue
            if level_idx == 0:
                self._compact_l0()
            else:
                self._compact_single_file(level_idx, table)
            self.fade_compactions += 1

    def _compact_single_file(self, level: int, source: SSTable) -> None:
        self._execute_task(
            CompactionTask(
                inputs=[source],
                target_level=level + 1,
                source_levels=(level,),
                merge_target_overlap=True,
                reason="fade",
            )
        )
