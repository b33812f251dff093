"""Pluggable compaction policies for the LSM store.

The paper evaluates a single leveled LSM; real deployments pick a
compaction *shape* to trade write amplification against read fan-out
and space amplification.  This module factors the "what should be
compacted next" decision out of :class:`~.store.RocksLSMStore` into
small policy objects so the harness can sweep the shapes the paper's
section 6 never covered:

* **leveled** -- the original behaviour: L0 merges into L1 when its
  file count hits the trigger, deeper levels compact one file at a
  time while they exceed their byte budget, and compaction outputs
  fold into the (disjoint) target level
* **tiered** -- levels hold *runs* that may overlap in key space; when
  a level accumulates enough runs they are merged wholesale into a
  single run one level down.  Minimal write amplification, widest read
  fan-out
* **universal** -- tiered ingestion plus two global safety valves:
  a full merge of every run when space amplification (bytes above the
  deepest level relative to it) exceeds a ratio, or when the total
  sorted-run count exceeds a cap -- RocksDB's universal style

A policy is a pure *picker*: it inspects the store's level state and
returns the next :class:`CompactionTask` (or ``None`` when the tree is
in shape).  Execution -- merging inputs, installing outputs, dropping
the replaced blobs -- stays in the store, shared by every policy and by
both the inline and background maintenance modes.

Policies with ``overlapping_runs`` set change the read contract: the
store must probe *every* run covering a key (newest sequence first)
instead of one file per level.  They are incompatible with Lethe's
FADE single-file compactions, which assume disjoint levels; the Lethe
store rejects them at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

if TYPE_CHECKING:
    from .sstable import SSTable
    from .store import RocksLSMStore


@dataclass
class CompactionTask:
    """One unit of compaction work chosen by a policy.

    ``inputs`` lists the tables to merge; when ``merge_target_overlap``
    is set the executor additionally folds in every target-level table
    whose key range overlaps the inputs (leveled semantics -- required
    to keep the target level disjoint).  Overlapping-run policies leave
    it off: their outputs land as a new run beside the target level's
    existing runs.
    """

    inputs: List["SSTable"]
    target_level: int
    source_levels: Tuple[int, ...] = ()
    merge_target_overlap: bool = True
    #: why the policy chose this task (surfaced in tracing spans)
    reason: str = ""


class CompactionPolicy:
    """Decides the next compaction; stateless apart from config."""

    name: str = "abstract"
    #: True when levels hold possibly-overlapping runs and reads must
    #: probe every covering run (tiered / universal shapes)
    overlapping_runs: bool = False

    def pick(self, store: "RocksLSMStore") -> Optional[CompactionTask]:
        """Return the next task for ``store``, or ``None`` when idle.

        Called with the store's tree mutex held; must only read level
        state.
        """
        raise NotImplementedError


class LeveledPolicy(CompactionPolicy):
    """Classic leveled compaction (the store's original behaviour)."""

    name = "leveled"

    def pick(self, store: "RocksLSMStore") -> Optional[CompactionTask]:
        cfg = store.config
        levels = store._levels
        if len(levels[0]) >= cfg.l0_compaction_trigger:
            return CompactionTask(
                inputs=list(levels[0]),
                target_level=1,
                source_levels=(0,),
                merge_target_overlap=True,
                reason="l0-file-count",
            )
        for level in range(1, cfg.max_levels - 1):
            if not levels[level]:
                continue
            size = sum(t.data_size for t in levels[level])
            if size > cfg.max_level_bytes(level):
                source = store._pick_compaction_file(level)
                if source is None:
                    continue
                return CompactionTask(
                    inputs=[source],
                    target_level=level + 1,
                    source_levels=(level,),
                    merge_target_overlap=True,
                    reason="size-budget",
                )
        return None


def _overlap_depth(tables: List["SSTable"]) -> int:
    """Sorted runs in an L1+ level: the most of its tables covering one
    key, so a level of disjoint tables (one merge's outputs) is one run."""
    edges = sorted([(t.smallest_key, 0, 1) for t in tables]
                   + [(t.largest_key, 1, -1) for t in tables])
    return max(accumulate(step for _, _, step in edges), default=0)


class TieredPolicy(CompactionPolicy):
    """Size-tiered compaction: merge a level's runs wholesale.

    Each flush adds a run to level 0; when any level accumulates
    ``tier_trigger`` runs (defaulting to ``l0_compaction_trigger``)
    they are merged into a single run appended to the next level.
    Successive whole-level merges keep every run's sequence interval
    disjoint from its siblings', which is what lets reads resolve
    overlapping runs purely by ``max_sequence`` order.
    """

    name = "tiered"
    overlapping_runs = True

    def pick(self, store: "RocksLSMStore") -> Optional[CompactionTask]:
        cfg = store.config
        trigger = cfg.tier_trigger or cfg.l0_compaction_trigger
        for level in range(cfg.max_levels - 1):
            runs = store._levels[level]
            if (_overlap_depth(runs) if level else len(runs)) >= trigger:
                return CompactionTask(
                    inputs=list(runs),
                    target_level=level + 1,
                    source_levels=(level,),
                    merge_target_overlap=False,
                    reason="tier-full",
                )
        return None


class UniversalPolicy(CompactionPolicy):
    """Universal compaction: tiered ingestion with global safety valves.

    In priority order:

    1. *space amplification*: when the bytes held above the deepest
       nonempty level reach ``universal_max_size_amp`` times that
       level's size, merge **everything** into one run at the deepest
       level (reclaims superseded space and drops tombstones)
    2. *run count*: when the total number of sorted runs reaches
       ``universal_max_runs``, do the same full merge to restore read
       fan-out
    3. otherwise, L0 flush runs merge into a level-1 run at the
       ``l0_compaction_trigger``
    """

    name = "universal"
    overlapping_runs = True

    def pick(self, store: "RocksLSMStore") -> Optional[CompactionTask]:
        cfg = store.config
        levels = store._levels
        nonempty = [idx for idx, level in enumerate(levels) if level]
        total_runs = len(levels[0]) + sum(map(_overlap_depth, levels[1:]))
        if nonempty and total_runs > 1:
            deepest = nonempty[-1]
            base = sum(t.data_size for t in levels[deepest])
            rest = sum(
                t.data_size for idx in nonempty[:-1] for t in levels[idx]
            )
            size_amp = bool(base) and rest / base >= cfg.universal_max_size_amp
            run_cap = total_runs >= cfg.universal_max_runs
            if size_amp or run_cap:
                return CompactionTask(
                    inputs=[t for idx in nonempty for t in levels[idx]],
                    target_level=min(max(deepest, 1), cfg.max_levels - 1),
                    source_levels=tuple(nonempty),
                    merge_target_overlap=False,
                    reason="space-amplification" if size_amp else "run-count",
                )
        if len(levels[0]) >= cfg.l0_compaction_trigger:
            return CompactionTask(
                inputs=list(levels[0]),
                target_level=1,
                source_levels=(0,),
                merge_target_overlap=False,
                reason="l0-run-count",
            )
        return None


POLICIES: Dict[str, Type[CompactionPolicy]] = {
    LeveledPolicy.name: LeveledPolicy,
    TieredPolicy.name: TieredPolicy,
    UniversalPolicy.name: UniversalPolicy,
}

#: policy names accepted by ``LSMConfig.compaction_policy`` and the CLI
POLICY_NAMES: Tuple[str, ...] = tuple(sorted(POLICIES))


def resolve_policy(name: str) -> CompactionPolicy:
    """Instantiate the policy registered under ``name``."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown compaction policy {name!r}; "
            f"expected one of {', '.join(POLICY_NAMES)}"
        ) from None
