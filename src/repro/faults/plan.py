"""Deterministic, seeded fault plans.

A :class:`FaultPlan` describes *what* can go wrong during a replay --
transient errors, latency spikes, periodic stalls, and a crash point --
and compiles into a :class:`FaultSchedule` that decides, per operation
index, exactly which faults fire.  The schedule is a pure function of
the plan (all randomness flows from ``seed``), so two replays under the
same plan see byte-identical fault timelines.  That is the property the
evaluator leans on: every store in a comparison is subjected to the
*same* injected-fault schedule, making faulted rows comparable the way
the paper's happy-path rows are.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Iterator, List, Optional, Union

from .cluster import ClusterFaultPlan
from .corruption import DiskFaultPlan
from .errors import InjectedCrash, TransientStoreError


@dataclass(frozen=True)
class OpFaults:
    """Faults scheduled for one operation index."""

    #: fail the operation this many times before letting it through
    transient_errors: int = 0
    #: extra latency, in seconds, applied before the operation runs
    delay_s: float = 0.0
    #: the "process" dies immediately before this operation
    crash: bool = False

    @property
    def any(self) -> bool:
        return bool(self.transient_errors or self.delay_s or self.crash)

    @property
    def blocking(self) -> bool:
        """The op needs a turn of its own (it may raise); a draw that
        only delays can join a batch run."""
        return bool(self.transient_errors or self.crash)


#: what :meth:`FaultSchedule.next_op` returns for every op nothing
#: happens to (the gate's :meth:`FaultSchedule.draw` returns ``None``)
_CLEAN = OpFaults()
_CRASH = OpFaults(crash=True)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject into a replay.

    Rates are per-operation probabilities; ``seed`` fixes every random
    draw, so the schedule is reproducible and identical across stores.
    """

    #: every random draw flows from this seed; sharded replays derive
    #: per-shard seeds (see :meth:`for_shard`), which is why the field
    #: also admits strings
    seed: Union[int, str] = 0
    #: probability that an operation draws a transient-error burst
    transient_error_rate: float = 0.0
    #: consecutive failures per burst (a retry policy must outlast this)
    error_burst: int = 1
    #: probability that an operation draws an injected latency spike
    latency_spike_rate: float = 0.0
    #: spike magnitude in milliseconds
    latency_spike_ms: float = 1.0
    #: every N operations, stall the whole pipeline (0 disables)
    stall_every: int = 0
    #: stall magnitude in milliseconds
    stall_ms: float = 0.0
    #: kill the store immediately before this operation index
    crash_at: Optional[int] = None
    #: disk-level damage (bit flips, torn/lost writes, disk full) to
    #: compose with the process-level faults above; accepts a nested
    #: dict in JSON configs
    disk: Optional[DiskFaultPlan] = None
    #: cluster topology events (kill/restart/isolate a store server) to
    #: fire during a cluster replay; accepts a nested dict in JSON
    cluster: Optional[ClusterFaultPlan] = None

    def __post_init__(self) -> None:
        if isinstance(self.disk, dict):
            object.__setattr__(self, "disk", DiskFaultPlan.from_dict(self.disk))
        if isinstance(self.cluster, dict):
            object.__setattr__(
                self, "cluster", ClusterFaultPlan.from_dict(self.cluster)
            )
        for name in ("transient_error_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.error_burst < 1:
            raise ValueError("error_burst must be >= 1")
        if self.stall_every < 0:
            raise ValueError("stall_every must be >= 0")
        if self.crash_at is not None and self.crash_at < 0:
            raise ValueError("crash_at must be >= 0")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, config: dict) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(config) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**config)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON config file."""
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError(f"{path}: fault plan must be a JSON object")
        return cls.from_dict(config)

    def to_dict(self) -> dict:
        return asdict(self)

    # -- sharding ------------------------------------------------------------

    def for_shard(self, shard: int) -> "FaultPlan":
        """Per-shard plan with a deterministically derived seed.

        Sharded replays must not hand every worker the same schedule
        seed: each shard replays a *different* op subsequence, so
        "op 7 draws a spike" means a different logical operation in
        every shard, and (worse) any shared schedule state would make
        the draw order depend on thread interleaving.  Deriving
        ``Random(f"{seed}:shard{i}")`` -- the same idiom
        :class:`~repro.faults.corruption.DiskFaultPlan` uses per blob
        -- gives every shard its own reproducible timeline that is
        identical between thread-based and process-based replays of
        the same trace at the same shard count.

        ``crash_at`` does not shard (sharded replayers reject crash
        plans outright), disk plans already derive per-blob seeds, and
        cluster plans describe one shared topology, so all three carry
        over unchanged.
        """
        if shard < 0:
            raise ValueError("shard index must be >= 0")
        return dataclasses.replace(self, seed=f"{self.seed}:shard{shard}")

    # -- compilation ---------------------------------------------------------

    def schedule(self) -> "FaultSchedule":
        """Fresh schedule starting at operation index 0."""
        return FaultSchedule(self)

    def preview(self, num_ops: int) -> List[OpFaults]:
        """The first ``num_ops`` scheduled decisions (for inspection
        and determinism tests); does not disturb any live schedule."""
        schedule = self.schedule()
        return [schedule.next_op() for _ in range(num_ops)]


class FaultSchedule:
    """A plan's per-operation fault decisions: the fault hook of a
    :class:`~repro.faults.gate.GatedConnector`.

    Decisions are drawn in operation order from ``Random(plan.seed)``,
    so the sequence is fully determined by the plan.  The gate draws
    once per logical operation (:meth:`draw`) and takes the op's
    :meth:`turn` before each attempt; :meth:`next_op` is the same
    sequence for inspection, drawn by the schedule's own cursor.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._cursor = 0
        #: op whose transient-error burst is being spent, and what is left
        self._burst_at = -1
        self._burst_left = 0

    def draw(self, index: int) -> Optional[OpFaults]:
        """The faults of logical op ``index`` (``None`` when there are
        none).  Must be called once per op, in op order."""
        plan = self.plan
        if index == plan.crash_at:
            return _CRASH
        rng = self._rng
        transient = 0
        if plan.transient_error_rate and rng.random() < plan.transient_error_rate:
            transient = plan.error_burst
        delay_s = 0.0
        if plan.latency_spike_rate and rng.random() < plan.latency_spike_rate:
            delay_s += plan.latency_spike_ms / 1000.0
        if plan.stall_every and index and index % plan.stall_every == 0:
            delay_s += plan.stall_ms / 1000.0
        if transient or delay_s:
            return OpFaults(transient_errors=transient, delay_s=delay_s)
        return None

    def turn(self, faults: OpFaults, index: int) -> float:
        """Op ``index``'s turn: raise its crash, or one error of its
        burst per attempt until the burst is spent; then return its
        delay."""
        if faults.crash:
            raise InjectedCrash(index)
        if faults.transient_errors:
            if index != self._burst_at:
                self._burst_at = index
                self._burst_left = faults.transient_errors
            if self._burst_left:
                self._burst_left -= 1
                raise TransientStoreError(
                    f"injected transient error (op {index})", index
                )
        return faults.delay_s

    def next_op(self) -> OpFaults:
        index = self._cursor
        self._cursor = index + 1
        faults = self.draw(index)
        return _CLEAN if faults is None else faults

    def __iter__(self) -> Iterator[OpFaults]:
        while True:
            yield self.next_op()


def load_fault_plan(path: str) -> FaultPlan:
    """Module-level convenience mirroring :meth:`FaultPlan.load`."""
    return FaultPlan.load(path)
