"""Cluster topology configuration.

A :class:`ClusterConfig` names the whole shape of a serving cluster:
how many partitions, how many replicas behind each primary, the ack
level writes wait for, and which embedded store backs every node.
Loaded from JSON via the same strict unknown-keys-fail idiom as the
workload configs (:func:`repro.core.configfile.build_dataclass`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict

from ..core.configfile import build_dataclass

#: how many replicas must hold a write before the client is acked:
#: ``none`` -- primary only, replication is fire-and-forget;
#: ``one`` -- the first replica confirms; ``all`` -- the whole chain.
ACK_LEVELS = ("none", "one", "all")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a partitioned, replicated store cluster."""

    #: number of key partitions (crc32(key) % partitions, matching
    #: ``shard_trace``'s partitioner)
    partitions: int = 3
    #: replicas per partition *behind* the primary (0 = no replication;
    #: replication factor is ``replicas + 1``)
    replicas: int = 1
    #: ack level for replicated writes, one of :data:`ACK_LEVELS`
    ack: str = "all"
    #: embedded store backing every node (memory / rocksdb / lethe /
    #: berkeleydb; restart-resync needs a scan-capable store, which
    #: excludes faster)
    store: str = "memory"
    #: per-node store overrides forwarded to ``create_store``
    store_config: Dict[str, object] = field(default_factory=dict)
    #: client socket timeout per request, seconds
    timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {self.partitions}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.ack not in ACK_LEVELS:
            raise ValueError(
                f"unknown ack level {self.ack!r}; expected one of {ACK_LEVELS}"
            )
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")

    @property
    def label(self) -> str:
        """Compact identity for result rows: ``3x2@all`` reads as
        3 partitions x replication-factor 2, ack=all."""
        return f"{self.partitions}x{self.replicas + 1}@{self.ack}"

    @classmethod
    def from_dict(cls, config: dict) -> "ClusterConfig":
        return build_dataclass(cls, config, "cluster")

    @classmethod
    def load(cls, path: str) -> "ClusterConfig":
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError(f"{path}: cluster config must be a JSON object")
        return cls.from_dict(config)

    def to_dict(self) -> dict:
        return asdict(self)


def load_cluster_config(path: str) -> ClusterConfig:
    """Module-level convenience mirroring :meth:`ClusterConfig.load`."""
    return ClusterConfig.load(path)
