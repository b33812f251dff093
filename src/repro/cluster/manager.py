"""Cluster supervision: spawn, kill, restart, and replace store servers.

:class:`StoreCluster` owns the server fleet -- ``partitions`` chains of
``replicas + 1`` nodes each, every node an in-process
:class:`~repro.kvstores.remote.StoreServer` on a kernel-assigned port
(port 0, so N servers never collide).  It is deliberately dumb about
*topology*: who is primary, what the replication chain looks like, and
where traffic goes are all the :class:`~repro.cluster.connector.
ClusterConnector`'s business.  The manager only supervises processes --
which is the separation a chaos harness needs, because killing a node
must not consult the same state the client uses to route around it.

``restart`` models a *replacement* node, not local recovery: the new
server gets a fresh store (and, for disk stores, a fresh directory) and
a new port, and must be resynced from its chain by the connector
(``attach_replica``).  Local crash-recovery of one store is the axis
``evaluate_crash_recovery`` already measures.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from ..kvstores.api import KVStore, MergeOperator
from ..kvstores.factory import create_store
from ..kvstores.remote import StoreServer
from .config import ClusterConfig


class ClusterNode:
    """One supervised server slot: a stable name bound to whatever
    :class:`StoreServer` incarnation currently fills it."""

    def __init__(
        self,
        name: str,
        partition: int,
        store_factory: Callable[[int], KVStore],
    ) -> None:
        self.name = name
        self.partition = partition
        self._store_factory = store_factory
        self.server: Optional[StoreServer] = None
        #: bumped per (re)start; the factory uses it to give disk
        #: stores a fresh directory per incarnation
        self.generation = 0

    @property
    def alive(self) -> bool:
        return self.server is not None

    @property
    def address(self) -> Tuple[str, int]:
        if self.server is None:
            raise RuntimeError(f"cluster node {self.name} is down")
        return self.server.address

    def start(self) -> "ClusterNode":
        if self.server is None:
            self.generation += 1
            self.server = StoreServer(self._store_factory(self.generation)).start()
        return self

    def kill(self) -> None:
        """Abrupt death (connection resets, store abandoned)."""
        server, self.server = self.server, None
        if server is not None:
            server.kill()

    def stop(self) -> None:
        """Clean shutdown (drain, close store)."""
        server, self.server = self.server, None
        if server is not None:
            server.stop()


class StoreCluster:
    """The server fleet for one :class:`ClusterConfig`.

    Nodes are named ``p{partition}r{position}`` (``p0r0`` is partition
    0's initial primary, ``p0r1`` its first replica).  Names are
    stable across restarts even though ports are not.
    """

    def __init__(
        self,
        config: ClusterConfig,
        merge_operator: Optional[MergeOperator] = None,
        storage_root: Optional[str] = None,
    ) -> None:
        if config.store != "memory" and storage_root is None and config.store_config.get("storage_dir"):
            raise ValueError(
                "pass storage_root= instead of store_config['storage_dir']; "
                "every node incarnation needs its own directory"
            )
        self.config = config
        self._merge_operator = merge_operator
        self._storage_root = storage_root
        self._nodes: Dict[str, ClusterNode] = {}
        self._stopped = False
        for partition in range(config.partitions):
            for position in range(config.replicas + 1):
                name = f"p{partition}r{position}"
                self._nodes[name] = ClusterNode(
                    name, partition, self._factory_for(name)
                ).start()

    def _factory_for(self, name: str) -> Callable[[int], KVStore]:
        def factory(generation: int) -> KVStore:
            overrides = dict(self.config.store_config)
            if self._storage_root is not None:
                overrides["storage_dir"] = os.path.join(
                    self._storage_root, name, f"gen{generation}"
                )
            return create_store(
                self.config.store, self._merge_operator, **overrides
            )

        return factory

    # -- inspection ----------------------------------------------------------

    def names(self) -> List[str]:
        return list(self._nodes)

    def node(self, name: str) -> ClusterNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(
                f"unknown cluster node {name!r}; have {sorted(self._nodes)}"
            ) from None

    def chain(self, partition: int) -> List[str]:
        """The *initial* chain for a partition, primary first.  The
        connector copies this at construction and owns it thereafter."""
        if not 0 <= partition < self.config.partitions:
            raise ValueError(f"no partition {partition}")
        return [
            f"p{partition}r{position}"
            for position in range(self.config.replicas + 1)
        ]

    def address(self, name: str) -> Tuple[str, int]:
        return self.node(name).address

    def live(self, name: str) -> bool:
        return self.node(name).alive

    def replication_stats(self, name: str) -> dict:
        """Downstream-link counters for a node, or ``{}`` when down.

        Safe from any thread (plain counter reads); the chaos executor
        reads ``pending`` here immediately before killing a primary to
        capture the lost-ack window."""
        node = self.node(name)
        if node.server is None:
            return {}
        return node.server.replication_stats()

    # -- topology events -----------------------------------------------------

    def kill(self, name: str) -> None:
        self.node(name).kill()

    def restart(self, name: str) -> Tuple[str, int]:
        """Bring a dead slot back as a *replacement* node (fresh store,
        new port) and return its new address."""
        node = self.node(name)
        if node.alive:
            raise RuntimeError(f"cluster node {name} is already running")
        return node.start().address

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for node in self._nodes.values():
            node.stop()

    def __enter__(self) -> "StoreCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
