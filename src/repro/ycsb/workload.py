"""YCSB workload generation producing Gadget-compatible access traces.

Mirrors YCSB's core-workload semantics (section 4 of the paper):

* ``recordcount`` keys are considered preloaded; read/update requests
  draw from them immediately
* inserts extend the key space; under the ``latest`` distribution
  (workload D) later reads favour the newest records, inserted ones
  included, while every other distribution reads and updates preloaded
  records only (a limitation the paper calls out)
* delete operations do not exist in YCSB
* read-modify-write issues a read followed by an update of the same key

Core workload presets follow the YCSB distribution:

====  =======================  ============
name  operation mix            distribution
====  =======================  ============
A     50% read / 50% update    zipfian
B     95% read / 5% update     zipfian
C     100% read                zipfian
D     95% read / 5% insert     latest
E     95% scan / 5% insert     zipfian (scans are replayed as reads)
F     50% read / 50% r-m-w     zipfian
====  =======================  ============
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..trace import AccessTrace, OpType
from .distributions import LatestGenerator, make_generator


@dataclass
class YCSBConfig:
    record_count: int = 1000
    operation_count: int = 100_000
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    insert_proportion: float = 0.0
    rmw_proportion: float = 0.0
    scan_proportion: float = 0.0
    request_distribution: str = "zipfian"
    key_size: int = 8
    value_size: int = 256
    seed: int = 42

    def validate(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.rmw_proportion
            + self.scan_proportion
        )
        if not 0.999 <= total <= 1.001:
            raise ValueError(f"operation proportions sum to {total}, expected 1.0")


CORE_WORKLOADS: Dict[str, dict] = {
    "A": {"read_proportion": 0.5, "update_proportion": 0.5,
          "request_distribution": "zipfian"},
    "B": {"read_proportion": 0.95, "update_proportion": 0.05,
          "request_distribution": "zipfian"},
    "C": {"read_proportion": 1.0, "update_proportion": 0.0,
          "request_distribution": "zipfian"},
    "D": {"read_proportion": 0.95, "update_proportion": 0.0,
          "insert_proportion": 0.05, "request_distribution": "latest"},
    "E": {"scan_proportion": 0.95, "update_proportion": 0.0,
          "read_proportion": 0.0, "insert_proportion": 0.05,
          "request_distribution": "zipfian"},
    "F": {"read_proportion": 0.5, "update_proportion": 0.0,
          "rmw_proportion": 0.5, "request_distribution": "zipfian"},
}


class YCSBWorkload:
    """Generates a YCSB request trace (and can preload a store)."""

    def __init__(self, config: Optional[YCSBConfig] = None) -> None:
        self.config = config or YCSBConfig()
        self.config.validate()
        self.rng = random.Random(self.config.seed)
        self._inserted = self.config.record_count
        self.generator = make_generator(
            self.config.request_distribution, self.config.record_count, self.rng
        )
        #: "latest" draws up to its insertion frontier, each index a
        #: preloaded or an already inserted record: no fold
        self._fold = not isinstance(self.generator, LatestGenerator)

    @classmethod
    def core(cls, name: str, **overrides) -> "YCSBWorkload":
        """Build one of the YCSB core workloads A-F."""
        try:
            preset = dict(CORE_WORKLOADS[name.upper()])
        except KeyError:
            raise ValueError(
                f"unknown core workload {name!r}; expected one of "
                f"{sorted(CORE_WORKLOADS)}"
            ) from None
        preset.update(overrides)
        return cls(YCSBConfig(**preset))

    # ------------------------------------------------------------------

    def key_for(self, index: int) -> bytes:
        # Pad with a non-digit so "user50" and "user500" can never
        # collide after padding.
        return f"user{index}".encode().ljust(self.config.key_size, b"_")

    def load_keys(self):
        """The preloaded key set (YCSB's load phase)."""
        return [self.key_for(i) for i in range(self.config.record_count)]

    def preload(self, connector) -> int:
        """YCSB's load phase: insert every record before transactions.

        Returns the number of records loaded.  Reads in the generated
        transaction trace then hit real values, as in YCSB.
        """
        from ..core.replayer import synthesize_value

        value = synthesize_value(self.config.value_size)
        for key in self.load_keys():
            connector.put(key, value)
        return self.config.record_count

    def generate(self) -> AccessTrace:
        """Produce the transaction-phase request trace."""
        config = self.config
        trace = AccessTrace()
        thresholds = self._cumulative_proportions()
        for step in range(config.operation_count):
            u = self.rng.random()
            if u < thresholds["read"]:
                trace.record(OpType.GET, self._next_key(), 0, step)
            elif u < thresholds["update"]:
                trace.record(
                    OpType.PUT, self._next_key(), config.value_size, step
                )
            elif u < thresholds["insert"]:
                index = self._inserted
                self._inserted += 1
                if isinstance(self.generator, LatestGenerator):
                    self.generator.advance()
                trace.record(
                    OpType.PUT, self.key_for(index), config.value_size, step
                )
            elif u < thresholds["rmw"]:
                key = self._next_key()
                trace.record(OpType.GET, key, 0, step)
                trace.record(OpType.PUT, key, config.value_size, step)
            else:  # scan: replayed as a read of the start key
                trace.record(OpType.GET, self._next_key(), 0, step)
        return trace

    def _next_key(self) -> bytes:
        index = self.generator.next_index()
        if self._fold:
            # Reads/updates only touch preloaded records.  Folding a
            # "latest" draw would send its hottest index, the newest
            # insert, to the oldest preloaded records.
            index %= self.config.record_count
        return self.key_for(index)

    def _cumulative_proportions(self) -> Dict[str, float]:
        config = self.config
        read = config.read_proportion
        update = read + config.update_proportion
        insert = update + config.insert_proportion
        rmw = insert + config.rmw_proportion
        return {"read": read, "update": update, "insert": insert, "rmw": rmw}
