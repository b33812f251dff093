"""The Gadget driver (paper section 5.2, Algorithm 1).

The driver maps input events to state objects and operates the state
machines.  It maintains two indexes:

* ``hIndex`` -- event key -> live state keys for that key
* ``vIndex`` -- expiration time -> state keys expiring then

For every batch of events it assigns machines and runs them; on
watermark it collects expired machines from the vIndex and terminates
them.  The driver performs no computation on values and issues no
requests itself -- it only drives workload generation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..events import Event
from ..trace import AccessTrace
from .config import GadgetConfig
from .generator import as_source
from .state_machines import MachineContext, StateMachine


class OperatorModel:
    """What users implement to extend Gadget (paper section 5.4).

    ``assign_state_machines`` maps an event to the machines it must
    run (creating them through the driver as needed) and may emit
    auxiliary requests (e.g. join probes) through ``driver.ctx``.
    ``on_watermark`` lets models with custom expiration logic react to
    progress; the default vIndex sweep already terminates expired
    machines before it is called.
    """

    num_inputs = 1
    #: default value size for generated put/merge payloads
    value_size = 10
    #: whether the operator has event-time window semantics and drops
    #: late events; operators without windows (continuous aggregation,
    #: continuous join) process every event regardless of watermarks
    drops_late_events = True

    def assign_state_machines(
        self, event: Event, input_index: int, driver: "Driver"
    ) -> Sequence[StateMachine]:
        raise NotImplementedError

    def on_watermark(self, timestamp: int, driver: "Driver") -> None:
        """Hook for model-specific expiration; default does nothing."""


class Driver:
    def __init__(
        self,
        model: OperatorModel,
        sources: Sequence,
        config: Optional[GadgetConfig] = None,
        batch_size: int = 64,
    ) -> None:
        self.model = model
        self.config = config or GadgetConfig()
        self.batch_size = batch_size
        self._source_objects = [as_source(s) for s in sources]
        if len(self._source_objects) != model.num_inputs:
            raise ValueError(
                f"model expects {model.num_inputs} source(s), got "
                f"{len(self._source_objects)}"
            )
        self.workload = AccessTrace()
        self.ctx = MachineContext(self.workload, model.value_size)
        self.hindex: Dict[bytes, Set[bytes]] = {}
        self.vindex: Dict[int, Set[bytes]] = {}
        self.machines: Dict[bytes, StateMachine] = {}
        #: state key -> the event key its machine was created for
        self._event_keys: Dict[bytes, bytes] = {}
        self.current_watermark = -1
        self.dropped_late_events = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Machine/bookkeeping API used by operator models
    # ------------------------------------------------------------------

    def machine_for(
        self,
        state_key: bytes,
        factory,
        event_key: Optional[bytes] = None,
        expires_at: Optional[int] = None,
    ) -> StateMachine:
        """Fetch or instantiate the machine for ``state_key``."""
        machine = self.machines.get(state_key)
        if machine is None:
            machine = factory(state_key)
            self.machines[state_key] = machine
            if event_key is not None:
                self.hindex.setdefault(event_key, set()).add(state_key)
                self._event_keys[state_key] = event_key
            if expires_at is not None:
                self.vindex.setdefault(expires_at, set()).add(state_key)
        return machine

    def reschedule(self, state_key: bytes, old_expiry: int, new_expiry: int) -> None:
        bucket = self.vindex.get(old_expiry)
        if bucket is not None:
            bucket.discard(state_key)
            if not bucket:
                del self.vindex[old_expiry]
        self.vindex.setdefault(new_expiry, set()).add(state_key)

    def terminate_machine(self, state_key: bytes, event_key: Optional[bytes] = None) -> None:
        machine = self.machines.pop(state_key, None)
        if machine is None:
            return
        self._unindex(state_key, event_key)
        if not machine.done:
            machine.terminate(self.ctx)

    def drop_machine(self, state_key: bytes, event_key: Optional[bytes] = None) -> None:
        """Remove a machine without emitting its final requests.

        Used when a model emits custom cleanup itself (e.g. session
        merges, continuous-join invalidation).
        """
        self.machines.pop(state_key, None)
        self._unindex(state_key, event_key)

    def _unindex(self, state_key: bytes, event_key: Optional[bytes]) -> None:
        """Remove ``state_key`` from the hIndex, under the event key
        ``machine_for`` recorded for it (or ``event_key`` if none was)."""
        event_key = self._event_keys.pop(state_key, event_key)
        bucket = self.hindex.get(event_key)
        if bucket is not None:
            bucket.discard(state_key)
            if not bucket:
                del self.hindex[event_key]

    def unschedule(self, state_key: bytes, expiry: int) -> None:
        bucket = self.vindex.get(expiry)
        if bucket is not None:
            bucket.discard(state_key)
            if not bucket:
                del self.vindex[expiry]

    def live_state_keys(self, event_key: bytes) -> Set[bytes]:
        return self.hindex.get(event_key, set())

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def run(self) -> AccessTrace:
        """Drive workload generation to completion; returns the trace.

        Following Algorithm 1, the driver pulls and processes the input
        in batches (``getNext()``); watermarks are handled between
        events per the sources' punctuation frequency.
        """
        streams = [src.generate() for src in self._source_objects]
        frequency = self._watermark_frequency()
        lateness = self._allowed_lateness()
        drops_late = self.model.drops_late_events
        assign = self.model.assign_state_machines
        ctx = self.ctx
        max_time: Optional[int] = None
        count = 0
        for batch in self._batches(self._merged(streams)):
            for event, index in batch:
                count += 1
                timestamp = event.timestamp
                if max_time is None or timestamp > max_time:
                    max_time = timestamp
                if drops_late and timestamp <= self.current_watermark - lateness:
                    self.dropped_late_events += 1
                else:
                    ctx.current_time = timestamp
                    self.events_processed += 1
                    for machine in assign(event, index, self):
                        machine.run(ctx, event)
                if frequency and count % frequency == 0:
                    self.on_watermark(max_time)
        if max_time is not None:
            self.on_watermark(max_time + 1)
        return self.workload

    def _batches(self, pairs: Iterable[Tuple[Event, int]]):
        batch: List[Tuple[Event, int]] = []
        for pair in pairs:
            batch.append(pair)
            if len(batch) >= self.batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def on_watermark(self, timestamp: int) -> None:
        if timestamp <= self.current_watermark:
            return
        self.current_watermark = timestamp
        self.ctx.current_time = timestamp
        for state_key in self._collect_expired(timestamp):
            self.terminate_machine(state_key)
        self.model.on_watermark(timestamp, self)

    def _collect_expired(self, timestamp: int) -> List[bytes]:
        expired_times = [t for t in self.vindex if t <= timestamp]
        keys: List[bytes] = []
        for t in sorted(expired_times):
            keys.extend(sorted(self.vindex.pop(t)))
        return keys

    # ------------------------------------------------------------------

    def _merged(self, streams: Sequence[Sequence[Event]]) -> Iterable[Tuple[Event, int]]:
        from ..streaming.runtime import merged_stream

        return merged_stream(streams, self.config.interleave)

    def _watermark_frequency(self) -> int:
        """Punctuation frequency across *all* configured sources.

        A merged stream progresses at the pace of its most frequently
        punctuating source, so take the minimum positive frequency (a
        frequency of 0 means that source emits no punctuation).
        """
        frequencies = [
            s.watermark_frequency
            for s in self.config.sources
            if hasattr(s, "watermark_frequency")
        ]
        if not frequencies:
            return 100
        positive = [f for f in frequencies if f > 0]
        return min(positive) if positive else 0

    def _allowed_lateness(self) -> int:
        """Allowed lateness across *all* configured sources.

        An event is only dropped when it is late by every source's
        standard, so the merged stream honours the maximum.
        """
        lateness = [
            s.max_lateness_ms
            for s in self.config.sources
            if hasattr(s, "max_lateness_ms")
        ]
        return max(lateness) if lateness else 0
