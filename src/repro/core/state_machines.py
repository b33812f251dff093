"""Operator state machines (paper section 5.3, Figure 9).

Gadget models operator logic as finite state machines, one per state
key.  Each machine emits KV-store requests when the driver runs it for
an event, and final requests when the driver terminates it on
expiration.  Machines never hold operator values -- only the metadata
needed to generate accurate accesses (element counts, expiry times) --
which keeps Gadget's memory footprint low.
"""

from __future__ import annotations

from typing import Optional

from ..trace import _OP_CODES, AccessTrace, OpType

_GET = _OP_CODES[OpType.GET]
_PUT = _OP_CODES[OpType.PUT]
_MERGE = _OP_CODES[OpType.MERGE]
_DELETE = _OP_CODES[OpType.DELETE]


class MachineContext:
    """Emission interface handed to machines by the driver.

    Requests are appended to the workload generator's FIFO queue; the
    request type and key come from the machine, the value size from the
    configured value distribution (or an explicit override), and the
    timestamp from the event being processed.

    ``write`` and ``get_then`` append straight to the trace's columns
    and take a key *handle* -- the key's id in the trace's key pool,
    from ``handle(key)``.  ``emit`` is the key-based form that custom
    machines use (paper section 5.4).
    """

    def __init__(self, workload: AccessTrace, value_size: int = 10) -> None:
        self.workload = workload
        self.default_value_size = value_size
        self.current_time = 0
        (
            self._op,
            self._kid,
            self._vsize,
            self._tstamp,
            self.handle,
        ) = workload._appenders()

    def write(self, code: int, handle: int, value_size: int) -> None:
        """Append one request: opcode ``code`` on the key ``handle``."""
        self._op(code)
        self._kid(handle)
        self._vsize(value_size)
        self._tstamp(self.current_time)

    def get_then(self, code: int, handle: int, value_size: int = 0) -> None:
        """Append a get and then ``code`` on the same key (the get+put
        and get+delete pairs)."""
        op, kid, vsize, tstamp = self._op, self._kid, self._vsize, self._tstamp
        now = self.current_time
        op(_GET)
        kid(handle)
        vsize(0)
        tstamp(now)
        op(code)
        kid(handle)
        vsize(value_size)
        tstamp(now)

    def emit(
        self, op: OpType, state_key: bytes, value_size: Optional[int] = None
    ) -> None:
        code = _OP_CODES[op]
        if value_size is None:
            value_size = self.default_value_size if code in (_PUT, _MERGE) else 0
        self.write(code, self.handle(state_key), value_size)


class StateMachine:
    """One per state key; lifecycle is run*...terminate."""

    __slots__ = ("state_key", "elements", "done", "handle")

    def __init__(self, state_key: bytes) -> None:
        self.state_key = state_key
        self.elements = 0  # metadata only: how many updates it absorbed
        self.done = False
        #: the state key's id in the trace's key pool, set at first emit
        self.handle: Optional[int] = None

    def key_handle(self, ctx: MachineContext) -> int:
        """The state key's handle, interned on first use.

        Interning when the machine first emits, not when the driver
        creates it, keeps the key pool in first-emit order: a model may
        create a machine and emit other keys before the machine runs.
        """
        handle = self.handle
        if handle is None:
            handle = self.handle = ctx.handle(self.state_key)
        return handle

    def run(self, ctx: MachineContext, event) -> None:
        raise NotImplementedError

    def terminate(self, ctx: MachineContext) -> None:
        self.done = True


class IncrementalWindowMachine(StateMachine):
    """Figure 9's machine: get-put per event, final get + delete.

    State transitions: GetState -> PutState on every event; the trigger
    moves GetState -> DeleteState (the final get retrieves the window
    aggregate before cleanup).
    """

    __slots__ = ()

    def run(self, ctx: MachineContext, event) -> None:
        ctx.get_then(_PUT, self.key_handle(ctx), event.value_size)
        self.elements += 1

    def terminate(self, ctx: MachineContext) -> None:
        ctx.get_then(_DELETE, self.key_handle(ctx))  # FGet, then delete
        self.done = True


class HolisticWindowMachine(StateMachine):
    """Lazy merge per event; final get + delete on trigger."""

    __slots__ = ()

    def run(self, ctx: MachineContext, event) -> None:
        ctx.write(_MERGE, self.key_handle(ctx), event.value_size)
        self.elements += 1

    def terminate(self, ctx: MachineContext) -> None:
        ctx.get_then(_DELETE, self.key_handle(ctx))
        self.done = True


class AggregationMachine(StateMachine):
    """Rolling aggregate: get-put per event, never terminates."""

    __slots__ = ()

    def run(self, ctx: MachineContext, event) -> None:
        ctx.get_then(_PUT, self.key_handle(ctx), event.value_size)
        self.elements += 1


class BufferMachine(StateMachine):
    """Join-side buffer: append via get-put, silent delete on expiry.

    Used by the interval join, whose buckets are read by probes (the
    operator model emits those) and removed without a final get.
    """

    __slots__ = ()

    def run(self, ctx: MachineContext, event) -> None:
        ctx.get_then(_PUT, self.key_handle(ctx), event.value_size)
        self.elements += 1

    def terminate(self, ctx: MachineContext) -> None:
        ctx.write(_DELETE, self.key_handle(ctx), 0)
        self.done = True


class MergeBufferMachine(StateMachine):
    """Join-side buffer built with lazy merges (window join sides)."""

    __slots__ = ()

    def run(self, ctx: MachineContext, event) -> None:
        ctx.write(_MERGE, self.key_handle(ctx), event.value_size)
        self.elements += 1

    def terminate(self, ctx: MachineContext) -> None:
        ctx.get_then(_DELETE, self.key_handle(ctx))
        self.done = True
