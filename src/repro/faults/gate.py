"""One gate between the replayer and a store: faults, retries, chaos.

:class:`GatedConnector` wraps any connector and owns, once each:

* **the logical op index**, the hook's clock: a batch of ``n`` counts
  ``n``, a pipelined submit one;
* **the per-op draw**: the hook is drawn once per logical op, in op
  order, and the draw is cached across retries of that op;
* **the batch-member split**: clean members run as maximal sub-batches,
  and a blocking member takes its turn only after the members before it
  executed, so a crash at member ``k`` leaves members ``0..k-1``
  applied, as per-op replay does;
* **the retry loop**, :meth:`RetryPolicy.call`, entered only after a
  first failure.

A *hook* has ``draw(op_index)``, returning ``None`` for an op nothing
happens to or a draw with a boolean ``blocking``, and ``turn(draw,
op_index)``, run before each attempt of the op: it returns the delay to
sleep, raises :class:`TransientStoreError` or :class:`InjectedCrash`,
or acts (a cluster kill).  A draw that does not block only delays; in a
batch its turn is taken when its run starts, and the run sleeps the
sum once.  :class:`~repro.faults.plan.FaultSchedule` and
:class:`~repro.cluster.chaos.ChaosHook` are the hooks.  Every delay and
backoff goes through the gate's one ``sleep``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..obs import tracing
from .errors import InjectedCrash, TransientStoreError
from .retry import RetryPolicy


@dataclass
class FaultStats:
    """What a gate's hook actually fired during a replay."""

    transient_errors: int = 0
    latency_spikes: int = 0
    injected_delay_s: float = 0.0
    crashed_at: Optional[int] = None

    @property
    def total_faults(self) -> int:
        crashes = 1 if self.crashed_at is not None else 0
        return self.transient_errors + self.latency_spikes + crashes


class GatedConnector:
    """Connector facade applying a hook and a retry policy to every op.

    Either may be ``None``: a gate with no hook only retries, one with
    no policy lets every failure out to the caller, who gives up on the
    op with :meth:`abandon_op` (or calls again to retry it).
    """

    def __init__(
        self,
        inner,
        hook=None,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.hook = hook
        self.retry = retry
        self._sleep = sleep
        self._retryable = retry.retry_on if retry is not None else ()
        self.name = inner.name
        #: index of the next logical op the hook draws
        self.op_index = 0
        self.injected = FaultStats()
        self.retries = 0
        #: ops whose retryable failure outlasted the policy's budget
        self.giveups = 0
        #: draw of the single op in flight (cleared once it gets through)
        self._draw = None
        #: per-member draws of the batch in flight (``None`` once a
        #: member's turn is taken) and how many members are done
        self._draws: Optional[list] = None
        self._done = 0
        self._results: Optional[list] = None
        # The probe is not gated: bind the inner one, so a replay's
        # per-op probe runs no frame here.  An inner without a probe
        # leaves the method below in place.
        probe = getattr(inner, "take_background_ns", None)
        if probe is not None:
            self.take_background_ns = probe

    # -- the gate ------------------------------------------------------------

    def _turn(self, draw, op_index: int) -> float:
        """Take one op's turn, counting what the hook fired."""
        injected = self.injected
        try:
            delay = self.hook.turn(draw, op_index)
        except TransientStoreError:
            injected.transient_errors += 1
            raise
        except InjectedCrash:
            injected.crashed_at = op_index
            raise
        if delay:
            injected.latency_spikes += 1
            injected.injected_delay_s += delay
        return delay

    def _attempt(self, fn, *args):
        """One attempt of a single op: its turn, then ``fn(*args)``."""
        if self.hook is not None:
            draw = self._draw
            if draw is None:
                index = self.op_index
                self.op_index = index + 1
                draw = self._draw = self.hook.draw(index)
            if draw is not None:
                delay = self._turn(draw, self.op_index - 1)
                self._draw = None
                if delay:
                    self._sleep(delay)
        return fn(*args)

    def _retrying(self, attempt, *args):
        """``attempt(*args)``, under the retry loop once it fails."""
        try:
            return attempt(*args)
        except self._retryable as error:
            return self._retry(error, attempt, *args)

    def _retry(self, error: BaseException, attempt, *args):
        try:
            return self.retry.call(attempt, *args, sleep=self._sleep,
                                   on_retry=self._count_retry, failed=error)
        except self._retryable:
            self.giveups += 1
            raise

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        self.retries += 1
        tracing.instant(
            "retry.attempt", attempt=attempt,
            op=getattr(error, "op_index", None), error=type(error).__name__,
        )

    def _run_batch(self, count: int, execute: Callable[[int, int], None]) -> None:
        """Run a batch of ``count`` logical ops, ``execute(i, j)``
        applying members ``[i, j)``.

        Resumable: after a failure the caller re-calls with the same
        batch, and members already applied are not re-run (after
        :meth:`abandon_op`, the failed member is skipped too)."""
        draws = self._draws
        if draws is None:
            if self.injected.crashed_at is not None:
                # a crashed process stays dead: every further call refails
                raise InjectedCrash(self.injected.crashed_at)
            base = self.op_index
            self.op_index = base + count
            draw = self.hook.draw
            draws = self._draws = [draw(index) for index in range(base, base + count)]
            self._done = 0
        elif len(draws) != count:
            raise RuntimeError(
                "batch retry must replay the same ops: got a batch of "
                f"{count} while {len(draws)} are in flight"
            )
        base = self.op_index - count
        i = self._done
        while i < count:
            delay = 0.0
            j = i
            while j < count:
                draw = draws[j]
                if draw is not None:
                    if draw.blocking and j > i:
                        break
                    delay += self._turn(draw, base + j)
                    draws[j] = None
                j += 1
            if delay:
                self._sleep(delay)
            execute(i, j)
            self._done = i = j
        self._draws = None

    def abandon_op(self) -> Optional[int]:
        """The caller gave up on the op that just failed, so the next
        op does not take its leftover faults (shifting every later
        fault by one).  Inside a batch only the failed member is
        abandoned: re-calling the batch skips it and runs the rest.
        Returns that member's index, ``None`` outside a batch (or when
        the batch failed in the store, not at a member's turn).
        """
        draws = self._draws
        if draws is None:
            self._draw = None
            return None
        member = self._done
        if draws[member] is None:
            return None
        self._done = member + 1
        return member

    # -- connector API -------------------------------------------------------

    def get(self, key: bytes):
        return self._retrying(self._attempt, self.inner.get, key)

    def put(self, key: bytes, value: bytes) -> None:
        self._retrying(self._attempt, self.inner.put, key, value)

    def merge(self, key: bytes, operand: bytes) -> None:
        self._retrying(self._attempt, self.inner.merge, key, operand)

    def delete(self, key: bytes) -> None:
        self._retrying(self._attempt, self.inner.delete, key)

    def multi_get(self, keys):
        """Batched read, each key one logical op (one call without a hook,
        which has nothing to split); a re-call keeps what a failed call read."""
        if self.hook is None:
            try:
                return self.inner.multi_get(keys)
            except self._retryable as error:
                return self._retry(error, self.inner.multi_get, keys)
        if self._draws is None or self._results is None:
            self._results = [None] * len(keys)
        results = self._results

        def execute(i: int, j: int) -> None:
            results[i:j] = self.inner.multi_get(keys[i:j])

        self._retrying(self._run_batch, len(keys), execute)
        self._results = None
        return results

    def apply_batch(self, ops) -> None:
        if self.hook is None:
            try:
                self.inner.apply_batch(ops)
            except self._retryable as error:
                self._retry(error, self.inner.apply_batch, ops)
        else:
            self._retrying(
                self._run_batch, len(ops),
                lambda i, j: self.inner.apply_batch(ops[i:j]),
            )

    def take_background_ns(self) -> int:
        return self.inner.take_background_ns()

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    def pipeline(self, depth: int, on_complete):
        """The inner connector's pipelined session, each submit gated.

        A submit passes the gate (and its retries) *before* the op
        enters the window, so faults and cluster actions fire at the
        same logical offsets as synchronous replay; a chaos kill at op
        ``k`` lands while ops before ``k`` may still be in flight.
        ``flush``/``drain`` are not gated: after a crash the replay
        still drains the window, so the ops submitted before it
        complete."""
        return _GatedSession(self, self.inner.pipeline(depth, on_complete))


class _GatedSession:
    """Gates each submit; everything else is the inner session's."""

    def __init__(self, gate: GatedConnector, inner) -> None:
        self._gate = gate
        self._inner = inner

    def submit(self, opcode: int, key: bytes, value: bytes,
               arrival_ns: int) -> None:
        gate = self._gate
        gate._retrying(gate._attempt, self._inner.submit, opcode, key, value,
                       arrival_ns)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
