"""Bounded retries with exponential backoff and jitter.

:class:`RetryPolicy` is the single retry mechanism of the harness: a
:class:`~repro.faults.gate.GatedConnector` runs its loop to absorb
injected transient errors, and :class:`~repro.kvstores.remote.RemoteStoreClient`
uses the same policy to reconnect after socket timeouts.  Delays grow
exponentially (``base * multiplier**attempt``), are capped at
``max_delay_s``, and carry proportional jitter so synchronized clients
do not retry in lockstep.  A ``seed`` makes the jitter deterministic
for tests; an ``op_timeout_s`` bounds the time (sleeps included) one
logical operation may spend retrying before the last error is re-raised.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple, Type

from .errors import TransientStoreError


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with jitter and a per-op deadline."""

    max_attempts: int = 4
    base_delay_s: float = 0.002
    multiplier: float = 2.0
    max_delay_s: float = 0.25
    #: fraction of the delay added/removed at random (0 disables)
    jitter: float = 0.25
    #: wall-clock budget per operation from its first failure, sleeps included
    op_timeout_s: Optional[float] = None
    #: seed for deterministic jitter (None -> nondeterministic)
    seed: Optional[int] = None
    #: exception types worth retrying
    retry_on: Tuple[Type[BaseException], ...] = (TransientStoreError,)
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = random.Random(self.seed)

    # -- delay schedule ------------------------------------------------------

    def base_delays(self) -> Iterator[float]:
        """Capped exponential delays, before jitter, one per retry."""
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.multiplier

    def _jittered(self, delay: float) -> float:
        if not self.jitter or not delay:
            return delay
        spread = delay * self.jitter
        return max(0.0, delay + self._rng.uniform(-spread, spread))

    # -- execution -----------------------------------------------------------

    def call(
        self,
        fn: Callable,
        *args,
        retry_on: Optional[Tuple[Type[BaseException], ...]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        failed: Optional[BaseException] = None,
    ):
        """Invoke ``fn(*args)``, retrying on the configured errors.

        ``on_retry(attempt, error)`` fires before each backoff sleep;
        callers use it to count retries or reconnect a transport.
        ``failed`` is the error of a first attempt the caller already
        made, so a caller pays for this loop only once an op fails.
        Non-retryable exceptions propagate immediately; the final
        retryable error is re-raised once attempts or the per-op
        deadline are exhausted.

        The budget (attempts, and the deadline counted from the first
        failure) belongs to one logical op: it starts afresh whenever a retryable error names a different
        ``op_index`` than the one before (a resumable batch call
        failing at its next member), so a batch gets as far as per-op
        calls would.  Errors without an ``op_index`` share one budget.
        """
        retryable = retry_on if retry_on is not None else self.retry_on
        timeout = self.op_timeout_s
        error = failed
        op_index = delays = deadline = None
        attempt = 0
        while True:
            if error is None:
                try:
                    return fn(*args)
                except retryable as exc:
                    error = exc
            failing = getattr(error, "op_index", None)
            if delays is None or (failing is not None and failing != op_index):
                op_index = failing
                delays = self.base_delays()
                deadline = clock() + timeout if timeout is not None else None
            attempt += 1
            delay = next(delays, None)
            if delay is None:
                raise error
            delay = self._jittered(delay)
            if deadline is not None and clock() + delay > deadline:
                raise error
            if on_retry is not None:
                on_retry(attempt, error)
            if delay:
                sleep(delay)
            error = None
