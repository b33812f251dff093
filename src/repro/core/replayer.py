"""Trace replayer and performance measurement (paper section 5.5).

The replayer sends a state access stream's requests to a store
connector, measuring per-operation latency and total throughput.  It
replays Gadget traces, engine traces, and YCSB traces alike, and can
throttle to a target ``service_rate``.

Two replay engines live here:

* :class:`TraceReplayer` -- single-threaded; one walk over the trace's
  raw columns (:meth:`~repro.trace.AccessTrace.iter_raw`) serves every
  mode.  Depth 1 calls the store directly, branching on the small-int
  opcode, so the hot loop allocates no
  :class:`~repro.trace.StateAccess` objects and performs no enum
  comparisons; a batch size or pipeline depth sends each op to a window
  instead.  Fault plans and retry policies gate the connector, and the
  walk's one pair of fault handlers sits outside the per-op loop.
* :class:`ShardedReplayer` -- hash-partitions a trace by key across N
  worker threads, each driving its own store connector (or all sharing
  one, the paper's section 6.4 concurrent-operator deployment), and
  merges the per-shard latency histograms into aggregate results.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import not_
from typing import Callable, Dict, List, Optional, Sequence, Union
from zlib import crc32

from ..faults.errors import InjectedCrash, TransientStoreError
from ..faults.gate import GatedConnector
from ..kvstores.connectors import StoreConnector
from ..obs import tracing as _tracing
from ..trace import AccessTrace, OpType, OPS_BY_CODE
from .histogram import LatencyHistogram


_SUMMARY_PERCENTILES = (50.0, 99.0, 99.9)


def _ranked_us(ordered: List[int], percentile: float) -> float:
    """Nearest-rank ``percentile`` of sorted ns samples, in microseconds
    (0.0 when there are none)."""
    if not ordered:
        return 0.0
    rank = min(
        len(ordered) - 1,
        max(0, int(round(percentile / 100.0 * (len(ordered) - 1)))),
    )
    return ordered[rank] / 1000.0


@dataclass
class ReplayResult:
    """Measurements from one replay run."""

    store: str
    operations: int
    elapsed_s: float
    #: latencies in nanoseconds, per op type (exact mode)
    latencies_ns: Dict[OpType, List[int]] = field(default_factory=dict)
    #: bounded-memory histograms per op type (histogram mode)
    histograms: Dict[OpType, LatencyHistogram] = field(default_factory=dict)
    # -- robustness accounting (populated by faulted replays) --------------
    #: operations that still failed after retries were exhausted
    failed_ops: int = 0
    #: retry attempts performed by the retry policy
    retries: int = 0
    #: faults the gate actually fired (errors + spikes + stalls)
    injected_faults: int = 0
    #: total injected latency, in seconds
    injected_delay_s: float = 0.0
    #: op index where an injected crash stopped the replay (None: ran out)
    crashed_at: Optional[int] = None

    @property
    def throughput_ops(self) -> float:
        return self.operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def all_latencies(self) -> List[int]:
        merged: List[int] = []
        for values in self.latencies_ns.values():
            merged.extend(values)
        return merged

    def _merged_histogram(self) -> LatencyHistogram:
        # the histograms' own geometry: merge() rejects any other
        first = next(iter(self.histograms.values()), LatencyHistogram())
        merged = LatencyHistogram(first.subbuckets, first.max_exponent)
        for histogram in self.histograms.values():
            merged.merge(histogram)
        return merged

    def latency_percentile(self, percentile: float, op: Optional[OpType] = None) -> float:
        """Latency percentile in microseconds."""
        if self.histograms:
            if op is not None:
                histogram = self.histograms.get(op)
                return histogram.percentile(percentile) / 1000.0 if histogram else 0.0
            return self._merged_histogram().percentile(percentile) / 1000.0
        values = self.latencies_ns.get(op, []) if op else self.all_latencies()
        return _ranked_us(sorted(values), percentile)

    def summary(self) -> Dict[str, float]:
        """Throughput and p50/p99/p99.9 over every op type: one histogram
        merge or one sort, read three times."""
        if self.histograms:
            merged = self._merged_histogram()
            p50, p99, p999 = (merged.percentile(p) / 1000.0 for p in _SUMMARY_PERCENTILES)
        else:
            ordered = sorted(self.all_latencies())
            p50, p99, p999 = (_ranked_us(ordered, p) for p in _SUMMARY_PERCENTILES)
        return {
            "throughput_kops": self.throughput_ops / 1000.0,
            "p50_us": p50,
            "p99_us": p99,
            "p99.9_us": p999,
        }

    @classmethod
    def merged(
        cls, results: Sequence["ReplayResult"], elapsed_s: float
    ) -> "ReplayResult":
        """Several results (shards, or the phases of one run) as one.

        Exact-mode latency lists concatenate, histograms merge per op
        type in their own geometry, and the operation and fault counters
        sum.  ``elapsed_s`` is the caller's wall-clock for the whole run.
        """
        latencies: Dict[OpType, List[int]] = {op: [] for op in OpType}
        histograms: Dict[OpType, LatencyHistogram] = {}
        for result in results:
            for op, values in result.latencies_ns.items():
                latencies[op].extend(values)
            for op, histogram in result.histograms.items():
                merged = histograms.get(op)
                if merged is None:
                    merged = histograms[op] = LatencyHistogram(
                        histogram.subbuckets, histogram.max_exponent
                    )
                merged.merge(histogram)
        return cls(
            store=results[0].store,
            operations=sum(r.operations for r in results),
            elapsed_s=elapsed_s,
            latencies_ns=latencies,
            histograms=histograms,
            failed_ops=sum(r.failed_ops for r in results),
            retries=sum(r.retries for r in results),
            injected_faults=sum(r.injected_faults for r in results),
            injected_delay_s=sum(r.injected_delay_s for r in results),
        )


class ReplayStopped(Exception):
    """A cooperative stop was requested mid-replay.

    Sharded replays set a shared stop flag when any worker fails; the
    surviving workers' replay loops observe it through ``stop_check``
    and unwind promptly with this exception instead of replaying their
    full shard first.  It signals coordination, not failure -- the
    coordinator swallows it and reports the original worker error.
    """


#: cache bounds: a trace with many distinct value sizes must not grow
#: the cache without limit.  Oldest-inserted entries are evicted first
#: (dict insertion order); values above the byte budget are never
#: cached at all.
_VALUE_CACHE_MAX_ENTRIES = 1024
_VALUE_CACHE_MAX_BYTES = 32 * 1024 * 1024
#: payload byte ``i`` is ``(i * 131 + 17) & 0xFF``, periodic in 256
_VALUE_PERIOD = bytes((i * 131 + 17) & 0xFF for i in range(256))


class _ValueCache(dict):
    """Deterministic payloads by size: a hit is one C-level lookup, no
    Python frame; a miss builds and caches within the bounds above."""

    nbytes = 0  # bytes held by the cached values

    def __missing__(self, size: int) -> bytes:
        value = (_VALUE_PERIOD * (size // 256 + 1))[:size]
        if size <= _VALUE_CACHE_MAX_BYTES:
            while self and (
                len(self) >= _VALUE_CACHE_MAX_ENTRIES
                or self.nbytes + size > _VALUE_CACHE_MAX_BYTES
            ):
                self.nbytes -= len(self.pop(next(iter(self))))
            self[size] = value
            self.nbytes += size
        return value


_VALUE_CACHE = _ValueCache()


def synthesize_value(size: int) -> bytes:
    """Deterministic payload of ``size`` bytes (cached per size)."""
    return _VALUE_CACHE[size]


#: waits shorter than this are spun; longer waits sleep most of it away
_SPIN_THRESHOLD_S = 0.001
#: sleep this much less than the wait to absorb scheduler overshoot
_SLEEP_SLACK_S = 0.0005


def _throttle(next_dispatch: float) -> None:
    """Wait until ``next_dispatch`` without burning a core.

    ``time.sleep`` for all but the last half-millisecond (the OS may
    overshoot by a scheduling quantum), then spin the final stretch for
    precise dispatch times.
    """
    wait = next_dispatch - time.perf_counter()
    if wait > _SPIN_THRESHOLD_S:
        if _tracing.active() is not None:
            with _tracing.span("replay.throttle", wait_ms=round(wait * 1000.0, 3)):
                time.sleep(wait - _SLEEP_SLACK_S)
        else:
            time.sleep(wait - _SLEEP_SLACK_S)
    while time.perf_counter() < next_dispatch:
        pass


def _tee(sink, record):
    """Wrap each latency sink so samples also reach the progress
    recorder (used only when a telemetry session is active)."""

    def wrap(base):
        def call(value, base=base, record=record):
            base(value)
            record(value)

        return call

    return tuple(wrap(base) for base in sink)


#: histogram-mode samples are staged raw and folded into the histograms
#: once per this many ops (see :attr:`TraceReplayer.use_histograms`)
_FOLD_OPS = 8192


def _latency_sinks(use_histograms: bool, measure: bool, progress):
    """One replay's ``(latencies, histograms, sink, fold, on_complete)``.

    ``sink`` is opcode-indexed.  Exact mode appends to the latency
    lists; histogram mode stages raw samples that ``fold`` drains
    through one ``record_many`` per op type, except under a telemetry
    session, which records per op.  ``on_complete`` is a window's
    completion callback (:data:`~repro.kvstores.connectors.CompletionFn`):
    it records ``complete - arrival`` (deferred stamping, so queueing
    inside the window is measured, not hidden), or only counts the op
    for a telemetry session without latency, or does nothing.
    """
    latencies: Dict[OpType, List[int]] = {op: [] for op in OpType}
    histograms = {op: LatencyHistogram() for op in OpType} if use_histograms else {}
    tee = progress is not None and measure
    stages: Sequence = ()
    if not use_histograms:
        sink = tuple(latencies[op].append for op in OPS_BY_CODE)
    elif tee:
        sink = tuple(histograms[op].record for op in OPS_BY_CODE)
    else:
        stages = tuple((histograms[op], []) for op in OPS_BY_CODE)
        sink = tuple(stage.append for _, stage in stages)

    def fold() -> None:
        for histogram, stage in stages:
            if stage:
                histogram.record_many(stage)
                stage.clear()

    if tee:
        # tee client-observed latencies into the sampler's shared
        # progress; the sinks already see every mode's honest
        # per-op latency, so the telemetry hook lives here
        sink = _tee(sink, progress.record)

    if measure:
        def on_complete(code, arrival_ns, complete_ns, value):
            elapsed_ns = complete_ns - arrival_ns
            sink[code](elapsed_ns if elapsed_ns > 0 else 0)
    elif progress is not None:
        count = progress.count

        def on_complete(code, arrival_ns, complete_ns, value):
            count()
    else:
        def on_complete(code, arrival_ns, complete_ns, value):
            pass
    return latencies, histograms, sink, fold, on_complete


def _batch_sizes(op_codes, depth: int):
    """Sizes of consecutive batches: runs of same-kind ops (reads vs.
    writes), cut every ``depth`` members."""
    for _, run in groupby(op_codes, not_):
        size = len(list(run))
        while size > depth:
            yield depth
            size -= depth
        yield size


class _BatchWindow:
    """Micro-batching as a window: ``submit``/``drain``, shaped like
    :class:`~repro.kvstores.connectors.PipelineSession`.

    A batch is a run of consecutive same-kind ops (reads vs. writes) of
    at most ``depth`` members, sized ahead from ``op_codes``
    (:func:`_batch_sizes`) and sent as one ``multi_get``/``apply_batch``
    as soon as its last member is submitted -- before the next op is
    paced or stamped.  Run boundaries preserve read-after-write order,
    and write batches keep trace order.

    A member's latency is the batch's completion minus the member's
    arrival minus an even share of the background work the batch
    triggered, so members pay their wait for the batch to fill.  Without
    a ``sink``, ``count`` (if set) counts the members applied.

    ``drain`` retries the same batch call in place: a transient failure
    costs exactly its member (``abandon_op()`` skips it on the re-call;
    counted in :attr:`failed_ops`, no sample), and an injected crash at
    member ``k`` records the members before ``k``, which were applied,
    then propagates.
    """

    def __init__(self, target, depth: int, gate, op_codes, sink, count) -> None:
        self._target = target
        self._gate = gate
        self._sink = sink
        self._count = count
        self._trace_on = _tracing.active() is not None
        self._sizes = _batch_sizes(op_codes, depth)
        #: members the open batch still takes before it is sent
        self._left = 0
        #: trace index of the open batch's first member
        self._start = 0
        #: keys of a read batch, ``(opcode, key, value)`` of a write batch
        self._batch: list = []
        #: ``(opcode, arrival_ns)`` per member
        self._stamps: List[tuple] = []
        #: members still failing after retries, abandoned
        self.failed_ops = 0

    def submit(self, opcode: int, key: bytes, value: bytes, arrival_ns: int) -> None:
        left = self._left or next(self._sizes)
        self._stamps.append((opcode, arrival_ns))
        self._batch.append(key if opcode == 0 else (opcode, key, value))
        self._left = left - 1
        if left == 1:
            self.drain()

    def drain(self) -> None:
        stamps = self._stamps
        if not stamps:
            return
        gate = self._gate
        batch = self._batch
        start = self._start
        self._start = start + len(stamps)
        if stamps[0][0] == 0:
            send, span = self._target.multi_get, "replay.multi_get"
        else:
            send, span = self._target.apply_batch, "replay.apply_batch"
        # abandoned members, ascending; None until a batch's first
        # failure (a container per batch costs ~15% at batch 16)
        abandoned: Optional[List[int]] = None
        crash: Optional[InjectedCrash] = None
        while True:
            try:
                if self._trace_on:
                    with _tracing.span(span, n=len(batch)):
                        send(batch)
                else:
                    send(batch)
                break
            except InjectedCrash as exc:
                if gate is None or gate.hook is None:
                    raise
                crash = exc
                # members before the crash were applied: keep their samples
                del stamps[exc.op_index - start:]
                break
            except TransientStoreError:
                if gate is None or gate.hook is None:
                    raise
                self.failed_ops += 1
                member = gate.abandon_op()
                if member is not None:
                    if abandoned is None:
                        abandoned = []
                    abandoned.append(member)
                # Re-call the same batch: already-executed members are
                # not re-run, the abandoned member is skipped.
        members = len(stamps)
        if abandoned is not None:
            for member in reversed(abandoned):
                del stamps[member]
        sink = self._sink
        if sink is not None:
            completion = time.perf_counter_ns()
            # a crash at the batch's first member leaves no member applied
            completion -= self._target.take_background_ns() // (members or 1)
            for code, arrival in stamps:
                elapsed_ns = completion - arrival
                sink[code](elapsed_ns if elapsed_ns > 0 else 0)
        elif self._count is not None:
            self._count(len(stamps))
        self._batch = []
        self._stamps = []
        if crash is not None:
            raise crash


def _check_window(batch_size: Optional[int], pipeline_depth: Optional[int]) -> None:
    """Reject a window a replay cannot run: a size below 1, or a batch
    and a pipeline together."""
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if pipeline_depth is not None and pipeline_depth < 1:
        raise ValueError("pipeline_depth must be >= 1")
    if (
        batch_size is not None
        and batch_size > 1
        and pipeline_depth is not None
        and pipeline_depth > 1
    ):
        raise ValueError(
            "batch_size and pipeline_depth are alternative round-trip "
            "amortizations; pick one"
        )


class TraceReplayer:
    """Replays an access trace against a store connector."""

    def __init__(
        self,
        connector: StoreConnector,
        service_rate: Optional[float] = None,
        measure_latency: bool = True,
        disable_gc: bool = True,
        use_histograms: bool = False,
        fault_plan=None,
        retry_policy=None,
        batch_size: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
        telemetry=None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        _check_window(batch_size, pipeline_depth)
        self.connector = connector
        self.service_rate = service_rate
        self.measure_latency = measure_latency
        #: micro-batch size: runs of consecutive same-kind ops (reads
        #: vs. writes) are grouped up to this many and dispatched via
        #: ``multi_get``/``apply_batch``.  ``None``/1 replays per-op.
        self.batch_size = batch_size
        #: bounded in-flight window: ops are submitted into a
        #: :meth:`~repro.kvstores.connectors.StoreConnector.pipeline`
        #: session that keeps up to this many un-acked, with latency
        #: stamped arrival-to-completion (queueing included).
        #: ``None``/1 replays synchronously.
        self.pipeline_depth = pipeline_depth
        #: record latencies into O(1)-memory histograms instead of
        #: per-sample lists -- for multi-million-op replays.  Samples
        #: are staged raw and folded in every 8,192 ops (at most 8,192
        #: + the window's depth staged) and on every exit, crash or
        #: exception included, before the clock stops; a telemetry
        #: session keeps per-op recording.
        self.use_histograms = use_histograms
        #: CPython's cyclic GC pauses otherwise dominate tail latency
        #: identically for every store; disabled during replay by
        #: default (reference counting still reclaims everything the
        #: stores allocate).
        self.disable_gc = disable_gc
        #: :class:`~repro.faults.FaultPlan` applied to every operation
        #: (a fresh schedule per replay) by the replay's
        #: :class:`~repro.faults.GatedConnector`.  An op still failing
        #: after retries counts in ``failed_ops`` and is abandoned; an
        #: injected crash stops the replay with the ops before it
        #: applied (``crashed_at``).  Only this schedule's faults count:
        #: without a plan they propagate like any other error -- a dead
        #: store should fail the run.
        self.fault_plan = fault_plan
        #: :class:`~repro.faults.RetryPolicy` the same gate retries
        #: transient (injected or remote) failures under, with retries
        #: counted in the result.
        self.retry_policy = retry_policy
        #: optional :class:`~repro.obs.ReplayTelemetry`; when set,
        #: :meth:`replay` records the run (trace spans, metrics
        #: samples, live progress).  ``None`` replays the pre-existing
        #: fast paths untouched.
        self.telemetry = telemetry
        #: cooperative cancellation: a zero-argument callable polled
        #: before every op; returning true raises
        #: :class:`ReplayStopped`.  Sharded replays pass the shared
        #: stop flag's ``is_set`` here so sibling shards stop promptly
        #: when one worker fails.
        self.stop_check = stop_check
        #: live :class:`~repro.obs.metrics.ReplayProgress` during a
        #: telemetry session (set by :meth:`replay`, or externally by
        #: :class:`ShardedReplayer` sharing one progress across shards)
        self._progress = None

    def replay(self, trace: AccessTrace) -> ReplayResult:
        telemetry = self.telemetry
        if telemetry is None:
            return self._run(trace)
        with telemetry.session(self.connector, len(trace)) as progress:
            self._progress = progress
            try:
                return self._run(trace)
            finally:
                self._progress = None

    def _run(self, trace: AccessTrace) -> ReplayResult:
        gc_was_enabled = gc.isenabled()
        if self.disable_gc and gc_was_enabled:
            gc.collect()
            gc.disable()
        try:
            return self._walk(trace)
        finally:
            if self.disable_gc and gc_was_enabled:
                gc.enable()

    def _guarded_target(self):
        """``(target, gate)``: with a fault plan or retry policy set,
        both are one :class:`GatedConnector` carrying them (reported to
        the session's progress); otherwise the bare connector and
        ``None``."""
        plan, policy = self.fault_plan, self.retry_policy
        if plan is None and policy is None:
            return self.connector, None
        gate = GatedConnector(
            self.connector, plan.schedule() if plan is not None else None, policy
        )
        if self._progress is not None:
            self._progress.attach_fault_sources(gate)
        return gate, gate

    def _walk(self, trace: AccessTrace) -> ReplayResult:
        """The one replay walk, for every mode.

        It takes the raw columns in 8,192-op chunks, paces and polls
        ``stop_check`` per op, and sends each op to a window.  Depth 1
        is the synchronous call, open-coded in three ``for`` bodies
        (measured, untimed, paced).  Otherwise ops are submitted to a
        :class:`_BatchWindow` (``batch_size``) or to the connector's
        ``pipeline()`` session (``pipeline_depth``; depth 1 for a
        telemetry session without latency, whose completions count).
        A payload is one lookup in the value cache, taken before the
        clock starts, so a sample times the store call alone.

        Faults are handled outside the ``for`` bodies (see
        :attr:`fault_plan`): a failed op leaves its body, is counted
        and abandoned, and the body resumes on the same column iterator.
        An injected crash at op ``k`` ends the walk and the window is
        still drained, so every mode leaves the ops before ``k`` applied.
        """
        target, gate = self._guarded_target()
        # Flushes/compactions/write-backs run on background threads in
        # the real stores; exclude their inline cost from the
        # client-observed latency (throughput still includes it).
        # Stores running true background workers report their
        # write-*stall* time through the same channel -- worker busy
        # time is concurrent and never charged here.
        take_background = target.take_background_ns
        measure = self.measure_latency
        progress = self._progress
        latencies, histograms, sink, fold, on_complete = _latency_sinks(
            self.use_histograms, measure, progress
        )
        depth = self.pipeline_depth or 1
        window = batch = None
        if (self.batch_size or 1) > 1:
            window = batch = _BatchWindow(
                target, self.batch_size, gate, trace.op_codes,
                sink if measure else None,
                progress.count if progress is not None else None,
            )
        elif depth > 1 or (progress is not None and not measure):
            window = target.pipeline(depth, on_complete)
        submit = window.submit if window is not None else None
        interval = 1.0 / self.service_rate if self.service_rate else 0.0
        stop = self.stop_check
        timer = time.perf_counter_ns
        # The inlined form of ``trace.iter_raw()``: iterate the raw
        # columns directly (no generator frame per op) and branch on
        # the small-int opcode with hoisted bound methods, worth ~30%
        # on in-memory stores where per-op overhead dominates.
        get = target.get
        put = target.put
        merge = target.merge
        delete = target.delete
        values = _VALUE_CACHE
        keys = trace.unique_keys()
        columns = zip(trace.op_codes, trace.key_ids, trace.value_sizes)
        operations = len(trace)
        failed_ops = 0
        crashed_at: Optional[int] = None
        started = time.perf_counter()
        next_dispatch = started
        try:
            try:
                for _ in range(0, len(trace), _FOLD_OPS):
                    chunk = islice(columns, _FOLD_OPS)
                    while True:
                        try:
                            if submit is not None:
                                for code, kid, size in chunk:
                                    if stop is not None and stop():
                                        raise ReplayStopped
                                    if interval:
                                        if time.perf_counter() < next_dispatch:
                                            _throttle(next_dispatch)
                                        next_dispatch += interval
                                    key = keys[kid]
                                    value = b"" if code == 0 or code == 3 else values[size]
                                    submit(code, key, value, timer() if measure else 0)
                            elif interval:
                                for code, kid, size in chunk:
                                    if stop is not None and stop():
                                        raise ReplayStopped
                                    if time.perf_counter() < next_dispatch:
                                        _throttle(next_dispatch)
                                    next_dispatch += interval
                                    key = keys[kid]
                                    if code == 0:
                                        begin = timer()
                                        get(key)
                                    elif code == 1:
                                        value = values[size]
                                        begin = timer()
                                        put(key, value)
                                    elif code == 2:
                                        value = values[size]
                                        begin = timer()
                                        merge(key, value)
                                    else:
                                        begin = timer()
                                        delete(key)
                                    if measure:
                                        elapsed_ns = timer() - begin - take_background()
                                        sink[code](elapsed_ns if elapsed_ns > 0 else 0)
                            elif measure:
                                for code, kid, size in chunk:
                                    if stop is not None and stop():
                                        raise ReplayStopped
                                    key = keys[kid]
                                    if code == 0:
                                        begin = timer()
                                        get(key)
                                    elif code == 1:
                                        value = values[size]
                                        begin = timer()
                                        put(key, value)
                                    elif code == 2:
                                        value = values[size]
                                        begin = timer()
                                        merge(key, value)
                                    else:
                                        begin = timer()
                                        delete(key)
                                    elapsed_ns = timer() - begin - take_background()
                                    sink[code](elapsed_ns if elapsed_ns > 0 else 0)
                            else:
                                for code, kid, size in chunk:
                                    if stop is not None and stop():
                                        raise ReplayStopped
                                    key = keys[kid]
                                    if code == 0:
                                        get(key)
                                    elif code == 1:
                                        put(key, values[size])
                                    elif code == 2:
                                        merge(key, values[size])
                                    else:
                                        delete(key)
                            break
                        except TransientStoreError:
                            if gate is None or gate.hook is None:
                                raise
                            failed_ops += 1
                            gate.abandon_op()
                    fold()
            except InjectedCrash as crash:
                if gate is None or gate.hook is None:
                    raise
                crashed_at = operations = crash.op_index
            if window is not None:
                window.drain()
        finally:
            fold()
        elapsed = time.perf_counter() - started
        if batch is not None:
            failed_ops += batch.failed_ops
        return ReplayResult(
            store=self.connector.name,
            operations=operations,
            elapsed_s=elapsed,
            latencies_ns=latencies,
            histograms=histograms,
            failed_ops=failed_ops,
            retries=gate.retries if gate is not None else 0,
            injected_faults=gate.injected.total_faults if gate is not None else 0,
            injected_delay_s=gate.injected.injected_delay_s if gate is not None else 0.0,
            crashed_at=crashed_at,
        )


# ---------------------------------------------------------------------------
# Sharded parallel replay
# ---------------------------------------------------------------------------


def shard_indices(trace: AccessTrace, num_shards: int) -> List[List[int]]:
    """Per-shard op-index buckets for CRC32 key partitioning.

    The single source of truth for shard membership: the thread-based
    :class:`ShardedReplayer` and the process-based
    :class:`~repro.core.mp_replay.ProcessShardedReplayer` both route
    through it (workers recompute their own bucket from the shared
    trace), so the two modes agree op-for-op on every shard.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards == 1:
        return [list(range(len(trace)))]
    shard_of_key = [crc32(key) % num_shards for key in trace.unique_keys()]
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for index, kid in enumerate(trace.key_ids):
        buckets[shard_of_key[kid]].append(index)
    return buckets


def shard_trace(trace: AccessTrace, num_shards: int) -> List[AccessTrace]:
    """Hash-partition a trace by key into ``num_shards`` sub-traces.

    Deterministic (CRC32 of the key, independent of ``PYTHONHASHSEED``)
    and order-preserving within each shard, so the per-key access order
    the dataflow model guarantees is intact in every partition.
    """
    return [
        trace.select(bucket) for bucket in shard_indices(trace, num_shards)
    ]


def _raise_shard_errors(errors: Sequence[BaseException]) -> None:
    """Raise the first error (the lowest failing shard's, in the
    coordinator's order) without dropping its siblings.

    Python 3.9 has no ``ExceptionGroup``, so the extra failures ride
    along as a ``shard_errors`` attribute on the raised exception (and
    as ``add_note`` lines where the runtime supports them) -- a
    multi-shard failure stays diagnosable from the one traceback that
    reaches the caller.
    """
    if not errors:
        return
    primary = errors[0]
    siblings = list(errors[1:])
    try:
        primary.shard_errors = siblings
    except AttributeError:
        pass  # exceptions with __slots__ cannot carry the attribute
    add_note = getattr(primary, "add_note", None)
    if add_note is not None:
        for sibling in siblings:
            add_note(
                f"sibling shard also failed: "
                f"{type(sibling).__name__}: {sibling}"
            )
    raise primary


@dataclass
class ShardedReplayResult:
    """Aggregate measurements from a sharded replay."""

    store: str
    shard_results: List[ReplayResult]
    #: wall-clock of the whole fan-out (slowest worker dominates)
    elapsed_s: float

    @property
    def operations(self) -> int:
        return sum(result.operations for result in self.shard_results)

    @property
    def throughput_ops(self) -> float:
        return self.operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def merged_result(self) -> ReplayResult:
        """Shard measurements folded into one :class:`ReplayResult`.

        Throughput reflects the sharded wall-clock, not the sum of
        per-worker elapsed times.
        """
        return ReplayResult.merged(self.shard_results, self.elapsed_s)

    def latency_percentile(self, percentile: float, op: Optional[OpType] = None) -> float:
        return self.merged_result().latency_percentile(percentile, op)

    def summary(self) -> Dict[str, float]:
        summary = self.merged_result().summary()
        summary["throughput_kops"] = self.throughput_ops / 1000.0
        return summary


class _ShardCoordinator:
    """What every fan-out shares: the argument checks, the per-shard
    :class:`TraceReplayer` recipe and the tail of ``replay``.

    A transport -- threads in :class:`ShardedReplayer`, worker processes
    in :class:`~repro.core.mp_replay.ProcessShardedReplayer` -- starts
    one worker per :func:`shard_indices` bucket, builds each worker's
    replayer with :meth:`_shard_replayer`, and hands ``{shard: result}``
    and ``{shard: error}`` to :meth:`_gather`.
    """

    def __init__(
        self,
        num_workers: int,
        service_rate: Optional[float],
        measure_latency: bool,
        use_histograms: bool,
        fault_plan,
        retry_policy,
        batch_size: Optional[int],
        pipeline_depth: Optional[int],
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        # every shard's TraceReplayer would refuse it; refuse it before
        # a transport builds a connector or starts a worker
        _check_window(batch_size, pipeline_depth)
        if fault_plan is not None and fault_plan.crash_at is not None:
            raise ValueError(
                "crash points are single-threaded experiments; use "
                "repro.faults.evaluate_crash_recovery instead of a "
                "sharded replay"
            )
        self.num_workers = num_workers
        #: the aggregate target; each shard throttles to its share
        self.service_rate = service_rate
        self.measure_latency = measure_latency
        self.use_histograms = use_histograms
        #: each shard replays under a per-shard derived plan
        #: (:meth:`~repro.faults.FaultPlan.for_shard`), so fault
        #: timelines are a function of (seed, shard) alone -- identical
        #: across thread interleavings, across process-based replays,
        #: and across every store under comparison
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: micro-batch size applied by every shard
        self.batch_size = batch_size
        #: in-flight window depth applied by every shard
        self.pipeline_depth = pipeline_depth

    def _shard_replayer(
        self, index: int, connector, stop_check, disable_gc: bool
    ) -> TraceReplayer:
        """Shard ``index``'s replayer: its share of the rate, its derived
        fault plan and a private retry-policy copy (the policy carries a
        jitter RNG that shards must not share)."""
        plan, policy = self.fault_plan, self.retry_policy
        return TraceReplayer(
            connector,
            service_rate=(
                self.service_rate / self.num_workers if self.service_rate else None
            ),
            measure_latency=self.measure_latency,
            disable_gc=disable_gc,
            use_histograms=self.use_histograms,
            fault_plan=plan.for_shard(index) if plan is not None else None,
            retry_policy=dataclasses.replace(policy) if policy is not None else None,
            batch_size=self.batch_size,
            pipeline_depth=self.pipeline_depth,
            stop_check=stop_check,
        )

    @staticmethod
    def _gather(
        started: float,
        results: Dict[int, ReplayResult],
        errors: Dict[int, BaseException],
    ) -> ShardedReplayResult:
        """Wall-clock since ``started``; then the lowest shard's error is
        raised with its siblings attached, else the results in shard
        order."""
        elapsed = time.perf_counter() - started
        _raise_shard_errors([errors[index] for index in sorted(errors)])
        shard_results = [results[index] for index in sorted(results)]
        return ShardedReplayResult(shard_results[0].store, shard_results, elapsed)


class ShardedReplayer(_ShardCoordinator):
    """Replays a trace across N worker threads, one key partition each.

    ``connectors`` selects the deployment mode:

    * a **callable** -- factory invoked once per worker; each worker
      drives its own store instance (scale-out mode),
    * a **single connector** -- shared by all workers (the paper's
      Fig. 14 concurrent-operator mode; key-disjoint partitions mean no
      two workers ever race on one key, but the connector itself must
      tolerate concurrent calls),
    * a **sequence of connectors** -- one per worker, caller-managed.

    Worker latencies land in per-shard histograms that
    :class:`ShardedReplayResult` merges losslessly.

    Note: on CPython with the GIL, wall-clock gains appear only when
    workers block outside the interpreter (real store I/O, remote
    connectors) or on free-threaded builds; the partitioning itself is
    GIL-agnostic.
    """

    def __init__(
        self,
        connectors: Union[
            StoreConnector,
            Callable[[], StoreConnector],
            Sequence[StoreConnector],
        ],
        num_workers: int = 4,
        service_rate: Optional[float] = None,
        measure_latency: bool = True,
        disable_gc: bool = True,
        use_histograms: bool = True,
        fault_plan=None,
        retry_policy=None,
        batch_size: Optional[int] = None,
        pipeline_depth: Optional[int] = None,
        telemetry=None,
    ) -> None:
        super().__init__(
            num_workers, service_rate, measure_latency, use_histograms,
            fault_plan, retry_policy, batch_size, pipeline_depth,
        )
        #: one GC toggle around the whole fan-out, not one per shard
        self.disable_gc = disable_gc
        #: optional :class:`~repro.obs.ReplayTelemetry` recording the
        #: whole fan-out; all workers share one progress object (the
        #: lock-protected recorder) and appear as separate trace lanes.
        self.telemetry = telemetry
        if callable(connectors):
            self._connectors = [connectors() for _ in range(num_workers)]
            self._owns_connectors = True
        elif isinstance(connectors, StoreConnector) or not isinstance(
            connectors, Sequence
        ):
            self._connectors = [connectors] * num_workers
            self._owns_connectors = False
        else:
            if len(connectors) != num_workers:
                raise ValueError(
                    f"got {len(connectors)} connectors for {num_workers} workers"
                )
            self._connectors = list(connectors)
            self._owns_connectors = False

    @property
    def connectors(self) -> List[StoreConnector]:
        return list(self._connectors)

    def close(self) -> None:
        """Close factory-created connectors (distinct instances only)."""
        if self._owns_connectors:
            for connector in self._connectors:
                connector.close()

    def replay(self, trace: AccessTrace) -> ShardedReplayResult:
        telemetry = self.telemetry
        if telemetry is None:
            return self._run(trace, None)
        with telemetry.session(self._connectors[0], len(trace)) as progress:
            return self._run(trace, progress)

    def _run(self, trace: AccessTrace, progress) -> ShardedReplayResult:
        shards = shard_trace(trace, self.num_workers)
        results: Dict[int, ReplayResult] = {}
        errors: Dict[int, BaseException] = {}
        stop_flag = threading.Event()
        start_barrier = threading.Barrier(self.num_workers)

        def worker(index: int) -> None:
            try:
                replayer = self._shard_replayer(
                    index, self._connectors[index], stop_flag.is_set,
                    disable_gc=False,
                )
                # all workers tee into the session's shared (lock-
                # protected) progress; their distinct thread identities
                # still give one trace lane per shard
                replayer._progress = progress
                start_barrier.wait()
                results[index] = replayer.replay(shards[index])
            except (ReplayStopped, threading.BrokenBarrierError):
                pass  # a sibling failed; this shard unwound on request
            except BaseException as exc:  # surface worker failures
                errors[index] = exc
                # wake siblings promptly wherever they are: parked at
                # the barrier (abort) or deep in their replay loop
                # (stop flag, polled per op/batch)
                stop_flag.set()
                start_barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(index,), name=f"replay-shard-{index}")
            for index in range(self.num_workers)
        ]
        gc_was_enabled = gc.isenabled()
        if self.disable_gc and gc_was_enabled:
            gc.collect()
            gc.disable()
        started = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if self.disable_gc and gc_was_enabled:
                gc.enable()
        return self._gather(started, results, errors)
