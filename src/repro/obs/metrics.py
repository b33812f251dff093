"""Metrics registry and time-series sampler.

Aggregates like :class:`~repro.core.evaluator.EvaluationRow` say *how
fast* a replay was; this module records *what the store was doing over
time* so a latency spike at 80% progress can be attributed to the
compaction (or page-eviction storm, or reconnect burst) that caused
it.

Three pieces:

* :class:`MetricsRegistry` -- named counters and callback gauges.
  :func:`register_store` wires a store's existing telemetry surfaces
  (``StoreStats``, ``IntegrityCounters``, LSM levels and block cache,
  B-tree page cache, FASTER hybrid-log fill) into one flat namespace.
* :class:`ReplayProgress` -- the replay loop's shared counter: ops
  done plus an interval latency histogram the sampler swaps out each
  tick (so percentiles are per-interval, not cumulative).
* :class:`Sampler` -- a daemon thread that snapshots everything every
  ``interval_ms`` and appends one JSON object per line (JSONL).  Each
  line carries the interval's ops, throughput, p50/p95/p99, the full
  interval histogram (merge-preserving, see
  :meth:`~repro.core.histogram.LatencyHistogram.to_dict`), and every
  gauge -- enough to re-aggregate any sub-range offline.

Everything here is opt-in: no sampler thread exists and no gauges are
read unless a telemetry session asks for them.
"""

from __future__ import annotations

import json
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, IO, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle: stores import
    # repro.obs for tracing, and repro.core imports the stores
    from ..core.histogram import LatencyHistogram


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class MetricsRegistry:
    """Flat namespace of counters and callback gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        """Register ``read`` as the sampler's source for ``name``."""
        self._gauges[name] = read

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges))

    def sample(self) -> Dict[str, float]:
        """Read every counter and gauge once.

        A gauge that raises is reported as ``None`` rather than killing
        the sampler thread mid-replay (a store may already be closed or
        mid-crash when the tick fires).
        """
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, read in self._gauges.items():
            try:
                out[name] = read()
            except Exception:
                out[name] = None
        return out


def register_store(registry: MetricsRegistry, store, prefix: str = "") -> int:
    """Expose a store's internal telemetry as gauges.

    Accepts a :class:`~repro.kvstores.api.KVStore` or anything
    connector-shaped with a ``.store`` attribute; engine-specific
    surfaces are discovered by duck typing, so every backend -- and
    future ones -- registers whatever it actually has.  Returns the
    number of gauges registered.
    """
    inner = getattr(store, "store", store)
    before = len(registry.names())
    stats = getattr(inner, "stats", None)
    if stats is not None:
        for field in (
            "gets",
            "puts",
            "merges",
            "deletes",
            "flushes",
            "compactions",
            "bytes_written",
            "bytes_read",
            "cache_hits",
            "cache_misses",
        ):
            registry.gauge(
                f"{prefix}ops.{field}",
                (lambda s=stats, f=field: getattr(s, f)),
            )
    integrity = getattr(inner, "integrity", None)
    if integrity is not None:
        registry.gauge(f"{prefix}integrity.detected", lambda i=integrity: i.detected)
        registry.gauge(f"{prefix}integrity.repaired", lambda i=integrity: i.repaired)

    # -- LSM family ---------------------------------------------------------
    if hasattr(inner, "level_file_counts") and hasattr(inner, "_memtable"):
        registry.gauge(
            f"{prefix}lsm.memtable_bytes",
            lambda s=inner: s._memtable.approximate_bytes,
        )
        registry.gauge(
            f"{prefix}lsm.immutable_memtables", lambda s=inner: len(s._immutables)
        )
        registry.gauge(f"{prefix}lsm.wal_bytes", lambda s=inner: s._wal_bytes)
        registry.gauge(
            f"{prefix}lsm.sstable_bytes", lambda s=inner: s.total_data_bytes()
        )
        registry.gauge(
            f"{prefix}lsm.sstables", lambda s=inner: sum(s.level_file_counts())
        )
        for level in range(len(inner._levels)):
            registry.gauge(
                f"{prefix}lsm.l{level}_files",
                (lambda s=inner, lv=level: len(s._levels[lv])),
            )
        cache = getattr(inner, "block_cache", None)
        if cache is not None:
            registry.gauge(
                f"{prefix}lsm.block_cache_hit_rate",
                lambda c=cache: _hit_rate(c.hits, c.misses),
            )
            registry.gauge(
                f"{prefix}lsm.block_cache_bytes", lambda c=cache: c.used_bytes
            )
        registry.gauge(
            f"{prefix}lsm.quarantined", lambda s=inner: len(s.quarantined)
        )
        # Background-maintenance surface: queue depth feeding the flush
        # worker and the write-stall gate's counters (all zero while
        # the store runs inline).
        registry.gauge(
            f"{prefix}lsm.immutable_queue_depth",
            lambda s=inner: s.immutable_queue_depth,
        )
        registry.gauge(
            f"{prefix}lsm.write_stall_count",
            lambda s=inner: s.write_stall_count,
        )
        registry.gauge(
            f"{prefix}lsm.write_stall_ms",
            lambda s=inner: round(s.write_stall_ns / 1e6, 3),
        )

    # -- B+Tree -------------------------------------------------------------
    if hasattr(inner, "cache_stats") and hasattr(inner, "_pages"):
        pages = inner._pages
        registry.gauge(
            f"{prefix}btree.resident_pages", lambda p=pages: p.resident_pages
        )
        registry.gauge(f"{prefix}btree.page_ins", lambda p=pages: p.page_ins)
        registry.gauge(f"{prefix}btree.page_outs", lambda p=pages: p.page_outs)
        registry.gauge(
            f"{prefix}btree.page_cache_hit_rate",
            lambda p=pages: _hit_rate(p.hits, p.misses),
        )
        registry.gauge(f"{prefix}btree.height", lambda s=inner: s.height)

    # -- FASTER -------------------------------------------------------------
    if hasattr(inner, "fill_stats") and hasattr(inner, "log"):
        log = inner.log
        registry.gauge(f"{prefix}faster.log_tail", lambda lg=log: lg.tail)
        registry.gauge(f"{prefix}faster.log_head", lambda lg=log: lg.head)
        registry.gauge(
            f"{prefix}faster.log_memory_bytes", lambda lg=log: lg.memory_bytes
        )
        registry.gauge(
            f"{prefix}faster.in_place_updates", lambda lg=log: lg.in_place_updates
        )
        registry.gauge(f"{prefix}faster.disk_reads", lambda lg=log: lg.disk_reads)
        registry.gauge(
            f"{prefix}faster.sealed_segments",
            lambda lg=log: len(lg.sealed_segments()),
        )

    # -- remote client ------------------------------------------------------
    if hasattr(store, "reconnects"):
        registry.gauge(
            f"{prefix}remote.reconnects", lambda c=store: c.reconnects
        )

    # -- pipelined windows (remote client and cluster connector) ------------
    if hasattr(store, "flush_coalesced_ops"):
        registry.gauge(
            f"{prefix}remote.inflight_depth", lambda c=store: c.inflight_depth
        )
        registry.gauge(
            f"{prefix}remote.flush_coalesced_ops",
            lambda c=store: c.flush_coalesced_ops,
        )

    # -- cluster connector ---------------------------------------------------
    if hasattr(store, "failovers") and hasattr(store, "endpoints"):
        registry.gauge(f"{prefix}cluster.failovers", lambda c=store: c.failovers)
        registry.gauge(
            f"{prefix}cluster.chain_repairs", lambda c=store: c.chain_repairs
        )
        registry.gauge(
            f"{prefix}cluster.isolated", lambda c=store: len(c._isolated)
        )
        # per-endpoint reconnect gauges: a failover's latency spike is
        # attributed to the reconnect burst on the endpoint that died
        for endpoint in store.endpoints():
            registry.gauge(
                f"{prefix}cluster.{endpoint}.reconnects",
                (lambda c=store, e=endpoint: c.reconnects_for(e)),
            )
    return len(registry.names()) - before


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class ReplayProgress:
    """Shared progress state between a replay loop and the sampler.

    ``record`` is called once per measured operation with its latency;
    the lock keeps the ops counter and interval histogram consistent
    when sharded workers share one progress object.  Each replay's
    :class:`~repro.faults.GatedConnector` attaches itself so the
    sampler can report live fault counts without touching the replay
    loop.
    """

    __slots__ = (
        "total",
        "ops",
        "_histogram_cls",
        "_interval",
        "_lock",
        "_fault_sources",
    )

    def __init__(self, total: int) -> None:
        from ..core.histogram import LatencyHistogram  # deferred: cycle

        self.total = total
        self.ops = 0
        self._histogram_cls = LatencyHistogram
        self._interval = LatencyHistogram()
        self._lock = threading.Lock()
        self._fault_sources: List[Any] = []

    def record(self, elapsed_ns: int) -> None:
        with self._lock:
            self.ops += 1
            self._interval.record(elapsed_ns)

    def count(self, n: int = 1) -> None:
        """Count ops replayed without latency (``measure_latency=False``)."""
        with self._lock:
            self.ops += n

    def take_interval(self) -> Tuple[int, "LatencyHistogram"]:
        """Swap out and return (ops so far, interval histogram)."""
        with self._lock:
            interval = self._interval
            self._interval = self._histogram_cls()
            return self.ops, interval

    def attach_fault_sources(self, gate) -> None:
        with self._lock:
            self._fault_sources.append(gate)

    def fault_counts(self) -> Tuple[int, int]:
        """(faults injected, retries spent) across attached gates."""
        with self._lock:
            gates = list(self._fault_sources)
        faults = sum(gate.injected.total_faults for gate in gates)
        return faults, sum(gate.retries for gate in gates)


class Sampler:
    """Background thread writing one JSONL sample per interval.

    The thread is a daemon and :meth:`stop` is idempotent, so a replay
    that dies mid-trace (a real crash or an injected
    :class:`~repro.faults.errors.InjectedCrash` point) still shuts the
    sampler down cleanly from the session's ``finally`` -- the output
    file always ends on a complete line, with one final sample taken
    at stop time so the tail of the run is never lost.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        progress: ReplayProgress,
        sink: Optional[Union[str, IO[str]]] = None,
        interval_ms: float = 100.0,
        on_sample: Optional[Callable[[dict], None]] = None,
        store: str = "",
        meta: Optional[dict] = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.registry = registry
        self.progress = progress
        self.interval_ms = interval_ms
        self.on_sample = on_sample
        self.store = store
        self.meta = meta or {}
        self.samples_written = 0
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if isinstance(sink, str):
            self._handle = open(sink, "w")
            self._owns_handle = True
        elif sink is not None:
            self._handle = sink
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="obs-sampler", daemon=True
        )
        self._started = 0.0
        self._last_t = 0.0
        self._last_ops = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Sampler":
        self._started = self._last_t = time.perf_counter()
        if self._handle is not None:
            header = {
                "sample": "header",
                "store": self.store,
                "total_ops": self.progress.total,
                "interval_ms": self.interval_ms,
                "metrics": self.registry.names(),
            }
            header.update(self.meta)
            self._handle.write(json.dumps(header) + "\n")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread, take a final sample, flush and close."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        self._emit()
        if self._handle is not None:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set() and not self._thread.is_alive()

    def _run(self) -> None:
        interval_s = self.interval_ms / 1000.0
        while not self._stop.wait(interval_s):
            self._emit()

    # -- sampling -----------------------------------------------------------

    def _emit(self) -> None:
        now = time.perf_counter()
        ops, interval = self.progress.take_interval()
        dt = now - self._last_t
        interval_ops = ops - self._last_ops
        self._last_t = now
        self._last_ops = ops
        total = self.progress.total
        sample: Dict[str, Any] = {
            "t_s": round(now - self._started, 6),
            "ops": ops,
            "progress": round(ops / total, 6) if total else 0.0,
            "interval_ops": interval_ops,
            "throughput_ops": round(interval_ops / dt, 3) if dt > 0 else 0.0,
            "p50_us": round(interval.percentile(50.0) / 1000.0, 3),
            "p95_us": round(interval.percentile(95.0) / 1000.0, 3),
            "p99_us": round(interval.percentile(99.0) / 1000.0, 3),
        }
        faults, retries = self.progress.fault_counts()
        if faults or retries:
            sample["faults"] = faults
            sample["retries"] = retries
        if interval.total:
            sample["latency_hist"] = interval.to_dict()
        sample["gauges"] = self.registry.sample()
        if self._handle is not None:
            try:
                self._handle.write(json.dumps(sample) + "\n")
            except ValueError:
                return  # handle already closed by a racing stop()
        self.samples_written += 1
        if self.on_sample is not None:
            try:
                self.on_sample(sample)
            except Exception:
                pass  # a broken progress view must not kill the sampler


def merge_shard_series(paths: List[str], out_path: str) -> dict:
    """Concatenate per-shard metrics JSONL files into one series.

    Multi-process replay writes one JSONL file per worker; this folds
    them into a single file the existing ``repro metrics`` tooling can
    read: one merged header (``total_ops`` summed, ``shards`` recording
    the fan-out, metric names unioned) followed by every shard's
    samples tagged with their ``shard`` index and ordered by ``t_s``.
    Returns the merged header.
    """
    merged_header: Dict[str, Any] = {}
    total_ops = 0
    names: List[str] = []
    merged_samples: List[dict] = []
    for shard, path in enumerate(paths):
        header, samples = read_series(path)
        if not merged_header:
            merged_header = dict(header)
        total_ops += int(header.get("total_ops", 0) or 0)
        for name in header.get("metrics", []):
            if name not in names:
                names.append(name)
        shard_id = header.get("shard", shard)
        for sample in samples:
            sample["shard"] = shard_id
            merged_samples.append(sample)
    merged_samples.sort(key=lambda sample: sample.get("t_s", 0.0))
    merged_header["total_ops"] = total_ops
    merged_header["metrics"] = names
    merged_header["shards"] = len(paths)
    merged_header.pop("shard", None)
    with open(out_path, "w") as handle:
        handle.write(json.dumps(merged_header) + "\n")
        for sample in merged_samples:
            handle.write(json.dumps(sample) + "\n")
    return merged_header


def read_series(path: str) -> Tuple[dict, List[dict]]:
    """Load a metrics JSONL file -> (header, samples)."""
    header: dict = {}
    samples: List[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("sample") == "header":
                header = row
            else:
                samples.append(row)
    return header, samples
