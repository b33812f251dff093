"""The six workloads: set-up, timed region, output checks.

Every workload derives its inputs from the seed alone
(``BorgConfig.seed`` / ``YCSBConfig.seed``); the program under test
receives only the generated events or trace.  Disk stores keep their
default in-memory storage and their default foreground flush and
compaction policy, which is what makes their counters exact.

A pass is ``setup()`` (timed as ``setup_s``), ``timed()`` (``wall_s``),
``check()`` (outside both) and ``teardown()``.  ``setup`` ends with an
untimed warm-up over a tenth of the input against throwaway stores.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.core import (
    DEFAULT_STORES,
    Driver,
    EvaluationRow,
    PerformanceEvaluator,
    TraceReplayer,
    make_workload,
)
from repro.datasets import BorgConfig, generate_borg
from repro.kvstores import (
    InMemoryStore,
    RemoteStoreClient,
    RocksLSMStore,
    StoreServer,
    connect,
    create_connector,
)
from repro.lake import ResultsLake, append_rows, lake_path
from repro.trace import AccessTrace, OpType
from repro.ycsb import YCSBWorkload

from . import metrics as m
from .checks import Oracle, same_trace
from .layers import OP_NAMES, CountingStorage, Tracer, op_ns, served

#: evaluator store name -> layer (module) name
STORE_LAYERS = {
    "rocksdb": "kvstores.lsm",
    "lethe": "kvstores.lethe",
    "faster": "kvstores.faster",
    "berkeleydb": "kvstores.btree",
}
_WARM_UP_SHARE = 10
PERCENTILES = (50.0, 99.0, 99.9)


def _percentiles(result) -> Dict[str, float]:
    """p50/p99/p99.9 in microseconds from a ``ReplayResult``.

    Exact-mode results are read as the harness reports them.  In
    histogram mode the harness reports bucket midpoints (3% steps), so
    the same bucket counts are interpolated linearly inside the bucket
    instead: the figure then moves continuously and stays within half a
    bucket of the harness's own."""
    if not result.histograms:
        return {p: result.latency_percentile(p) for p in PERCENTILES}
    merged = None
    for histogram in result.histograms.values():
        if merged is None:
            merged = type(histogram)(histogram.subbuckets, histogram.max_exponent)
        merged.merge(histogram)
    exported = merged.to_dict()
    sub = exported["subbuckets"]
    buckets = sorted((int(i), c) for i, c in exported["counts"].items())
    out = {}
    for percent in PERCENTILES:
        target = percent / 100.0 * exported["total"]
        seen = 0
        for index, count in buckets:
            if seen + count >= target:
                if index < sub:
                    low, high = index, index + 1
                else:
                    exponent, step = divmod(index, sub)
                    low, high = step << exponent, (step + 1) << exponent
                out[percent] = (low + (target - seen) / count * (high - low)) / 1000.0
                break
            seen += count
    return out


def _samples(result) -> int:
    if result.histograms:
        return sum(h.total for h in result.histograms.values())
    return sum(len(v) for v in result.latencies_ns.values())


def user_bytes_written(trace: AccessTrace) -> int:
    """Key plus value bytes of every write the trace issues (a delete
    writes its key)."""
    keys = trace.unique_keys()
    total = 0
    for code, kid, size in zip(trace.op_codes, trace.key_ids, trace.value_sizes):
        if code:
            total += len(keys[kid]) + (size if code != 3 else 0)
    return total


class Workload:
    """One pass of one workload; see the module docstring."""

    name = ""
    #: ``TraceReplayer`` options of the replay stage (also the ladder's)
    replayer_options: Dict[str, object] = {}

    def __init__(self, seed: int, sizes: Dict[str, int], tmp_dir: str,
                 tracer: Tracer, oracle: Oracle) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tmp_dir = tmp_dir
        self.tracer = tracer
        self.oracle = oracle
        #: ops attempted in the timed region / completed with a latency sample
        self.attempted = 0
        self.completed = 0
        #: replay-stage seconds as the harness reports them
        self.replay_s = 0.0
        #: seconds inside the timed region spent on output checks
        self.check_s = 0.0
        self.latency_us: Dict[float, float] = {}
        #: everything else the pass measured, by metric name
        self.values: Dict[str, float] = {}
        self.trace: AccessTrace = None

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self) -> None:
        raise NotImplementedError

    def check(self) -> int:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    # -- shared steps ----------------------------------------------------------

    def borg_trace(self, events: int, workload: str, tracer: Tracer) -> AccessTrace:
        with tracer.stage("datasets.generate"):
            tasks, _ = generate_borg(BorgConfig(target_events=events, seed=self.seed))
        with tracer.stage("core.driver.run"):
            trace = Driver(make_workload(workload), [tasks]).run()
        self.values["core.driver.ops_per_event"] = len(trace) / events
        return trace

    def prefix(self) -> AccessTrace:
        return self.trace[: max(1, len(self.trace) // _WARM_UP_SHARE)]

    def replay(self, connector, tracer: Tracer) -> None:
        """The replay stage, as the workload configures it."""
        with tracer.stage("core.replayer.replay"):
            result = TraceReplayer(connector, **self.replayer_options).replay(self.trace)
        self.record(result)

    def record(self, result) -> None:
        self.result = result
        self.attempted = result.operations
        self.completed = _samples(result) - result.failed_ops
        self.replay_s = result.elapsed_s
        self.latency_us = _percentiles(result)

    def stage_metrics(self) -> None:
        """Stage spans every Borg workload has (timed or in set-up)."""
        tracer, values = self.tracer, self.values
        events = self.sizes["events"]
        values["datasets.generate_s"] = tracer.stage_s("datasets.generate")
        values["datasets.kevents_per_s"] = events / values["datasets.generate_s"] / 1e3
        values["core.driver.run_s"] = tracer.stage_s("core.driver.run")
        values["core.driver.kops"] = len(self.trace) / values["core.driver.run_s"] / 1e3


class PipelineBorgMemory(Workload):
    """generate -> drive -> save -> load -> replay -> report, all timed."""

    name = m.PIPELINE
    replayer_options = {"use_histograms": True}

    def setup(self) -> None:
        self._pipeline(max(100, self.sizes["events"] // _WARM_UP_SHARE), Tracer(False))
        self.connector.close()

    def timed(self) -> None:
        self._pipeline(self.sizes["events"], self.tracer)
        self.stage_metrics()
        tracer, values, ops = self.tracer, self.values, len(self.trace)
        values["trace.save_s"] = tracer.stage_s("trace.save")
        values["trace.load_s"] = tracer.stage_s("trace.load")
        values["trace.file_bytes_per_op"] = os.path.getsize(self._path) / ops
        values["trace.mem_bytes_per_op"] = self.trace.nbytes / ops
        values["lake.append_s"] = tracer.stage_s("lake.append")

    def _pipeline(self, events: int, tracer: Tracer) -> None:
        self._generated = self.borg_trace(events, "sliding-incremental", tracer)
        self._path = os.path.join(self.tmp_dir, "trace.gdgt")
        with tracer.stage("trace.save"):
            self._generated.save(self._path)
        with tracer.stage("trace.load"):
            self.trace = AccessTrace.load(self._path)
        self.connector = create_connector("memory")
        tracer.proxy(self.connector, "kvstores.memory", len(self.trace))
        self.replay(self.connector, tracer)
        tracer.detach()
        with tracer.stage("lake.append"):
            row = EvaluationRow.from_result("sliding-incremental", self.result)
            lake = ResultsLake(lake_path(os.path.join(self.tmp_dir, "lake")))
            append_rows(lake, [row])

    def check(self) -> int:
        failures = same_trace(self._generated, self.trace)
        failures += self.oracle.mismatches(self.connector, self.trace)
        return failures

    def teardown(self) -> None:
        self.connector.close()


class CompareIncrementalStores(Workload):
    """``PerformanceEvaluator.evaluate`` across the paper's four stores."""

    name = m.COMPARE

    def setup(self) -> None:
        self.trace = self.borg_trace(
            self.sizes["events"], "sliding-incremental", self.tracer
        )
        PerformanceEvaluator(DEFAULT_STORES).evaluate("warm-up", self.prefix())
        self._failures = 0
        self._layer_spans = {}

    def timed(self) -> None:
        evaluator = PerformanceEvaluator(DEFAULT_STORES)
        with self.tracer.stage("core.evaluator.evaluate"):
            rows = evaluator.evaluate(
                "sliding-incremental", self.trace, setup=self._before_replay
            )
        ops = len(self.trace)
        self.attempted = ops * len(rows)
        self.completed = self.attempted - sum(row.failed_ops for row in rows)
        self.replay_s = sum(ops / (row.throughput_kops * 1e3) for row in rows)
        # the user reads one table row per store; one figure for the
        # table is the mean over its rows (equal op counts)
        self.latency_us = {
            50.0: sum(row.p50_us for row in rows) / len(rows),
            99.0: sum(row.p99_us for row in rows) / len(rows),
            99.9: sum(row.p999_us for row in rows) / len(rows),
        }
        values = self.values
        self.check_s = self.tracer.stage_s("bench.check")
        wall = self.tracer.stage_s("core.evaluator.evaluate") - self.check_s
        values["core.evaluator.overhead_s"] = wall - self.replay_s
        for row in rows:
            values[f"{STORE_LAYERS[row.store]}.kops"] = row.throughput_kops
        self.stage_metrics()
        if self.tracer.enabled:
            per_op = op_ns(self._layer_spans["kvstores.lsm"])
            for code, name in ((0, "get"), (1, "put"), (3, "delete")):
                values[f"kvstores.lsm.{name}_ns_per_op"] = per_op[code]

    def _before_replay(self, connector) -> None:
        """``evaluate``'s public per-store hook.  The evaluator builds
        and closes its own stores, so this is where a store is proxied
        and where its ``close`` is extended to check contents first."""
        layer = STORE_LAYERS[connector.name]
        close = connector.close
        spans = self.tracer.proxy(connector, layer, len(self.trace))
        self._layer_spans[layer] = spans

        def checked_close() -> None:
            with self.tracer.stage("bench.check"):
                self.tracer.detach()
                store = connector.store
                if layer == "kvstores.lsm":
                    self.values.update(lsm_counters(store))
                elif layer == "kvstores.btree":
                    pages = store.cache_stats()
                    self.values["kvstores.btree.page_ins"] = pages["page_ins"]
                    self.values["kvstores.btree.page_outs"] = pages["page_outs"]
                self._failures += self.oracle.mismatches(connector, self.trace)
            close()

        connector.close = checked_close

    def check(self) -> int:
        return self._failures


def lsm_counters(store: RocksLSMStore) -> Dict[str, float]:
    stats, cache = store.stats, store.block_cache
    lookups = cache.hits + cache.misses
    return {
        "kvstores.lsm.flushes": stats.flushes,
        "kvstores.lsm.compactions": stats.compactions,
        "kvstores.lsm.bytes_written": stats.bytes_written,
        "kvstores.lsm.bytes_read": stats.bytes_read,
        "kvstores.lsm.stall_count": store.write_stall_count,
        "kvstores.lsm.stall_ms": store.write_stall_ns / 1e6,
        # StoreStats.cache_hits/misses stay 0 for the LSM; the block
        # cache's own counters are the ones that move
        "kvstores.lsm.block_cache_hit_ratio": cache.hits / lookups if lookups else 0,
    }


class _LSMWorkload(Workload):
    """A trace replayed on one ``rocksdb`` over a counting storage."""

    def make_trace(self) -> AccessTrace:
        raise NotImplementedError

    def preload(self, connector) -> None:
        """Records loaded before the timed region (and into the oracle)."""

    def setup(self) -> None:
        self.trace = self.make_trace()
        warm = connect(RocksLSMStore())
        TraceReplayer(warm).replay(self.prefix())
        warm.close()
        self.storage = CountingStorage()
        self.store = RocksLSMStore(storage=self.storage)
        self.connector = connect(self.store)
        self.preload(self.connector)

    def timed(self) -> None:
        before = self.storage.counters()
        spans = self.tracer.proxy(self.connector, "kvstores.lsm", len(self.trace))
        self.replay(self.connector, self.tracer)
        with self.tracer.stage("kvstores.lsm.flush"):
            self.connector.flush()
        self.tracer.detach()
        values = self.values
        values.update(lsm_counters(self.store))
        moved = {k: v - before[k] for k, v in self.storage.counters().items()}
        for key, value in moved.items():
            values[f"kvstores.storage.{key}"] = value
        gets = self.trace.op_counts()[OpType.GET]
        values["write_amp"] = moved["write_bytes"] / user_bytes_written(self.trace)
        values["read_bytes_per_get"] = moved["read_bytes"] / gets
        self.spans = spans
        if spans is not None:
            for code, ns in op_ns(spans).items():
                values[f"kvstores.lsm.{OP_NAMES[code]}_ns_per_op"] = ns

    def check(self) -> int:
        _, live_bytes = self.oracle.expected(self.trace, self.preload)
        stored = sum(self.storage.size(name) for name in self.storage.list())
        self.values["space_amp"] = stored / live_bytes
        return self.oracle.mismatches(self.connector, self.trace, self.preload)

    def teardown(self) -> None:
        self.connector.close()


class PacedHolisticLSM(_LSMWorkload):
    """Open loop at a fixed rate over the LSM's merge path."""

    name = m.PACED

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.replayer_options = {"service_rate": float(self.sizes["rate"])}

    def make_trace(self) -> AccessTrace:
        return self.borg_trace(self.sizes["events"], "sliding-holistic", self.tracer)

    def timed(self) -> None:
        super().timed()
        self.stage_metrics()
        rate = self.sizes["rate"]
        self.values["pace_achieved_ratio"] = self.attempted / self.replay_s / rate
        if self.tracer.enabled:
            self.values.update(pace_metrics(self.spans, rate))


def pace_metrics(spans, rate: float) -> Dict[str, float]:
    """How late the generator ran, seen from the connector boundary.

    Op ``i`` was due at ``start_0 + i / rate``.  The harness times an op
    from its actual dispatch, so a stall's cost to the ops queued
    behind it is absent from its percentiles; ``co_corrected`` times
    each op from its due time instead."""
    start, end, _ = spans.columns()
    due = start[0] + np.arange(len(start)) * (1e9 / rate)
    lag_us = (start - due) / 1e3
    from_due_us = (end - due) / 1e3
    return {
        "core.replayer.pace_lag_p50_us": float(np.percentile(lag_us, 50)),
        "core.replayer.pace_lag_p99_us": float(np.percentile(lag_us, 99)),
        "core.replayer.co_corrected_p99_us": float(np.percentile(from_due_us, 99)),
    }


class YCSBReadLSM(_LSMWorkload):
    """YCSB-B (95% zipfian reads) on a preloaded, larger-than-cache LSM."""

    name = m.YCSB

    def _ycsb(self) -> YCSBWorkload:
        return YCSBWorkload.core(
            "B",
            record_count=self.sizes["records"],
            operation_count=self.sizes["ops"],
            value_size=self.sizes["value_size"],
            seed=self.seed,
        )

    def make_trace(self) -> AccessTrace:
        return self._ycsb().generate()

    def preload(self, connector) -> None:
        self._ycsb().preload(connector)


class _RemoteMemory(Workload):
    """One loopback hop per op to an in-process ``StoreServer(memory)``."""

    def setup(self) -> None:
        self.trace = self.borg_trace(
            self.sizes["events"], "sliding-incremental", self.tracer
        )
        with served(InMemoryStore()) as client:
            TraceReplayer(client, **self.replayer_options).replay(self.prefix())
        self.store = InMemoryStore()
        self.server = StoreServer(self.store).start()
        host, port = self.server.address
        self.client = RemoteStoreClient(host, port, store_name="memory")

    def timed(self) -> None:
        ops = len(self.trace)
        client_spans = self.tracer.proxy(
            self.client, "kvstores.remote", ops,
            pipelined="pipeline_depth" in self.replayer_options,
        )
        store_spans = self.tracer.proxy(
            self.store, "kvstores.memory", ops, parent=client_spans
        )
        self.replay(self.client, self.tracer)
        self.tracer.detach()
        self.stage_metrics()
        values, client = self.values, self.client
        values["kvstores.remote.send_calls_per_op"] = client.send_calls / ops
        values["kvstores.remote.recv_calls_per_op"] = client.recv_calls / ops
        if client.pipeline_flushes:
            values["kvstores.remote.coalesced_ops_per_flush"] = (
                client.flush_coalesced_ops / client.pipeline_flushes
            )
        if client_spans is not None:
            start, end, _ = client_spans.columns()
            client_ns = float((end - start).sum())
            start, end, _ = store_spans.columns()
            store_ns = float((end - start).sum())
            values["kvstores.remote.rtt_ns_per_op"] = (client_ns - store_ns) / ops
            values["kvstores.remote.server_store_ns_per_op"] = store_ns / ops

    def check(self) -> int:
        # through the client: what a remote reader would see
        return self.oracle.mismatches(self.client, self.trace)

    def teardown(self) -> None:
        self.client.close()
        self.server.stop()


class RemoteSyncMemory(_RemoteMemory):
    name = m.REMOTE_SYNC


class RemotePipelinedMemory(_RemoteMemory):
    name = m.REMOTE_PIPELINED

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.replayer_options = {"pipeline_depth": self.sizes["depth"]}


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        PipelineBorgMemory,
        CompareIncrementalStores,
        PacedHolisticLSM,
        YCSBReadLSM,
        RemoteSyncMemory,
        RemotePipelinedMemory,
    )
}
