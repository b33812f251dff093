"""Metrics registry, store gauge discovery, and the JSONL sampler."""

import io
import json
import time

import pytest

from repro.core.histogram import LatencyHistogram
from repro.faults import FaultStats
from repro.kvstores import create_store
from repro.obs.metrics import (
    MetricsRegistry,
    ReplayProgress,
    Sampler,
    read_series,
    register_store,
)


class TestRegistry:
    def test_counter_is_memoized_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops.custom")
        counter.inc()
        counter.inc(4)
        assert registry.counter("ops.custom") is counter
        assert registry.sample()["ops.custom"] == 5

    def test_gauge_reads_live_value(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.gauge("box.v", lambda: box["v"])
        assert registry.sample()["box.v"] == 1
        box["v"] = 7
        assert registry.sample()["box.v"] == 7

    def test_raising_gauge_reports_none_not_crash(self):
        registry = MetricsRegistry()
        registry.gauge("bad", lambda: 1 / 0)
        registry.gauge("good", lambda: 3)
        sample = registry.sample()
        assert sample["bad"] is None
        assert sample["good"] == 3


class TestRegisterStore:
    def _names(self, store_name):
        registry = MetricsRegistry()
        store = create_store(store_name)
        count = register_store(registry, store)
        names = registry.names()
        store.close()
        assert count == len(names)
        return names

    def test_memory_store_has_ops_and_integrity_only(self):
        names = self._names("memory")
        assert "ops.puts" in names
        assert "integrity.detected" in names
        assert not any(n.startswith(("lsm.", "btree.", "faster.")) for n in names)

    def test_lsm_store_exposes_internals(self):
        names = self._names("rocksdb")
        for expected in (
            "lsm.memtable_bytes",
            "lsm.immutable_memtables",
            "lsm.wal_bytes",
            "lsm.sstables",
            "lsm.l0_files",
            "lsm.block_cache_hit_rate",
            "lsm.quarantined",
        ):
            assert expected in names

    def test_btree_store_exposes_page_cache(self):
        names = self._names("berkeleydb")
        for expected in (
            "btree.resident_pages",
            "btree.page_ins",
            "btree.page_outs",
            "btree.page_cache_hit_rate",
            "btree.height",
        ):
            assert expected in names

    def test_faster_store_exposes_hybrid_log(self):
        names = self._names("faster")
        for expected in (
            "faster.log_tail",
            "faster.log_head",
            "faster.disk_reads",
            "faster.sealed_segments",
        ):
            assert expected in names

    def test_connector_is_unwrapped_and_client_counters_kept(self):
        from repro.kvstores import connect

        store = create_store("rocksdb")
        connector = connect(store)
        registry = MetricsRegistry()
        register_store(registry, connector)
        assert "lsm.memtable_bytes" in registry.names()
        store.put(b"k", b"v")
        assert registry.sample()["ops.puts"] == 1
        connector.close()

    def test_remote_shaped_object_registers_reconnects(self):
        class FakeClient:
            reconnects = 2

        registry = MetricsRegistry()
        register_store(registry, FakeClient())
        assert registry.sample()["remote.reconnects"] == 2

    def test_gauges_read_live_store_activity(self):
        registry = MetricsRegistry()
        store = create_store("rocksdb")
        register_store(registry, store)
        before = registry.sample()
        for index in range(200):
            store.put(b"key-%d" % index, b"x" * 64)
        after = registry.sample()
        assert after["ops.puts"] == before["ops.puts"] + 200
        assert after["lsm.memtable_bytes"] > 0 or after["ops.flushes"] > 0
        store.close()


class TestReplayProgress:
    def test_record_and_take_interval_swaps_histogram(self):
        progress = ReplayProgress(total=10)
        progress.record(1000)
        progress.record(2000)
        ops, interval = progress.take_interval()
        assert ops == 2
        assert interval.total == 2
        ops, interval = progress.take_interval()
        assert ops == 2  # cumulative
        assert interval.total == 0  # fresh interval histogram

    def test_count_without_latency(self):
        progress = ReplayProgress(total=100)
        progress.count(64)
        progress.count()
        ops, interval = progress.take_interval()
        assert ops == 65
        assert interval.total == 0

    def test_fault_counts_sum_attached_sources(self):
        class Gate:
            retries = 5

            def __init__(self, errors):
                self.injected = FaultStats(transient_errors=errors)

        progress = ReplayProgress(total=1)
        assert progress.fault_counts() == (0, 0)
        progress.attach_fault_sources(Gate(3))
        progress.attach_fault_sources(Gate(0))
        assert progress.fault_counts() == (3, 10)


class TestSampler:
    def test_writes_header_then_samples(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("g.one", lambda: 1)
        progress = ReplayProgress(total=100)
        path = str(tmp_path / "series.jsonl")
        sampler = Sampler(
            registry, progress, sink=path, interval_ms=5.0,
            store="memory", meta={"workload": "w"},
        )
        sampler.start()
        for _ in range(50):
            progress.record(1500)
        time.sleep(0.05)
        sampler.stop()
        header, samples = read_series(path)
        assert header["sample"] == "header"
        assert header["store"] == "memory"
        assert header["workload"] == "w"
        assert header["total_ops"] == 100
        assert header["metrics"] == ["g.one"]
        assert samples, "at least the final stop() sample must exist"
        last = samples[-1]
        assert last["ops"] == 50
        assert last["progress"] == 0.5
        assert last["gauges"]["g.one"] == 1
        assert sum(s["interval_ops"] for s in samples) == 50

    def test_every_line_is_complete_json(self, tmp_path):
        registry = MetricsRegistry()
        progress = ReplayProgress(total=10)
        path = str(tmp_path / "series.jsonl")
        sampler = Sampler(registry, progress, sink=path, interval_ms=2.0)
        sampler.start()
        time.sleep(0.03)
        sampler.stop()
        for line in open(path):
            json.loads(line)  # raises on a torn line

    def test_stop_is_idempotent_and_final_sample_taken(self):
        registry = MetricsRegistry()
        progress = ReplayProgress(total=4)
        sink = io.StringIO()
        sampler = Sampler(registry, progress, sink=sink, interval_ms=60_000.0)
        sampler.start()
        progress.record(500)
        sampler.stop()
        sampler.stop()
        assert sampler.stopped
        lines = [line for line in sink.getvalue().splitlines() if line]
        assert len(lines) == 2  # header + the final stop() sample
        final = json.loads(lines[-1])
        assert final["ops"] == 1

    def test_interval_histogram_round_trips_through_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        progress = ReplayProgress(total=1000)
        path = str(tmp_path / "series.jsonl")
        sampler = Sampler(registry, progress, sink=path, interval_ms=60_000.0)
        sampler.start()
        latencies = [1_000, 5_000, 5_000, 250_000, 2_000_000]
        for ns in latencies:
            progress.record(ns)
        sampler.stop()
        _header, samples = read_series(path)
        rebuilt = LatencyHistogram()
        for sample in samples:
            if "latency_hist" in sample:
                rebuilt.merge(LatencyHistogram.from_dict(sample["latency_hist"]))
        direct = LatencyHistogram()
        for ns in latencies:
            direct.record(ns)
        assert rebuilt.total == direct.total
        assert rebuilt.percentile(50.0) == direct.percentile(50.0)
        assert rebuilt.percentile(99.0) == direct.percentile(99.0)

    def test_broken_on_sample_callback_does_not_kill_sampler(self):
        registry = MetricsRegistry()
        progress = ReplayProgress(total=2)

        def broken(sample):
            raise RuntimeError("boom")

        sampler = Sampler(
            registry, progress, sink=None, interval_ms=60_000.0,
            on_sample=broken,
        )
        sampler.start()
        sampler.stop()
        assert sampler.stopped
        assert sampler.samples_written == 1

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Sampler(MetricsRegistry(), ReplayProgress(1), interval_ms=0)
