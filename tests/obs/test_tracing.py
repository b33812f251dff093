"""Span tracer: ring semantics, no-op default, Chrome trace export."""

import json
import threading

import pytest

from repro.kvstores.lsm import LSMConfig, RocksLSMStore
from repro.kvstores.storage import MemoryStorage
from repro.obs import tracing
from repro.obs.tracing import SpanTracer


@pytest.fixture(autouse=True)
def no_global_tracer():
    """Every test starts and ends with tracing off."""
    tracing.uninstall()
    yield
    tracing.uninstall()


def compacting_store():
    """An inline LSM that has compacted: every key written twice, so
    compactions both copy lone records and resolve overwritten keys."""
    store = RocksLSMStore(
        LSMConfig(write_buffer_size=2048, target_file_size=2048, l0_compaction_trigger=2),
        storage=MemoryStorage(),
    )
    for i in range(800):
        store.put(b"k%04d" % (i % 500), b"v" * 30)
    store.flush()
    return store


class FakeClock:
    """Deterministic nanosecond clock advancing 1000ns per read."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1000
        return self.now


class TestNoOpDefault:
    def test_span_is_shared_null_object_when_off(self):
        assert tracing.active() is None
        a = tracing.span("lsm.flush", bytes=1)
        b = tracing.span("lsm.compaction")
        assert a is b  # no allocation on the disabled path
        with a as sp:
            sp.add(anything=1)  # must be a no-op, not an error
        # a store's compactions add their counts to the same null span
        store = compacting_store()
        assert store.compaction_stats.compactions > 0
        assert tracing.active() is None

    def test_compaction_span_says_what_was_copied(self):
        with tracing.tracing() as tracer:
            store = compacting_store()
        spans = [s for s in tracer.spans() if s[0] == "lsm.compaction"]
        assert len(spans) == store.compaction_stats.compactions > 0
        copied = sum(args["copied"] for *_, args in spans)
        resolved = sum(args["resolved"] for *_, args in spans)
        # every input record is either copied as bytes or resolved
        assert copied + resolved == store.compaction_stats.records_in
        assert copied > 0 and resolved > 0

    def test_instant_is_noop_when_off(self):
        tracing.instant("retry.attempt", attempt=1)  # must not raise

    def test_install_uninstall_round_trip(self):
        tracer = tracing.install(SpanTracer(capacity=8))
        assert tracing.active() is tracer
        with tracing.span("x.y"):
            pass
        assert len(tracer) == 1
        assert tracing.uninstall() is tracer
        assert tracing.active() is None

    def test_tracing_contextmanager_uninstalls_on_exit(self):
        with tracing.tracing(capacity=4) as tracer:
            assert tracing.active() is tracer
        assert tracing.active() is None


class TestRingSemantics:
    def test_overflow_keeps_newest_and_counts_dropped(self):
        tracer = SpanTracer(capacity=4, clock=FakeClock())
        for index in range(10):
            tracer.record_instant(f"event.{index}")
        assert len(tracer) == 4
        names = [entry[0] for entry in tracer.spans()]
        assert names == ["event.6", "event.7", "event.8", "event.9"]
        assert tracer.dropped == 6

    def test_under_capacity_keeps_everything_in_order(self):
        tracer = SpanTracer(capacity=16, clock=FakeClock())
        for index in range(5):
            tracer.record_instant(f"event.{index}")
        assert [e[0] for e in tracer.spans()] == [
            f"event.{i}" for i in range(5)
        ]
        assert tracer.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_span_records_duration_and_args(self):
        tracer = SpanTracer(capacity=8, clock=FakeClock())
        with tracer.span("lsm.flush", bytes=128) as sp:
            sp.add(sstable_bytes=256)
        (name, _tid, _start, dur_ns, args) = tracer.spans()[0]
        assert name == "lsm.flush"
        assert dur_ns == 1000  # one fake-clock tick between enter/exit
        assert args == {"bytes": 128, "sstable_bytes": 256}


class TestChromeTraceExport:
    def test_schema_of_complete_and_instant_events(self):
        tracer = SpanTracer(capacity=8, clock=FakeClock())
        with tracer.span("lsm.flush", bytes=64):
            pass
        tracer.record_instant("retry.attempt", {"attempt": 1})
        doc = tracer.to_chrome_trace()
        assert doc["otherData"]["dropped_spans"] == 0
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        thread_meta = [e for e in meta if e["name"] == "thread_name"]
        assert len(thread_meta) == 1
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        (flush,) = complete
        assert flush["name"] == "lsm.flush"
        assert flush["cat"] == "lsm"
        assert flush["pid"] == 1
        assert flush["tid"] == 0
        assert flush["dur"] == 1.0  # 1000ns -> 1us
        assert flush["ts"] >= 0
        assert flush["args"] == {"bytes": 64}
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"
        assert instants[0]["args"] == {"attempt": 1}

    def test_dropped_count_reaches_export(self):
        tracer = SpanTracer(capacity=2, clock=FakeClock())
        for index in range(5):
            tracer.record_instant(f"e.{index}")
        assert tracer.to_chrome_trace()["otherData"]["dropped_spans"] == 3

    def test_one_lane_per_recording_thread(self):
        tracer = SpanTracer(capacity=32)
        # Keep all workers alive together: thread idents are reused
        # once a thread exits, which would collapse lanes.
        barrier = threading.Barrier(3)

        def work():
            with tracer.span("worker.op"):
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=work, name=f"replay-shard-{i}")
            for i in range(3)
        ]
        with tracer.span("main.op"):
            pass
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        doc = tracer.to_chrome_trace()
        lanes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"replay-shard-0", "replay-shard-1", "replay-shard-2"} <= lanes
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(tids) == 4  # main + 3 workers, distinct small lanes

    def test_export_writes_valid_json(self, tmp_path):
        tracer = SpanTracer(capacity=8, clock=FakeClock())
        with tracer.span("a.b"):
            pass
        path = tmp_path / "out.trace.json"
        tracer.export(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
