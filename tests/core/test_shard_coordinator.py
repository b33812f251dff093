"""The shard coordinator both fan-outs share: the primary error is the
lowest failing shard's in thread and process mode alike, spawned
workers run the same per-shard recipe as forked ones, and results
travel home whole."""

import dataclasses
import glob
import multiprocessing

import pytest

from repro.core import (
    ConnectorSpec,
    ProcessShardedReplayer,
    ShardedReplayer,
    TraceReplayer,
)
from repro.kvstores import create_connector
from repro.trace import AccessTrace, OpType


@pytest.fixture(autouse=True)
def _guard(hang_guard):
    hang_guard(120)


def make_trace(n=400, distinct=53, ops=(OpType.PUT,)):
    trace = AccessTrace()
    for i in range(n):
        trace.record(ops[i % len(ops)], f"key-{i % distinct}".encode(), 16, i)
    return trace


def _failing_in_order(zero_waiting, one_failed):
    """Shard 1 fails on its first op and shard 0 on its third; shard 0
    raises only after shard 1 has, so shard 1's error comes first."""

    def build(index):
        connector = create_connector("memory")
        calls = {"n": 0}

        def put(key, value):
            calls["n"] += 1
            if index == 1:
                zero_waiting.wait(10)
                one_failed.set()
                raise RuntimeError("shard 1 failed")
            if calls["n"] == 3:
                zero_waiting.set()
                one_failed.wait(10)
                raise RuntimeError("shard 0 failed")

        connector.put = put
        return connector

    return build


@pytest.mark.parametrize("mode", ["threads", "processes"])
def test_primary_error_is_the_lowest_shards(mode):
    ctx = multiprocessing.get_context("fork")
    build = _failing_in_order(ctx.Event(), ctx.Event())
    if mode == "threads":
        replayer = ShardedReplayer([build(0), build(1)], num_workers=2)
    else:
        replayer = ProcessShardedReplayer(
            ConnectorSpec.from_factory(build), num_workers=2, start_method="fork"
        )
    with pytest.raises(Exception) as excinfo:
        replayer.replay(make_trace())
    assert "shard 0 failed" in str(excinfo.value)
    siblings = excinfo.value.shard_errors
    assert len(siblings) == 1
    assert "shard 1 failed" in str(siblings[0])


def test_spawned_workers_match_forked_ones():
    trace = make_trace(ops=list(OpType))
    before = set(glob.glob("/dev/shm/psm_*"))
    digests = {}
    for method in ("fork", "spawn"):
        replayer = ProcessShardedReplayer(
            ConnectorSpec.for_store("memory"),
            num_workers=2,
            collect_digests=True,
            start_method=method,
        )
        result = replayer.replay(trace)
        assert result.operations == len(trace)
        digests[method] = replayer.last_content_digest
    assert digests["spawn"] is not None
    assert digests["spawn"] == digests["fork"]
    assert set(glob.glob("/dev/shm/psm_*")) - before == set()


def test_empty_histograms_leave_merged_figures_unchanged():
    """Workers send their whole ReplayResult, empty per-op histograms
    included; dropping those first gives the same merged figures."""
    replayer = ProcessShardedReplayer(
        ConnectorSpec.for_store("memory"), num_workers=2
    )
    sharded = replayer.replay(make_trace(ops=(OpType.PUT, OpType.GET)))
    assert all(not r.histograms[OpType.MERGE].total for r in sharded.shard_results)
    dropped = [
        dataclasses.replace(
            r, histograms={op: h for op, h in r.histograms.items() if h.total}
        )
        for r in sharded.shard_results
    ]
    whole = sharded.merged_result()
    pruned = type(whole).merged(dropped, sharded.elapsed_s)
    assert whole.summary() == pruned.summary()
    for op in (None, OpType.PUT, OpType.GET, OpType.MERGE):
        for percentile in (50.0, 99.0, 99.9):
            assert whole.latency_percentile(percentile, op) == (
                pruned.latency_percentile(percentile, op)
            )


def test_a_batch_with_a_pipeline_is_refused_before_any_connector_is_built():
    """Each shard's TraceReplayer would refuse the pair; the coordinator
    refuses it first, with the same message, before the factory runs or
    a thread starts."""
    calls = []

    def factory():
        calls.append(1)
        return create_connector("memory")

    with pytest.raises(ValueError) as refused:
        ShardedReplayer(factory, num_workers=2, batch_size=8, pipeline_depth=4)
    with pytest.raises(ValueError) as single:
        TraceReplayer(create_connector("memory"), batch_size=8, pipeline_depth=4)
    assert str(refused.value) == str(single.value)
    assert "alternative round-trip amortizations" in str(refused.value)
    assert calls == []


def test_a_process_fan_out_refuses_a_bad_window_before_any_worker():
    """The process transport takes no pipeline; a batch size its shards
    would refuse is refused in the parent, before a worker builds a
    connector."""
    calls = multiprocessing.get_context("fork").Value("i", 0)

    def factory(index):
        with calls.get_lock():
            calls.value += 1
        return create_connector("memory")

    with pytest.raises(ValueError, match=r"^batch_size must be >= 1$"):
        ProcessShardedReplayer(
            ConnectorSpec.from_factory(factory), num_workers=2, batch_size=0
        )
    assert calls.value == 0
