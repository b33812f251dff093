"""Every replay loop is the same computation under faults.

The paced, batched and pipelined loops must report exactly what the
per-op loop reports for the same trace and fault plan -- operations,
failed ops, retries, injected faults, crash point and latency samples
-- and leave the store holding the same contents.  Also pins which
errors a replay counts: only faults from an injector the replayer built
itself (``fault_plan`` set); anything else propagates.
"""

import random

import pytest

from repro.core import TraceReplayer
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.errors import InjectedCrash, TransientStoreError
from repro.faults.gate import GatedConnector
from repro.kvstores import create_connector
from repro.obs import ReplayTelemetry, read_series
from repro.trace import AccessTrace, OpType

RETRY = RetryPolicy(max_attempts=5, base_delay_s=0, jitter=0)
ERRORS = FaultPlan(seed=11, transient_error_rate=0.03, error_burst=2)
CRASH = FaultPlan(seed=11, transient_error_rate=0.03, error_burst=2, crash_at=1700)

#: name -> (fault plan, retry policy)
PLANS = {
    "errors": (ERRORS, None),
    "errors-retry": (ERRORS, RETRY),
    "crash": (CRASH, None),
    "crash-retry": (CRASH, RETRY),
}

#: replayer options selecting each loop
LOOPS = {
    "per-op": {},
    "paced": {"service_rate": 1e7},
    "batched": {"batch_size": 16},
    "pipelined": {"pipeline_depth": 8},
    "paced-batched": {"service_rate": 1e7, "batch_size": 16},
    "paced-pipelined": {"service_rate": 1e7, "pipeline_depth": 8},
}


def mixed_trace(n=3000, seed=3):
    rng = random.Random(seed)
    ops = list(OpType)
    trace = AccessTrace()
    for i in range(n):
        trace.record(rng.choice(ops), f"key-{rng.randrange(200)}".encode(), 16, i)
    return trace


@pytest.fixture(scope="module")
def trace():
    return mixed_trace()


def observe(trace, plan, policy, histograms, **options):
    connector = create_connector("memory")
    result = TraceReplayer(
        connector,
        fault_plan=plan,
        retry_policy=policy,
        use_histograms=histograms,
        **options,
    ).replay(trace)
    if histograms:
        samples = sum(h.total for h in result.histograms.values())
    else:
        samples = sum(len(values) for values in result.latencies_ns.values())
    counters = (
        result.operations,
        result.failed_ops,
        result.retries,
        result.injected_faults,
        result.crashed_at,
        samples,
    )
    contents = {key: connector.get(key) for key in trace.unique_keys()}
    return counters, contents


@pytest.mark.parametrize("histograms", [False, True], ids=["exact", "hist"])
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("loop", LOOPS)
def test_loop_matches_per_op(trace, loop, plan, histograms):
    fault_plan, policy = PLANS[plan]
    expected = observe(trace, fault_plan, policy, histograms)
    counters, contents = observe(
        trace, fault_plan, policy, histograms, **LOOPS[loop]
    )
    assert counters == expected[0]
    assert contents == expected[1]
    operations, failed_ops, retries, injected, crashed_at, samples = counters
    assert samples == operations - failed_ops
    assert injected > 0
    if policy is None:
        assert failed_ops > 0 and retries == 0
    else:
        assert failed_ops == 0 and retries > 0
    if fault_plan.crash_at is None:
        assert crashed_at is None and operations == len(trace)
    else:
        assert crashed_at == operations == fault_plan.crash_at


@pytest.mark.parametrize("loop", LOOPS)
def test_unmeasured_progress_counts_applied_ops(trace, loop, tmp_path):
    """A telemetry session without latency counts the ops the store
    applied: an op abandoned after a transient error is not progress."""
    metrics_path = str(tmp_path / "m.jsonl")
    connector = create_connector("memory")
    result = TraceReplayer(
        connector,
        measure_latency=False,
        fault_plan=ERRORS,
        telemetry=ReplayTelemetry(metrics_path=metrics_path),
        **LOOPS[loop],
    ).replay(trace)
    _header, samples = read_series(metrics_path)
    applied = connector.store.stats.total_ops
    assert result.failed_ops > 0
    assert applied == result.operations - result.failed_ops
    assert samples[-1]["ops"] == applied


class TestCallerBuiltInjector:
    """Faults from an injector the caller wrapped around the connector
    are not the replayer's to count: with no fault plan they propagate,
    whether or not a retry policy is set."""

    @pytest.mark.parametrize("policy", [None, RETRY], ids=["bare", "retry-only"])
    @pytest.mark.parametrize("loop", ["per-op", "batched", "pipelined"])
    def test_transient_error_propagates(self, trace, loop, policy):
        plan = FaultPlan(seed=1, transient_error_rate=0.05, error_burst=10)
        connector = GatedConnector(
            create_connector("memory"), plan.schedule(), sleep=lambda _: None
        )
        replayer = TraceReplayer(connector, retry_policy=policy, **LOOPS[loop])
        with pytest.raises(TransientStoreError):
            replayer.replay(trace)

    @pytest.mark.parametrize("policy", [None, RETRY], ids=["bare", "retry-only"])
    @pytest.mark.parametrize("loop", ["per-op", "batched", "pipelined"])
    def test_crash_propagates(self, trace, loop, policy):
        connector = GatedConnector(
            create_connector("memory"), FaultPlan(crash_at=100).schedule()
        )
        replayer = TraceReplayer(connector, retry_policy=policy, **LOOPS[loop])
        with pytest.raises(InjectedCrash):
            replayer.replay(trace)
