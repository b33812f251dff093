"""The gate: one op clock, one batch-member split, one retry loop, one
sleep seam."""

import sys

import pytest

from repro.faults import (
    FaultPlan,
    GatedConnector,
    InjectedCrash,
    RetryPolicy,
    TransientStoreError,
)
from repro.core import TraceReplayer
from repro.kvstores import FasterStore, InMemoryStore, connect
from repro.trace import AccessTrace, OpType

CRASH = FaultPlan(crash_at=0)
BURST = FaultPlan(seed=1, transient_error_rate=1.0, error_burst=5)


def no_sleep(_):
    pass


def run_one(gate, path):
    """One logical op through ``path``: a put, a one-member batch or a
    pipelined submit."""
    if path == "per-op":
        gate.put(b"k", b"v")
    elif path == "batch":
        gate.apply_batch([(1, b"k", b"v")])
    else:
        session = gate.pipeline(4, lambda *completion: None)
        session.submit(1, b"k", b"v", 0)
        session.drain()


@pytest.mark.parametrize("path", ["per-op", "batch", "pipeline"])
class TestGiveups:
    """A give-up is a retryable error that exhausted its budget, on
    every path; an error the policy does not retry is not one."""

    def gate(self, plan):
        return GatedConnector(
            connect(InMemoryStore()), plan.schedule(),
            RetryPolicy(max_attempts=3, base_delay_s=0.0), sleep=no_sleep,
        )

    def test_crash_is_not_a_giveup(self, path):
        gate = self.gate(CRASH)
        with pytest.raises(InjectedCrash):
            run_one(gate, path)
        assert gate.giveups == 0
        assert gate.injected.crashed_at == 0

    def test_exhausted_burst_is_one_giveup(self, path):
        gate = self.gate(BURST)
        with pytest.raises(TransientStoreError):
            run_one(gate, path)
        assert gate.giveups == 1
        assert gate.retries == 2


@pytest.mark.parametrize("path", ["per-op", "pipeline"])
def test_every_delay_and_backoff_goes_through_one_sleep(path):
    """Fault delays and retry backoffs reach the gate's ``sleep`` in
    schedule order: an op's backoffs, then its delay."""
    plan = FaultPlan(
        seed=5, transient_error_rate=0.05, error_burst=2,
        latency_spike_rate=0.05, latency_spike_ms=1.0,
        stall_every=50, stall_ms=3.0,
    )
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, jitter=0.0)
    slept = []
    gate = GatedConnector(
        connect(InMemoryStore()), plan.schedule(), policy, sleep=slept.append
    )
    session = gate.pipeline(4, lambda *completion: None)
    for i in range(400):
        if path == "per-op":
            gate.put(b"k%d" % i, b"v")
        else:
            session.submit(1, b"k%d" % i, b"v", 0)
    session.drain()
    backoffs = list(policy.base_delays())
    expected = []
    for faults in plan.preview(400):
        expected += backoffs[:faults.transient_errors]
        if faults.delay_s:
            expected.append(faults.delay_s)
    assert gate.retries > 0 and gate.injected.latency_spikes > 0
    assert slept == pytest.approx(expected)


class BlockAt:
    """A hook whose op ``at`` takes a turn of its own."""

    class Draw:
        blocking = True

    def __init__(self, at, log):
        self.at = at
        self.log = log

    def draw(self, index):
        return self.Draw() if index == self.at else None

    def turn(self, draw, index):
        self.log.append(("turn", index))
        return 0.0


def test_blocking_member_takes_its_turn_after_the_members_before_it():
    log = []

    class Inner:
        name = "recording"

        def apply_batch(self, ops):
            log.append(("batch", [key for _, key, _ in ops]))

    gate = GatedConnector(Inner(), BlockAt(5, log))
    gate.apply_batch([(1, b"a", b"")])  # ops 0
    gate.apply_batch([(1, bytes([c]), b"") for c in b"bcdefgh"])  # ops 1..7
    assert log == [
        ("batch", [b"a"]),
        ("batch", [b"b", b"c", b"d", b"e"]),
        ("turn", 5),
        ("batch", [b"f", b"g", b"h"]),
    ]
    assert gate.op_index == 8


def test_clean_draws_share_one_object():
    schedule = FaultPlan(seed=1, transient_error_rate=0.01).schedule()
    draws = [schedule.next_op() for _ in range(1_000)]
    clean = [faults for faults in draws if not faults.any]
    assert 900 < len(clean) < 1_000
    assert all(faults is clean[0] for faults in clean)


@pytest.mark.parametrize("store_cls", [InMemoryStore, FasterStore], ids=["memory", "faster"])
def test_a_gated_replay_runs_no_probe_frame(store_cls):
    """The gate binds its inner connector's probe: a replay under a
    fault plan and a retry policy probes the store without a frame of
    the gate's."""
    trace = AccessTrace()
    for i in range(2_000):
        trace.record(OpType.PUT if i % 2 else OpType.GET, b"k%d" % (i % 97), 16, i)
    store = store_cls()
    replayer = TraceReplayer(
        connect(store),
        fault_plan=FaultPlan(seed=1, transient_error_rate=0.01),
        retry_policy=RetryPolicy(max_attempts=5, base_delay_s=0.0),
    )
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        result = replayer.replay(trace)
    finally:
        sys.setprofile(None)
    assert result.operations == len(trace)
    assert GatedConnector.get.__code__ in codes  # the gate did run
    assert GatedConnector.take_background_ns.__code__ not in codes
    assert not {code.co_name for code in codes} & {"take_background_ns"}
    gate = GatedConnector(connect(store))
    assert gate.take_background_ns is store.take_background_ns
    del gate.take_background_ns  # the class method is the fallback
    assert gate.take_background_ns() == 0
