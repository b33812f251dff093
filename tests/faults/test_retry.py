"""Retry policy: backoff shape, deadlines, connector-level retries."""

import pytest

from repro.faults import (
    FaultPlan,
    GatedConnector,
    RetryPolicy,
    TransientStoreError,
)
from repro.kvstores import InMemoryStore, connect


class Flaky:
    """Callable failing ``failures`` times before succeeding."""

    def __init__(self, failures, error=TransientStoreError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"failure {self.calls}")
        return "ok"


def no_sleep(_):
    pass


class TestRetryPolicyCall:
    def test_succeeds_after_transient_failures(self):
        flaky = Flaky(failures=2)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        assert policy.call(flaky, sleep=no_sleep) == "ok"
        assert flaky.calls == 3

    def test_exhausted_attempts_reraise_last_error(self):
        flaky = Flaky(failures=10)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(TransientStoreError, match="failure 3"):
            policy.call(flaky, sleep=no_sleep)
        assert flaky.calls == 3

    def test_non_retryable_error_propagates_immediately(self):
        flaky = Flaky(failures=1, error=KeyError)
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(KeyError):
            policy.call(flaky, sleep=no_sleep)
        assert flaky.calls == 1

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05
        )
        assert list(policy.base_delays()) == pytest.approx(
            [0.01, 0.02, 0.04, 0.05, 0.05]
        )

    def test_jitter_stays_within_fraction_and_is_seeded(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.01, jitter=0.5, seed=123
        )
        slept = []
        policy.call(Flaky(failures=3), sleep=slept.append)
        assert len(slept) == 3
        for delay, base in zip(slept, policy.base_delays()):
            assert base * 0.5 <= delay <= base * 1.5
        # Seeded jitter is reproducible.
        repeat = []
        RetryPolicy(max_attempts=4, base_delay_s=0.01, jitter=0.5, seed=123).call(
            Flaky(failures=3), sleep=repeat.append
        )
        assert repeat == slept

    def test_on_retry_callback_counts_attempts(self):
        seen = []
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        policy.call(
            Flaky(failures=2),
            sleep=no_sleep,
            on_retry=lambda attempt, err: seen.append(attempt),
        )
        assert seen == [1, 2]

    def test_op_deadline_stops_retrying(self):
        # A fake clock: each call advances 1s, so the 2.5s deadline is
        # crossed after a couple of retries even though attempts remain.
        ticks = iter(range(100))
        policy = RetryPolicy(
            max_attempts=50, base_delay_s=0.5, jitter=0.0, op_timeout_s=2.5
        )
        flaky = Flaky(failures=100)
        with pytest.raises(TransientStoreError):
            policy.call(flaky, sleep=no_sleep, clock=lambda: float(next(ticks)))
        assert flaky.calls < 50

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)


class TestRetryingConnector:
    def _faulted_connector(self, plan):
        store = InMemoryStore()
        inner = connect(store)
        injector = GatedConnector(inner, plan.schedule(), sleep=no_sleep)
        return store, injector

    def test_retries_absorb_bursts_and_contents_match_unfaulted_run(self):
        plan = FaultPlan(seed=21, transient_error_rate=0.3, error_burst=2)
        store, injector = self._faulted_connector(plan)
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        connector = GatedConnector(injector, retry=policy, sleep=no_sleep)
        for i in range(500):
            connector.put(f"k{i % 50}".encode(), f"v{i}".encode())
        # Every write eventually landed, despite the injected bursts.
        assert injector.injected.transient_errors > 0
        assert connector.retries == injector.injected.transient_errors
        assert connector.giveups == 0
        for i in range(450, 500):
            assert store.get(f"k{i % 50}".encode()) == f"v{i}".encode()

    def test_giveups_counted_when_policy_too_weak(self):
        plan = FaultPlan(seed=21, transient_error_rate=0.5, error_burst=5)
        _, injector = self._faulted_connector(plan)
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        connector = GatedConnector(injector, retry=policy, sleep=no_sleep)
        failures = 0
        for i in range(100):
            try:
                connector.put(b"k", b"v")
            except TransientStoreError:
                failures += 1
        assert failures > 0
        assert connector.giveups == failures

    def test_passthrough_of_reads_and_background_accounting(self):
        store, injector = self._faulted_connector(FaultPlan(seed=1))
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        connector = GatedConnector(injector, retry=policy, sleep=no_sleep)
        connector.put(b"a", b"1")
        connector.merge(b"a", b"2")
        assert connector.get(b"a") == b"12"
        connector.delete(b"a")
        assert connector.get(b"a") is None
        assert connector.take_background_ns() == 0
        connector.flush()
        connector.close()
        assert store.closed
