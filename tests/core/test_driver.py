"""Tests for the Gadget driver (Algorithm 1) and state machines."""

import pytest

from repro.core import (
    Driver,
    GadgetConfig,
    IncrementalWindowMachine,
    HolisticWindowMachine,
    AggregationMachine,
    BufferMachine,
    MachineContext,
    OperatorModel,
    SourceConfig,
)
from repro.core.operators.windows import sliding_window_model, tumbling_window_model
from repro.events import Event
from repro.trace import AccessTrace, OpType


class TestStateMachines:
    def run_machine(self, machine_cls):
        trace = AccessTrace()
        ctx = MachineContext(trace, value_size=10)
        machine = machine_cls(b"sk")
        machine.run(ctx, Event(b"k", 1, value_size=20))
        machine.terminate(ctx)
        return [a.op for a in trace], trace, machine

    def test_incremental_window_machine(self):
        ops, trace, machine = self.run_machine(IncrementalWindowMachine)
        assert ops == [OpType.GET, OpType.PUT, OpType.GET, OpType.DELETE]
        assert machine.done
        assert machine.elements == 1

    def test_holistic_window_machine(self):
        ops, trace, _ = self.run_machine(HolisticWindowMachine)
        assert ops == [OpType.MERGE, OpType.GET, OpType.DELETE]

    def test_aggregation_machine_never_done(self):
        ops, _, machine = self.run_machine(AggregationMachine)
        # base terminate() flips done but emits nothing
        assert ops == [OpType.GET, OpType.PUT]

    def test_buffer_machine_silent_delete(self):
        ops, _, _ = self.run_machine(BufferMachine)
        assert ops == [OpType.GET, OpType.PUT, OpType.DELETE]

    def test_value_sizes_from_event(self):
        trace = AccessTrace()
        ctx = MachineContext(trace, value_size=10)
        machine = IncrementalWindowMachine(b"sk")
        machine.run(ctx, Event(b"k", 1, value_size=99))
        puts = [a for a in trace if a.op is OpType.PUT]
        assert puts[0].value_size == 99

    def test_default_value_size_for_gets(self):
        trace = AccessTrace()
        ctx = MachineContext(trace, value_size=10)
        ctx.emit(OpType.GET, b"k")
        assert trace[0].value_size == 0


class TestDriver:
    def make_driver(self, events=None, model=None, interleave="time", **config_kwargs):
        # Two events in the first window plus one event past its end so
        # the closing watermark fires the first window.
        events = events if events is not None else [
            Event(b"k", t) for t in (100, 200, 6000)
        ]
        model = model or tumbling_window_model(5000)
        config = GadgetConfig(
            sources=[SourceConfig(**config_kwargs)], interleave=interleave
        )
        return Driver(model, [events], config)

    def test_run_produces_trace(self):
        trace = self.make_driver().run()
        # 3 events x (get+put) + first window fire (get+delete)
        assert [a.op for a in trace] == [
            OpType.GET, OpType.PUT, OpType.GET, OpType.PUT,
            OpType.GET, OpType.PUT, OpType.GET, OpType.DELETE,
        ]

    def test_hindex_tracks_state_keys(self):
        events = [Event(k, t) for t in range(0, 20_000, 50) for k in (b"a", b"b")]
        driver = self.make_driver(events=events, model=sliding_window_model(1000, 250))
        driver.run()
        # vIndex expiry removed every fired window from the hIndex: what
        # remains is exactly the still-open windows, under their keys.
        assert driver.machines
        indexed = {sk for state_keys in driver.hindex.values() for sk in state_keys}
        assert indexed == set(driver.machines)
        for event_key in (b"a", b"b"):
            live = driver.live_state_keys(event_key)
            assert live == {sk for sk in driver.machines if sk.startswith(event_key)}

    def test_vindex_cleared_after_expiry(self):
        driver = self.make_driver()
        driver.run()
        # Only the unexpired second window may remain scheduled.
        assert len(driver.vindex) <= 1

    def test_machines_cleaned_up(self):
        driver = self.make_driver()
        driver.run()
        # The first window's machine fired and was removed.
        assert len(driver.machines) <= 1

    def test_late_events_dropped(self):
        events = [Event(b"k", t) for t in range(1, 402)]
        events.append(Event(b"k", 1))  # very late, delivered last
        driver = self.make_driver(events=events, interleave="round_robin")
        driver.run()
        assert driver.dropped_late_events == 1

    def test_source_count_mismatch(self):
        with pytest.raises(ValueError, match="source"):
            Driver(tumbling_window_model(5000), [[], []])

    def test_watermark_frequency_from_config(self):
        driver = self.make_driver(watermark_frequency=10)
        assert driver._watermark_frequency() == 10

    def test_machine_for_reuses_instances(self):
        driver = self.make_driver()
        m1 = driver.machine_for(b"sk", IncrementalWindowMachine, b"k", 100)
        m2 = driver.machine_for(b"sk", IncrementalWindowMachine, b"k", 100)
        assert m1 is m2

    def test_terminate_machine_idempotent(self):
        driver = self.make_driver()
        driver.machine_for(b"sk", IncrementalWindowMachine, b"k", 100)
        driver.terminate_machine(b"sk", b"k")
        before = len(driver.workload)
        driver.terminate_machine(b"sk", b"k")
        assert len(driver.workload) == before

    def test_reschedule_moves_expiry(self):
        driver = self.make_driver()
        driver.machine_for(b"sk", IncrementalWindowMachine, b"k", 100)
        driver.reschedule(b"sk", 100, 200)
        assert 100 not in driver.vindex
        assert b"sk" in driver.vindex[200]

    def test_drop_machine_emits_nothing(self):
        driver = self.make_driver()
        driver.machine_for(b"sk", IncrementalWindowMachine, b"k", 100)
        before = len(driver.workload)
        driver.drop_machine(b"sk", b"k")
        assert len(driver.workload) == before
        assert b"sk" not in driver.machines


class TestCustomOperatorExtension:
    def test_user_defined_model(self):
        """The three-method extension API of section 5.4."""

        class EveryEventDeleter(OperatorModel):
            def assign_state_machines(self, event, input_index, driver):
                driver.ctx.emit(OpType.DELETE, event.key)
                return []

        events = [Event(b"a", 1), Event(b"b", 2)]
        driver = Driver(EveryEventDeleter(), [events], GadgetConfig())
        trace = driver.run()
        assert [a.op for a in trace] == [OpType.DELETE, OpType.DELETE]

    def test_model_on_watermark_hook(self):
        calls = []

        class WatermarkSpy(OperatorModel):
            def assign_state_machines(self, event, input_index, driver):
                return []

            def on_watermark(self, timestamp, driver):
                calls.append(timestamp)

        events = [Event(b"a", t) for t in range(1, 250)]
        config = GadgetConfig(sources=[SourceConfig(watermark_frequency=100)])
        Driver(WatermarkSpy(), [events], config).run()
        assert len(calls) >= 2
