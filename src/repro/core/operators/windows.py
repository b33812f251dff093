"""Gadget operator models for tumbling and sliding windows."""

from __future__ import annotations

from typing import List, Union

from ...events import Event
from ...streaming.windows import SlidingWindows, TumblingWindows, window_state_key
from ..driver import Driver, OperatorModel
from ..state_machines import (
    HolisticWindowMachine,
    IncrementalWindowMachine,
    StateMachine,
)

Assigner = Union[TumblingWindows, SlidingWindows]


class WindowModel(OperatorModel):
    """W-ID windows: one machine per (event key, window start).

    Incremental windows use the get-put machine of Figure 9; holistic
    windows use the merge machine.  The vIndex fires machines when the
    watermark passes each window's end.
    """

    def __init__(
        self, assigner: Assigner, holistic: bool = False, value_size: int = 10
    ) -> None:
        self.assigner = assigner
        self.holistic = holistic
        self.value_size = value_size
        self._machine_factory = (
            HolisticWindowMachine if holistic else IncrementalWindowMachine
        )

    def assign_state_machines(
        self, event: Event, input_index: int, driver: Driver
    ) -> List[StateMachine]:
        machines: List[StateMachine] = []
        live = driver.machines
        watermark = driver.current_watermark
        length = self.assigner.length_ms
        key = event.key
        for start in self.assigner.assign(event.timestamp):
            end = start + length
            if end <= watermark:
                continue  # the window already fired
            state_key = window_state_key(key, start)
            machine = live.get(state_key)
            if machine is None:
                machine = driver.machine_for(
                    state_key,
                    self._machine_factory,
                    event_key=key,
                    expires_at=end,
                )
            machines.append(machine)
        return machines


def tumbling_window_model(
    length_ms: int, holistic: bool = False, value_size: int = 10
) -> WindowModel:
    return WindowModel(TumblingWindows(length_ms), holistic, value_size)


def sliding_window_model(
    length_ms: int, slide_ms: int, holistic: bool = False, value_size: int = 10
) -> WindowModel:
    return WindowModel(SlidingWindows(length_ms, slide_ms), holistic, value_size)
