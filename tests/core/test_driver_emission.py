"""Byte-identity of driver emission.

The goldens below are sha256 digests of saved v2 trace files; they pin
the exact op order, key-pool order, value sizes and timestamps each
workload generates, so any change to how machines emit must leave them
untouched.  The second half checks that machines written against the
section 5.4 ``ctx.emit`` API produce the same bytes as the built-in
machines.
"""

import hashlib

import pytest

from repro.core import (
    Driver,
    GadgetConfig,
    HolisticWindowMachine,
    IncrementalWindowMachine,
    KeyConfig,
    SourceConfig,
    make_workload,
)
from repro.core.operators.sessions import SessionWindowModel
from repro.core.operators.windows import sliding_window_model
from repro.core.workloads import WORKLOADS
from repro.datasets import BorgConfig, generate_borg
from repro.trace import OpType

#: 4k Borg events, seed 7; two-input workloads join tasks with jobs
WORKLOAD_GOLDENS = {
    "continuous-aggregation": "22774bc6f06ac1e95798fde700842699829bb68b13bb16b20eefd14c72d10047",
    "continuous-join": "64645fff4708a69742a048f5a5e5f9d621e8d826de395a1e3c469da1661e5950",
    "interval-join": "70e426a62b3f61f15503cc592b3a2ef6d2ebd87cc16eab2953c79dcc9ba28ef6",
    "session-holistic": "bc4bdbd684e460b0970996402db4a04a74ea31b4986cfab55245c6c0473a794e",
    "session-incremental": "a2f674b2064c4f0060a6d572ac7ddcb2e44b5a0892ffd7c6b1e4abb7bc64d016",
    "sliding-holistic": "07973e396ad7974481bc25299ea0345d09b8dee8c5b4a31c12d85480733cb6df",
    "sliding-incremental": "4d350c77aceda6d15609a9646ba0be8b6585c8c28621af7d55b50f69c52760b4",
    "sliding-join": "cbb4f58534737b3d9be49c3577b2b6530a656ebfdc5e9f35da720c6a0a9858e5",
    "tumbling-holistic": "aa695bdf2e44cabbafa2a4e5a760bda2087abdd2ad12d6285252dda6b85d3663",
    "tumbling-incremental": "9916ac649e5e47e241b238d6dcf2f4d19d88170def69e3a0211b9c73d3f29bed",
    "tumbling-join": "ba88ef3976791f958f83845b339d2ece8e28e9157ec7710cec9738ceb3a0b164",
}
OUT_OF_ORDER_GOLDEN = "fde95a5865f503c0ca0979fe57e847ad2fb270930f7cc6f99a943fbd90e5b16e"
SESSION_MERGE_GOLDENS = {
    False: "c10802b90a6e0f17acba95d7b53a8ecc0a0a91eee16445212efaf45eb41d2ce7",
    True: "0edf5ebb71a774eeba5aa2a5f52403624023f58c23911e4ec901c83ed85497a0",
}


def trace_digest(trace, tmp_path) -> str:
    path = tmp_path / "trace.gdgt"
    trace.save(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def borg_inputs():
    return generate_borg(BorgConfig(target_events=4000, seed=7))


def disordered_source() -> SourceConfig:
    return SourceConfig(
        num_events=3000,
        keys=KeyConfig(num_keys=50),
        out_of_order_fraction=0.3,
        max_lateness_ms=2000,
        seed=11,
    )


class TestTraceGoldens:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_GOLDENS))
    def test_predefined_workload(self, name, borg_inputs, tmp_path):
        tasks, jobs = borg_inputs
        sources = [tasks] if WORKLOADS[name].num_inputs == 1 else [tasks, jobs]
        driver = Driver(make_workload(name), sources, GadgetConfig(interleave="time"))
        trace = driver.run()
        assert trace_digest(trace, tmp_path) == WORKLOAD_GOLDENS[name]

    def test_out_of_order_source_drops_late_events(self, tmp_path):
        # The config's default source allows no lateness, so the
        # disordered generator's delayed events arrive late and drop.
        driver = Driver(
            sliding_window_model(1000, 250), [disordered_source()], GadgetConfig()
        )
        trace = driver.run()
        assert driver.dropped_late_events > 0
        assert trace_digest(trace, tmp_path) == OUT_OF_ORDER_GOLDEN

    @pytest.mark.parametrize("holistic", [False, True])
    def test_session_merges_rekey_and_absorb(self, holistic, tmp_path):
        source = disordered_source()
        model = SessionWindowModel(200, holistic=holistic)
        rekeys = []
        rekey = model._rekey
        model._rekey = lambda *args: rekeys.append(args) or rekey(*args)
        driver = Driver(model, [source], GadgetConfig(sources=[source]))
        trace = driver.run()
        assert model.session_merges > 0
        assert rekeys
        assert trace_digest(trace, tmp_path) == SESSION_MERGE_GOLDENS[holistic]


class EmitIncremental(IncrementalWindowMachine):
    """Figure 9's machine written against the plain ``ctx.emit`` API."""

    __slots__ = ()

    def run(self, ctx, event) -> None:
        ctx.emit(OpType.GET, self.state_key)
        ctx.emit(OpType.PUT, self.state_key, event.value_size)
        self.elements += 1

    def terminate(self, ctx) -> None:
        ctx.emit(OpType.GET, self.state_key)
        ctx.emit(OpType.DELETE, self.state_key)
        self.done = True


class EmitHolistic(HolisticWindowMachine):
    __slots__ = ()

    def run(self, ctx, event) -> None:
        ctx.emit(OpType.MERGE, self.state_key, event.value_size)
        self.elements += 1

    def terminate(self, ctx) -> None:
        ctx.emit(OpType.GET, self.state_key)
        ctx.emit(OpType.DELETE, self.state_key)
        self.done = True


class TestEmitApiEquivalence:
    @pytest.mark.parametrize(
        "holistic, machine", [(False, EmitIncremental), (True, EmitHolistic)]
    )
    def test_emit_only_machine_matches_builtin(
        self, holistic, machine, borg_inputs, tmp_path
    ):
        tasks, _ = borg_inputs

        def generate(factory=None):
            model = sliding_window_model(5000, 1000, holistic=holistic)
            if factory is not None:
                model._machine_factory = factory
            return Driver(model, [tasks]).run()

        builtin = trace_digest(generate(), tmp_path)
        assert trace_digest(generate(machine), tmp_path) == builtin
