"""Benchmark-owned proxies around ``repro``'s layer boundaries.

Nothing under ``src/`` is edited: a traced run installs timing closures
as *instance attributes* over the public four-operation surface
(``get``/``put``/``merge``/``delete``) of the connector the replayer
calls and of the store a :class:`~repro.kvstores.StoreServer` serves,
and wraps each pipeline stage in a stage span.  Spans land in
preallocated ``array('q')`` columns and are aggregated once, after the
timed region, into self time per layer (span minus children).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core import TraceReplayer
from repro.kvstores import (
    InMemoryStore,
    KVStore,
    MemoryStorage,
    RemoteStoreClient,
    StoreConnector,
    StoreServer,
    create_connector,
)

OP_NAMES = ("get", "put", "merge", "delete")
#: span code of a pipelined session's final ``drain()``
DRAIN = 4
#: one op span in this many goes into the Chrome trace
CHROME_SAMPLE = 1000


class OpSpans:
    """Start/end/opcode columns of one proxied layer.

    One writer thread per instance (the replay thread for a client-side
    layer, the server loop thread for a served store), so the cursor
    needs no lock.  Position in the columns is the op index, which is
    also how a served store's span finds its parent: op ``k`` on the
    server was caused by client call ``k``."""

    def __init__(self, layer: str, capacity: int, parent: Optional["OpSpans"]) -> None:
        self.layer = layer
        self.parent = parent
        self.start = array("q", bytes(8 * capacity))
        self.end = array("q", bytes(8 * capacity))
        self.code = array("b", bytes(capacity))
        self.n = 0

    def wrap(self, fn, code: Optional[int] = None):
        """``fn`` timed into the columns under ``code``; without one the
        opcode is the call's first argument (``PipelineSession.submit``)."""
        start, end, codes = self.start, self.end, self.code
        clock = time.perf_counter_ns

        def call(*args):
            begin = clock()
            result = fn(*args)
            done = clock()
            i = self.n
            start[i] = begin
            end[i] = done
            codes[i] = args[0] if code is None else code
            self.n = i + 1
            return result

        return call

    def columns(self):
        n = self.n
        return (
            np.frombuffer(self.start, dtype=np.int64)[:n],
            np.frombuffer(self.end, dtype=np.int64)[:n],
            np.frombuffer(self.code, dtype=np.int8)[:n],
        )


class Tracer:
    """Stage spans always; per-op proxies only when ``enabled``.

    Stage spans cost two clock reads per pipeline stage, so the untraced
    run keeps them (they are how ``setup_s`` and ``wall_s`` are taken).
    The per-op proxies cost about as much as an in-memory store call,
    which is why they belong to the separate traced run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: (name, start_ns, end_ns, parent index or -1)
        self.stages: List[list] = []
        self._stack: List[int] = []
        self.op_spans: List[OpSpans] = []
        self._patched: List[tuple] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        index = len(self.stages)
        parent = self._stack[-1] if self._stack else -1
        self.stages.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.stages[index][2] = time.perf_counter_ns()
            self._stack.pop()

    def stage_s(self, name: str) -> float:
        """Total seconds of the stage spans called ``name``."""
        return sum(s[2] - s[1] for s in self.stages if s[0] == name) / 1e9

    def proxy(
        self,
        target,
        layer: str,
        capacity: int,
        parent: Optional[OpSpans] = None,
        pipelined: bool = False,
    ) -> Optional[OpSpans]:
        """Time every op ``target`` serves from now until :meth:`detach`.

        ``pipelined`` targets are timed at ``submit``/``drain`` of the
        session their ``pipeline()`` returns, which is where a windowed
        client spends its time."""
        if not self.enabled:
            return None
        spans = OpSpans(layer, capacity + 16, parent)
        self.op_spans.append(spans)
        if pipelined:
            open_session = target.pipeline

            def pipeline(depth, on_complete):
                session = open_session(depth, on_complete)
                session.submit = spans.wrap(session.submit)
                session.drain = spans.wrap(session.drain, DRAIN)
                return session

            target.pipeline = pipeline
            self._patched.append((target, ("pipeline",)))
        else:
            for code, name in enumerate(OP_NAMES):
                setattr(target, name, spans.wrap(getattr(target, name), code))
            self._patched.append((target, OP_NAMES))
        return spans

    def detach(self) -> None:
        """Remove every proxy; the class's own methods show through
        again, so output checks run against the bare objects."""
        for target, names in self._patched:
            for name in names:
                delattr(target, name)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def table(self) -> Dict[str, object]:
        """All spans as one table: ``names`` plus int64 columns
        ``name``, ``start``, ``end``, ``parent`` (row index or -1) and
        ``op`` (op index or -1)."""
        names: List[str] = []
        ids: Dict[str, int] = {}

        def name_id(name: str) -> int:
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            return ids[name]

        stages = self.stages
        cols = {
            "name": [np.array([name_id(s[0]) for s in stages], dtype=np.int64)],
            "start": [np.array([s[1] for s in stages], dtype=np.int64)],
            "end": [np.array([s[2] for s in stages], dtype=np.int64)],
            "parent": [np.array([s[3] for s in stages], dtype=np.int64)],
            "op": [np.full(len(stages), -1, dtype=np.int64)],
        }
        offsets: Dict[int, int] = {}
        offset = len(stages)
        for spans in self.op_spans:
            start, end, _ = spans.columns()
            n = len(start)
            offsets[id(spans)] = offset
            if spans.parent is not None:
                # op k on the server belongs to client call k; the
                # final drain() has no server-side counterpart
                base = offsets[id(spans.parent)]
                parent = base + np.minimum(np.arange(n), spans.parent.n - 1)
            else:
                parent = np.full(n, self._enclosing_stage(int(start[0])) if n else -1)
            cols["name"].append(np.full(n, name_id(spans.layer), dtype=np.int64))
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(parent.astype(np.int64))
            cols["op"].append(np.arange(n, dtype=np.int64))
            offset += n
        table: Dict[str, object] = {k: np.concatenate(v) for k, v in cols.items()}
        table["names"] = names
        return table

    def _enclosing_stage(self, at_ns: int) -> int:
        """Innermost stage span open at ``at_ns``."""
        best = -1
        for index, (_, start, end, _) in enumerate(self.stages):
            if start <= at_ns <= end and (best < 0 or start >= self.stages[best][1]):
                best = index
        return best

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name (span minus children)."""
        table = self.table()
        duration = (table["end"] - table["start"]).astype(np.float64)
        parent = table["parent"]
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - children
        totals = np.bincount(table["name"], weights=own, minlength=len(table["names"]))
        return {name: totals[i] / 1e9 for i, name in enumerate(table["names"])}

    def write_chrome_trace(self, path: str) -> None:
        """Every stage span plus a 1-in-1000 sample of the op spans, as
        Chrome trace-event JSON (open in ``chrome://tracing`` or
        Perfetto)."""
        table = self.table()
        names = table["names"]
        events = []
        op = table["op"]
        rows = np.flatnonzero((op < 0) | (op % CHROME_SAMPLE == 0))
        origin = int(table["start"].min()) if len(rows) else 0
        for i in rows:
            name_id = int(table["name"][i])
            events.append({
                "name": names[name_id],
                "ph": "X",
                "pid": 1,
                "tid": name_id,
                "ts": (int(table["start"][i]) - origin) / 1000.0,
                "dur": (int(table["end"][i]) - int(table["start"][i])) / 1000.0,
                "args": {"op": int(table["op"][i]), "parent": int(table["parent"][i])},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)


def op_ns(spans: OpSpans) -> Dict[int, float]:
    """Mean span nanoseconds per opcode (codes that never ran: 0)."""
    start, end, code = spans.columns()
    duration = end - start
    out = {}
    for op in range(len(OP_NAMES)):
        mask = code == op
        out[op] = float(duration[mask].mean()) if mask.any() else 0.0
    return out


class CountingStorage(MemoryStorage):
    """The stores' default storage, counting calls and bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.write_calls = 0
        self.write_bytes = 0
        self.read_calls = 0
        self.read_bytes = 0

    def write(self, name: str, data: bytes) -> None:
        self.write_calls += 1
        self.write_bytes += len(data)
        super().write(name, data)

    def append(self, name: str, data: bytes) -> None:
        self.write_calls += 1
        self.write_bytes += len(data)
        super().append(name, data)

    def read(self, name: str) -> bytes:
        data = super().read(name)
        self.read_calls += 1
        self.read_bytes += len(data)
        return data

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        data = super().read_range(name, offset, length)
        self.read_calls += 1
        self.read_bytes += len(data)
        return data

    def counters(self) -> Dict[str, int]:
        return {
            "write_calls": self.write_calls,
            "write_bytes": self.write_bytes,
            "read_calls": self.read_calls,
            "read_bytes": self.read_bytes,
        }


class NullStore(KVStore):
    """A store that does nothing: the rung that isolates the hop."""

    name = "null"

    def get(self, key: bytes) -> None:
        return None

    def put(self, key: bytes, value: bytes) -> None:
        pass

    def delete(self, key: bytes) -> None:
        pass

    def merge(self, key: bytes, operand: bytes) -> None:
        pass


class NullConnector(StoreConnector):
    """A connector that never reaches a store: the replay loop alone."""

    def __init__(self) -> None:
        super().__init__(NullStore())

    def get(self, key: bytes) -> None:
        return None

    def put(self, key: bytes, value: bytes) -> None:
        pass

    def delete(self, key: bytes) -> None:
        pass

    def merge(self, key: bytes, operand: bytes) -> None:
        pass

    def take_background_ns(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# The null-layer ladder
# ---------------------------------------------------------------------------

LADDER_REPS = 5


@contextmanager
def _local(connector):
    try:
        yield connector
    finally:
        connector.close()


@contextmanager
def served(store: KVStore):
    """``store`` behind a loopback :class:`StoreServer` on a
    kernel-assigned port, with one connected client."""
    server = StoreServer(store).start()
    try:
        host, port = server.address
        client = RemoteStoreClient(host, port, store_name=store.name)
        try:
            yield client
        finally:
            client.close()
    finally:
        server.stop()


def run_ladder(trace, remote_trace=None, **replayer_options) -> Dict[str, float]:
    """Replay ``trace`` up the rungs; adjacent rungs differ by one layer.

    r0 replay loop alone, r1 + clock reads and latency recording,
    r2 + in-process memory store; with ``remote_trace`` (a shorter
    prefix, the hop is ~20x slower) also r3 loopback hop over a no-op
    store and r4 the full remote memory store, and r1 is re-measured on
    that prefix so that ``r3 - r1`` compares like with like.
    ``replayer_options`` are the workload's own (histogram mode,
    pipeline depth), so the top rung is the workload's configuration.

    A rung is the best ns/op of ``LADDER_REPS`` replays, each on a fresh
    connector.  The climbs are interleaved -- every rung once, then
    every rung again -- so that a spell of interference slows one replay
    of each rung instead of every replay of one.
    """
    untimed = {**replayer_options, "measure_latency": False}
    climb = [
        ("r0", lambda: _local(NullConnector()), trace, untimed),
        ("r1", lambda: _local(NullConnector()), trace, replayer_options),
        ("r2", lambda: _local(create_connector("memory")), trace, replayer_options),
    ]
    if remote_trace is not None:
        climb += [
            ("r1_remote", lambda: _local(NullConnector()), remote_trace, replayer_options),
            ("r3", lambda: served(NullStore()), remote_trace, replayer_options),
            ("r4", lambda: served(InMemoryStore()), remote_trace, replayer_options),
        ]
    rungs = {name: float("inf") for name, *_ in climb}
    for _ in range(LADDER_REPS):
        for name, make_connector, rung_trace, options in climb:
            with make_connector() as connector:
                replayer = TraceReplayer(connector, **options)
                before = sys.getallocatedblocks()
                result = replayer.replay(rung_trace)
                if name == "r1":
                    # what one recorded latency sample leaves on the heap
                    rungs["alloc_blocks_per_op"] = (
                        sys.getallocatedblocks() - before
                    ) / len(rung_trace)
                rungs[name] = min(rungs[name], result.elapsed_s * 1e9 / len(rung_trace))
                del result
    return rungs
