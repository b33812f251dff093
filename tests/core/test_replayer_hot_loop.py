"""The replay walk's synchronous per-op bodies do no new per-op work.

Five of the six suite workloads run the measured or the untimed body
of ``TraceReplayer._walk``, and the suite ladder's r0 rung times the
untimed one.  Each body is found in the walk's bytecode as an innermost
``for`` loop, and the set of names it loads is pinned: a new call,
attribute or global in either body fails here, on every Python the CI
matrix runs, instead of slipping into the per-op cost unnoticed.  The
window work (``submit``), telemetry counting (``count``) and pacing
(``interval``) have bodies of their own and stay out of these two.

The measured body's clock brackets the store call and nothing else:
the opcode tests and the payload lookup (``values[size]``) come before
``begin`` is stamped, so a sample is the store's time, not the
harness's.
"""

import dis

from repro.core import TraceReplayer

#: names loaded by the measured body (timed call, latency recorded)
MEASURED = {
    "ReplayStopped", "begin", "code", "delete", "elapsed_ns", "get", "key",
    "keys", "kid", "merge", "put", "sink", "size", "stop",
    "take_background", "timer", "value", "values",
}
#: names loaded by the untimed body (``measure_latency=False``)
UNTIMED = {
    "ReplayStopped", "code", "delete", "get", "key", "keys", "kid", "merge",
    "put", "size", "stop", "values",
}
FORBIDDEN = {"submit", "count", "interval"}


def innermost_loop_bodies(code):
    """Instructions of each ``for`` body that holds no other loop."""
    instructions = list(dis.get_instructions(code))
    bodies = []
    for position, instruction in enumerate(instructions):
        if instruction.opname != "FOR_ITER":
            continue
        # FOR_ITER's argument is the offset where the loop exits
        body = [
            other for other in instructions[position + 1:]
            if other.offset < instruction.argval
        ]
        if not any(other.opname == "FOR_ITER" for other in body):
            bodies.append(body)
    return bodies


def loaded_names(body):
    names = set()
    for instruction in body:
        if not instruction.opname.startswith("LOAD_"):
            continue
        values = instruction.argval
        for value in values if isinstance(values, tuple) else (values,):
            if isinstance(value, str):
                names.add(value)
    return names


def sync_body_code():
    """``(measured, untimed)`` instruction lists: the bodies that call
    the store directly (load ``get``) and do not pace, told apart by
    the clock."""
    bodies = innermost_loop_bodies(TraceReplayer._walk.__code__)
    direct = [
        body for body in bodies
        if "get" in loaded_names(body) and "_throttle" not in loaded_names(body)
    ]
    measured = [body for body in direct if "timer" in loaded_names(body)]
    untimed = [body for body in direct if "timer" not in loaded_names(body)]
    assert len(measured) == 1 and len(untimed) == 1, [loaded_names(b) for b in bodies]
    return measured[0], untimed[0]


def sync_bodies():
    """``(measured, untimed)`` name sets."""
    measured, untimed = sync_body_code()
    return loaded_names(measured), loaded_names(untimed)


def clocked_spans(body):
    """Per ``begin = timer()`` of a body: the instructions from the
    ``timer`` load through the first call after the ``begin`` store,
    which is the store call the stamp precedes."""
    spans = []
    for position, instruction in enumerate(body):
        if instruction.opname != "STORE_FAST" or instruction.argval != "begin":
            continue
        start = max(
            index for index in range(position)
            if body[index].opname.startswith("LOAD_") and body[index].argval == "timer"
        )
        end = next(
            index for index in range(position + 1, len(body))
            if body[index].opname.startswith("CALL")
        )
        spans.append(body[start:end + 1])
    return spans


def test_measured_body_loads_the_recorded_names():
    measured, _ = sync_bodies()
    assert measured == MEASURED
    assert not measured & FORBIDDEN


def test_untimed_body_loads_the_recorded_names():
    _, untimed = sync_bodies()
    assert untimed == UNTIMED
    assert not untimed & FORBIDDEN


def test_measured_clock_brackets_only_the_store_call():
    """Between a stamp and its store call the body loads the clock, the
    key, the payload and the op: no opcode test, no payload lookup."""
    measured, _ = sync_body_code()
    spans = clocked_spans(measured)
    ops = []
    for span in spans:
        names = loaded_names(span)
        op = names - {"timer", "key", "value"}
        assert len(op) == 1 and op <= {"get", "put", "merge", "delete"}, names
        ops.extend(op)
        assert ("value" in names) == (op <= {"put", "merge"}), names
        assert not any(i.opname.startswith(("BINARY_", "COMPARE_")) for i in span)
    assert sorted(ops) == ["delete", "get", "merge", "put"]
