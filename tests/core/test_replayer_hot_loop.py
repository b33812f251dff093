"""The replay walk's synchronous per-op bodies do no new per-op work.

Five of the six suite workloads run the measured or the untimed body
of ``TraceReplayer._walk``, and the suite ladder's r0 rung times the
untimed one.  Each body is found in the walk's bytecode as an innermost
``for`` loop, and the set of names it loads is pinned: a new call,
attribute or global in either body fails here, on every Python the CI
matrix runs, instead of slipping into the per-op cost unnoticed.  The
window work (``submit``), telemetry counting (``count``) and pacing
(``interval``) have bodies of their own and stay out of these two.
"""

import dis

from repro.core import TraceReplayer

#: names loaded by the measured body (timed call, latency recorded)
MEASURED = {
    "ReplayStopped", "begin", "code", "delete", "elapsed_ns", "get", "key",
    "keys", "kid", "merge", "put", "sink", "size", "stop", "synth",
    "take_background", "timer",
}
#: names loaded by the untimed body (``measure_latency=False``)
UNTIMED = {
    "ReplayStopped", "code", "delete", "get", "key", "keys", "kid", "merge",
    "put", "size", "stop", "synth",
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


def sync_bodies():
    """``(measured, untimed)`` name sets: the bodies that call the
    store directly (load ``get``) and do not pace, told apart by the
    clock."""
    found = [loaded_names(body) for body in innermost_loop_bodies(TraceReplayer._walk.__code__)]
    direct = [names for names in found if "get" in names and "_throttle" not in names]
    measured = [names for names in direct if "timer" in names]
    untimed = [names for names in direct if "timer" not in names]
    assert len(measured) == 1 and len(untimed) == 1, found
    return measured[0], untimed[0]


def test_measured_body_loads_the_recorded_names():
    measured, _ = sync_bodies()
    assert measured == MEASURED
    assert not measured & FORBIDDEN


def test_untimed_body_loads_the_recorded_names():
    _, untimed = sync_bodies()
    assert untimed == UNTIMED
    assert not untimed & FORBIDDEN
