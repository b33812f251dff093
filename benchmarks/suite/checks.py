"""Output checks, run after every timed region and outside it.

A check returns the number of mismatches it found; the runner adds
them to the run's ``failed`` count, so any mismatch makes the command
exit non-zero.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Tuple

from repro.core import TraceReplayer, store_content_digest
from repro.kvstores import InMemoryStore, connect
from repro.trace import AccessTrace


def trace_digest(trace: AccessTrace) -> str:
    """Digest of the four access columns and the key pool."""
    digest = hashlib.blake2b(digest_size=16)
    for column in (trace.op_codes, trace.key_ids, trace.value_sizes, trace.timestamps):
        digest.update(len(column).to_bytes(8, "little"))
        digest.update(column.tobytes())
    for key in trace.unique_keys():
        digest.update(len(key).to_bytes(4, "little"))
        digest.update(key)
    return digest.hexdigest()


def same_trace(generated: AccessTrace, loaded: AccessTrace) -> int:
    """0 when the loaded trace equals the generated one."""
    if len(generated) != len(loaded):
        return 1
    return int(trace_digest(generated) != trace_digest(loaded))


class Oracle:
    """What an :class:`InMemoryStore` holds after replaying a trace.

    The passes of one run regenerate the same trace from the same seed,
    so the oracle replay is cached by trace digest (a second pass whose
    trace differed would simply miss the cache and be replayed)."""

    def __init__(self) -> None:
        self._cache: Dict[str, Tuple[int, int]] = {}

    def expected(
        self, trace: AccessTrace, preload: Optional[Callable] = None
    ) -> Tuple[int, int]:
        """``(content digest over the trace's keys, live user bytes)``."""
        key = trace_digest(trace)
        if key not in self._cache:
            store = InMemoryStore()
            connector = connect(store)
            if preload is not None:
                preload(connector)
            TraceReplayer(connector, measure_latency=False).replay(trace)
            digest = store_content_digest(connector, trace.unique_keys())
            live = sum(len(k) + len(v) for k, v in store.scan(b"", b"\xff" * 64))
            connector.close()
            self._cache[key] = (digest, live)
        return self._cache[key]

    def mismatches(self, connector, trace: AccessTrace, preload=None) -> int:
        """0 when ``connector``'s contents over the trace's key set
        equal the oracle's."""
        digest, _ = self.expected(trace, preload)
        return int(store_content_digest(connector, trace.unique_keys()) != digest)
