"""Replay telemetry session: one object wiring all three obs pieces.

A :class:`ReplayTelemetry` describes *what to record* (trace path,
metrics path, progress stream, sampling interval); the replayer opens
a :meth:`session` around each run, which

1. installs a :class:`~repro.obs.tracing.SpanTracer` (if a trace path
   was requested) so the permanent instrumentation sites in the stores
   light up,
2. builds a :class:`~repro.obs.metrics.MetricsRegistry`, registers the
   connector's store gauges, and starts a
   :class:`~repro.obs.metrics.Sampler` thread (if a metrics path or
   progress view was requested), and
3. yields the shared :class:`~repro.obs.metrics.ReplayProgress` that
   the replay loop tees per-op latencies into.

Teardown runs in a ``finally``: the sampler takes its final sample and
closes its file, the tracer is uninstalled and exported, and the TTY
progress line is terminated -- even when the replay died on an
injected crash or a real exception, so telemetry output is always
complete and well-formed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import IO, Optional

from . import tracing
from .dashboard import ProgressView
from .metrics import MetricsRegistry, ReplayProgress, Sampler, register_store


class ReplayTelemetry:
    """Configuration for recording a replay; reusable across runs."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        progress_stream: Optional[IO[str]] = None,
        interval_ms: float = 100.0,
        tracer_capacity: int = 65536,
        meta: Optional[dict] = None,
    ) -> None:
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.progress_stream = progress_stream
        self.interval_ms = interval_ms
        self.tracer_capacity = tracer_capacity
        self.meta = meta or {}
        #: the most recent session's tracer/sampler, for inspection
        self.last_tracer: Optional[tracing.SpanTracer] = None
        self.last_sampler: Optional[Sampler] = None

    @property
    def wants_progress(self) -> bool:
        """True when the replay loop should tee latencies into a
        :class:`ReplayProgress` (any metrics or live view requested)."""
        return self.metrics_path is not None or self.progress_stream is not None

    @contextmanager
    def session(self, connector, total_ops: int, store_name: str = ""):
        """Record one replay; yields the shared progress object.

        ``connector`` may be any connector or store (gauges are
        discovered by duck typing); ``total_ops`` sizes the progress
        fraction.  Yields ``None`` for the progress when no metrics or
        view were requested -- the replay loop then skips the tee
        entirely and runs its unmodified fast path.
        """
        name = store_name or getattr(connector, "name", "")
        tracer = None
        if self.trace_path is not None:
            tracer = tracing.install(tracing.SpanTracer(self.tracer_capacity))
            self.last_tracer = tracer
        progress: Optional[ReplayProgress] = None
        sampler: Optional[Sampler] = None
        view: Optional[ProgressView] = None
        if self.wants_progress:
            from ..faults.gate import GatedConnector  # deferred: cycle

            registry = MetricsRegistry()
            # the gauges are the gated connector's, not the gate's
            register_store(
                registry,
                connector.inner if isinstance(connector, GatedConnector) else connector,
            )
            progress = ReplayProgress(total_ops)
            if self.progress_stream is not None:
                view = ProgressView(self.progress_stream, store=name)
            sampler = Sampler(
                registry,
                progress,
                sink=self.metrics_path,
                interval_ms=self.interval_ms,
                on_sample=view,
                store=name,
                meta=self.meta,
            )
            self.last_sampler = sampler
            sampler.start()
        try:
            yield progress
        finally:
            if sampler is not None:
                sampler.stop()
            if view is not None:
                view.finish()
            if tracer is not None:
                if tracing.active() is tracer:
                    tracing.uninstall()
                tracer.export(self.trace_path)
