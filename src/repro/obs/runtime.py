"""Process-global observability state and its on/off gate.

Instrumented call sites across the system read two module globals::

    from repro.obs import runtime as _obs
    ...
    if _obs.enabled:
        _obs.registry.counter("store.shard_reads").inc()
    tr = _obs.tracer
    if tr.enabled:
        tr.event("prune", reason="signature", family="weights")

``enabled`` is a plain bool and ``tracer`` defaults to the shared
no-op :data:`~repro.obs.trace.NULL_TRACER`, so the disabled cost of an
instrumentation site is one attribute load and one falsy branch — no
objects, no formatting, no locks.  The CLI's ``--trace/--metrics/
--profile`` options call :func:`enable`; tests use :func:`capture` to
get an isolated registry + in-memory tracer and restore the previous
state afterwards.

The registry is process-local.  The batch engine counts each batch in
its own :class:`~repro.engine.classifier.EngineStats` and adds the
nonzero fields here as ``engine.*`` counters when the batch completes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    RingBufferSink,
    TRACE_DETAIL,
    Tracer,
)

__all__ = [
    "enabled",
    "registry",
    "tracer",
    "metrics_path",
    "enable",
    "flush",
    "disable",
    "capture",
    "ForwardingSink",
]

enabled: bool = False
registry: MetricsRegistry = MetricsRegistry()
tracer: Tracer = NULL_TRACER
metrics_path = None  # registered dump target for flush()/disable()


class ForwardingSink:
    """Forwards finished records into whatever the *current* global
    tracer's sinks are — no-op while the global tracer is off.

    The serving layer keeps its own always-on tracer (request + batch
    spans must reach the flight recorder even with ``--trace`` off);
    attaching one of these alongside the flight ring makes those same
    spans appear in any globally-enabled sink (a ``--trace`` JSONL
    file, a test's ``capture()`` ring) without double-tracking state.
    Safe because span ids are process-globally unique (see
    :mod:`repro.obs.trace`), so forwarded records never collide with
    records the global tracer emitted itself.
    """

    def emit(self, record) -> None:
        t = tracer
        if t.level > 0:  # TRACE_OFF
            t._emit(record)


def enable(
    trace: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    dump_metrics_to=None,
) -> None:
    """Turn observability on, optionally swapping the tracer/registry.

    ``dump_metrics_to`` registers a JSON path the registry snapshot is
    written to on every :func:`flush` (and on :func:`disable`), so a
    long-running process can persist counters without plumbing the
    path to each shutdown site.
    """
    global enabled, registry, tracer, metrics_path
    if metrics is not None:
        registry = metrics
    if trace is not None:
        tracer = trace
    if dump_metrics_to is not None:
        metrics_path = dump_metrics_to
    enabled = True


def flush() -> None:
    """Persist what can be persisted without turning observability off.

    Flushes every tracer sink (the JSONL file sink's buffer reaches
    disk) and, when a dump path was registered via ``enable``, writes
    the current metrics snapshot there.  Safe to call repeatedly; the
    drain step of graceful server shutdown calls this so spans and
    counters recorded just before SIGTERM are never lost.
    """
    if tracer is not NULL_TRACER:
        tracer.flush()
    if metrics_path is not None:
        registry.dump_json(metrics_path)


def disable() -> None:
    """Back to the near-zero-cost default state (tracer = no-op)."""
    global enabled, tracer, metrics_path
    flush()
    enabled = False
    if tracer is not NULL_TRACER:
        tracer.close()
    tracer = NULL_TRACER
    metrics_path = None


@contextmanager
def capture(
    level: int = TRACE_DETAIL, ring_capacity: int = 65536
) -> Iterator[Tuple[MetricsRegistry, RingBufferSink]]:
    """Scoped observability: fresh registry + in-memory tracer.

    Yields ``(registry, ring_sink)`` and restores the previous global
    state on exit — the building block of ``match --explain`` and the
    obs test suite.
    """
    global enabled, registry, tracer, metrics_path
    prev = (enabled, registry, tracer, metrics_path)
    ring = RingBufferSink(ring_capacity)
    fresh = MetricsRegistry()
    try:
        enable(trace=Tracer([ring], level=level), metrics=fresh)
        metrics_path = None  # scoped state never dumps to an outer path
        yield fresh, ring
    finally:
        enabled, registry, tracer, metrics_path = prev
