"""The serving queue that coalesces requests into engine batches.

Concurrent ``classify``/``match`` traffic arrives one function at a
time, but the engine's entire advantage — exact dedup, kernel-batched
pre-keys, membership probes against a shared ``known`` set — only
materializes over *batches*.  The :class:`MicroBatcher` bridges the
two by dispatching on idle ("group commit"): submitted tables join one
FIFO queue, and a single runner task hands the engine thread up to
``max_batch`` of them per
:meth:`~repro.engine.ClassificationEngine.classify` call, looping until
the queue is empty.  An idle engine takes a lone table at once; tables
that arrive while a batch runs leave together as the next batch.  Batch
size therefore follows load, with no window to tune.  A batch may mix
support widths, since the engine groups by width itself.

Three properties the server leans on:

* **Bounded.**  Admission is checked against ``max_pending`` *before*
  a table enters the queue; an overflowing submit raises
  :class:`OverloadedError` immediately (the server turns that into a
  429-style ``overloaded`` reply).  Memory is bounded by
  ``max_pending`` tables no matter what clients do.
* **Off-loop classification.**  The engine is CPU-bound pure Python,
  so batches run on a single dedicated executor thread; the event
  loop keeps accepting, parsing, and queueing while a batch computes.
  One thread (not a pool) also serializes every engine/store touch,
  so no lock discipline leaks out of this module.
* **Deterministic admission accounting.**  ``pending`` counts tables
  from admission until their future resolves, so drain can wait for
  exactly the work it admitted.

Batching disabled (``max_batch=1``) degenerates to one engine call per
table through the very same code path — the benchmark's on/off
comparison toggles a number, not code.

Tracing: when the server hands the batcher a tracer, every engine
chunk runs under a root ``serve.batch`` span that
:meth:`~repro.obs.trace.Span.add_link`-s the request span of each
coalesced table (with its wire-level ``trace_id``), so a slow batch in
a flight dump is attributable request-by-request.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from repro.boolfunc.truthtable import TruthTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.classifier import ClassificationEngine, ClassKey

__all__ = ["MicroBatcher", "OverloadedError", "BATCH_FILL_BUCKETS"]

BATCH_FILL_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class OverloadedError(Exception):
    """The bounded request queue is full; shed load instead of growing."""


class _Slot:
    """One admitted table awaiting its class key."""

    __slots__ = ("table", "future", "span")

    def __init__(self, table: TruthTable, future: "asyncio.Future", span=None):
        self.table = table
        self.future = future
        self.span = span  # the submitting request's span (for batch links)


class MicroBatcher:
    """Coalesce concurrent table submissions into engine batches."""

    def __init__(
        self,
        engine: "ClassificationEngine",
        max_batch: int = 128,
        max_pending: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.engine = engine
        self.max_batch = max(1, max_batch)
        self.max_pending = max_pending
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="grm-serve-engine"
        )
        self._queue: Deque[_Slot] = deque()
        self._runner: Optional[asyncio.Task] = None
        self._pending = 0
        self._closed = False

    # -- introspection ---------------------------------------------------

    @property
    def pending(self) -> int:
        """Tables admitted and not yet resolved (queued or classifying)."""
        return self._pending

    @property
    def queued(self) -> int:
        """Tables waiting in the queue (not yet handed to the engine)."""
        return len(self._queue)

    # -- admission -------------------------------------------------------

    async def submit(
        self, tables: Sequence[TruthTable], span=None
    ) -> List["ClassKey"]:
        """Admit ``tables`` (all of one request) and await their class keys.

        All-or-nothing: either every table is admitted or
        :class:`OverloadedError` is raised and nothing was queued, so a
        ``match`` request can never deadlock half-admitted.  ``span`` is
        the submitting request's span; the batch span that eventually
        serves each table links back to it.
        """
        if self._closed:
            raise OverloadedError("batcher is closed")
        if not tables:
            return []
        if self._pending + len(tables) > self.max_pending:
            self.metrics.counter("serve.overloaded").inc()
            raise OverloadedError(
                f"{self._pending} tables pending (bound {self.max_pending})"
            )
        loop = asyncio.get_running_loop()
        self._pending += len(tables)
        futures: List[asyncio.Future] = []
        for table in tables:
            future = loop.create_future()
            futures.append(future)
            self._queue.append(_Slot(table, future, span))
        self.metrics.gauge("serve.queue_depth").set(self.queued)
        if self._runner is None:
            self._runner = loop.create_task(self._run())
        try:
            return list(await asyncio.gather(*futures))
        finally:
            self._pending -= len(tables)

    # -- dispatch --------------------------------------------------------

    async def _run(self) -> None:
        """Hand the engine thread queued chunks until the queue is empty."""
        try:
            while self._queue:
                count = min(self.max_batch, len(self._queue))
                chunk = [self._queue.popleft() for _ in range(count)]
                self.metrics.gauge("serve.queue_depth").set(self.queued)
                await self._run_chunk(chunk)
        finally:
            self._runner = None

    async def _run_chunk(self, chunk: List[_Slot]) -> None:
        tables = [slot.table for slot in chunk]
        self.metrics.counter("serve.batcher.batches").inc()
        self.metrics.counter("serve.batcher.tables").inc(len(chunk))
        self.metrics.histogram(
            "serve.batch_fill", edges=BATCH_FILL_BUCKETS
        ).observe(len(chunk))
        # Root span: it stays open across the executor await, where
        # stack-nested spans would tangle with concurrent requests.
        batch_span = self.tracer.span("serve.batch", root=True, fill=len(chunk))
        if batch_span.recording:
            for slot in chunk:
                sp = slot.span
                if sp is not None and sp.recording:
                    batch_span.add_link(sp.span_id, sp.trace_id)
        with batch_span:
            t0 = time.perf_counter()
            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    self.executor, self.engine.classify, tables
                )
            except Exception as exc:  # engine failure fails the chunk, not the server
                for slot in chunk:
                    if not slot.future.done():
                        slot.future.set_exception(exc)
                return
        self.metrics.counter("serve.batcher.classify_seconds").inc(
            time.perf_counter() - t0
        )
        keys: Dict[int, "ClassKey"] = {}
        for key, idxs in result.members.items():
            for i in idxs:
                keys[i] = key
        for i, slot in enumerate(chunk):
            if not slot.future.done():
                slot.future.set_result(keys[i])

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> None:
        """Wait for the runner to empty the queue.

        The shutdown half of the queue: after ``drain`` returns, every
        admitted table's future is resolved (with a key or an error)
        and no batch is running.
        """
        while self._runner is not None:
            await asyncio.wait([self._runner])

    def close(self) -> None:
        """Reject further submits and release the engine thread."""
        self._closed = True
        self.executor.shutdown(wait=True)
