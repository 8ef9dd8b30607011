"""Micro-batch coalescing of concurrent single-carrier requests.

During a launch storm many independent clients ask for one carrier
each within the same few milliseconds.  Serving them one-by-one pays
the per-call dispatch overhead N times; the engine's vectorized
columnar kernels are happiest when handed a batch.

The coalescer batches *naturally*: the shard worker's own busy time
sets the batch size, with no timer and no tuning knob.

* **Idle shard** — no flush of this coalescer is outstanding, so a
  submit flushes at once.  A lone sequential client pays no coalesce
  wait at all.
* **Busy shard** — a flush is still being served, so arrivals park in
  ``_pending``.
* **Completion** — when the outstanding batch settles (the flush
  callback's ``done``, relayed to the loop), the parked run flushes as
  one ``handle_batch`` call.  A storm therefore still coalesces: the
  longer the worker is busy, the more requests share the next flush.
* **Cap** — ``max_batch`` bounds every flush; a parked run that reaches
  it flushes even while the shard is busy, so the worker's queue never
  runs dry under a deep backlog.

Batch sizes are observed in ``repro_front_batch_size`` — the
distribution is the direct measure of how much coalescing the storm
achieved.

The coalescer is confined to the asyncio event loop (submit, flush and
``done`` all run there); only the flush *callback* hands work to a
shard thread.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Tuple

from repro.core.recommendation import RecommendRequest
from repro.obs import metrics as obs_metrics
from repro.serve.front.timings import RequestTimings

__all__ = ["Coalescer", "Entry"]

#: Batch-size histogram buckets (requests per flush).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Entry:
    """One coalesced request: the payload, the future its response
    resolves, and the observability context riding along — the
    request's trace context (``(trace_id, span_id)`` of its
    ``front.request`` span, or ``None``) and its
    :class:`~repro.serve.front.timings.RequestTimings`."""

    __slots__ = ("request", "future", "trace", "timings")

    def __init__(
        self,
        request: RecommendRequest,
        future: "asyncio.Future",
        trace: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ):
        self.request = request
        self.future = future
        self.trace = trace
        self.timings = timings


class Coalescer:
    """Accumulates one shard's requests into micro-batches.

    ``flush(batch, done)`` hands one batch to the shard.  It must call
    ``done()`` on the event loop once the batch settles — served,
    errored or shed — or the shard stays busy and every later request
    parks forever.  ``done`` is idempotent; if ``flush`` itself raises,
    the coalescer fails the batch's futures and releases it.
    """

    def __init__(
        self,
        flush: Callable[[List[Entry], Callable[[], None]], None],
        max_batch: int,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._flush_fn = flush
        self.max_batch = max_batch
        self._loop = loop
        self._pending: List[Entry] = []
        #: Flushes handed to the shard and not yet settled.
        self._outstanding = 0
        self._batch_histogram = obs_metrics.histogram(
            "repro_front_batch_size",
            "Coalesced requests per shard batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._coalesced_counter = obs_metrics.counter(
            "repro_front_coalesced_total",
            "Requests that shared a flush with at least one other request",
        )
        # Distinct request targets per flush: the upper bound on how
        # many votes the downstream batch planner must compute, so
        # (batch size − distinct targets) is the dedup opportunity that
        # coalescing actually created.
        self._distinct_histogram = obs_metrics.histogram(
            "repro_front_batch_distinct_targets",
            "Distinct request labels per coalesced flush",
            buckets=BATCH_SIZE_BUCKETS,
        )

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def busy(self) -> bool:
        """True while a flush of this coalescer is still being served."""
        return self._outstanding > 0

    def _get_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    def submit(
        self,
        request: RecommendRequest,
        trace: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ) -> "asyncio.Future":
        """Queue one request; returns the future its result resolves.

        Flushes at once when the shard is idle (or the parked run hits
        ``max_batch``); otherwise the request parks until the
        outstanding batch settles.  ``trace``/``timings`` ride with the
        entry to the shard worker — a parked entry is flushed from
        another request's completion (no :mod:`contextvars`
        inheritance), so the context must travel explicitly.
        """
        future: asyncio.Future = self._get_loop().create_future()
        if timings is not None:
            timings.submitted = time.perf_counter()
        self._pending.append(Entry(request, future, trace, timings))
        if not self._outstanding or len(self._pending) >= self.max_batch:
            self.flush_now()
        return future

    def flush_now(self) -> int:
        """Flush the pending batch immediately; returns its size.

        Submit flushes whenever the parked run reaches ``max_batch``,
        so a flush never exceeds the cap."""
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        flushed = time.perf_counter()
        for entry in batch:
            if entry.timings is not None:
                entry.timings.flushed = flushed
        self._batch_histogram.observe(float(len(batch)))
        if len(batch) > 1:
            self._coalesced_counter.inc(len(batch))
            labels = {
                label() if (label := getattr(entry.request, "label", None))
                else id(entry.request)
                for entry in batch
            }
            self._distinct_histogram.observe(float(len(labels)))
        self._outstanding += 1
        settled = False

        def done() -> None:
            nonlocal settled
            if settled:
                return
            settled = True
            self._outstanding -= 1
            if not self._outstanding:
                self.flush_now()

        try:
            self._flush_fn(batch, done)
        except Exception as exc:  # noqa: BLE001 - failed into the futures
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            done()
        return len(batch)

    def close(self) -> None:
        """Fail any parked entries (outstanding batches still settle)."""
        batch, self._pending = self._pending, []
        for entry in batch:
            if not entry.future.done():
                entry.future.set_exception(RuntimeError("coalescer closed"))
