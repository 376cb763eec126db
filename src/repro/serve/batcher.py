"""Request coalescing: the batching window behind the prediction server.

Misses arriving at the server are not each evaluated on their own.  The
first miss opens a *batching window*; every further miss landing inside
it (up to ``batch_max``) rides the same batch, which the server then
hands to one :func:`repro.sweep.run_point_batch` call — so a burst of
cold requests costs one store read per distinct point and one batch
kernel call per machine/UQ group (shared compiled plans, vectorized
lanes), not N.

The batcher owns exactly one worker thread, which gives the layer two
properties for free:

* **Batches are serialised.**  At most one batch executes at a time, so
  per-batch tracer emissions never interleave and the store tier sees
  one writer per server.
* **Resolution is exception-safe.**  The executor callback is
  responsible for resolving every pending future; whatever it leaves
  unresolved (including by raising) is failed with the raised exception,
  so a crashed batch turns into error responses — never hung clients.

Single-flight dedup (identical concurrent misses → one pending future)
lives in the server, *before* submission: the batcher only ever sees one
pending entry per fingerprint.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Sequence

__all__ = ["PendingRequest", "Batcher"]


class PendingRequest:
    """One in-flight miss: the canonical request plus its result future.

    ``ctx`` carries the leading request's
    :class:`~repro.obs.telemetry.TraceContext` (``None`` when untraced):
    the batch executor derives the ``serve.batch`` span id from the
    leader's context, which is how a served batch stitches into the
    request's distributed trace.
    """

    __slots__ = ("key", "request", "future", "submitted_s", "ctx")

    def __init__(self, key: str, request, ctx=None) -> None:
        self.key = key
        self.request = request
        self.future: Future = Future()
        self.submitted_s = time.perf_counter()
        self.ctx = ctx


class Batcher:
    """Collects pending misses into window-bounded batches on one thread.

    ``execute`` receives each batch (a non-empty list of
    :class:`PendingRequest`) and must resolve the futures itself — the
    batcher only guarantees that nothing stays unresolved afterwards.
    """

    _STOP = object()

    def __init__(
        self,
        execute: Callable[[Sequence[PendingRequest]], None],
        *,
        window_s: float = 0.01,
        batch_max: int = 64,
        name: str = "repro-serve-batcher",
    ):
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.window_s = window_s
        self.batch_max = batch_max
        self._execute = execute
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def submit(self, pending: PendingRequest) -> None:
        """Enqueue one miss (its window opens when the worker picks it up)."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        self._queue.put(pending)

    def close(self, timeout_s: float = 10.0) -> None:
        """Drain and stop the worker thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(self._STOP)
        self._thread.join(timeout=timeout_s)

    # -- worker --------------------------------------------------------------
    def _run(self) -> None:
        while True:
            head = self._queue.get()
            if head is self._STOP:
                return
            batch = [head]
            deadline = time.perf_counter() + self.window_s
            stop = False
            while len(batch) < self.batch_max:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is self._STOP:
                    stop = True
                    break
                batch.append(item)
            self._dispatch(batch)
            if stop:
                return

    def _dispatch(self, batch: list) -> None:
        try:
            self._execute(batch)
        except BaseException as exc:  # noqa: BLE001 - must never kill the worker
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        else:
            for pending in batch:  # pragma: no cover - defensive backstop
                if not pending.future.done():
                    pending.future.set_exception(
                        RuntimeError(
                            f"batch executor left request {pending.key} unresolved"
                        )
                    )
