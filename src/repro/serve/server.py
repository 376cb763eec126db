"""The prediction service: layered cache, single-flight, HTTP front-end.

:class:`PredictionService` answers canonical prediction requests
(:mod:`repro.serve.protocol`) through a three-tier hierarchy:

1. **memory** — the fingerprint-keyed :class:`~repro.serve.cache.LRUCache`,
2. **store** — the shared :class:`~repro.experiments.ExperimentStore`
   (the sweep engine's store short-circuit reads it once per point; the
   batch's per-item ``source`` attribution tells the serve layer it
   hit), and
3. **computed** — a real simulation, reached only through the batching
   window: misses coalesce into one :func:`repro.sweep.run_point_batch`
   call per window, which hands each machine/UQ group's misses to the
   sweep's chunk evaluator in the server process — no executor
   decision, no process pool.

Concurrent identical misses are *single-flighted*: the first becomes the
batch leader, later arrivals attach to the same future (tier
``inflight``) and every response carries the identical entry digest.
Failures resolve the futures exceptionally and cache nothing, so a
transient error never poisons the keyspace.

Thread discipline
-----------------
The repo's :class:`~repro.obs.Tracer` is deliberately not thread-safe,
so the serve layer funnels *every* ambient-tracer emission through one
internal lock: request threads take it only for their two per-request
spans, and the batcher — whose batches are already serialised by its
single worker thread — holds it across the whole batch evaluation so
kernel emissions never interleave with request spans.  Service
statistics (tier tallies, latency quantiles) use plain lock-protected
counters and work with tracing disabled.

The HTTP front-end is a stdlib ``ThreadingHTTPServer`` speaking JSON
(``POST /v1/predict``, ``GET /healthz``, ``GET /v1/stats``).  Tests
drive the very same handler hermetically over in-memory streams — no
sockets in tier 1 (see ``tests/test_serve_server.py``).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping, Optional

from ..core.costmodel import CalibratedCostModel
from ..core.loggp import MEIKO_CS2, LogGPParameters
from ..obs.events import WALL_TRACK, get_tracer
from ..obs.log import log_event
from ..obs.manifest import RunRecord, loggp_dict
from ..obs.metrics import MetricsRegistry, QuantileTracker
from ..obs.telemetry import TraceContext
from ..sweep.batch import BatchItem, run_point_batch
from ..sweep.points import SweepPoint
from .batcher import Batcher, PendingRequest
from .cache import CacheEntry, LRUCache
from .protocol import SCHEMA, PredictRequest, ProtocolError, point_digest

__all__ = ["ServeConfig", "PredictionService", "make_handler", "serve_http"]

#: largest ``POST`` body read; a prediction request is a few hundred bytes
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """How one :class:`PredictionService` is wired.

    ``store_dir`` enables the store tier (``None``: memory + compute
    only); misses are computed in the server process.  ``manifest_dir``
    enables per-request and per-batch run manifests.  ``machine`` fills
    machine fields requests omit.
    """

    store_dir: Optional[str] = None
    cache_size: int = 4096
    batch_window_s: float = 0.01
    batch_max: int = 64
    manifest_dir: Optional[str] = None
    machine: LogGPParameters = MEIKO_CS2
    #: how long one request may wait on its batch before erroring out
    request_timeout_s: Optional[float] = 300.0


class PredictionService:
    """The in-process prediction server (transport-agnostic core).

    ``handle(doc)`` is the entire API surface: one loose JSON request
    document in, one JSON-ready response document out.  The HTTP handler
    and the in-process client are both thin shims over it.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cost_model=None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.cost_model = (
            cost_model if cost_model is not None else CalibratedCostModel()
        )
        self.cache = LRUCache(self.config.cache_size)
        #: fingerprint -> PendingRequest of the in-flight computation
        self._inflight: dict[str, PendingRequest] = {}
        self._flight_lock = threading.Lock()
        #: serialises every ambient-tracer emission (see module docstring)
        self._obs_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._tiers = {"memory": 0, "store": 0, "computed": 0, "inflight": 0}
        self._requests = 0
        self._errors = 0
        self._batches = 0
        self._batch_points = 0
        self._batch_max_size = 0
        #: batch size -> occurrence count (the /v1/stats distribution)
        self._batch_sizes: dict[int, int] = {}
        self._request_seq = 0
        #: per-(parent, name) child sequence for request trace contexts
        self._trace_seq = 0
        self._started_unix = time.time()
        #: service-local metrics registry, exposed at GET /metrics
        self.metrics = MetricsRegistry()
        #: the service's own trace root (requests without an upstream
        #: context and without an ambient tracer context parent here)
        self.trace_root = TraceContext.root("serve", self._started_unix)
        self.latency_us = QuantileTracker("serve.request_latency_us")
        self._closed = False
        self._batcher = Batcher(
            self._execute_batch,
            window_s=self.config.batch_window_s,
            batch_max=self.config.batch_max,
        )

    # -- request path --------------------------------------------------------
    def handle(self, doc: Mapping) -> dict:
        """Answer one request document (thread-safe, blocking on misses)."""
        t0 = time.perf_counter()
        try:
            request = PredictRequest.from_doc(
                doc, machine_defaults=self.config.machine
            )
        except ProtocolError as exc:
            return self._error_response(400, str(exc))
        key = request.fingerprint(self.cost_model)
        parent_ctx, req_ctx = self._request_context(request)
        c0 = time.perf_counter()
        entry = self.cache.get(key)
        tier = "memory"
        if entry is None:
            kind, payload = self._resolve_miss(key, request, req_ctx)
            if kind == "hit":
                entry = payload
            else:
                try:
                    entry = payload.result(timeout=self.config.request_timeout_s)
                except Exception as exc:  # noqa: BLE001 - becomes a 500 doc
                    return self._error_response(
                        500, f"prediction failed: {exc}", fingerprint=key
                    )
                tier = entry.tier if kind == "leader" else "inflight"
        c1 = time.perf_counter()
        self._emit_span(
            "serve.cache", c0, c1, tier=tier, fingerprint=key,
            **self._span_ids(req_ctx.child("serve.cache", 0), req_ctx),
        )
        manifest = self._write_request_manifest(request, key, entry, tier)
        t1 = time.perf_counter()
        latency_us = (t1 - t0) * 1e6
        with self._stats_lock:
            self._requests += 1
            self._tiers[tier] += 1
            self.latency_us.observe(latency_us)
            self.metrics.counter("serve.requests").inc()
            self.metrics.counter(f"serve.tier.{tier}").inc()
            self.metrics.histogram("serve.latency_us").observe(latency_us)
        self._emit_span(
            "serve.request", t0, t1, tier=tier,
            **self._span_ids(req_ctx, parent_ctx),
        )
        self._emit_count(f"serve.cache.{tier}")
        log_event(
            "serve.request", tier=tier, fingerprint=key,
            latency_us=latency_us,
            trace_id=req_ctx.trace_id, span_id=req_ctx.span_id,
        )
        return self._ok_response(
            request, key, entry, tier, manifest, latency_us,
            req_ctx=req_ctx, parent_ctx=parent_ctx,
        )

    def _request_context(self, request):
        """The trace node of one request and the parent it hangs under.

        Parent resolution order: the client's ``trace`` field (an
        upstream system's context), else the ambient tracer's installed
        context (a traced ``repro serve`` run), else the service's own
        root.  The child sequence is a service-global counter, so every
        request span id is unique even across identical requests.
        """
        if request.trace is not None:
            parent = TraceContext(
                trace_id=request.trace[0], span_id=request.trace[1]
            )
        else:
            parent = getattr(get_tracer(), "context", None) or self.trace_root
        with self._stats_lock:
            seq = self._trace_seq
            self._trace_seq += 1
        return parent, parent.child("serve.request", seq)

    @staticmethod
    def _span_ids(ctx, parent) -> dict:
        return {
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "parent_span_id": parent.span_id,
        }

    def _resolve_miss(self, key: str, request: PredictRequest, ctx=None):
        """Single-flight gate: join the in-flight future or lead a new one.

        Returns ``("hit", entry)`` when a batch landed between the
        caller's cache miss and this lock acquisition, ``("follower",
        future)`` when the key is already being computed, or ``("leader",
        future)`` after submitting a fresh pending request to the
        batcher.
        """
        with self._flight_lock:
            entry = self.cache.get(key)
            if entry is not None:
                return "hit", entry
            pending = self._inflight.get(key)
            if pending is not None:
                return "follower", pending.future
            pending = PendingRequest(key, request, ctx=ctx)
            self._inflight[key] = pending
        self._batcher.submit(pending)
        return "leader", pending.future

    # -- batch execution (batcher worker thread) -----------------------------
    def _execute_batch(self, batch) -> None:
        """Run one coalesced batch and resolve every pending future.

        Ordering is load-bearing: entries are cached *before* the
        in-flight keys are released (so no key is ever neither cached nor
        in flight), and the ``serve.batch`` span is emitted *before* any
        future resolves (so a response implies its batch span is already
        in the buffer — the single-flight suite counts on it).  Errors
        release the keys first, then fail the futures, caching nothing.
        """
        t0 = time.perf_counter()
        with self._stats_lock:
            self._batches += 1
            batch_id = self._batches
        items = [
            BatchItem(
                point=SweepPoint(
                    n=p.request.n,
                    b=p.request.b,
                    layout=p.request.layout,
                    seed=p.request.seed,
                    with_measured=p.request.with_measured,
                ),
                params=p.request.params,
                uq=p.request.uq,
            )
            for p in batch
        ]
        # the batch span hangs under the *leading* request's context, so
        # the whole coalesced computation stitches into one request tree
        leader_ctx = batch[0].ctx
        batch_ctx = (
            leader_ctx.child("serve.batch", batch_id)
            if leader_ctx is not None
            else None
        )
        tracer = get_tracer()
        try:
            # hold the emission lock and install the batch context so
            # every span the evaluation emits (kernel, DES) parents under it
            with self._obs_lock:
                prev_ctx = tracer.context
                if tracer.enabled:
                    tracer.context = batch_ctx
                try:
                    result = run_point_batch(
                        items, self.cost_model, store_dir=self.config.store_dir
                    )
                finally:
                    tracer.context = prev_ctx
        except Exception as exc:  # noqa: BLE001 - fanned out to every waiter
            with self._flight_lock:
                for p in batch:
                    self._inflight.pop(p.key, None)
            self._emit_count("serve.batch.error")
            with self._stats_lock:
                self.metrics.counter("serve.batch_errors").inc()
            for p in batch:
                p.future.set_exception(exc)
            return
        t1 = time.perf_counter()
        manifest = self._write_batch_manifest(batch_id, batch, result, t1 - t0)
        batch_info = {"id": batch_id, "points": len(batch), "manifest": manifest}
        resolved = []
        for p, summary, source in zip(batch, result.summaries, result.sources):
            row = dict(summary.__dict__)
            tier = "store" if source == "cached" else "computed"
            entry = CacheEntry(
                row=row,
                digest=point_digest(row),
                tier=tier,
                manifest=manifest,
                batch=batch_info,
            )
            self.cache.put(p.key, entry)
            resolved.append((p, entry))
        with self._stats_lock:
            self._batch_points += len(batch)
            if len(batch) > self._batch_max_size:
                self._batch_max_size = len(batch)
            self._batch_sizes[len(batch)] = self._batch_sizes.get(len(batch), 0) + 1
            self.metrics.counter("serve.batches").inc()
            self.metrics.counter("serve.batch_points").inc(len(batch))
            self.metrics.histogram("serve.batch_size").observe(len(batch))
        trace_attrs = (
            self._span_ids(batch_ctx, leader_ctx) if batch_ctx is not None else {}
        )
        self._emit_span(
            "serve.batch", t0, t1,
            id=batch_id, points=len(batch),
            computed=result.computed, cached=result.cached,
            **trace_attrs,
        )
        log_event(
            "serve.batch", id=batch_id, points=len(batch),
            computed=result.computed, cached=result.cached,
            **(
                {"trace_id": batch_ctx.trace_id, "span_id": batch_ctx.span_id}
                if batch_ctx is not None
                else {}
            ),
        )
        self._emit_count("serve.batch.count")
        self._emit_count("serve.batch.points", len(batch))
        with self._flight_lock:
            for p, _ in resolved:
                self._inflight.pop(p.key, None)
        for p, entry in resolved:
            p.future.set_result(entry)

    # -- responses -----------------------------------------------------------
    def _ok_response(
        self, request, key, entry, tier, manifest, latency_us,
        req_ctx=None, parent_ctx=None,
    ):
        row = dict(entry.row)
        if request.engine == "standard":
            prediction = {"standard": row["pred_standard_total"]}
        elif request.engine == "worstcase":
            prediction = {"worstcase": row["pred_worstcase_total"]}
        else:
            prediction = {
                "standard": row["pred_standard_total"],
                "worstcase": row["pred_worstcase_total"],
            }
        return {
            "schema": SCHEMA,
            "status": "ok",
            "request": request.to_doc(),
            "fingerprint": key,
            "cache": {"tier": tier, "hit": tier != "computed"},
            "prediction_us": prediction,
            "result": row,
            "digest": entry.digest,
            "manifest": manifest,
            "batch": entry.batch,
            "latency_us": latency_us,
            "trace": (
                {
                    "trace_id": req_ctx.trace_id,
                    "span_id": req_ctx.span_id,
                    "parent_span_id": (
                        parent_ctx.span_id if parent_ctx is not None else None
                    ),
                }
                if req_ctx is not None
                else None
            ),
        }

    def _error_response(self, code: int, message: str, **extra) -> dict:
        with self._stats_lock:
            self._requests += 1
            self._errors += 1
            self.metrics.counter("serve.requests").inc()
            self.metrics.counter("serve.errors").inc()
        self._emit_count("serve.request.error")
        doc = {"schema": SCHEMA, "status": "error", "code": code, "error": message}
        doc.update(extra)
        return doc

    # -- manifests -----------------------------------------------------------
    def _write_request_manifest(self, request, key, entry, tier) -> Optional[str]:
        if self.config.manifest_dir is None:
            return None
        with self._stats_lock:
            self._request_seq += 1
            seq = self._request_seq
        rec = RunRecord.begin("serve.request")
        rec.note(
            engine="serve",
            params=loggp_dict(request.params),
            workload=request.to_doc(),
            makespan_us=entry.row.get("pred_standard_total"),
            fingerprint=key,
            digest=entry.digest,
            cache_tier=tier,
            batch=entry.batch,
        )
        rec.finish(status="ok")
        path = Path(self.config.manifest_dir) / f"serve-req-{seq:06d}.json"
        return str(rec.write(path))

    def _write_batch_manifest(self, batch_id, batch, result, wall_s) -> Optional[str]:
        if self.config.manifest_dir is None:
            return None
        rec = RunRecord.begin("serve.batch")
        rec.note(
            engine="serve",
            workload={
                "batch_id": batch_id,
                "points": [p.request.describe() for p in batch],
            },
            batch={
                "id": batch_id,
                "points": len(batch),
                "computed": result.computed,
                "cached": result.cached,
                "groups": result.groups,
                "wall_s": wall_s,
            },
        )
        rec.finish(status="ok")
        path = Path(self.config.manifest_dir) / f"serve-batch-{batch_id:06d}.json"
        return str(rec.write(path))

    # -- observability -------------------------------------------------------
    def _emit_span(self, name: str, t0: float, t1: float, **attrs) -> None:
        """One wall-track slice through the service's emission lock."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        with self._obs_lock:
            tracer.slice(
                name, proc=-1, ts=t0 * 1e6, dur=(t1 - t0) * 1e6,
                track=WALL_TRACK, **attrs,
            )

    def _emit_count(self, name: str, value: float = 1.0) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        with self._obs_lock:
            tracer.count(name, value)

    # -- introspection and lifecycle -----------------------------------------
    def stats(self) -> dict:
        """JSON-ready service statistics (tiers, batches, latency quantiles).

        The tier tallies are the authoritative hit accounting (the LRU's
        own counters tally *lookups*, which exceed requests because the
        single-flight gate re-checks under its lock).
        """
        with self._stats_lock:
            tiers = dict(self._tiers)
            requests = self._requests
            errors = self._errors
            batches = {
                "count": self._batches,
                "points": self._batch_points,
                "max_size": self._batch_max_size,
                # JSON object keys are strings; sorted for stable output
                "sizes": {
                    str(size): count
                    for size, count in sorted(self._batch_sizes.items())
                },
            }
            latency = self.latency_us.snapshot(quantiles=(0.5, 0.9, 0.99))
        with self._flight_lock:
            inflight = len(self._inflight)
        ok = requests - errors
        hits = tiers["memory"] + tiers["store"] + tiers["inflight"]
        # per-tier hit/miss: a request *misses* a tier when it had to fall
        # through to a deeper one (inflight joins skip the deeper tiers)
        cache_tiers = {
            "memory": {"hits": tiers["memory"], "misses": ok - tiers["memory"]},
            "store": {"hits": tiers["store"], "misses": tiers["computed"]},
            "inflight": {"dedups": tiers["inflight"]},
        }
        return {
            "schema": SCHEMA,
            "uptime_s": time.time() - self._started_unix,
            "requests": {"total": requests, "ok": ok, "error": errors},
            "tiers": tiers,
            "cache_tiers": cache_tiers,
            "hit_rate": (hits / ok) if ok else None,
            "batches": batches,
            "cache": self.cache.stats(),
            "inflight": inflight,
            "latency_us": latency,
            "store_dir": self.config.store_dir,
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` document (Prometheus text exposition).

        One registry view folded from three sources: the service's own
        counters/histograms, the ambient tracer's registry when tracing
        is enabled (sweep decisions, event tallies — read under the
        emission lock), and point-in-time gauges (uptime, in-flight
        keys, LRU occupancy).  Latency quantiles ride as extra samples —
        they come from a bounded window, not an additive metric, so they
        stay out of the registry proper.
        """
        view = MetricsRegistry()
        with self._stats_lock:
            view.merge(self.metrics.snapshot())
            latency = self.latency_us.snapshot(quantiles=(0.5, 0.9, 0.99))
        tracer = get_tracer()
        if tracer.enabled:
            with self._obs_lock:
                view.merge(tracer.metrics.snapshot())
        with self._flight_lock:
            inflight = len(self._inflight)
        view.gauge("serve.uptime_s").set(time.time() - self._started_unix)
        view.gauge("serve.inflight").set(inflight)
        for name, value in self.cache.stats().items():
            if isinstance(value, (int, float)):
                view.gauge(f"serve.cache.{name}").set(value)
        extras = [
            ("repro_serve_latency_us", {"quantile": q}, latency[key])
            for q, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))
            if latency.get(key) is not None
        ]
        return view.to_prometheus(extra_samples=extras)

    def close(self) -> None:
        """Stop the batcher thread (idempotent; pending batches drain)."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- HTTP front-end ----------------------------------------------------------
class _ServeHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP shim around one :class:`PredictionService`.

    Subclasses produced by :func:`make_handler` bind ``service``.  The
    handler is deliberately transport-thin so tests can drive it over
    in-memory streams (``handle_one_request`` against ``BytesIO``) —
    byte-identical to what a socket client sees.
    """

    service: PredictionService
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: headers and body leave in separate sends, and with
    #: Nagle on the body waits for the client's delayed ACK — ~40 ms per
    #: response on a kept-alive connection
    disable_nagle_algorithm = True

    def _reply(self, code: int, doc: dict, close: bool = False) -> None:
        body = json.dumps(doc).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also ends keep-alive
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, code: int, error: str, close: bool = False) -> None:
        self._reply(
            code,
            {"schema": SCHEMA, "status": "error", "code": code, "error": error},
            close=close,
        )

    def _reply_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        # drain the body before routing: an unread body would be parsed
        # as the next request line by the keep-alive loop.  A body that
        # cannot be drained — chunked, bad or oversized length — ends the
        # connection.
        if "Transfer-Encoding" in self.headers:
            self._reply_error(
                411, "send the body with a Content-Length", close=True
            )
            return
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._reply_error(
                400, f"bad Content-Length {declared!r}", close=True
            )
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._reply_error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                close=True,
            )
            return
        raw = self.rfile.read(length) if length > 0 else b""
        if self.path != "/v1/predict":
            self._reply_error(404, f"unknown path {self.path!r}")
            return
        try:
            doc = json.loads(raw or b"null")
        except ValueError as exc:
            self._reply_error(400, f"request body is not JSON: {exc}")
            return
        response = self.service.handle(doc)
        code = 200 if response.get("status") == "ok" else int(response.get("code", 500))
        self._reply(code, response)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/healthz":
            self._reply(200, {"schema": SCHEMA, "status": "ok"})
        elif self.path == "/v1/stats":
            self._reply(200, self.service.stats())
        elif self.path == "/metrics":
            self._reply_text(
                200, self.service.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._reply_error(404, f"unknown path {self.path!r}")

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib API
        pass  # request logging goes through the tracer, not stderr


def make_handler(service: PredictionService):
    """A request-handler class bound to ``service``."""
    return type("BoundServeHandler", (_ServeHandler,), {"service": service})


def serve_http(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8787,
) -> ThreadingHTTPServer:
    """A ready ``ThreadingHTTPServer`` (caller runs ``serve_forever``)."""
    server = ThreadingHTTPServer((host, port), make_handler(service))
    server.daemon_threads = True
    return server
