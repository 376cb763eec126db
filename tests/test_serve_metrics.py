"""The serve observability surface: ``/v1/stats``, ``/metrics``, trace stitching.

Three contracts:

* **Stats schema** — ``/v1/stats`` reports uptime, per-tier cache
  hit/miss accounting and the batch-size distribution (the regression
  pin for satellite dashboards).
* **Metrics exposition** — ``GET /metrics`` is valid Prometheus text:
  the in-repo strict linter accepts every line, and parsing it recovers
  the service's counters/histograms.
* **Request stitching** — every traced request produces a
  ``serve.request → serve.cache / serve.batch`` span tree with zero
  orphans; a client-supplied ``trace`` field re-parents the tree under
  the client's span and is echoed in the response.
"""

import io
import json

import pytest

from repro.obs import Tracer, tracing
from repro.obs.promtext import parse, parse_samples
from repro.obs.telemetry import TraceContext, validate_span_tree
from repro.serve import PredictionService, ServeConfig, make_handler

DOC = {"n": 120, "b": 30, "layout": "diagonal"}


def make_service(tmp_path, **overrides) -> PredictionService:
    overrides.setdefault("store_dir", str(tmp_path / "store"))
    overrides.setdefault("batch_window_s", 0.002)
    return PredictionService(ServeConfig(**overrides))


class _Channel:
    """An in-memory two-way byte stream standing in for a socket."""

    def __init__(self, raw: bytes):
        self._rf = io.BytesIO(raw)
        self.wf = io.BytesIO()

    def makefile(self, mode, *args, **kwargs):
        return self._rf if "r" in mode else self.wf

    def sendall(self, data):
        self.wf.write(data)

    def setsockopt(self, *args):  # TCP_NODELAY: nothing to delay in memory
        pass


def http_raw(service, method: str, path: str, body=None):
    """One request through the live handler; returns (status, headers, body)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body is not None:
        payload = json.dumps(body).encode()
        head += (
            f"Content-Length: {len(payload)}\r\n"
            "Content-Type: application/json\r\n\r\n"
        )
        raw = head.encode() + payload
    else:
        raw = (head + "\r\n").encode()
    channel = _Channel(raw)
    make_handler(service)(channel, ("127.0.0.1", 0), None)
    response = channel.wf.getvalue()
    head_block, _, response_body = response.partition(b"\r\n\r\n")
    lines = head_block.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, response_body


class TestStatsSchema:
    def test_stats_document_schema(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)          # computed
            service.handle(DOC)          # memory hit
            service.handle({**DOC, "b": 33})  # protocol error
            stats = service.stats()
        assert stats["uptime_s"] > 0
        assert stats["requests"] == {"total": 3, "ok": 2, "error": 1}
        assert stats["cache_tiers"] == {
            "memory": {"hits": 1, "misses": 1},
            "store": {"hits": 0, "misses": 1},
            "inflight": {"dedups": 0},
        }
        assert stats["batches"]["sizes"] == {"1": 1}
        assert stats["inflight"] == 0

    def test_store_tier_hit_accounting(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
        # a fresh service over the same store answers from tier 2
        with make_service(tmp_path) as reborn:
            reborn.handle(DOC)
            tiers = reborn.stats()["cache_tiers"]
        assert tiers["store"] == {"hits": 1, "misses": 0}
        assert tiers["memory"] == {"hits": 0, "misses": 1}

    def test_batch_size_distribution(self, tmp_path):
        docs = [{**DOC, "b": b} for b in (20, 30, 40)]
        with make_service(tmp_path, batch_window_s=0.25) as service:
            import threading
            barrier = threading.Barrier(len(docs))

            def shoot(doc):
                barrier.wait()
                service.handle(doc)

            threads = [threading.Thread(target=shoot, args=(d,)) for d in docs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            service.handle({**DOC, "b": 60})  # second, singleton batch
            sizes = service.stats()["batches"]["sizes"]
        assert sizes == {"3": 1, "1": 1}
        assert sum(int(k) * v for k, v in sizes.items()) == 4

    def test_stats_over_http_matches_handle(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
            status, headers, body = http_raw(service, "GET", "/v1/stats")
        assert status == 200
        doc = json.loads(body)
        assert doc["requests"]["ok"] == 1
        assert "cache_tiers" in doc and "uptime_s" in doc


class TestMetricsEndpoint:
    def test_metrics_parse_with_in_repo_parser(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
            service.handle(DOC)
            text = service.metrics_text()
        snap = parse(text)
        assert snap["counters"]["serve.requests"] == 2.0
        assert snap["counters"]["serve.tier.computed"] == 1.0
        assert snap["counters"]["serve.tier.memory"] == 1.0
        assert snap["counters"]["serve.batches"] == 1.0
        assert snap["histograms"]["serve.latency_us"]["count"] == 2
        assert snap["histograms"]["serve.batch_size"]["max"] == 1.0
        assert snap["gauges"]["serve.uptime_s"] > 0

    def test_metrics_lint_every_line(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
            samples = parse_samples(service.metrics_text())
        families = {family for family, _, _ in samples}
        # the latency quantiles ride along as exposition extras
        assert "repro_serve_latency_us" in families
        quantiles = {
            labels["quantile"]
            for family, labels, _ in samples
            if family == "repro_serve_latency_us"
        }
        assert quantiles == {"0.5", "0.9", "0.99"}

    def test_metrics_http_content_type(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
            status, headers, body = http_raw(service, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert parse(body.decode())["counters"]["serve.requests"] == 1.0

    def test_error_requests_counted(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle({**DOC, "b": 33})
            snap = parse(service.metrics_text())
        assert snap["counters"]["serve.requests"] == 1.0
        assert snap["counters"]["serve.errors"] == 1.0

    def test_tracer_metrics_folded_in_when_tracing(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer), make_service(tmp_path) as service:
            service.handle(DOC)
            snap = parse(service.metrics_text())
        # the ambient tracer's registry (sweep counters) joins the view
        assert snap["counters"]["sweep.points_computed"] == 1.0
        assert snap["counters"]["serve.requests"] == 1.0


class TestRequestStitching:
    def test_request_tree_has_zero_orphans(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer), make_service(tmp_path) as service:
            service.handle(DOC)
            service.handle(DOC)
        report = validate_span_tree(tracer.events)
        assert report.ok
        names = {e.name for e in tracer.events if (e.attrs or {}).get("span_id")}
        assert {"serve.request", "serve.cache", "serve.batch"} <= names
        # both requests share the service's root trace
        assert len(report.traces) == 1

    def test_response_echoes_trace_block(self, tmp_path):
        with make_service(tmp_path) as service:
            response = service.handle(DOC)
        trace = response["trace"]
        assert set(trace) == {"trace_id", "span_id", "parent_span_id"}
        ctx = TraceContext(trace["trace_id"], trace["parent_span_id"])
        assert ctx.child("serve.request", 0).span_id == trace["span_id"]

    def test_request_sequence_distinguishes_spans(self, tmp_path):
        with make_service(tmp_path) as service:
            first = service.handle(DOC)["trace"]
            second = service.handle(DOC)["trace"]
        assert first["trace_id"] == second["trace_id"]
        assert first["span_id"] != second["span_id"]

    def test_client_supplied_trace_reparents_the_tree(self, tmp_path):
        upstream = TraceContext.root("client").child("client.op", 0)
        doc = {**DOC, "trace": upstream.to_dict()}
        tracer = Tracer()
        with tracing(tracer), make_service(tmp_path) as service:
            response = service.handle(doc)
        assert response["trace"]["trace_id"] == upstream.trace_id
        assert response["trace"]["parent_span_id"] == upstream.span_id
        # the upstream span lives in the client's process: without it the
        # tree has an orphan, with it as an extra root it validates
        assert not validate_span_tree(tracer.events).ok
        report = validate_span_tree(
            tracer.events, extra_roots=[upstream.span_id]
        )
        assert report.ok and report.spans >= 3

    def test_traced_and_untraced_share_cache_entry(self, tmp_path):
        upstream = TraceContext.root("client").child("client.op", 0)
        with make_service(tmp_path) as service:
            cold = service.handle(DOC)
            traced = service.handle({**DOC, "trace": upstream.to_dict()})
        assert traced["cache"]["tier"] == "memory"
        assert traced["fingerprint"] == cold["fingerprint"]
        assert traced["digest"] == cold["digest"]

    def test_batch_span_parents_under_leader_request(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer), make_service(tmp_path) as service:
            service.handle(DOC)
        spans = {
            e.name: e.attrs for e in tracer.events
            if (e.attrs or {}).get("span_id")
        }
        assert spans["serve.batch"]["parent_span_id"] == \
            spans["serve.request"]["span_id"]
        assert spans["serve.cache"]["parent_span_id"] == \
            spans["serve.request"]["span_id"]
