"""The prediction service: tiers, stats, hermetic HTTP, and the client.

No sockets anywhere in this file: the HTTP tests drive the real request
handler (``make_handler`` — the same class a ``ThreadingHTTPServer``
would instantiate) over in-memory byte streams, so what is asserted on
is byte-identical to what a socket client would read.
"""

import io
import json

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.predictor import summarize_ge_point
from repro.serve import (
    PredictionClient,
    PredictionError,
    PredictionService,
    ServeConfig,
    make_handler,
    point_digest,
)

CM = CalibratedCostModel()

DOC = {"n": 120, "b": 30, "layout": "diagonal"}


def make_service(tmp_path, **overrides) -> PredictionService:
    overrides.setdefault("store_dir", str(tmp_path / "store"))
    overrides.setdefault("batch_window_s", 0.002)
    return PredictionService(ServeConfig(**overrides))


# -- hermetic HTTP transport --------------------------------------------------
class _Channel:
    """An in-memory two-way byte stream standing in for a socket."""

    def __init__(self, raw: bytes):
        self._rf = io.BytesIO(raw)
        self.wf = io.BytesIO()

    def makefile(self, mode, *args, **kwargs):
        return self._rf if "r" in mode else self.wf

    def sendall(self, data):  # unbuffered wfile writes go through here
        self.wf.write(data)

    def setsockopt(self, *args):  # TCP_NODELAY: nothing to delay in memory
        pass


def http(service, method: str, path: str, body=None):
    """One request through the live handler class; returns (status, doc)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body is not None:
        payload = (
            body if isinstance(body, bytes) else json.dumps(body).encode()
        )
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
    status_line, _, rest = response.partition(b"\r\n")
    _, _, response_body = response.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(response_body)


class TestTiers:
    def test_cold_warm_store_progression(self, tmp_path):
        with make_service(tmp_path) as service:
            cold = service.handle(DOC)
            warm = service.handle(DOC)
        assert cold["status"] == warm["status"] == "ok"
        assert cold["cache"] == {"tier": "computed", "hit": False}
        assert warm["cache"] == {"tier": "memory", "hit": True}
        assert cold["digest"] == warm["digest"]
        # a fresh service over the same store answers from tier 2
        with make_service(tmp_path) as reborn:
            stored = reborn.handle(DOC)
        assert stored["cache"] == {"tier": "store", "hit": True}
        assert stored["digest"] == cold["digest"]

    def test_served_answer_is_bit_identical_to_direct(self, tmp_path):
        with make_service(tmp_path) as service:
            served = service.handle(DOC)
        direct = summarize_ge_point(
            120, 30, "diagonal", MEIKO_CS2, CM, with_measured=False, seed=0
        )
        assert served["result"] == direct
        assert served["digest"] == point_digest(direct)

    def test_engine_projections_share_one_entry(self, tmp_path):
        with make_service(tmp_path) as service:
            both = service.handle({**DOC, "engine": "both"})
            std = service.handle({**DOC, "engine": "standard"})
            worst = service.handle({**DOC, "engine": "worstcase"})
        assert std["cache"]["tier"] == worst["cache"]["tier"] == "memory"
        assert std["fingerprint"] == worst["fingerprint"] == both["fingerprint"]
        assert set(std["prediction_us"]) == {"standard"}
        assert set(worst["prediction_us"]) == {"worstcase"}
        assert both["prediction_us"]["standard"] == std["prediction_us"]["standard"]
        assert both["prediction_us"]["worstcase"] == worst["prediction_us"]["worstcase"]

    def test_lru_eviction_falls_back_to_store(self, tmp_path):
        with make_service(tmp_path, cache_size=1) as service:
            service.handle(DOC)
            service.handle({**DOC, "b": 20})  # evicts the b=30 entry
            again = service.handle(DOC)
            assert again["cache"]["tier"] == "store"
            assert service.cache.evictions >= 1


class TestStatsAndErrors:
    def test_stats_document(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
            service.handle(DOC)
            service.handle({"n": 120, "b": 33, "layout": "diagonal"})
            stats = service.stats()
        assert stats["requests"] == {"total": 3, "ok": 2, "error": 1}
        assert stats["tiers"]["computed"] == 1
        assert stats["tiers"]["memory"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["batches"]["count"] == 1
        assert stats["latency_us"]["count"] == 2
        assert stats["latency_us"]["p50"] > 0
        assert stats["cache"]["size"] == 1

    def test_malformed_request_is_a_400_document(self, tmp_path):
        with make_service(tmp_path) as service:
            bad = service.handle({"n": 120, "b": 30, "layout": "spiral"})
            assert (bad["status"], bad["code"]) == ("error", 400)
            assert "spiral" in bad["error"]
            # the service stays healthy afterwards
            assert service.handle(DOC)["status"] == "ok"

    def test_response_carries_manifest_and_batch_provenance(self, tmp_path):
        with make_service(
            tmp_path, manifest_dir=str(tmp_path / "runs")
        ) as service:
            cold = service.handle(DOC)
            warm = service.handle(DOC)
        for response in (cold, warm):
            manifest = json.loads(open(response["manifest"]).read())
            assert manifest["command"] == "serve.request"
            assert manifest["extra"]["digest"] == response["digest"]
            assert manifest["workload"] == response["request"]
        assert cold["manifest"] != warm["manifest"]
        # both answers reference the one batch that computed the entry
        assert warm["batch"] == cold["batch"]
        batch_manifest = json.loads(open(cold["batch"]["manifest"]).read())
        assert batch_manifest["command"] == "serve.batch"
        assert batch_manifest["extra"]["batch"]["computed"] == 1


class TestHermeticHTTP:
    def test_predict_roundtrip(self, tmp_path):
        with make_service(tmp_path) as service:
            status, doc = http(service, "POST", "/v1/predict", DOC)
            assert status == 200
            assert doc["status"] == "ok"
            assert doc["cache"]["tier"] == "computed"
            direct = summarize_ge_point(
                120, 30, "diagonal", MEIKO_CS2, CM, with_measured=False
            )
            assert doc["digest"] == point_digest(direct)

    def test_healthz_stats_and_404(self, tmp_path):
        with make_service(tmp_path) as service:
            service.handle(DOC)
            assert http(service, "GET", "/healthz") == (
                200, {"schema": "repro.serve/v1", "status": "ok"},
            )
            status, stats = http(service, "GET", "/v1/stats")
            assert status == 200 and stats["requests"]["ok"] == 1
            status, doc = http(service, "GET", "/v1/missing")
            assert status == 404 and doc["status"] == "error"
            status, doc = http(service, "POST", "/v1/missing", DOC)
            assert status == 404

    def test_http_error_codes_mirror_documents(self, tmp_path):
        with make_service(tmp_path) as service:
            status, doc = http(
                service, "POST", "/v1/predict",
                {"n": 120, "b": 33, "layout": "diagonal"},
            )
            assert status == 400 and doc["code"] == 400
            status, doc = http(service, "POST", "/v1/predict", b"{nope")
            assert status == 400 and "not JSON" in doc["error"]


class TestBodyBounds:
    """A body the handler will not read gets one error and a closed
    connection: on a kept-alive connection its bytes would otherwise be
    parsed as the next request."""

    BODY = json.dumps(DOC).encode()

    @staticmethod
    def post(service, value: str, body: bytes, header="Content-Length") -> bytes:
        """Every byte the handler writes back on one connection."""
        head = (
            "POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
            f"{header}: {value}\r\n\r\n"
        )
        channel = _Channel(head.encode() + body)
        make_handler(service)(channel, ("127.0.0.1", 0), None)
        return channel.wf.getvalue()

    @staticmethod
    def assert_one_closing_error(response: bytes, code: int) -> dict:
        assert response.startswith(f"HTTP/1.1 {code} ".encode())
        assert response.count(b"HTTP/1.1 ") == 1  # the body never ran
        assert b"\r\nConnection: close\r\n" in response
        doc = json.loads(response.partition(b"\r\n\r\n")[2])
        assert doc["status"] == "error" and doc["code"] == code
        return doc

    def test_bad_content_length_is_400_and_closes(self, tmp_path):
        with make_service(tmp_path) as service:
            for length in ("-5", "abc", "1_0", "+12", ""):
                response = self.post(service, length, self.BODY)
                doc = self.assert_one_closing_error(response, 400)
                assert "Content-Length" in doc["error"], length
            assert service.stats()["requests"]["total"] == 0

    def test_chunked_body_is_411_and_closes(self, tmp_path):
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(self.BODY), self.BODY)
        with make_service(tmp_path) as service:
            response = self.post(
                service, "chunked", chunked, header="Transfer-Encoding"
            )
            doc = self.assert_one_closing_error(response, 411)
            assert "Content-Length" in doc["error"]
            assert service.stats()["requests"]["total"] == 0

    def test_oversized_body_is_413_and_closes(self, tmp_path):
        from repro.serve.server import MAX_BODY_BYTES

        with make_service(tmp_path) as service:
            response = self.post(service, str(MAX_BODY_BYTES + 1), self.BODY)
            doc = self.assert_one_closing_error(response, 413)
            assert str(MAX_BODY_BYTES) in doc["error"]
            assert service.stats()["requests"]["total"] == 0
            # a body of exactly the cap is read and answered
            padded = self.BODY + b" " * (MAX_BODY_BYTES - len(self.BODY))
            response = self.post(service, str(len(padded)), padded)
            assert response.startswith(b"HTTP/1.1 200 ")


class TestClient:
    def test_in_process_client(self, tmp_path):
        with make_service(tmp_path) as service:
            client = PredictionClient.in_process(service)
            answer = client.predict(n=120, b=30, layout="diagonal")
            assert answer.ok and answer.cache_tier == "computed"
            assert answer.prediction_us["standard"] == answer.row["pred_standard_total"]
            again = client.predict(n=120, b=30, layout="diagonal")
            assert again.cache_hit and again.digest == answer.digest
            assert client.stats()["requests"]["ok"] == 2

    def test_client_machine_and_loose_documents(self, tmp_path):
        with make_service(tmp_path) as service:
            client = PredictionClient.in_process(service)
            small = client.predict(n=120, b=30, layout="diagonal",
                                   machine={"P": 4})
            default = client.predict(n=120, b=30, layout="diagonal")
            assert small.fingerprint != default.fingerprint
            loose = client.predict_doc({"b": 30, "layout": "diagonal", "n": 120})
            assert loose.fingerprint == default.fingerprint

    def test_errors_raise_unless_unchecked(self, tmp_path):
        with make_service(tmp_path) as service:
            client = PredictionClient.in_process(service)
            with pytest.raises(PredictionError, match="does not divide"):
                client.predict(n=120, b=33, layout="diagonal")
            unchecked = client.predict(n=120, b=33, layout="diagonal", check=False)
            assert not unchecked.ok
