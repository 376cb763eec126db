"""Kept-alive connections to ``repro serve`` over a real localhost socket.

The hermetic suites drive the request handler over in-memory streams,
where TCP timing cannot show.  This one opens a real socket.  The handler
writes each response's headers and body in two sends; with Nagle's
algorithm on, the second send waits for the client's delayed ACK, which
stalls every response on a kept-alive connection by ~40 ms.  The handler
disables Nagle, so memory-tier answers on one connection must come back
far faster than that stall.
"""

import http.client
import json
import statistics
import threading
import time

from repro.serve import PredictionService, ServeConfig, serve_http

DOC = {"n": 120, "b": 30, "layout": "diagonal"}
REQUESTS = 20
#: half the ~40 ms delayed-ACK stall; a memory-tier answer takes ~1 ms
MEDIAN_CEILING_S = 0.020


def test_kept_alive_memory_tier_median_under_stall(tmp_path):
    service = PredictionService(
        ServeConfig(store_dir=str(tmp_path / "store"), batch_window_s=0.002)
    )
    httpd = serve_http(service, host="127.0.0.1", port=0)
    server = threading.Thread(target=httpd.serve_forever, daemon=True)
    server.start()
    conn = http.client.HTTPConnection(
        "127.0.0.1", httpd.server_address[1], timeout=60
    )
    body = json.dumps(DOC)
    headers = {"Content-Type": "application/json"}

    def post() -> dict:
        conn.request("POST", "/v1/predict", body=body, headers=headers)
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 200, doc
        return doc

    try:
        assert post()["cache"]["tier"] == "computed"  # warms the memory tier
        latencies = []
        for _ in range(REQUESTS):
            t0 = time.perf_counter()
            doc = post()
            latencies.append(time.perf_counter() - t0)
            assert doc["cache"]["tier"] == "memory"
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
        server.join(timeout=10)
        service.close()
    assert not server.is_alive()
    assert statistics.median(latencies) < MEDIAN_CEILING_S, latencies
