"""Single-flight dedup: N concurrent identical misses, one simulation.

The contract under test (the heart of the serve layer's cost story):

* A burst of identical cold requests runs **exactly one** simulation —
  asserted two independent ways: the tracer records exactly one
  ``serve.batch`` span with one computed point, and the
  ``sweep.points_computed`` counter (incremented by
  :func:`repro.sweep.run_point_batch` once per point actually
  evaluated) lands on exactly 1.
* Every one of the N responses is digest-identical to the serial
  :func:`repro.core.predictor.summarize_ge_point` answer.
* Distinct cold points arriving inside one batching window coalesce
  into **one** batch (one sweep dispatch), not N.
"""

import threading

from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.predictor import summarize_ge_point
from repro.obs import Tracer, tracing
from repro.serve import PredictionService, ServeConfig
from repro.serve.protocol import point_digest

CM = CalibratedCostModel()

DOC = {"n": 120, "b": 30, "layout": "diagonal"}


def hammer(service, docs):
    """Fire one request per doc from simultaneously-released threads."""
    barrier = threading.Barrier(len(docs))
    results = [None] * len(docs)

    def shoot(i, doc):
        barrier.wait()
        results[i] = service.handle(doc)

    threads = [
        threading.Thread(target=shoot, args=(i, doc))
        for i, doc in enumerate(docs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def spans(tracer, name):
    return [e for e in tracer.events if e.name == name]


def points_computed(tracer):
    return tracer.metrics.counter("sweep.points_computed").value


class TestSingleFlight:
    def test_n_threads_one_simulation(self, tmp_path):
        tracer = Tracer()
        config = ServeConfig(
            store_dir=str(tmp_path / "store"), batch_window_s=0.25
        )
        with tracing(tracer), PredictionService(config) as service:
            results = hammer(service, [dict(DOC)] * 8)
            stats = service.stats()

        # one simulation, however you count it
        assert points_computed(tracer) == 1
        batch_spans = spans(tracer, "serve.batch")
        assert len(batch_spans) == 1
        assert batch_spans[0].attrs["points"] == 1
        assert batch_spans[0].attrs["computed"] == 1
        assert stats["batches"] == {
            "count": 1, "points": 1, "max_size": 1, "sizes": {"1": 1},
        }

        # exactly one leader; everyone else rode the in-flight future
        # (or, if scheduled late, the already-cached entry)
        tiers = [r["cache"]["tier"] for r in results]
        assert tiers.count("computed") == 1
        assert all(t in ("computed", "inflight", "memory") for t in tiers)

        # all N answers digest-identical to the serial reference
        direct = summarize_ge_point(
            120, 30, "diagonal", MEIKO_CS2, CM, with_measured=False, seed=0
        )
        expected = point_digest(direct)
        assert all(r["digest"] == expected for r in results)
        assert all(r["result"] == direct for r in results)

        # every request-path span was recorded without interleaving
        # corruption: one serve.request and serve.cache slice per request
        assert len(spans(tracer, "serve.request")) == 8
        assert len(spans(tracer, "serve.cache")) == 8

    def test_distinct_misses_coalesce_into_one_batch(self, tmp_path):
        tracer = Tracer()
        docs = [
            {"n": 120, "b": b, "layout": layout}
            for b in (20, 30)
            for layout in ("diagonal", "stripped")
        ]
        config = ServeConfig(
            store_dir=str(tmp_path / "store"), batch_window_s=0.25
        )
        with tracing(tracer), PredictionService(config) as service:
            results = hammer(service, docs)
            stats = service.stats()

        assert all(r["status"] == "ok" for r in results)
        assert points_computed(tracer) == len(docs)
        batch_spans = spans(tracer, "serve.batch")
        assert len(batch_spans) == 1
        assert batch_spans[0].attrs["points"] == len(docs)
        assert stats["batches"]["max_size"] == len(docs)
        # four distinct entries, each the serial answer bit for bit
        for doc, response in zip(docs, results):
            direct = summarize_ge_point(
                doc["n"], doc["b"], doc["layout"], MEIKO_CS2, CM,
                with_measured=False, seed=0,
            )
            assert response["digest"] == point_digest(direct)

    def test_followers_after_resolution_hit_memory(self, tmp_path):
        config = ServeConfig(
            store_dir=str(tmp_path / "store"), batch_window_s=0.002
        )
        with PredictionService(config) as service:
            first = service.handle(DOC)
            late = hammer(service, [dict(DOC)] * 4)
        assert first["cache"]["tier"] == "computed"
        assert all(r["cache"]["tier"] == "memory" for r in late)
        assert all(r["digest"] == first["digest"] for r in late)
