"""Tests for ``run_point_batch``: grouped, store-backed batch evaluation.

The serve layer's compute tier.  A batch mixing machines, UQ specs and
repeated points must answer exactly what the one-point references
(:func:`summarize_ge_point`, :func:`summarize_uq_point`) answer, compute
each distinct point once, attribute every item to the store or to a
simulation, and keep what it finished when a later point fails.
"""

import dataclasses

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.predictor import summarize_ge_point, summarize_uq_point
from repro.experiments import ExperimentStore, PointSummary
from repro.obs import Tracer, tracing
from repro.sweep import BatchItem, SweepPoint, run_point_batch
from repro.uq import UQSpec

CM = CalibratedCostModel()
SLOW_NET = dataclasses.replace(MEIKO_CS2, L=2 * MEIKO_CS2.L, name="slow-net")
SPEC = UQSpec(sigma=0.1, op_sigma=0.05)

P24 = SweepPoint(n=120, b=24, layout="diagonal", with_measured=False)
P40 = SweepPoint(n=120, b=40, layout="stripped", with_measured=False)
P24_S3 = SweepPoint(n=120, b=24, layout="diagonal", seed=3, with_measured=False)

#: three groups (two machines, one of them also under a UQ spec), and a
#: point repeated inside the first group
ITEMS = [
    BatchItem(P24, MEIKO_CS2),
    BatchItem(P40, SLOW_NET),
    BatchItem(P24_S3, MEIKO_CS2, SPEC),
    BatchItem(P24, MEIKO_CS2),
    BatchItem(P40, MEIKO_CS2),
]
UNIQUE = 4


def reference(item: BatchItem) -> PointSummary:
    p = item.point
    if item.uq is None:
        doc = summarize_ge_point(
            p.n, p.b, p.layout, item.params, CM,
            with_measured=p.with_measured, seed=p.seed,
        )
    else:
        doc = summarize_uq_point(
            p.n, p.b, p.layout, item.params, CM, item.uq,
            with_measured=p.with_measured, seed=p.seed,
        )
    return PointSummary(**doc)


def computed_count(tracer: Tracer) -> float:
    return tracer.metrics.snapshot()["counters"].get("sweep.points_computed", 0)


class TestRunPointBatch:
    def test_mixed_batch_matches_one_point_references(self, tmp_path):
        result = run_point_batch(ITEMS, CM, store_dir=tmp_path / "store")
        assert result.summaries == [reference(item) for item in ITEMS]
        assert result.groups == 3
        # the repeated point answers from the same evaluation
        assert result.summaries[0] == result.summaries[3]

    def test_each_unique_point_computed_once(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer):
            result = run_point_batch(ITEMS, CM, store_dir=tmp_path / "store")
        assert computed_count(tracer) == UNIQUE
        assert result.computed == len(ITEMS)
        assert result.cached == 0

    def test_second_call_reads_every_item_from_the_store(self, tmp_path):
        first = run_point_batch(ITEMS, CM, store_dir=tmp_path / "store")
        tracer = Tracer()
        with tracing(tracer):
            again = run_point_batch(ITEMS, CM, store_dir=tmp_path / "store")
        assert again.sources == ["cached"] * len(ITEMS)
        assert again.summaries == first.summaries
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["sweep.points_cached"] == UNIQUE
        assert computed_count(tracer) == 0

    def test_without_store_every_item_is_computed(self):
        first = run_point_batch(ITEMS, CM, store_dir=None)
        again = run_point_batch(ITEMS, CM, store_dir=None)
        assert first.sources == again.sources == ["computed"] * len(ITEMS)
        assert again.summaries == first.summaries

    def test_empty_batch(self):
        result = run_point_batch([], CM, store_dir=None)
        assert (result.summaries, result.sources, result.groups) == ([], [], 0)


class ExplodingCostModel(CalibratedCostModel):
    """Raises on one block size; otherwise the calibrated table."""

    def cost(self, op: str, b: int) -> float:
        if b == 30:
            raise RuntimeError("boom")
        return super().cost(op, b)


class TestFailure:
    def test_points_finished_before_a_failure_stay_stored(self, tmp_path):
        cm = ExplodingCostModel()
        ok = SweepPoint(n=120, b=20, layout="diagonal", with_measured=False)
        boom = SweepPoint(n=120, b=30, layout="diagonal", with_measured=False)
        items = [BatchItem(ok, MEIKO_CS2), BatchItem(boom, MEIKO_CS2)]
        with pytest.raises(RuntimeError, match="boom"):
            run_point_batch(items, cm, store_dir=tmp_path / "store")
        store = ExperimentStore(tmp_path / "store", MEIKO_CS2, cm)
        kept = store.get(ok.n, ok.b, ok.layout, seed=0, with_measured=False)
        assert kept == reference(BatchItem(ok, MEIKO_CS2))
        assert store.get(boom.n, boom.b, boom.layout, seed=0, with_measured=False) is None
        # the next batch answers the kept point from the store
        again = run_point_batch(items[:1], cm, store_dir=tmp_path / "store")
        assert again.sources == ["cached"]
