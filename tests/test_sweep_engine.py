"""Tests for the parallel sweep engine (repro.sweep)."""

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel, summarize_ge_point
from repro.experiments import ExperimentStore, PointSummary
from repro.sweep import SweepPoint, expand_grid, run_sweep
from repro.sweep.runner import _chunked

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()

#: small prediction-only grid every engine test reuses (fast: no emulator)
GRID = expand_grid(120, [24, 40], ["diagonal", "stripped"], with_measured=False)


class TestSweepPoint:
    def test_validates_divisibility(self):
        with pytest.raises(ValueError, match="does not divide"):
            SweepPoint(n=100, b=7, layout="diagonal")

    def test_validates_layout(self):
        with pytest.raises(ValueError, match="unknown layout"):
            SweepPoint(n=120, b=24, layout="nope")

    def test_validates_positive(self):
        with pytest.raises(ValueError):
            SweepPoint(n=0, b=1, layout="diagonal")

    def test_describe(self):
        p = SweepPoint(n=120, b=24, layout="diagonal", seed=3)
        assert p.describe() == "n=120 b=24 diagonal seed=3"


class TestExpandGrid:
    def test_order_matches_serial_sweep(self):
        # layout-major, then block size: the run_ge_sweep enumeration
        assert [(p.layout, p.b) for p in GRID] == [
            ("diagonal", 24), ("diagonal", 40),
            ("stripped", 24), ("stripped", 40),
        ]

    def test_multiple_ns_and_seeds(self):
        grid = expand_grid([120, 240], [24], ["diagonal"], seeds=(0, 1))
        assert [(p.n, p.seed) for p in grid] == [
            (120, 0), (120, 1), (240, 0), (240, 1),
        ]

    def test_duplicates_dropped(self):
        grid = expand_grid(120, [24, 24], ["diagonal", "diagonal"])
        assert len(grid) == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            expand_grid(120, [], ["diagonal"])

    def test_bad_point_rejected_at_expansion(self):
        with pytest.raises(ValueError, match="does not divide"):
            expand_grid(120, [24, 50], ["diagonal"])


class TestSerialEngine:
    def test_matches_single_point_entrypoint(self):
        result = run_sweep(GRID, PARAMS, CM, workers=1)
        for point, summary in zip(GRID, result.summaries):
            expect = PointSummary(**summarize_ge_point(
                point.n, point.b, point.layout, PARAMS, CM,
                with_measured=False, seed=point.seed,
            ))
            assert summary == expect  # exact, not approx

    def test_stats(self):
        result = run_sweep(GRID, PARAMS, CM, workers=1)
        assert result.stats.total == len(GRID)
        assert result.stats.cached == 0
        assert result.stats.computed == len(GRID)
        assert result.stats.wall_s > 0

    def test_digest_is_stable_and_value_sensitive(self):
        a = run_sweep(GRID, PARAMS, CM, workers=1)
        b = run_sweep(GRID, PARAMS, CM, workers=1)
        assert a.digest() == b.digest()
        c = run_sweep(GRID[:2], PARAMS, CM, workers=1)
        assert c.digest() != a.digest()

    def test_negative_workers_rejected(self):
        for workers in (-1, 0):
            with pytest.raises(ValueError, match="workers must be >= 1 or 'auto'"):
                run_sweep(GRID, PARAMS, CM, workers=workers)

    @pytest.mark.parametrize("chunk_size", [-1, 0])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            run_sweep(GRID, PARAMS, CM, workers=2, chunk_size=chunk_size)


class TestParallelEngine:
    def test_bit_identical_to_serial(self):
        serial = run_sweep(GRID, PARAMS, CM, workers=1)
        parallel = run_sweep(GRID, PARAMS, CM, workers=2)
        assert parallel.summaries == serial.summaries
        assert parallel.digest() == serial.digest()

    def test_results_in_grid_order(self):
        result = run_sweep(GRID, PARAMS, CM, workers=2, chunk_size=1)
        assert [(s.layout, s.b) for s in result.summaries] == [
            (p.layout, p.b) for p in GRID
        ]

    def test_more_workers_than_points(self):
        grid = GRID[:2]
        result = run_sweep(grid, PARAMS, CM, workers=8)
        assert len(result.summaries) == 2

    def test_chunk_size_one(self):
        result = run_sweep(GRID, PARAMS, CM, workers=2, chunk_size=1)
        assert result.stats.chunks == len(GRID)


class TestStoreCoordination:
    def test_workers_persist_through_store(self, tmp_path):
        store = ExperimentStore(tmp_path, PARAMS, CM)
        run_sweep(GRID, PARAMS, CM, workers=2, store=store)
        assert store.cached_count() == len(GRID)

    def test_store_accepts_plain_directory(self, tmp_path):
        run_sweep(GRID, PARAMS, CM, workers=1, store=tmp_path / "sub")
        store = ExperimentStore(tmp_path / "sub", PARAMS, CM)
        assert store.cached_count() == len(GRID)

    def test_cached_points_short_circuit_before_dispatch(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path, PARAMS, CM)
        run_sweep(GRID[:2], PARAMS, CM, workers=1, store=store)

        computed = []

        import repro.kernel.vector as vector

        real = vector.evaluate_ge_points_batch

        def counting(points, *args, **kwargs):
            computed.extend((p.layout, p.b) for p in points)
            return real(points, *args, **kwargs)

        monkeypatch.setattr(vector, "evaluate_ge_points_batch", counting)
        result = run_sweep(GRID, PARAMS, CM, workers=1, store=store)
        assert result.stats.cached == 2
        assert result.stats.computed == 2
        assert computed == [("stripped", 24), ("stripped", 40)]

    def test_resume_false_recomputes_everything(self, tmp_path):
        store = ExperimentStore(tmp_path, PARAMS, CM)
        run_sweep(GRID, PARAMS, CM, workers=1, store=store)
        again = run_sweep(GRID, PARAMS, CM, workers=1, store=store, resume=False)
        assert again.stats.cached == 0
        assert again.stats.computed == len(GRID)

    def test_resumed_sweep_equals_cold_sweep(self, tmp_path):
        cold = run_sweep(GRID, PARAMS, CM, workers=1)
        store = ExperimentStore(tmp_path, PARAMS, CM)
        run_sweep(GRID[:3], PARAMS, CM, workers=1, store=store)
        resumed = run_sweep(GRID, PARAMS, CM, workers=2, store=store)
        assert resumed.summaries == cold.summaries
        assert resumed.stats.cached == 3

    def test_progress_reports_every_point(self, tmp_path):
        store = ExperimentStore(tmp_path, PARAMS, CM)
        run_sweep(GRID[:1], PARAMS, CM, workers=1, store=store)
        seen = []
        run_sweep(
            GRID, PARAMS, CM, workers=1, store=store,
            progress=lambda done, total, point, source: seen.append(
                (done, total, (point.layout, point.b), source)
            ),
        )
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == len(GRID) for s in seen)
        assert seen[0] == (1, 4, ("diagonal", 24), "cached")
        assert {s[3] for s in seen[1:]} == {"computed"}


class TestChunking:
    def test_chunked_covers_everything_once(self):
        items = list(range(10))
        chunks = list(_chunked(items, 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [x for c in chunks for x in c] == items

    def test_default_chunking_is_about_four_per_worker(self):
        grid = expand_grid(120, [24], ["diagonal"], seeds=range(16),
                           with_measured=False)
        result = run_sweep(grid, PARAMS, CM, workers=2)
        assert result.stats.chunks == 8  # 16 points / (2 workers * 4)


class TestObservability:
    def test_sweep_metrics_recorded(self, tmp_path):
        from repro.obs import Tracer, tracing

        store = ExperimentStore(tmp_path, PARAMS, CM)
        run_sweep(GRID[:1], PARAMS, CM, workers=1, store=store)
        tracer = Tracer()
        with tracing(tracer):
            run_sweep(GRID, PARAMS, CM, workers=1, store=store)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sweep.points_cached"] == 1
        assert snap["counters"]["sweep.points_computed"] == 3
        assert snap["histograms"]["sweep.wall_s"]["count"] == 1
