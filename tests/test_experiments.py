"""Tests for the experiment store (repro.experiments)."""

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel, FlopCostModel
from repro.experiments import ExperimentStore, PointSummary
from repro.sweep import SweepPoint, expand_grid, run_sweep


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path, MEIKO_CS2, CalibratedCostModel())


def point(store, n, b, layout, seed=0, with_measured=True):
    """One point through the sweep engine, which reads and writes the store."""
    grid = [SweepPoint(n=n, b=b, layout=layout, seed=seed, with_measured=with_measured)]
    return run_sweep(grid, store.params, store.cost_model, store=store).summaries[0]


class TestStore:
    def test_miss_computes_then_hit_reads(self, store, tmp_path):
        first = point(store, 120, 24, "diagonal", with_measured=False)
        assert store.cached_count() == 1
        # mutate nothing; the store must hand back equal values
        second = store.get(120, 24, "diagonal", with_measured=False)
        assert first == second
        again = run_sweep(
            [SweepPoint(n=120, b=24, layout="diagonal", seed=0, with_measured=False)],
            MEIKO_CS2, CalibratedCostModel(), store=store,
        )
        assert again.stats.cached == 1
        assert again.summaries[0] == first

    def test_hit_is_fast(self, store):
        import time

        point(store, 120, 24, "diagonal", with_measured=False)
        t0 = time.perf_counter()
        store.get(120, 24, "diagonal", with_measured=False)
        assert time.perf_counter() - t0 < 0.05  # pure JSON read

    def test_summary_values_match_live_run(self, store):
        from repro.core import run_ge_point

        summary = point(store, 120, 24, "diagonal", seed=3)
        row = run_ge_point(
            120, 24, "diagonal", MEIKO_CS2, CalibratedCostModel(), seed=3
        )
        assert summary.pred_standard_total == row.pred_standard.total_us
        assert summary.measured_total == row.measured.total_us
        assert store.get(120, 24, "diagonal", seed=3) == summary

    def test_series_shape(self, store):
        with_m = point(store, 120, 24, "diagonal")
        without = point(store, 120, 24, "diagonal", with_measured=False)
        assert "measured_with_caching" in with_m.series()
        assert "measured_with_caching" not in without.series()

    def test_sweep_resumable(self, store):
        point(store, 120, 24, "diagonal", with_measured=False)
        grid = expand_grid(120, [24, 40], ["diagonal"], with_measured=False)
        result = run_sweep(grid, MEIKO_CS2, CalibratedCostModel(), store=store)
        assert len(result.summaries) == 2
        assert (result.stats.cached, result.stats.computed) == (1, 1)
        assert store.cached_count() == 2

    def test_distinct_configs_distinct_entries(self, store):
        point(store, 120, 24, "diagonal", with_measured=False)
        point(store, 120, 24, "stripped", with_measured=False)
        point(store, 120, 24, "diagonal", seed=1, with_measured=False)
        point(store, 120, 24, "diagonal", with_measured=True)
        assert store.cached_count() == 4

    def test_clear(self, store):
        point(store, 120, 24, "diagonal", with_measured=False)
        assert store.clear() == 1
        assert store.cached_count() == 0
        assert store.get(120, 24, "diagonal", with_measured=False) is None

    def test_cost_model_change_invalidates(self, tmp_path):
        a = ExperimentStore(tmp_path, MEIKO_CS2, CalibratedCostModel())
        point(a, 120, 24, "diagonal", with_measured=False)
        b = ExperimentStore(tmp_path, MEIKO_CS2, FlopCostModel())
        assert b.cached_count() == 0  # different fingerprint, cache miss
        assert b.get(120, 24, "diagonal", with_measured=False) is None

    def test_machine_change_invalidates(self, tmp_path):
        a = ExperimentStore(tmp_path, MEIKO_CS2, CalibratedCostModel())
        point(a, 120, 24, "diagonal", with_measured=False)
        b = ExperimentStore(tmp_path, MEIKO_CS2.with_(L=99.0), CalibratedCostModel())
        assert b.cached_count() == 0
        assert b.get(120, 24, "diagonal", with_measured=False) is None

    def test_empty_store_counts_zero(self, tmp_path):
        store = ExperimentStore(tmp_path / "nowhere", MEIKO_CS2, CalibratedCostModel())
        assert store.cached_count() == 0
        assert store.clear() == 0


class TestPointSummary:
    def test_frozen(self):
        s = PointSummary(
            n=1, b=1, layout="diagonal", seed=0,
            pred_standard_total=1.0, pred_standard_comp=0.5,
            pred_standard_comm=0.5, pred_worstcase_total=2.0,
            pred_worstcase_comm=1.0,
        )
        with pytest.raises(AttributeError):
            s.n = 2
