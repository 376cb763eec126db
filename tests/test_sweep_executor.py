"""The self-tuning sweep executor: decisions, determinism, crash recovery.

Three properties pin the executor:

1. **Bit-identity.**  Every strategy — serial, process, auto —
   must produce the same ``results_sha256`` digest as a legacy serial
   sweep on the reference simulators (``tests/oracle.py``); strategies
   differ in wall time only.
2. **The 0.87x regression stays fixed.**  On a single-CPU host the auto
   executor must resolve to serial — the exact configuration in which
   the process pool once recorded 0.87x of serial — taking the same
   code path as a forced serial run (no pool is ever constructed), so
   it cannot be meaningfully slower.
3. **Crash-mid-chunk resume.**  A cost model that explodes partway
   through a store-backed sweep must leave the store consistent: a
   resumed run under every executor completes and matches the cold
   digest bit for bit.
"""

from __future__ import annotations

import time

import pytest

from repro.core import CalibratedCostModel, MEIKO_CS2
from repro.experiments import ExperimentStore
from repro.kernel import clear_all_caches
from repro.kernel.memo import (
    clear_cost_observations,
    estimate_point_cost,
    observe_point_cost,
)
from repro.sweep import ExecutorDecision, decide_executor, expand_grid, run_sweep
from repro.sweep import executor as executor_mod
from repro.sweep import runner as runner_mod

from .oracle import reference_engine

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()
GRID = expand_grid(120, [20, 30], ["diagonal", "stripped"], with_measured=False)
EXECUTORS = ("serial", "process", "auto")

#: b value the exploding model detonates on — last in each layout's blocks,
#: so earlier chunks complete (and persist) before the crash
BOOM_B = 30


class ExplodingCostModel(CalibratedCostModel):
    """Picklable cost model that detonates on one block size.

    Inherits the calibrated table — and therefore its *fingerprint* —
    so store entries written before the crash are hits for the clean
    model that resumes the sweep.
    """

    def cost(self, op: str, b: int) -> float:
        if b == BOOM_B:
            raise RuntimeError("boom: injected mid-sweep crash")
        return super().cost(op, b)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    # Pin the spawn measurement (no real pool spin-up in decisions) and
    # start every test with a cold executor cost model.
    monkeypatch.setenv("REPRO_SPAWN_OVERHEAD_S", "0.05")
    clear_all_caches()
    executor_mod.clear_spawn_cache()
    yield
    clear_all_caches()
    executor_mod.clear_spawn_cache()


def _digest(**kwargs):
    return run_sweep(GRID, PARAMS, CM, **kwargs)


def _reference():
    """The legacy serial sweep on the reference simulators."""
    with reference_engine():
        result = _digest(workers=1)
    clear_all_caches()
    return result


class TestDigestsAcrossExecutors:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_results_sha256_matches_legacy_serial(self, executor):
        reference = _reference()
        clear_all_caches()
        result = _digest(executor=executor, workers=2)
        assert result.digest() == reference.digest()
        assert result.summaries == reference.summaries
        assert result.stats.decision is not None
        assert result.stats.executor == result.stats.decision["executor"]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_store_backed_digest_and_resume(self, executor, tmp_path):
        reference = _reference()
        clear_all_caches()
        first = _digest(executor=executor, workers=2, store=tmp_path)
        assert first.digest() == reference.digest()
        clear_all_caches()
        resumed = _digest(executor=executor, workers=2, store=tmp_path)
        assert resumed.digest() == reference.digest()
        assert resumed.stats.cached == len(GRID)

    def test_executor_recorded_in_stats(self):
        result = _digest(executor="serial")
        assert result.stats.executor == "serial"
        decision = result.stats.decision
        assert decision["requested"] == "serial"
        assert decision["reason"] == "forced by caller"

    def test_unknown_executor_rejected(self):
        for executor in ("gpu", "thread"):
            with pytest.raises(ValueError, match="executor"):
                run_sweep(GRID, PARAMS, CM, executor=executor)


class TestCrashMidChunkResume:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_resume_completes_and_matches_cold(self, executor, tmp_path):
        reference = _reference()
        boom = ExplodingCostModel()
        clear_all_caches()
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(
                GRID, PARAMS, boom,
                executor=executor, workers=2, chunk_size=1,
                store=tmp_path,
            )
        # the store holds only entries from chunks that completed; a
        # clean resumed run must finish the grid and match cold exactly
        clear_all_caches()
        resumed = _digest(executor=executor, workers=2, store=tmp_path)
        assert resumed.digest() == reference.digest()
        assert resumed.stats.cached + resumed.stats.computed == len(GRID)

    def test_partial_progress_persists_across_crash(self, tmp_path):
        # chunk_size=1 with the detonating b last per layout: surviving
        # chunks persist their points before the crash surfaces.  Both
        # b=20 chunks are in flight before the first b=30 chunk can fail
        # (the pool queues workers + 1 chunks at once), and the failing
        # sweep's pool shutdown waits for in-flight chunks, so both land
        # in the store.
        boom = ExplodingCostModel()
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(
                GRID, PARAMS, boom,
                executor="process", workers=2, chunk_size=1,
                store=tmp_path,
            )
        store = ExperimentStore(tmp_path, PARAMS, CM)
        assert store.cached_count() == sum(1 for p in GRID if p.b != BOOM_B)


class TestSingleCpuRegression:
    """The BENCH_sweep 0.87x configuration: 1 CPU must stay serial."""

    def _force_single_cpu(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 1)
        monkeypatch.setattr(runner_mod, "available_cpus", lambda: 1)

    def test_auto_resolves_to_serial_on_one_cpu(self, monkeypatch):
        self._force_single_cpu(monkeypatch)
        result = _digest(executor="auto")
        assert result.stats.executor == "serial"
        assert result.stats.workers == 1
        assert "single CPU" in result.stats.decision["reason"]

    def test_auto_never_builds_a_pool_on_one_cpu(self, monkeypatch):
        # Stronger than a timing assertion: on 1 CPU the auto executor
        # must take the serial code path outright, so it cannot be
        # slower than serial by more than the O(grid) decision itself.
        self._force_single_cpu(monkeypatch)

        def _no_pool(*args, **kwargs):
            raise AssertionError("auto built a pool on a 1-CPU host")

        monkeypatch.setattr(runner_mod.multiprocessing, "get_context", _no_pool)
        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", _no_pool)
        monkeypatch.setattr(
            executor_mod, "measure_spawn_overhead", _no_pool
        )
        result = _digest(executor="auto")
        assert result.stats.executor == "serial"

    def test_auto_not_slower_than_serial_on_one_cpu(self, monkeypatch):
        # The ISSUE's ≤5% bound, measured with best-of-3 to shed noise;
        # auto runs the vectorized batch path, so in practice it is
        # *faster* than the legacy per-point serial loop.
        self._force_single_cpu(monkeypatch)
        serial_wall = min(
            self._timed(workers=1) for _ in range(3)
        )
        auto_wall = min(
            self._timed(executor="auto") for _ in range(3)
        )
        assert auto_wall <= serial_wall * 1.05 + 0.02, (
            f"auto {auto_wall:.3f}s vs serial {serial_wall:.3f}s on 1 CPU"
        )

    @staticmethod
    def _timed(**kwargs):
        clear_all_caches()
        t0 = time.perf_counter()
        _digest(**kwargs)
        return time.perf_counter() - t0


class TestDecisionModel:
    def test_forced_strategies_honoured(self):
        for requested in ("serial", "process"):
            decision = decide_executor(GRID, requested, 2, cpu_count=4)
            assert decision.executor == requested
            assert decision.requested == requested

    def test_auto_probes_when_cold(self):
        clear_cost_observations()
        decision = decide_executor(GRID, "auto", None, cpu_count=4)
        assert decision.executor == "serial"
        assert "probe" in decision.reason or "uncalibrated" in decision.reason

    def test_auto_serial_for_cheap_grids(self):
        clear_cost_observations()
        observe_point_cost(120, 20, False, 0.001)
        decision = decide_executor(GRID, "auto", None, cpu_count=4)
        assert decision.executor == "serial"
        assert "cheap" in decision.reason

    def test_auto_process_for_expensive_grids(self):
        clear_cost_observations()
        observe_point_cost(120, 20, False, 5.0)
        decision = decide_executor(GRID, "auto", None, cpu_count=4)
        assert decision.executor == "process"
        assert decision.workers == 4
        assert decision.est_total_s > 1.0

    def test_auto_thread_midband_with_store(self, monkeypatch, tmp_path):
        # The mid-band: grid worth running (est ~1s > 0.5s floor) but a
        # pool that costs 2s to spawn cannot win at 2 workers.  A store
        # attached changes nothing: threads would only overlap its I/O
        # with GIL-bound compute, so the sweep runs serial.
        reference = _reference()
        monkeypatch.setenv("REPRO_SPAWN_OVERHEAD_S", "2.0")
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 2)
        monkeypatch.setattr(runner_mod, "available_cpus", lambda: 2)
        clear_cost_observations()
        observe_point_cost(120, 20, False, 0.36)
        result = run_sweep(
            GRID, PARAMS, CM, executor="auto", workers=None, store=tmp_path
        )
        assert result.stats.executor == "serial"
        assert result.stats.workers == 1
        assert "spawn overhead eats the gain" in result.stats.decision["reason"]
        assert result.digest() == reference.digest()

    def test_point_cost_calibration_converges(self):
        clear_cost_observations()
        assert estimate_point_cost(120, 20, False) is None
        for _ in range(20):
            observe_point_cost(120, 20, False, 0.01)
        est = estimate_point_cost(120, 20, False)
        assert est == pytest.approx(0.01, rel=0.05)
        # weight scaling: more blocks (smaller b) => costlier point
        assert estimate_point_cost(120, 10, False) > est
        # the measured leg roughly doubles a point
        assert estimate_point_cost(120, 20, True) == pytest.approx(
            2 * est, rel=1e-9
        )

    def test_decision_serialises(self):
        decision = ExecutorDecision(
            executor="serial", requested="auto", workers=1,
            reason="test", cpu_count=2,
        )
        doc = decision.to_dict()
        assert doc["executor"] == "serial"
        assert doc["requested"] == "auto"


class TestDecisionRationale:
    """The reason strings are part of the contract: manifests and the
    ``sweep.decide`` span quote them verbatim, so audits grep for them."""

    def test_single_point_grids_never_fan_out(self):
        one = GRID[:1]
        decision = decide_executor(one, "auto", None, cpu_count=8)
        assert decision.executor == "serial"
        assert decision.workers == 1
        assert "nothing to fan out" in decision.reason

    def test_single_cpu_reason_names_the_overhead(self):
        clear_cost_observations()
        observe_point_cost(120, 20, False, 5.0)  # expensive, yet stays serial
        decision = decide_executor(GRID, "auto", None, cpu_count=1)
        assert decision.executor == "serial"
        assert "single CPU" in decision.reason
        assert "dispatch overhead" in decision.reason

    def test_cheap_grid_reason_quotes_the_floor(self):
        clear_cost_observations()
        observe_point_cost(120, 20, False, 0.001)
        decision = decide_executor(GRID, "auto", None, cpu_count=4)
        assert f"< {executor_mod.MIN_PARALLEL_S}s" in decision.reason
        assert decision.est_total_s is not None
        assert decision.spawn_overhead_s is None  # never measured

    def test_process_reason_quotes_both_predictions(self):
        clear_cost_observations()
        observe_point_cost(120, 20, False, 5.0)
        decision = decide_executor(GRID, "auto", None, cpu_count=4)
        assert decision.executor == "process"
        assert "pool predicted" in decision.reason
        assert f"{decision.workers} workers" in decision.reason
        assert decision.spawn_overhead_s == pytest.approx(0.05)  # env pin
        predicted = decision.spawn_overhead_s + (
            decision.est_total_s / decision.workers
        )
        assert f"{predicted:.3f}s" in decision.reason

    def test_spawn_loss_reason_on_storeless_midband(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPAWN_OVERHEAD_S", "2.0")
        clear_cost_observations()
        observe_point_cost(120, 20, False, 0.36)
        decision = decide_executor(GRID, "auto", None, cpu_count=2)
        assert decision.executor == "serial"
        assert "spawn overhead eats the gain" in decision.reason

    def test_decide_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor 'gpu'"):
            decide_executor(GRID, "gpu", None, cpu_count=4)

    def test_forced_worker_caps(self):
        # a forced pool is as wide as asked (every CPU when unset) and
        # never wider than the grid; only auto also caps at the CPU count
        decision = decide_executor(GRID, "process", 3, cpu_count=2)
        assert decision.workers == 3
        decision = decide_executor(GRID[:2], "process", 64, cpu_count=8)
        assert decision.workers == 2
        decision = decide_executor(GRID, "process", None, cpu_count=3)
        assert decision.workers == 3
        clear_cost_observations()
        observe_point_cost(120, 20, False, 5.0)
        decision = decide_executor(GRID, "auto", 64, cpu_count=2)
        assert (decision.executor, decision.workers) == ("process", 2)


class TestSpawnMeasurement:
    def test_env_override_wins_and_is_not_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPAWN_OVERHEAD_S", "1.25")
        assert executor_mod.measure_spawn_overhead() == 1.25
        monkeypatch.setenv("REPRO_SPAWN_OVERHEAD_S", "0.75")
        assert executor_mod.measure_spawn_overhead() == 0.75

    def test_real_measurement_is_cached_per_context(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPAWN_OVERHEAD_S", raising=False)
        executor_mod.clear_spawn_cache()
        first = executor_mod.measure_spawn_overhead()
        assert first > 0.0
        # second call must come from the cache, not a fresh pool
        monkeypatch.setattr(
            executor_mod.multiprocessing, "get_context",
            lambda *_: pytest.fail("re-measured a cached spawn overhead"),
        )
        assert executor_mod.measure_spawn_overhead() == first

    def test_grid_weight_scales_with_measured_leg(self):
        bare = executor_mod.grid_weight(GRID)
        assert bare > 0.0
        measured = expand_grid(
            120, [20, 30], ["diagonal", "stripped"], with_measured=True
        )
        assert executor_mod.grid_weight(measured) > bare
