"""The sweep executor: the ``workers`` rule, determinism, crash recovery.

Four properties pin the executor:

1. **Bit-identity.**  Every strategy — ``workers=1`` (serial),
   ``workers=2`` (process), ``workers="auto"`` — must produce the same
   ``results_sha256`` digest as a legacy serial sweep on the reference
   simulators (``tests/oracle.py``); strategies differ in wall time only.
2. **The 0.87x regression stays fixed.**  On a single-CPU host ``auto``
   must resolve to serial — the exact configuration in which the process
   pool once recorded 0.87x of serial — taking the same code path as a
   forced serial run (no pool is ever constructed), so it cannot be
   meaningfully slower.
3. **Crash-mid-chunk resume.**  A cost model that explodes partway
   through a store-backed sweep must leave the store consistent: a
   resumed run under every strategy completes and matches the cold
   digest bit for bit.
4. **``auto`` keeps the serial event stream.**  A cold traced ``auto``
   sweep emits exactly the simulated-time events of ``workers=1``, on
   the serial arm and on the pool arm alike.
"""

from __future__ import annotations

import time

import pytest

from repro.core import CalibratedCostModel, MEIKO_CS2
from repro.experiments import ExperimentStore
from repro.kernel import clear_all_caches
from repro.kernel.memo import point_weight
from repro.obs import Tracer, tracing
from repro.obs.events import WALL_TRACK
from repro.sweep import ExecutorDecision, decide_executor, expand_grid, run_sweep
from repro.sweep import executor as executor_mod
from repro.sweep import runner as runner_mod

from .oracle import reference_engine

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()
GRID = expand_grid(120, [20, 30], ["diagonal", "stripped"], with_measured=False)
#: heavier than MIN_PARALLEL_WEIGHT: ``auto`` pools it on a multi-CPU host
HEAVY = expand_grid(480, [10, 20], ["diagonal", "stripped"])
#: the ``workers`` value behind each strategy name
STRATEGIES = {"serial": 1, "process": 2, "auto": "auto"}

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
def _clean_state():
    clear_all_caches()
    yield
    clear_all_caches()


def _digest(**kwargs):
    return run_sweep(GRID, PARAMS, CM, **kwargs)


def _reference():
    """The legacy serial sweep on the reference simulators."""
    with reference_engine():
        result = _digest(workers=1)
    clear_all_caches()
    return result


class TestDigestsAcrossExecutors:
    @pytest.mark.parametrize("executor", STRATEGIES)
    def test_results_sha256_matches_legacy_serial(self, executor):
        reference = _reference()
        clear_all_caches()
        result = _digest(workers=STRATEGIES[executor])
        assert result.digest() == reference.digest()
        assert result.summaries == reference.summaries
        assert result.stats.decision is not None
        assert result.stats.executor == result.stats.decision["executor"]

    @pytest.mark.parametrize("executor", STRATEGIES)
    def test_store_backed_digest_and_resume(self, executor, tmp_path):
        reference = _reference()
        clear_all_caches()
        workers = STRATEGIES[executor]
        first = _digest(workers=workers, store=tmp_path)
        assert first.digest() == reference.digest()
        clear_all_caches()
        resumed = _digest(workers=workers, store=tmp_path)
        assert resumed.digest() == reference.digest()
        assert resumed.stats.cached == len(GRID)

    def test_executor_recorded_in_stats(self):
        result = _digest(workers=1)
        assert result.stats.executor == "serial"
        decision = result.stats.decision
        assert decision["requested"] == 1
        assert decision["reason"] == "forced by caller"

    def test_unknown_executor_rejected(self):
        # the strategy names are not ``workers`` values: one knob only
        for workers in ("gpu", "thread", "serial", "process"):
            with pytest.raises(ValueError, match="workers must be >= 1 or 'auto'"):
                run_sweep(GRID, PARAMS, CM, workers=workers)


class TestCrashMidChunkResume:
    @pytest.mark.parametrize("executor", STRATEGIES)
    def test_resume_completes_and_matches_cold(self, executor, tmp_path):
        reference = _reference()
        boom = ExplodingCostModel()
        workers = STRATEGIES[executor]
        clear_all_caches()
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(
                GRID, PARAMS, boom,
                workers=workers, chunk_size=1, store=tmp_path,
            )
        # the store holds only entries from chunks that completed; a
        # clean resumed run must finish the grid and match cold exactly
        clear_all_caches()
        resumed = _digest(workers=workers, store=tmp_path)
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
                workers=2, chunk_size=1, store=tmp_path,
            )
        store = ExperimentStore(tmp_path, PARAMS, CM)
        assert store.cached_count() == sum(1 for p in GRID if p.b != BOOM_B)


class TestSingleCpuRegression:
    """The BENCH_sweep 0.87x configuration: 1 CPU must stay serial."""

    def _force_single_cpu(self, monkeypatch):
        # no weight floor: the CPU count alone must keep auto serial
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 1)
        monkeypatch.setattr(executor_mod, "MIN_PARALLEL_WEIGHT", 0.0)

    def test_auto_resolves_to_serial_on_one_cpu(self, monkeypatch):
        self._force_single_cpu(monkeypatch)
        result = _digest(workers="auto")
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
        result = _digest(workers="auto")
        assert result.stats.executor == "serial"

    def test_auto_not_slower_than_serial_on_one_cpu(self, monkeypatch):
        # The ≤5% bound, measured with best-of-3 to shed noise: auto and
        # workers=1 share the serial code path on one CPU.
        self._force_single_cpu(monkeypatch)
        serial_wall = min(
            self._timed(workers=1) for _ in range(3)
        )
        auto_wall = min(
            self._timed(workers="auto") for _ in range(3)
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
        for workers, executor in ((1, "serial"), (2, "process")):
            decision = decide_executor(GRID, workers, cpu_count=4)
            assert decision.executor == executor
            assert decision.requested == workers
            assert decision.workers == workers

    def test_auto_serial_for_cheap_grids(self):
        decision = decide_executor(GRID, "auto", cpu_count=4)
        assert decision.executor == "serial"
        assert decision.workers == 1
        assert "too light" in decision.reason

    def test_auto_process_for_expensive_grids(self):
        decision = decide_executor(HEAVY, "auto", cpu_count=4)
        assert decision.executor == "process"
        assert decision.workers == 4
        assert decision.requested == "auto"

    def test_auto_thread_midband_with_store(self, monkeypatch, tmp_path):
        # The mid-band: several CPUs and points, but a grid too light to
        # repay a pool.  A store attached changes nothing: the sweep runs
        # serial and matches the reference digest.
        reference = _reference()
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 2)
        result = run_sweep(GRID, PARAMS, CM, workers="auto", store=tmp_path)
        assert result.stats.executor == "serial"
        assert result.stats.workers == 1
        assert "too light" in result.stats.decision["reason"]
        assert result.digest() == reference.digest()

    def test_decision_serialises(self):
        decision = ExecutorDecision(
            executor="serial", requested="auto", workers=1,
            reason="test", cpu_count=2,
        )
        doc = decision.to_dict()
        # the manifest's ``sweep.decision`` schema
        assert sorted(doc) == [
            "cpu_count", "executor", "reason", "requested", "workers",
        ]
        assert doc["executor"] == "serial"
        assert doc["requested"] == "auto"


class TestDecisionRationale:
    """The reason strings are part of the contract: manifests and the
    ``sweep.decide`` span quote them verbatim, so audits grep for them."""

    def test_single_point_grids_never_fan_out(self):
        one = HEAVY[:1]
        decision = decide_executor(one, "auto", cpu_count=8)
        assert decision.executor == "serial"
        assert decision.workers == 1
        assert "nothing to fan out" in decision.reason

    def test_single_cpu_reason_names_the_overhead(self):
        decision = decide_executor(HEAVY, "auto", cpu_count=1)  # heavy, yet serial
        assert decision.executor == "serial"
        assert "single CPU" in decision.reason
        assert "dispatch overhead" in decision.reason

    def test_cheap_grid_reason_quotes_the_floor(self):
        decision = decide_executor(GRID, "auto", cpu_count=4)
        floor = executor_mod.MIN_PARALLEL_WEIGHT
        weight = executor_mod.grid_weight(GRID)
        assert f"weight {weight:.3g} < {floor:.3g}" in decision.reason

    def test_floor_is_inclusive(self, monkeypatch):
        weight = executor_mod.grid_weight(GRID)
        monkeypatch.setattr(executor_mod, "MIN_PARALLEL_WEIGHT", weight)
        assert decide_executor(GRID, "auto", cpu_count=2).executor == "process"
        monkeypatch.setattr(executor_mod, "MIN_PARALLEL_WEIGHT", weight * 1.001)
        assert decide_executor(GRID, "auto", cpu_count=2).executor == "serial"

    def test_process_reason_quotes_weight_and_width(self):
        decision = decide_executor(HEAVY, "auto", cpu_count=4)
        weight = executor_mod.grid_weight(HEAVY)
        assert decision.executor == "process"
        assert f"grid weight {weight:.3g} >=" in decision.reason
        assert f"{decision.workers} workers on 4 CPUs" in decision.reason

    def test_decide_rejects_unknown_executor(self):
        for workers in ("gpu", 0, -1):
            with pytest.raises(ValueError, match="workers must be >= 1 or 'auto'"):
                decide_executor(GRID, workers, cpu_count=4)

    def test_forced_worker_caps(self):
        # a forced pool is as wide as asked and never wider than the
        # grid; only auto also caps at the CPU count
        decision = decide_executor(GRID, 3, cpu_count=2)
        assert decision.workers == 3
        decision = decide_executor(GRID[:2], 64, cpu_count=8)
        assert decision.workers == 2
        decision = decide_executor(GRID[:1], 4, cpu_count=8)
        assert (decision.executor, decision.workers) == ("process", 1)
        decision = decide_executor(HEAVY, "auto", cpu_count=2)
        assert (decision.executor, decision.workers) == ("process", 2)
        decision = decide_executor(HEAVY[:3], "auto", cpu_count=8)
        assert (decision.executor, decision.workers) == ("process", 3)


class TestGridWeight:
    def test_grid_weight_scales_with_measured_leg(self):
        bare = executor_mod.grid_weight(GRID)
        assert bare > 0.0
        measured = expand_grid(
            120, [20, 30], ["diagonal", "stripped"], with_measured=True
        )
        assert executor_mod.grid_weight(measured) == 2 * bare

    def test_point_weight_grows_as_blocks_shrink(self):
        assert point_weight(120, 10, False) > point_weight(120, 20, False)
        assert point_weight(120, 20, True) == 2 * point_weight(120, 20, False)

    def test_floor_separates_smoke_from_paper_grids(self):
        # paper-scale grids (n >= 240 over the Figure 7 blocks) pool on a
        # multi-CPU host; the n=120 smoke grids stay in the main process
        from repro.apps import PAPER_BLOCK_SIZES

        floor = executor_mod.MIN_PARALLEL_WEIGHT
        for n, layouts, heavy in (
            (480, ["diagonal", "stripped"], True),
            (240, ["diagonal"], True),
            (120, ["diagonal", "stripped"], False),
        ):
            blocks = [b for b in PAPER_BLOCK_SIZES if n % b == 0]
            weight = executor_mod.grid_weight(expand_grid(n, blocks, layouts))
            assert (weight >= floor) == heavy, (n, layouts, weight)


def _stream(tracer: Tracer) -> list[tuple]:
    """The simulated-time events, every field as recorded."""
    return [
        (e.name, e.kind, e.track, e.proc, e.ts, e.dur, e.attrs)
        for e in tracer.events
        if e.track != WALL_TRACK
    ]


class TestAutoKeepsSerialStream:
    """A cold traced ``auto`` sweep emits the ``workers=1`` event stream."""

    GRID = expand_grid(240, [20, 30, 40, 60, 80, 120], ["diagonal"])

    def _traced(self, workers):
        clear_all_caches()
        tracer = Tracer()
        with tracing(tracer):
            result = run_sweep(self.GRID, PARAMS, CM, workers=workers)
        return result, _stream(tracer)

    def _assert_auto_equals_serial(self, executor, width):
        auto, auto_stream = self._traced("auto")
        assert (auto.stats.executor, auto.stats.workers) == (executor, width)
        serial, serial_stream = self._traced(1)
        assert serial.stats.executor == "serial"
        assert auto_stream, "traced sweep recorded no simulated-time events"
        assert auto_stream == serial_stream
        assert auto.digest() == serial.digest()

    def test_one_cpu_auto_stream_equals_serial(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 1)
        self._assert_auto_equals_serial("serial", 1)

    def test_pool_auto_stream_equals_serial(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 2)
        monkeypatch.setattr(executor_mod, "MIN_PARALLEL_WEIGHT", 0.0)
        self._assert_auto_equals_serial("process", 2)
