"""The kernel differential oracle: kernel == reference, bit for bit.

``repro.kernel`` implements the three step simulators and memoises the
pure cost functions; the reference transcriptions of the algorithms live
in ``tests/oracle.py``, and the *only* acceptable difference between the
two is wall-clock.  These tests run every application trace (GE, Cannon,
stencil, triangular solve) through every engine (standard, worst-case,
causal) on the kernel and on the oracle, and require:

* identical :class:`PredictionReport` numbers — ``repr``-equal floats,
  not approx-equal;
* identical observability *event streams* (the tracer sees the same
  slices in the same order with the same timestamps — which also pins
  the DES event count and RNG consumption);
* identical emulator measurements (the jittered network draws from a
  shared RNG in send-completion order, so this catches any event
  reordering);
* identical sweep and UQ result digests, under one worker and across
  worker processes.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.apps import (
    CannonConfig,
    GEConfig,
    StencilConfig,
    TriangularConfig,
    build_cannon_trace,
    build_ge_trace,
    build_stencil_trace,
    build_trsv_trace,
    stencil_cost_table,
    trsv_cost_table,
)
from repro.core import MEIKO_CS2, CalibratedCostModel, ProgramSimulator
from repro.core.predictor import summarize_ge_point
from repro.kernel import clear_all_caches
from repro.layouts import DiagonalLayout, RowStrippedCyclicLayout
from repro.machine.emulator import MachineEmulator
from repro.obs import Tracer, tracing
from repro.sweep import expand_grid, run_sweep
from repro.uq import UQSpec, run_uq

from .oracle import reference_engine, simulate_program_reference

CM = CalibratedCostModel()
MODES = ("standard", "worstcase", "causal")


def _trace_cases():
    """Every application trace with its machine parameters and cost model."""
    cases = []
    for layout_cls in (DiagonalLayout, RowStrippedCyclicLayout):
        trace = build_ge_trace(GEConfig(120, 20, layout_cls(6, 8)))
        cases.append((f"ge-{layout_cls.__name__}", trace, MEIKO_CS2, CM))
    cases.append(
        (
            "cannon",
            build_cannon_trace(CannonConfig(n=96, num_procs=16)),
            MEIKO_CS2.with_(P=16),
            CM,
        )
    )
    stencil_cfg = StencilConfig(n=128, num_procs=8, iterations=6)
    cases.append(
        (
            "stencil",
            build_stencil_trace(stencil_cfg),
            MEIKO_CS2,
            stencil_cost_table(128, [stencil_cfg.rows_per_proc]),
        )
    )
    cases.append(
        (
            "triangular",
            build_trsv_trace(TriangularConfig(n=120, b=20, layout=DiagonalLayout(6, 8))),
            MEIKO_CS2,
            trsv_cost_table([20]),
        )
    )
    return cases


TRACE_CASES = _trace_cases()
TRACE_IDS = [c[0] for c in TRACE_CASES]


def _engine(fast, tracer=None):
    """The kernel (``fast``) or the oracle, for the block it guards."""
    if fast:
        return tracing(tracer) if tracer is not None else nullcontext()
    return reference_engine(tracer)


def _predict(trace, params, cost_model, mode, fast):
    """One traced prediction run: (report, tracer event stream reprs).

    ``fast`` runs ``ProgramSimulator.run``; otherwise the oracle's
    whole-program loop runs on the reference simulators.
    """
    clear_all_caches()
    tracer = Tracer()
    sim = ProgramSimulator(params, cost_model, mode=mode, seed=0)
    with _engine(fast, tracer):
        report = sim.run(trace) if fast else simulate_program_reference(sim, trace)
    return report, [repr(e) for e in tracer.events]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "trace,params,cost_model",
    [c[1:] for c in TRACE_CASES],
    ids=TRACE_IDS,
)
def test_prediction_bit_identical(trace, params, cost_model, mode):
    """Every app x engine: fast and reference predictions are bit-equal."""
    ref, ref_events = _predict(trace, params, cost_model, mode, fast=False)
    fast, fast_events = _predict(trace, params, cost_model, mode, fast=True)

    assert repr(fast.total_us) == repr(ref.total_us)
    assert repr(fast.per_proc_total_us) == repr(ref.per_proc_total_us)
    assert repr(fast.per_proc_comp_us) == repr(ref.per_proc_comp_us)
    assert repr(fast.per_proc_comm_busy_us) == repr(ref.per_proc_comm_busy_us)
    assert fast_events == ref_events


@pytest.mark.parametrize(
    "trace,params,cost_model",
    [c[1:] for c in TRACE_CASES],
    ids=TRACE_IDS,
)
def test_emulator_bit_identical(trace, params, cost_model):
    """The emulated machine (jittered network, shared RNG) is untouched."""

    def run(fast):
        clear_all_caches()
        tracer = Tracer()
        with _engine(fast, tracer):
            report = MachineEmulator(
                params=params, cost_model=cost_model, seed=3
            ).run(trace)
        return report, [repr(e) for e in tracer.events]

    ref, ref_events = run(False)
    fast, fast_events = run(True)
    assert repr(fast.total_us) == repr(ref.total_us)
    assert repr(fast.per_proc_total_us) == repr(ref.per_proc_total_us)
    assert repr(fast.per_proc_comp_us) == repr(ref.per_proc_comp_us)
    assert repr(fast.per_proc_cache_us) == repr(ref.per_proc_cache_us)
    assert repr(fast.per_proc_local_us) == repr(ref.per_proc_local_us)
    assert fast_events == ref_events


@pytest.mark.parametrize(
    "trace,params,cost_model",
    [c[1:] for c in TRACE_CASES],
    ids=TRACE_IDS,
)
def test_untraced_emulator_bit_identical(trace, params, cost_model):
    """Untraced, the emulator replays each causal step without events."""
    clear_all_caches()
    with reference_engine():
        ref = MachineEmulator(params=params, cost_model=cost_model, seed=3).run(trace)
    clear_all_caches()
    fast = MachineEmulator(params=params, cost_model=cost_model, seed=3).run(trace)
    assert repr(fast.total_us) == repr(ref.total_us)
    assert repr(fast.per_proc_total_us) == repr(ref.per_proc_total_us)
    assert repr(fast.per_proc_comp_us) == repr(ref.per_proc_comp_us)
    assert repr(fast.per_proc_cache_us) == repr(ref.per_proc_cache_us)
    assert repr(fast.per_proc_local_us) == repr(ref.per_proc_local_us)


def test_ge_point_summary_bit_identical():
    """The full point pipeline (predictions + emulator) round-trips."""
    with reference_engine():
        ref = summarize_ge_point(120, 30, "diagonal", MEIKO_CS2, CM, seed=0)
    fast = summarize_ge_point(120, 30, "diagonal", MEIKO_CS2, CM, seed=0)
    assert set(ref) == set(fast)
    for key in ref:
        assert repr(fast[key]) == repr(ref[key]), key


class TestSweepDigests:
    GRID = expand_grid([120], [20, 30], ["diagonal", "stripped"], seeds=(0,))

    def _digest(self, fast, workers):
        # forked workers inherit the oracle injection
        with _engine(fast):
            return run_sweep(
                self.GRID, MEIKO_CS2, CM, workers=workers, store=None,
                mp_context="fork",
            ).digest()

    def test_single_worker(self):
        assert self._digest(True, 1) == self._digest(False, 1)

    def test_two_workers(self):
        """Pool workers compute the reference results bit for bit."""
        ref = self._digest(False, 1)
        assert self._digest(True, 2) == ref
        assert self._digest(False, 2) == ref


class TestUQDigests:
    SPEC = UQSpec(sigma=0.05, op_sigma=0.03, jitter_sigma=0.1)

    def _run(self, fast):
        with _engine(fast):
            result = run_uq(
                [120], [30], ["diagonal"], MEIKO_CS2, CM,
                spec=self.SPEC, replicates=3,
            )
        return result.replicate_digest(), result.summary_digest()

    def test_perturbed_ensemble_digests(self):
        """Perturbed replicates (scaled costs, jittered nets) stay bit-equal."""
        assert self._run(True) == self._run(False)

class TestBatchLanes:
    """The vectorized batch kernel joins the oracle: every app trace,
    every lane of a multi-machine batch, bit-equal to the reference."""

    MACHINES = [
        MEIKO_CS2,
        MEIKO_CS2.with_(L=4.0, o=2.0),
        MEIKO_CS2.with_(g=25.0, G=0.1),
    ]
    SEEDS = (0, 3, 7)

    @pytest.mark.parametrize(
        "trace,params,cost_model",
        [c[1:] for c in TRACE_CASES],
        ids=TRACE_IDS,
    )
    def test_batch_lanes_bit_identical_to_reference(self, trace, params, cost_model):
        from repro.kernel.vector import GE_MODES, compile_plan, simulate_programs_batch

        plan = compile_plan(trace)
        lanes = [(params.with_(L=m.L, o=m.o, g=m.g, G=m.G), cost_model)
                 for m in self.MACHINES]
        clear_all_caches()
        batch = simulate_programs_batch(plan, lanes, list(self.SEEDS), modes=GE_MODES)

        for (lane_params, _), seed, reports in zip(lanes, self.SEEDS, batch):
            for mode in GE_MODES:
                clear_all_caches()
                with reference_engine():
                    ref = simulate_program_reference(
                        ProgramSimulator(lane_params, cost_model, mode=mode, seed=seed),
                        trace,
                    )
                got = reports[mode]
                assert repr(got.total_us) == repr(ref.total_us), (mode, seed)
                assert repr(got.per_proc_total_us) == repr(ref.per_proc_total_us)
                assert repr(got.per_proc_comp_us) == repr(ref.per_proc_comp_us)
                assert repr(got.per_proc_comm_busy_us) == repr(
                    ref.per_proc_comm_busy_us
                )


class TestExecutorDigests:
    """Every ``workers`` strategy agrees with the serial reference."""

    GRID = expand_grid([120], [20, 30], ["diagonal", "stripped"], seeds=(0,))

    def test_all_executors_match_reference(self):
        with reference_engine():
            ref = run_sweep(self.GRID, MEIKO_CS2, CM, workers=1).digest()
        for workers in (1, 2, "auto"):
            clear_all_caches()
            result = run_sweep(self.GRID, MEIKO_CS2, CM, workers=workers)
            assert result.digest() == ref, workers

    def test_uq_executor_matches_reference(self):
        spec = UQSpec(sigma=0.05, op_sigma=0.03, jitter_sigma=0.1)

        def run(fast, workers):
            clear_all_caches()
            with _engine(fast):
                r = run_uq(
                    [120], [30], ["diagonal"], MEIKO_CS2, CM,
                    spec=spec, replicates=3, workers=workers,
                )
            return r.replicate_digest(), r.summary_digest()

        ref = run(False, 1)
        for workers in (1, "auto"):
            assert run(True, workers) == ref, workers
