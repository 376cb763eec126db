"""``ProgramSimulator.run`` equals the oracle's whole-program loop, extensions included.

``ProgramSimulator.run`` compiles the trace into a plan and runs the
batch kernel's computation fold and step replay as one lane;
``tests/oracle.py::simulate_program_reference`` walks the trace's
objects op by op.  For every application trace (GE, Cannon, stencil,
triangular solve, and a variable-block trace whose cache footprint
depends on each block's largest ``b``), every engine and each
prediction extension — ``overlap``, ``cache_model``,
``iter_overhead_us`` > 0, all three together — the two must return
``repr``-equal reports and leave an injected tie-break generator in the
same state.  Traced under :func:`~tests.oracle.reference_engine`, they
must emit the same event stream and the same ``sim.*`` counters.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
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
from repro.core import (
    MEIKO_CS2,
    CachePredictionModel,
    CalibratedCostModel,
    ProgramSimulator,
    TableCostModel,
)
from repro.kernel import clear_all_caches
from repro.kernel.vector import _fold_computation, compile_plan
from repro.layouts import DiagonalLayout
from repro.obs import Tracer
from repro.trace import TraceBuilder

from .oracle import reference_engine, simulate_program_reference

CM = CalibratedCostModel()
MODES = ("standard", "worstcase", "causal")


def _variable_block_trace():
    """Coarse then fine phases on a ring, as in ``examples/variable_blocks.py``.

    Block ``(p, 0)`` is touched at b=32 and then at b=8, so its footprint
    is its largest size: 8 KiB, plus 15 fine blocks of 512 B.
    """
    tb = TraceBuilder(num_procs=4)
    for phase in range(6):
        b = 32 if phase < 3 else 8
        for proc in range(4):
            for i in range(1 if b == 32 else 16):
                tb.work(proc, "op4", b, block=(proc, i), iteration=phase)
        for proc in range(4):
            tb.message(proc, (proc + 1) % 4, b * b * 8)
        tb.end_step(label=f"phase {phase}")
    return tb.build(meta={"app": "variable-blocks"})


def _cases():
    """``(id, trace, params, cost_model, cache_model)``.

    Where it can, each cache model is small enough that some processor's
    resident set overflows it, which charges misses on GE and the
    variable-block trace.  Cannon's operands (18 KiB) are larger than its
    footprint (4.5 KiB), so they stream and are charged nothing; the
    stencil and triangular ops have no operand size, so their cache stays
    larger than every footprint.
    """
    stencil = StencilConfig(n=128, num_procs=8, iterations=6)
    return [
        ("ge-diagonal", build_ge_trace(GEConfig(120, 20, DiagonalLayout(6, 8))),
         MEIKO_CS2, CM, CachePredictionModel(cache_bytes=12 * 1024)),
        ("cannon", build_cannon_trace(CannonConfig(n=96, num_procs=16)),
         MEIKO_CS2.with_(P=16), CM, CachePredictionModel(cache_bytes=4096)),
        ("stencil", build_stencil_trace(stencil), MEIKO_CS2,
         stencil_cost_table(128, [stencil.rows_per_proc]), CachePredictionModel()),
        ("triangular",
         build_trsv_trace(TriangularConfig(n=120, b=20, layout=DiagonalLayout(6, 8))),
         MEIKO_CS2, trsv_cost_table([20]), CachePredictionModel()),
        ("variable-blocks", _variable_block_trace(), MEIKO_CS2.with_(P=4), CM,
         CachePredictionModel(cache_bytes=8192)),
    ]


CASES = _cases()
CASE_IDS = [c[0] for c in CASES]
SETTINGS = ("plain", "overlap", "cache", "iter", "all")


def _simulator(params, cost_model, cache, mode, setting, rng):
    options = {
        "plain": {},
        "overlap": {"overlap": True},
        "cache": {"cache_model": cache},
        "iter": {"iter_overhead_us": 3.5},
        "all": {"overlap": True, "cache_model": cache, "iter_overhead_us": 3.5},
    }[setting]
    return ProgramSimulator(params, cost_model, mode=mode, seed=0, rng=rng, **options)


def _key(report):
    return (
        repr(report.total_us),
        repr(report.per_proc_total_us),
        repr(report.per_proc_comp_us),
        repr(report.per_proc_comm_busy_us),
        report.meta,
    )


def _both(case, mode, setting, engine=lambda run: nullcontext()):
    """``(report, generator state)`` of the plan path, then of the oracle
    loop, each run inside ``engine(run)``."""
    _, trace, params, cost_model, cache = case
    out = []
    for run in (ProgramSimulator.run, simulate_program_reference):
        clear_all_caches()
        rng = np.random.default_rng(3)
        sim = _simulator(params, cost_model, cache, mode, setting, rng)
        with engine(run):
            report = run(sim, trace)
        out.append((report, rng.bit_generator.state))
    return out


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_run_matches_oracle_loop(case, mode, setting):
    (got, got_state), (ref, ref_state) = _both(case, mode, setting)
    assert _key(got) == _key(ref)
    assert got_state == ref_state


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_traced_stream_matches_oracle_loop(case, mode, setting):
    tracers = {}

    def engine(run):
        tracers[run] = Tracer()
        return reference_engine(tracers[run])

    (got, got_state), (ref, ref_state) = _both(case, mode, setting, engine)
    assert _key(got) == _key(ref)
    assert got_state == ref_state
    plan_tracer = tracers[ProgramSimulator.run]
    oracle_tracer = tracers[simulate_program_reference]
    events = [repr(e) for e in oracle_tracer.events]
    assert events  # a vacuous comparison would prove nothing
    assert [repr(e) for e in plan_tracer.events] == events
    counters = [
        {k: v for k, v in t.metrics.snapshot()["counters"].items() if k.startswith("sim.")}
        for t in (plan_tracer, oracle_tracer)
    ]
    assert counters[0] == counters[1]
    assert counters[0]["sim.program_runs"] == 1


@pytest.mark.parametrize("case_id", ["ge-diagonal", "variable-blocks"])
def test_cache_setting_charges_misses(case_id):
    """The cache models above do price misses, so the parity is not vacuous."""
    case = CASES[CASE_IDS.index(case_id)]
    (plain, _), _ = _both(case, "standard", "plain")
    (cached, _), _ = _both(case, "standard", "cache")
    assert cached.comp_us > plain.comp_us


def test_variable_block_misses_come_from_the_largest_b():
    """Only the true footprint (block ``(p, 0)`` at b=32) overflows the
    8 KiB cache: at its last size, b=8, the 16 fine blocks would fit."""
    cache = CASES[CASE_IDS.index("variable-blocks")][4]
    assert cache.extra_cost("op4", 8, 32 * 32 * 8 + 15 * 8 * 8 * 8) > 0.0
    assert cache.extra_cost("op4", 8, 16 * 8 * 8 * 8) == 0.0


def test_cache_prices_only_the_ops_a_processor_runs():
    """Processor 0 overflows the cache running op4; processor 1 runs an op
    with no operand size and fits.  The object loop never asks the cache
    model about processor 0 running that op, and neither may the plan."""
    tb = TraceBuilder(num_procs=2)
    for i in range(16):
        tb.work(0, "op4", 8, block=(0, i))
    tb.work(1, "jacobi", 8, block=(1, 0))
    tb.message(0, 1, 512)
    tb.end_step()
    costs = TableCostModel({"op4": {8: 10.0}, "jacobi": {8: 5.0}})
    case = ("mixed", tb.build(), MEIKO_CS2.with_(P=2), costs,
            CachePredictionModel(cache_bytes=4096))
    (got, _), (ref, _) = _both(case, "standard", "cache")
    assert _key(got) == _key(ref)
    assert got.per_proc_comp_us[0] > 160.0


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_wide_fold_matches_width_one_with_extensions(case, width):
    """The extensions fold the same in the multi-lane and width-1 paths."""
    _, trace, params, cost_model, cache = case
    plan = compile_plan(trace)
    resident = {
        proc: sum(b * b * 8 for b in sizes.values())
        for proc, sizes in trace.blocks_by_proc().items()
    }
    machines = [(params, cost_model)] * width
    extensions = {"cache_model": cache, "resident": resident, "iter_overhead_us": 3.5}
    wide = _fold_computation(plan, machines, **extensions)
    narrow = _fold_computation(plan, machines[:1], **extensions)
    assert [
        [(proc, ops, [repr(t) for t in times]) for proc, ops, times in row]
        for row in wide
    ] == [
        [(proc, ops, [repr(times[0])] * width) for proc, ops, times in row]
        for row in narrow
    ]
