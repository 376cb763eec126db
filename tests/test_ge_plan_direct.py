"""``ge_plan`` compiles the GE wavefront straight into the plan format.

:func:`repro.kernel.vector.ge_plan` builds its :class:`ProgramPlan` from
the recurrence in :func:`repro.apps.gauss.ge_steps`, with no trace in
between.  The object-building loop it replaced lives on as
``build_ge_trace_reference`` in ``tests/oracle.py``, and these tests hold
every consumer of the direct plan to it:

* the plan equals ``compile_plan`` of the reference trace, field for
  field, on every layout — including one block (only ``op1`` in the op
  table), two blocks per side, one processor, and a processor count that
  does not divide the block grid;
* the pattern the oracle builds from a plan step's records
  (``pattern_of``, what its reference simulators run on) equals the
  reference trace's pattern, message for message;
* ``build_ge_trace`` (now a wrapper of the same recurrence) equals the
  reference trace;
* the emulator measures the same on the direct plan as on a trace.
"""

from __future__ import annotations

import pytest

from repro.apps.gauss import GEConfig, build_ge_trace
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.kernel import clear_all_caches
from repro.kernel.vector import compile_plan, ge_plan
from repro.layouts import LAYOUTS
from repro.machine import JitteredNetwork, MachineEmulator

from .oracle import build_ge_trace_reference, pattern_of

CM = CalibratedCostModel()

#: ``(n, b, P)``: nb=1, nb=2, P=1, P=3 not dividing nb=5, and a wider grid
CASES = [(60, 60, 4), (60, 30, 4), (120, 20, 1), (120, 24, 3), (96, 12, 8)]
LAYOUT_NAMES = sorted(LAYOUTS)


def _reference(n, b, layout, P):
    return build_ge_trace_reference(
        GEConfig(n=n, b=b, layout=LAYOUTS[layout](n // b, P))
    )


def _plan_fields(plan) -> tuple:
    return (
        plan.num_procs,
        plan.op_table,
        plan.meta,
        plan.block_counts,
        [
            (s.num_procs, s.work, s.remote, s.local, s.participants)
            for s in plan.steps
        ],
    )


def _messages(pattern) -> list[tuple]:
    return [(m.src, m.dst, m.size, m.uid, m.seq) for m in pattern]


def _trace_fields(trace) -> tuple:
    return (
        trace.num_procs,
        trace.meta,
        [
            (
                step.label,
                list(step.work.items()),
                None if step.pattern is None else (
                    step.pattern.num_procs, _messages(step.pattern)
                ),
            )
            for step in trace.steps
        ],
    )


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
@pytest.mark.parametrize("n,b,P", CASES)
def test_direct_plan_equals_compiled_reference_trace(n, b, P, layout):
    plan = ge_plan(n, b, layout, P)
    assert _plan_fields(plan) == _plan_fields(compile_plan(_reference(n, b, layout, P)))
    if n == b:
        assert plan.op_table == (("op1", b),)


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
@pytest.mark.parametrize("n,b,P", CASES)
def test_step_pattern_equals_reference_pattern(n, b, P, layout):
    plan = ge_plan(n, b, layout, P)
    trace = _reference(n, b, layout, P)
    assert len(plan.steps) == len(trace.steps)
    for pstep, step in zip(plan.steps, trace.steps):
        pattern = pattern_of(pstep.num_procs, pstep.remote, pstep.local)
        assert pattern.num_procs == step.pattern.num_procs
        assert _messages(pattern) == _messages(step.pattern)


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
@pytest.mark.parametrize("n,b,P", CASES)
def test_build_ge_trace_equals_reference(n, b, P, layout):
    config = GEConfig(n=n, b=b, layout=LAYOUTS[layout](n // b, P))
    assert _trace_fields(build_ge_trace(config)) == _trace_fields(
        build_ge_trace_reference(config)
    )


def _report(report) -> tuple:
    return tuple(
        repr(value)
        for value in (
            report.total_us,
            report.per_proc_comp_us,
            report.per_proc_cache_us,
            report.per_proc_local_us,
            report.per_proc_total_us,
            report.meta,
        )
    )


@pytest.mark.parametrize("network", [None, {"jitter_sigma": 0.3, "straggler_prob": 0.05}],
                         ids=["default-network", "uq-network"])
@pytest.mark.parametrize(
    "n,b,layout,seed",
    [(120, 20, "diagonal", 0), (120, 24, "stripped", 3), (96, 12, "block2d", 7)],
)
def test_emulator_on_direct_plan_equals_trace_run(n, b, layout, seed, network):
    def emulator():
        return MachineEmulator(
            params=MEIKO_CS2, cost_model=CM, seed=seed,
            network=None if network is None
            else JitteredNetwork(params=MEIKO_CS2, seed=seed, **network),
        )

    clear_all_caches()
    on_trace = emulator().run(_reference(n, b, layout, MEIKO_CS2.P))
    clear_all_caches()
    on_plan = emulator().run(ge_plan(n, b, layout, MEIKO_CS2.P))
    assert _report(on_plan) == _report(on_trace)
