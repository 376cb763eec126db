"""Property-based differential testing of the kernel.

The differential oracle pins the kernel on the four *real*
application traces; this suite closes the gap between "the apps we
ship" and "programs the simulators accept".  Hypothesis generates small
random oblivious programs through :class:`repro.trace.TraceBuilder` —
arbitrary work assignments, arbitrary message patterns (fan-in, fan-out,
self-messages, idle processors, empty steps) — and every one must
simulate bit-identically on the kernel and on the reference simulators
(``tests/oracle.py``), under all three engines.

Random programs are much better than the apps at exercising the
tie-breaking RNG (apps are too regular to tie often) and the worst-case
algorithm's deadlock-breaking branch.
"""

from __future__ import annotations

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockops import OP_NAMES
from repro.core import MEIKO_CS2, CalibratedCostModel, ProgramSimulator
from repro.kernel import clear_all_caches
from repro.trace import TraceBuilder

from .oracle import reference_engine, simulate_program_reference

CM = CalibratedCostModel()
MODES = ("standard", "worstcase", "causal")

# -- program generator -------------------------------------------------------

_ops = st.tuples(
    st.sampled_from(OP_NAMES),          # op
    st.sampled_from([4, 8, 16]),        # block size
)
_msg = st.tuples(
    st.integers(min_value=0, max_value=4),   # src (mod P)
    st.integers(min_value=0, max_value=4),   # dst (mod P) — src==dst is a
    st.integers(min_value=1, max_value=2048),  # size; local message, allowed
)
_step = st.tuples(
    st.lists(st.tuples(st.integers(0, 4), _ops), max_size=6),  # work items
    st.lists(_msg, max_size=8),                                # messages
)
_program = st.tuples(
    st.integers(min_value=2, max_value=5),    # num_procs
    st.lists(_step, min_size=1, max_size=3),  # steps
)


def _build(spec):
    """Materialise a generated spec into a ProgramTrace."""
    num_procs, steps = spec
    builder = TraceBuilder(num_procs)
    for work, messages in steps:
        for proc, (op, b) in work:
            builder.work(proc % num_procs, op, b)
        for src, dst, size in messages:
            builder.message(src % num_procs, dst % num_procs, size)
        builder.end_step()
    return builder.build()


def _run(trace, mode, fast, seed):
    """``ProgramSimulator.run`` (``fast``), or the oracle's whole-program
    loop on the reference simulators."""
    clear_all_caches()
    sim = ProgramSimulator(MEIKO_CS2, CM, mode=mode, seed=seed)
    with nullcontext() if fast else reference_engine():
        report = sim.run(trace) if fast else simulate_program_reference(sim, trace)
    return (
        repr(report.total_us),
        repr(report.per_proc_total_us),
        repr(report.per_proc_comp_us),
        repr(report.per_proc_comm_busy_us),
    )


@settings(max_examples=60, deadline=None)
@given(spec=_program, seed=st.integers(min_value=0, max_value=7))
def test_random_programs_bit_identical(spec, seed):
    """Any small program, any engine, any tie-break seed: kernel == reference."""
    trace = _build(spec)
    for mode in MODES:
        ref = _run(trace, mode, fast=False, seed=seed)
        fast = _run(trace, mode, fast=True, seed=seed)
        assert fast == ref, f"kernel/reference divergence in mode {mode!r}"


@settings(max_examples=20, deadline=None)
@given(
    num_procs=st.integers(min_value=2, max_value=4),
    sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=2, max_size=10),
    seed=st.integers(min_value=0, max_value=3),
)
def test_all_to_one_fanin_bit_identical(num_procs, sizes, seed):
    """Heavy fan-in onto one receiver — the standard algorithm's tie-rich
    worst case (every sender starts at the same clock)."""
    builder = TraceBuilder(num_procs)
    for i, size in enumerate(sizes):
        builder.message(i % (num_procs - 1) + 1, 0, size)
    builder.end_step()
    trace = builder.build()
    for mode in MODES:
        assert _run(trace, mode, True, seed) == _run(trace, mode, False, seed)
