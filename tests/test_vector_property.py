"""Property-based differential testing of the vectorized batch kernel.

The scalar kernel's property suite (``test_kernel_property.py``) pins
the kernel's *step* simulators to the reference simulators
(``tests/oracle.py``) on random programs; this suite pins the *batch* layer on top: for random
programs, random machines, random seeds and random batch widths, every
lane of :func:`repro.kernel.vector.simulate_programs_batch` must be
bit-identical to a standalone run of the oracle's whole-program loop
(``tests/oracle.py::simulate_program_reference``) over that lane —
totals, per-processor breakdowns, *and* the tie-break RNG stream each
lane consumed.  The GE-grid twin (:func:`evaluate_ge_points_batch`) is
pinned against the scalar sweep entrypoints, including the UQ
replicate path.

The properties target exactly the places a vectorized rewrite can
drift:

* summation regrouping (``np.sum`` pairwise vs the scalar left-fold),
* the width-1 specialisation vs the general SoA path,
* lane RNG privacy (step-major lockstep must not interleave draws),
* float64 round-trips at the numpy/python boundary.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockops import OP_NAMES
from repro.core import CalibratedCostModel, MEIKO_CS2, ProgramSimulator
from repro.core.loggp import LogGPParameters
from repro.core.predictor import summarize_ge_point, summarize_uq_point
from repro.kernel import clear_all_caches
from repro.kernel.vector import (
    compile_plan,
    evaluate_ge_points_batch,
    simulate_programs_batch,
)
from repro.sweep import SweepPoint
from repro.trace import TraceBuilder
from repro.uq import UQSpec

from .oracle import reference_engine, simulate_program_reference

CM = CalibratedCostModel()
MODES = ("standard", "worstcase")

# -- generators (program shape shared with the scalar kernel suite) ----------

_ops = st.tuples(
    st.sampled_from(OP_NAMES),
    st.sampled_from([4, 8, 16]),
)
_msg = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=2048),
)
_step = st.tuples(
    st.lists(st.tuples(st.integers(0, 4), _ops), max_size=6),
    st.lists(_msg, max_size=8),
)
_program = st.tuples(
    st.integers(min_value=2, max_value=5),
    st.lists(_step, min_size=1, max_size=3),
)

#: random-but-sane LogGP machines (non-negative, finite — the costs and
#: clocks discipline the batch kernel's unconditional adds rely on)
_machine = st.builds(
    lambda L, o, g, G: (L, o, g, G),
    st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=30.0, allow_nan=False),
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
)


def _build(spec):
    num_procs, steps = spec
    builder = TraceBuilder(num_procs)
    for work, messages in steps:
        for proc, (op, b) in work:
            builder.work(proc % num_procs, op, b)
        for src, dst, size in messages:
            builder.message(src % num_procs, dst % num_procs, size)
        builder.end_step()
    return builder.build()


def _params(machine, P):
    L, o, g, G = machine
    return LogGPParameters(L=L, o=o, g=g, G=G, P=P, name="hypothesis")


def _report_key(report):
    return (
        repr(report.total_us),
        repr(report.per_proc_total_us),
        repr(report.per_proc_comp_us),
        repr(report.per_proc_comm_busy_us),
    )


def _scalar(trace, params, mode, seed, fast, rng=None):
    """One run of the oracle's whole-program loop, on the kernel's step
    simulators (``fast``) or on the reference simulators."""
    clear_all_caches()
    with nullcontext() if fast else reference_engine():
        sim = ProgramSimulator(params, CM, mode=mode, seed=seed, rng=rng)
        return simulate_program_reference(sim, trace)


# -- batch vs scalar kernel vs reference simulator ---------------------------


@settings(max_examples=40, deadline=None)
@given(
    spec=_program,
    machines=st.lists(_machine, min_size=1, max_size=4),
    seeds=st.lists(st.integers(min_value=0, max_value=7), min_size=4, max_size=4),
)
def test_batch_lanes_bit_identical_to_scalar_and_seed(spec, machines, seeds):
    """Every lane of any batch == the scalar kernel == the reference."""
    trace = _build(spec)
    plan = compile_plan(trace)
    lanes = [(_params(m, trace.num_procs), CM) for m in machines]
    lane_seeds = seeds[: len(lanes)]

    clear_all_caches()
    batch = simulate_programs_batch(plan, lanes, lane_seeds, modes=MODES)

    for (params, _), seed, reports in zip(lanes, lane_seeds, batch):
        for mode in MODES:
            got = _report_key(reports[mode])
            assert got == _report_key(
                _scalar(trace, params, mode, seed, fast=True)
            ), f"batch != scalar kernel ({mode})"
            assert got == _report_key(
                _scalar(trace, params, mode, seed, fast=False)
            ), f"batch != reference simulator ({mode})"


@settings(max_examples=25, deadline=None)
@given(
    spec=_program,
    machine=_machine,
    seeds=st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=4),
)
def test_width_one_specialisation_matches_wide_batch(spec, machine, seeds):
    """Lane results must not depend on how many lanes ride along."""
    trace = _build(spec)
    plan = compile_plan(trace)
    params = _params(machine, trace.num_procs)
    lanes = [(params, CM)] * len(seeds)

    clear_all_caches()
    wide = simulate_programs_batch(plan, lanes, seeds, modes=MODES)
    for seed, reports in zip(seeds, wide):
        clear_all_caches()
        narrow = simulate_programs_batch(plan, [(params, CM)], [seed], modes=MODES)[0]
        for mode in MODES:
            assert _report_key(reports[mode]) == _report_key(narrow[mode])


def test_empty_batch_returns_no_lanes():
    """A batch of zero lanes simulates nothing and returns ``[]``."""
    builder = TraceBuilder(2)
    builder.work(0, "op1", 8)
    builder.message(0, 1, 64)
    builder.end_step()
    plan = compile_plan(builder.build())
    assert simulate_programs_batch(plan, [], []) == []


# -- RNG tie-break streams ---------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    num_procs=st.integers(min_value=2, max_value=4),
    sizes=st.lists(
        st.integers(min_value=1, max_value=4096), min_size=3, max_size=10
    ),
    seeds=st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=3),
)
def test_lane_rng_streams_match_scalar_runs(num_procs, sizes, seeds):
    """Each (lane, mode) consumes exactly the scalar run's RNG stream.

    All-to-one fan-in maximises clock ties, so the tie-break generator
    is drawn from heavily; after the batch, every injected generator's
    state must equal the state after the corresponding standalone
    scalar simulation — proof the lockstep step-major order neither
    reorders nor shares draws across lanes.
    """
    builder = TraceBuilder(num_procs)
    for i, size in enumerate(sizes):
        builder.message(i % (num_procs - 1) + 1, 0, size)
    builder.end_step()
    trace = builder.build()
    plan = compile_plan(trace)
    lanes = [(MEIKO_CS2, CM)] * len(seeds)

    batch_rngs = [
        {mode: np.random.default_rng(seed) for mode in MODES} for seed in seeds
    ]
    clear_all_caches()
    batch = simulate_programs_batch(
        plan, lanes, seeds, modes=MODES, rngs=batch_rngs
    )

    for seed, reports, rngs in zip(seeds, batch, batch_rngs):
        for mode in MODES:
            scalar_rng = np.random.default_rng(seed)
            report = _scalar(trace, MEIKO_CS2, mode, seed, fast=True, rng=scalar_rng)
            assert _report_key(reports[mode]) == _report_key(report)
            assert rngs[mode].bit_generator.state == scalar_rng.bit_generator.state, (
                f"lane RNG stream diverged from scalar run ({mode})"
            )


# -- GE grid twin ------------------------------------------------------------

_ge_config = st.sampled_from(
    [(40, 8), (40, 10), (40, 20), (60, 10), (60, 20), (60, 30)]
)
_layout = st.sampled_from(["diagonal", "stripped"])


@settings(max_examples=15, deadline=None)
@given(
    configs=st.lists(
        st.tuples(_ge_config, _layout, st.integers(min_value=0, max_value=5)),
        min_size=1,
        max_size=6,
    ),
)
def test_ge_batch_matches_scalar_sweep_entrypoint(configs):
    """Random GE grids: the batch evaluator == the reference
    summarize_ge_point per point."""
    points = [
        SweepPoint(n=n, b=b, layout=layout, seed=seed, with_measured=False)
        for (n, b), layout, seed in configs
    ]
    clear_all_caches()
    batch = evaluate_ge_points_batch(points, MEIKO_CS2, CM)
    for point, got in zip(points, batch):
        clear_all_caches()
        with reference_engine():
            expect = summarize_ge_point(
                point.n, point.b, point.layout, MEIKO_CS2, CM,
                with_measured=False, seed=point.seed,
            )
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in expect.items()
        }


@settings(max_examples=8, deadline=None)
@given(
    config=_ge_config,
    layout=_layout,
    seeds=st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=4,
                   unique=True),
    sigma=st.sampled_from([0.0, 0.05, 0.2]),
)
def test_ge_batch_matches_uq_replicates(config, layout, seeds, sigma):
    """UQ replicate lanes (same config, different seeds) == reference UQ path."""
    n, b = config
    spec = UQSpec(sigma=sigma, op_sigma=sigma / 2)
    points = [
        SweepPoint(n=n, b=b, layout=layout, seed=seed, with_measured=False)
        for seed in seeds
    ]
    clear_all_caches()
    batch = evaluate_ge_points_batch(points, MEIKO_CS2, CM, uq=spec)
    for point, got in zip(points, batch):
        clear_all_caches()
        with reference_engine():
            expect = summarize_uq_point(
                point.n, point.b, point.layout, MEIKO_CS2, CM, spec,
                with_measured=False, seed=point.seed,
            )
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in expect.items()
        }


def test_ge_batch_with_measured_matches_scalar():
    """The emulator leg (with_measured=True) rides the batch unchanged."""
    points = [
        SweepPoint(n=40, b=10, layout="diagonal", seed=s, with_measured=True)
        for s in (0, 1)
    ]
    clear_all_caches()
    batch = evaluate_ge_points_batch(points, MEIKO_CS2, CM)
    for point, got in zip(points, batch):
        clear_all_caches()
        with reference_engine():
            expect = summarize_ge_point(
                point.n, point.b, point.layout, MEIKO_CS2, CM,
                with_measured=True, seed=point.seed,
            )
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in expect.items()
        }
