"""A traced sweep runs on the batch evaluator and emits the object-loop stream.

Every GE point is evaluated by :func:`repro.kernel.vector.evaluate_ge_points_batch`,
traced or not.  Traced, its lanes must emit exactly what the scalar
engines emit for the same points, one point after another: the oracle's
whole-program loop over the trace's objects
(``tests/oracle.py::simulate_program_reference``, on the kernel's step
simulators) in standard mode, then in worst-case mode, then the
:class:`~repro.machine.MachineEmulator` —
the same simulated-time events (name, kind, ts, dur, proc, track, attrs;
floats compared by ``repr``), the same ``sim.*``/``des.*``/``emulator.*``
counters and the same results digest, at one worker and at two.

The second half pins the differential oracle's reach:
``tests/oracle.py::reference_engine`` must route every communication
step of both GE entry points, of ``ProgramSimulator.run`` and of the
emulator through the reference simulators, traced or not, or the oracle
suites would compare the kernel with itself.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel, ProgramSimulator
from repro.core.predictor import GERow, _flatten_ge_row, _uq_machine, run_ge_point
from repro.experiments import ExperimentStore, PointSummary
from repro.kernel import vector
from repro.kernel.tracecache import ge_trace
from repro.kernel.vector import evaluate_ge_points_batch, ge_plan
from repro.machine import MachineEmulator
from repro.obs import Tracer, tracing
from repro.obs.events import WALL_TRACK
from repro.sweep import SweepPoint, SweepResult, expand_grid, run_sweep
from repro.uq import UQSpec

from . import oracle

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()
COUNTER_PREFIXES = ("sim.", "des.", "emulator.")

DETERMINISTIC = expand_grid(96, [12, 24, 48], ["diagonal", "stripped"])
UQ_SPEC = UQSpec(sigma=0.05, op_sigma=0.03, jitter_sigma=0.1)
UQ_GRID = expand_grid(96, [24, 48], ["diagonal"], seeds=(1, 2, 3))


def _stream(tracer: Tracer) -> list[str]:
    """The simulated-time events, every field spelled exactly."""
    return [
        repr((e.name, e.kind, e.ts, e.dur, e.proc, e.track, e.attrs))
        for e in tracer.events
        if e.track != WALL_TRACK
    ]


def _counters(tracer: Tracer) -> dict:
    return {
        name: value
        for name, value in tracer.metrics.snapshot()["counters"].items()
        if name.startswith(COUNTER_PREFIXES)
    }


def _reference(grid, uq):
    """Each point through the object loop and the emulator, in grid order,
    one tracer."""
    tracer = Tracer()
    summaries = []
    with tracing(tracer):
        for point in grid:
            if uq is None:
                params, cost, emulator = PARAMS, CM, None
            else:
                params, cost, emulator = _uq_machine(
                    PARAMS, CM, uq, point.seed, with_measured=point.with_measured
                )
            trace = ge_trace(point.n, point.b, point.layout, params.P)
            std, wc = (
                oracle.simulate_program_reference(
                    ProgramSimulator(params, cost, mode=mode, seed=point.seed), trace
                )
                for mode in ("standard", "worstcase")
            )
            if emulator is None:
                emulator = MachineEmulator(params=params, cost_model=cost, seed=point.seed)
            measured = emulator.run(trace)
            row = GERow(point.n, point.b, point.layout, std, wc, measured)
            summaries.append(PointSummary(**_flatten_ge_row(row, point.seed)))
    digest = SweepResult(points=tuple(grid), summaries=summaries, stats=None).digest()
    return tracer, digest


@pytest.fixture(scope="module")
def references():
    return {
        "deterministic": _reference(DETERMINISTIC, None),
        "uq": _reference(UQ_GRID, UQ_SPEC),
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["deterministic", "uq"])
def test_traced_sweep_matches_scalar_stream(references, case, workers):
    grid, uq = (DETERMINISTIC, None) if case == "deterministic" else (UQ_GRID, UQ_SPEC)
    ref_tracer, ref_digest = references[case]
    tracer = Tracer()
    with tracing(tracer):
        result = run_sweep(
            grid, PARAMS, CM, workers=workers, mp_context="fork", uq=uq,
            chunk_size=2 if workers > 1 else None,
        )
    assert result.stats.computed == len(grid)
    ref_events = _stream(ref_tracer)
    assert ref_events  # a vacuous comparison would prove nothing
    assert _stream(tracer) == ref_events
    assert _counters(tracer) == _counters(ref_tracer)
    assert result.digest() == ref_digest
    untraced = run_sweep(grid, PARAMS, CM, workers=1, uq=uq)
    assert untraced.digest() == ref_digest


# -- the oracle's reach --------------------------------------------------------


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the reference simulators' calls per mode."""
    calls: Counter = Counter()
    for mode, fn in list(oracle.REFERENCE_SIMULATORS.items()):
        def spy(*args, _fn=fn, _mode=mode, **kwargs):
            calls[_mode] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setitem(oracle.REFERENCE_SIMULATORS, mode, spy)
    return calls


def _comm_steps(n, b, layout) -> int:
    return sum(bool(s.remote) for s in ge_plan(n, b, layout, PARAMS.P).steps)


def test_reference_engine_reaches_oracle_from_run_ge_point(oracle_calls):
    with oracle.reference_engine():
        run_ge_point(96, 24, "diagonal", PARAMS, CM, with_measured=False)
    steps = _comm_steps(96, 24, "diagonal")
    assert steps > 0
    assert oracle_calls == {"standard": steps, "worstcase": steps}


def test_reference_engine_reaches_oracle_from_batch(oracle_calls):
    points = [
        SweepPoint(n=96, b=24, layout="diagonal", seed=seed, with_measured=False)
        for seed in (0, 1)
    ] + [SweepPoint(n=96, b=48, layout="stripped", seed=0, with_measured=False)]
    with oracle.reference_engine():
        evaluate_ge_points_batch(points, PARAMS, CM)
    steps = 2 * _comm_steps(96, 24, "diagonal") + _comm_steps(96, 48, "stripped")
    assert oracle_calls == {"standard": steps, "worstcase": steps}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_reference_engine_reaches_oracle_from_emulator(oracle_calls, traced):
    """A measured point: both predictions and every causal step of the
    emulator run on the oracle."""
    with oracle.reference_engine(Tracer() if traced else None):
        run_ge_point(96, 24, "diagonal", PARAMS, CM, with_measured=True)
    steps = _comm_steps(96, 24, "diagonal")
    assert steps > 0
    assert oracle_calls == {"standard": steps, "worstcase": steps, "causal": steps}


def test_reference_engine_reaches_oracle_from_program_simulator(oracle_calls):
    trace = ge_trace(96, 24, "diagonal", PARAMS.P)
    with oracle.reference_engine():
        for mode in ("standard", "worstcase", "causal"):
            ProgramSimulator(PARAMS, CM, mode=mode).run(trace)
    steps = _comm_steps(96, 24, "diagonal")
    assert oracle_calls == {"standard": steps, "worstcase": steps, "causal": steps}


# -- a failed traced chunk -----------------------------------------------------


class _FailsAtB40(CalibratedCostModel):
    """Raises for the b=40 blocks; every other block costs as calibrated."""

    def cost(self, op, size):
        if size == 40:
            raise RuntimeError("boom at b=40")
        return super().cost(op, size)


def test_failed_traced_chunk_records_each_point_once():
    """The batch fails at b=40 after recording b=24; the untraced redo
    re-raises from b=40 without recording b=24 twice: the trace holds
    what one evaluation of b=24 records."""
    grid = expand_grid(120, [24, 40], ["diagonal"], with_measured=False)
    tracer = Tracer()
    with tracing(tracer), pytest.raises(RuntimeError, match="boom at b=40"):
        run_sweep(grid, PARAMS, _FailsAtB40(), workers=1)
    alone = Tracer()
    with tracing(alone):
        run_sweep(grid[:1], PARAMS, _FailsAtB40(), workers=1)
    counters = _counters(tracer)
    assert counters["sim.program_runs"] == 2  # standard + worst case, once
    assert counters["sim.program_steps"] == 26
    assert counters == _counters(alone)
    assert _stream(tracer) == _stream(alone)


def test_failed_chunk_persists_finished_points_without_recomputing(tmp_path, monkeypatch):
    """The batch finishes b=24, then fails at b=40: b=24 is stored from
    the batch's own result (its plan compiled once), and only b=40 is
    redone, which raises again."""
    calls: Counter = Counter()
    compile_ge_plan = vector.ge_plan

    def counted(n, b, layout, P):
        calls[(n, b, layout)] += 1
        return compile_ge_plan(n, b, layout, P)

    monkeypatch.setattr(vector, "ge_plan", counted)
    grid = expand_grid(120, [24, 40], ["diagonal"], with_measured=False)
    with pytest.raises(RuntimeError, match="boom at b=40"):
        run_sweep(grid, PARAMS, _FailsAtB40(), workers=1, store=tmp_path)
    store = ExperimentStore(tmp_path, PARAMS, _FailsAtB40())
    assert store.get(120, 24, "diagonal", seed=0, with_measured=False) is not None
    assert store.get(120, 40, "diagonal", seed=0, with_measured=False) is None
    assert calls[(120, 24, "diagonal")] == 1
