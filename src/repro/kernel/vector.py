"""Batch simulation: many sweep points over one compiled program.

The step simulators (:mod:`repro.kernel.fastsim`) removed per-operation
interpreter overhead *within* one simulation; this module removes the
overhead *between* simulations.  A sweep evaluates many lanes — every
(point, engine) pair of a grid — over the same compiled program
structure, so the batch evaluator works in two parts:

* a **computation fold**, step-major over all lanes at once: each
  (step, processor) computation phase is one gather + one sequential
  fold over a shared :class:`ProgramPlan` (the trace compiled once into
  flat numpy index arrays, instead of re-traversed per lane per engine);
* a **lane replay** that walks one (lane, mode) through the plan's
  steps the way :meth:`repro.core.program_sim.ProgramSimulator.run`
  does: it adds the folded computation phases to the clocks and prices
  each communication step from the plan's precompiled message pattern
  and participant list.

This is the one GE evaluation path, traced or not.  Untraced, a replay
runs the sink-free ``standard_step``/``worstcase_step``.  Traced, it
emits what ``ProgramSimulator.run`` emits, on the same ``sim:<mode>``
track: a ``compute`` slice per nonzero computation phase, each
communication step through ``program_sim._SIMULATORS[mode]`` (looked up
per replay, so an injected table — the differential oracle, a profiler —
is reached), and the ``sim.program_steps``/``sim.program_runs``
counters.  Lanes replay one after another (standard, then worst-case,
then the point's emulator in :func:`evaluate_ge_points_batch`), so a
traced batch emits the same point-major stream as the points one by one.

Bit-identity discipline (enforced by ``tests/test_vector_property.py``,
``tests/test_traced_batch_parity.py`` and the differential oracle):

* The scalar reference folds computation costs left to right
  (``total += cost``).  The vectorized fold uses
  ``np.add.accumulate``, which is the identical sequential left-fold
  per lane — *never* ``np.sum``, whose pairwise reduction regroups the
  additions and changes low bits.
* Folded phases cross back into the scalar world through ``.tolist()``,
  so the replay adds plain Python floats with the exact same bits.
* Each (lane, mode) owns its tie-break RNG (``default_rng(seed)``,
  consumed only by that replay's communication phases in step order),
  so the draw stream per lane is bit-equal to a standalone scalar run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Sequence

import numpy as np

from ..core import program_sim
from ..core.loggp import LogGPParameters
from ..core.program_sim import PredictionReport
from ..obs.events import get_tracer
from ..trace.program import ProgramTrace
from .fastsim import standard_step, worstcase_step
from .memo import memoize
from .tracecache import ge_trace

__all__ = [
    "ProgramPlan",
    "compile_plan",
    "ge_plan",
    "simulate_programs_batch",
    "evaluate_ge_points_batch",
]

#: the sink-free steps an untraced replay runs (same clocks/busy/RNG as
#: ``program_sim._SIMULATORS``, no CommEvent stream); other modes, and
#: every traced replay, go through ``program_sim._SIMULATORS``
_LEAN_SIMULATORS = {
    "standard": standard_step,
    "worstcase": worstcase_step,
}

#: the engines one GE point evaluates (the ``predict_both`` pair)
GE_MODES = ("standard", "worstcase")


class _PlanStep:
    """One program step, compiled: flat comp indices + comm metadata."""

    __slots__ = ("comp", "pattern", "participants")

    def __init__(self, comp, pattern, participants):
        #: ``[(proc, idx_list, idx_array)]`` for procs with non-empty work
        self.comp = comp
        #: the step's :class:`CommPattern` iff it has remote messages
        self.pattern = pattern
        #: sorted processors touched by the remote messages
        self.participants = participants


class ProgramPlan:
    """A :class:`ProgramTrace` compiled for batch evaluation.

    The plan is read-only and shared: one compilation serves every lane
    of a batch over the same trace.  ``op_table`` holds the distinct
    ``(op, b)`` pairs the program prices; each step's work is an index
    array into a per-lane cost vector built from that table, so the
    computation phase becomes one gather + one sequential fold per
    (step, processor) for *all* lanes together.
    """

    __slots__ = ("trace", "num_procs", "op_table", "steps")

    def __init__(self, trace: ProgramTrace):
        self.trace = trace
        self.num_procs = trace.num_procs
        op_index: dict[tuple[str, int], int] = {}
        op_table: list[tuple[str, int]] = []
        steps: list[_PlanStep] = []
        for step in trace.steps:
            comp = []
            for proc, ops in step.work.items():
                if not ops:
                    continue
                idx = []
                for w in ops:
                    key = (w.op, w.b)
                    slot = op_index.get(key)
                    if slot is None:
                        slot = op_index[key] = len(op_table)
                        op_table.append(key)
                    idx.append(slot)
                comp.append((proc, idx, np.asarray(idx, dtype=np.intp)))
            pattern = step.pattern
            participants: tuple[int, ...] = ()
            if pattern is not None:
                remote = pattern.remote_messages()
                if remote:
                    participants = tuple(
                        sorted({p for m in remote for p in (m.src, m.dst)})
                    )
                else:
                    pattern = None
            else:
                pattern = None
            steps.append(_PlanStep(comp, pattern, participants))
        self.op_table = tuple(op_table)
        self.steps = steps


def compile_plan(trace: ProgramTrace) -> ProgramPlan:
    """Compile ``trace`` for batch evaluation (pure, no caching)."""
    return ProgramPlan(trace)


def ge_plan(n: int, b: int, layout_name: str, P: int) -> ProgramPlan:
    """The compiled plan of one GE configuration, built on every call.

    Nothing is cached across calls (see :mod:`repro.kernel.tracecache`):
    one batch call compiles one plan per configuration and every lane of
    that configuration shares it.
    """
    return ProgramPlan(ge_trace(n, b, layout_name, P))


def _lane_cost_table(cost_model, op_table) -> list[float]:
    """Exact per-distinct-op costs of one lane (memoised when possible)."""
    priced = memoize(cost_model)
    return [priced.cost(op, b) for op, b in op_table]


def _fold_computation(plan: ProgramPlan, machines) -> list[list[tuple]]:
    """Every lane's computation phases, folded step-major over all lanes.

    Returns, per plan step, one ``(proc, ops, times)`` per processor with
    work, where ``times[i]`` is lane ``i``'s phase time as a Python float.
    The phases are engine-independent (same trace, same cost model, same
    fold), so every mode of a lane replays the same list.
    """
    cost_lists = [_lane_cost_table(cm, plan.op_table) for _, cm in machines]
    folds: list[list[tuple]] = []
    if len(machines) == 1:
        # width-1 specialisation: the same left-fold in plain Python
        # floats (bit-equal adds, no array overhead)
        table = cost_lists[0]
        for pstep in plan.steps:
            row = []
            for proc, idx_list, _ in pstep.comp:
                t = 0.0
                for j in idx_list:
                    t += table[j]
                row.append((proc, len(idx_list), (t,)))
            folds.append(row)
        return folds
    C = np.array(cost_lists, dtype=np.float64).T  # (op, lane)
    for pstep in plan.steps:
        row = []
        for proc, idx_list, idx_arr in pstep.comp:
            seq = C[idx_arr]  # (k, lanes)
            # sequential left-fold per lane — NOT np.sum (pairwise)
            t = seq[0] if len(idx_list) == 1 else np.add.accumulate(seq, axis=0)[-1]
            row.append((proc, len(idx_list), t.tolist()))
        folds.append(row)
    return folds


def _replay(
    plan: ProgramPlan,
    folds: list[list[tuple]],
    lane: int,
    mode: str,
    params: LogGPParameters,
    rng: np.random.Generator,
) -> PredictionReport:
    """Walk one (lane, mode) through the plan's steps.

    :meth:`~repro.core.program_sim.ProgramSimulator.run`'s loop over
    precomputed computation phases: the same clock arithmetic, and —
    when the ambient tracer is enabled — the same events and counters.
    """
    tracer = get_tracer()
    step_fn = None if tracer.enabled else _LEAN_SIMULATORS.get(mode)
    simulate = program_sim._SIMULATORS[mode]
    traced = tracer.enabled and tracer.wants("compute")
    P = plan.num_procs
    clocks = [0.0] * P
    comp = [0.0] * P
    comm_busy = [0.0] * P
    with tracer.in_track(f"sim:{mode}"):
        for step_idx, (pstep, row) in enumerate(zip(plan.steps, folds)):
            for proc, ops, times in row:
                t = times[lane]
                if t:
                    if traced:
                        tracer.slice(
                            "compute", proc=proc, ts=clocks[proc], dur=t,
                            step=step_idx, ops=ops,
                        )
                    clocks[proc] += t
                    comp[proc] += t
            if pstep.pattern is None:
                continue
            starts = {p: clocks[p] for p in pstep.participants}
            if step_fn is not None:
                ctimes, busy = step_fn(params, pstep.pattern, starts, rng)
            else:
                result = simulate(params, pstep.pattern, start_times=starts, rng=rng)
                ctimes, busy = result.ctimes, result.timeline.busy_times()
            for p in pstep.participants:
                comm_busy[p] += busy.get(p, 0.0)
                clocks[p] = ctimes.get(p, clocks[p])
    if tracer.enabled:
        tracer.count("sim.program_steps", len(plan.steps))
        tracer.count("sim.program_runs")
    return PredictionReport(
        total_us=max(clocks, default=0.0),
        per_proc_comp_us=dict(enumerate(comp)),
        per_proc_total_us=dict(enumerate(clocks)),
        per_proc_comm_busy_us=dict(enumerate(comm_busy)),
        steps=[],
        meta=dict(plan.trace.meta),
    )


def _lane_reports(
    plan: ProgramPlan,
    machines: Sequence[tuple[LogGPParameters, object]],
    seeds: Sequence[int],
    modes: Sequence[str] = GE_MODES,
    rngs: Optional[Sequence[dict]] = None,
) -> Iterator[dict[str, PredictionReport]]:
    """Fold every lane's computation, then yield each lane's reports.

    Lanes replay lazily, in order, each mode in ``modes`` order, so a
    caller can run per-lane work (the emulator) between two lanes.
    """
    if len(machines) != len(seeds):
        raise ValueError(f"{len(machines)} machines but {len(seeds)} seeds")
    for mode in modes:
        if mode not in program_sim._SIMULATORS:
            raise ValueError(f"unknown mode {mode!r}")
    folds = _fold_computation(plan, machines)
    for i, (params, _) in enumerate(machines):
        yield {
            mode: _replay(
                plan, folds, i, mode, params,
                rngs[i][mode] if rngs is not None
                else np.random.default_rng(seeds[i]),
            )
            for mode in modes
        }


def simulate_programs_batch(
    plan: ProgramPlan,
    machines: Sequence[tuple[LogGPParameters, object]],
    seeds: Sequence[int],
    modes: Sequence[str] = GE_MODES,
    rngs: Optional[Sequence[dict]] = None,
) -> list[dict[str, PredictionReport]]:
    """Simulate every (machine, mode) lane over the plan.

    Parameters
    ----------
    plan:
        The compiled program (shared across lanes).
    machines:
        One ``(params, cost_model)`` per point lane.  All lanes must
        agree on ``params.P`` (they simulate the same trace).
    seeds:
        Tie-break seed per point lane; each (point, mode) sub-lane draws
        from its own ``default_rng(seed)``, exactly like a standalone
        :class:`~repro.core.program_sim.ProgramSimulator` run.
    modes:
        The engines to run per point (default: the ``predict_both``
        pair).
    rngs:
        Optional pre-seeded generators, one ``{mode: Generator}`` dict
        per point lane (the RNG-stream equivalence tests inject these).

    Returns one ``{mode: PredictionReport}`` dict per point lane, each
    report (and, traced, each event) identical to the corresponding
    scalar simulation.
    """
    return list(_lane_reports(plan, machines, seeds, modes, rngs))


def evaluate_ge_points_batch(
    points,
    params: LogGPParameters,
    cost_model,
    uq=None,
) -> list[dict]:
    """Batch twin of :func:`repro.core.predictor.summarize_ge_point`.

    ``points`` is a sequence of :class:`repro.sweep.SweepPoint`-shaped
    objects (``n``, ``b``, ``layout``, ``seed``, ``with_measured``).
    Points are grouped by configuration; each group's computation phases
    fold together over one compiled plan, then each point in turn
    replays its standard and worst-case lanes and — for
    ``with_measured`` points — runs the machine emulator, so every flat
    summary dict is bit-identical to its ``summarize_ge_point`` /
    ``summarize_uq_point`` counterpart.  Traced, events come out point
    by point in group order (grid order for any grid whose points of one
    configuration are adjacent, as :func:`repro.sweep.expand_grid`'s are).

    Returns the flat summary dicts in input order.
    """
    from ..core.predictor import _flatten_ge_row, _measured_report, _uq_machine, GERow

    points = list(points)
    groups: OrderedDict[tuple[int, int, str], list[int]] = OrderedDict()
    for pos, point in enumerate(points):
        groups.setdefault((point.n, point.b, point.layout), []).append(pos)

    out: list[Optional[dict]] = [None] * len(points)
    uq_active = uq is not None and not uq.is_identity()
    for (n, b, layout), positions in groups.items():
        plan = ge_plan(n, b, layout, params.P)
        machines = []
        emulators = []
        for pos in positions:
            seed = points[pos].seed
            if uq_active:
                p_params, p_cost, emulator = _uq_machine(
                    params, cost_model, uq, seed,
                    with_measured=points[pos].with_measured,
                )
            else:
                p_params, p_cost, emulator = params, cost_model, None
            machines.append((p_params, p_cost))
            emulators.append(emulator)
        seeds = [points[pos].seed for pos in positions]
        lanes = _lane_reports(plan, machines, seeds)
        for lane, (pos, reports) in enumerate(zip(positions, lanes)):
            point = points[pos]
            measured = None
            if point.with_measured:
                measured = _measured_report(
                    plan.trace, machines[lane][0], machines[lane][1],
                    point.seed, emulator=emulators[lane],
                )
            row = GERow(
                n=n, b=b, layout=layout,
                pred_standard=reports["standard"],
                pred_worstcase=reports["worstcase"],
                measured=measured,
            )
            out[pos] = _flatten_ge_row(row, point.seed)
        # release this configuration's trace before the next is built, so
        # at most one is alive at a time
        del plan, lanes
    return out  # type: ignore[return-value]
