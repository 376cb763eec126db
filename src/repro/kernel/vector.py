"""Batch simulation: many sweep points over one compiled program.

The step simulators (:mod:`repro.kernel.fastsim`) removed per-operation
interpreter overhead *within* one simulation; this module removes the
overhead *between* simulations.  A sweep evaluates many lanes — every
(point, engine) pair of a grid — over the same compiled program
structure, so the batch evaluator works in two parts:

* a **computation fold**, step-major over all lanes at once: each
  (step, processor) computation phase is one gather + one sequential
  fold over a shared :class:`ProgramPlan` (the program compiled once
  into flat per-step records, instead of re-traversed per lane per
  engine);
* a **lane replay** that walks one (lane, mode) through the plan's
  steps: it adds the folded computation phases to the clocks and prices
  each communication step from the plan's remote-message records and
  participant list.

:func:`ge_plan` compiles a GE configuration straight from the wavefront
recurrence, so an untraced sweep point builds no trace, ``Work``,
``Message`` or ``CommPattern``; :func:`compile_plan` builds the same
format from any :class:`~repro.trace.program.ProgramTrace`.

The replay is the one loop over program steps: every GE point, traced
or not, and every :meth:`repro.core.program_sim.ProgramSimulator.run`
(a width-1 lane over ``compile_plan(trace)``) go through it.  The
simulator's extensions ride along without a per-op branch: the fold
prices ``cache_model`` into per-processor cost tables and adds
``iter_overhead_us`` once per phase, and the replay applies ``overlap``
once per communication step.  Every communication step, in every mode,
traced or not, runs the kernel step ``program_sim._SIMULATORS[mode]``
(looked up per replay, so an injected table — the differential oracle,
a profiler — is reached) on the plan step's records.  Traced or with
``overlap``, the step also fills a sink of flat operation tuples: the
tracer stores them as they are, and the overlap extension reads each
processor's last receive end from them.  Traced, a replay emits on the
``sim:<mode>`` track a ``compute`` slice per nonzero computation phase,
each communication step, and the
``sim.program_steps``/``sim.program_runs`` counters.  Lanes replay one
after another (standard, then worst-case, then the point's emulator in
:func:`evaluate_ge_points_batch`), so a traced batch emits the same
point-major stream as the points one by one.

Bit-identity discipline (enforced by ``tests/test_vector_property.py``,
``tests/test_traced_batch_parity.py``, ``tests/test_program_extensions.py``
and the differential oracle, all against the object loop
``tests/oracle.py::simulate_program_reference``):

* The object loop folds computation costs left to right
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
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..apps.gauss import GEConfig, ge_meta, ge_steps
from ..core import program_sim
from ..core.loggp import LogGPParameters, OpKind
from ..core.program_sim import PredictionReport
from ..layouts import LAYOUTS
from ..obs.events import get_tracer
from ..trace.program import ProgramTrace
from .memo import memoize

__all__ = [
    "ProgramPlan",
    "compile_plan",
    "ge_plan",
    "simulate_programs_batch",
    "evaluate_ge_points_batch",
]

#: the engines one GE point evaluates (the ``predict_both`` pair)
GE_MODES = ("standard", "worstcase")

_RECV = OpKind.RECV


class _PlanStep:
    """One program step, compiled into flat records."""

    __slots__ = ("num_procs", "work", "remote", "local", "participants")

    def __init__(self, num_procs, work, remote, local, participants):
        self.num_procs = num_procs
        #: ``[(proc, slots, records)]`` per processor with work, in phase
        #: order: op-table slots and ``(op, b, i, j, k)`` work records
        self.work = work
        #: ``(src, dst, size, uid)`` remote messages in program order
        self.remote = remote
        #: ``(src, size, uid)`` self-messages (local copies)
        self.local = local
        #: sorted processors touched by the remote messages
        self.participants = participants


class ProgramPlan:
    """An oblivious program compiled into flat per-step records.

    The plan is read-only and shared: one compilation serves every lane
    of a batch (and the emulator) over the same program.  ``op_table``
    holds the distinct ``(op, b)`` pairs the program prices; each
    step's work is a list of slots into a per-lane cost vector built
    from that table, so the computation phase becomes one gather + one
    sequential fold per (step, processor) for *all* lanes together.

    ``steps`` is an iterable of ``(work, messages)`` pairs, one per
    program step: ``work`` maps each processor, in phase order, to its
    ``(op, b, i, j, k)`` work records, and ``messages`` lists the
    step's ``(src, dst, size)`` sends in program order.  A message's
    uid is its position in that list — what
    :class:`~repro.core.message.CommPattern` assigns.  ``block_counts``
    is each processor's number of distinct blocks, as
    :meth:`ProgramTrace.blocks_by_proc` counts them.
    """

    __slots__ = ("num_procs", "op_table", "steps", "meta", "block_counts")

    def __init__(self, num_procs: int, steps, meta: dict):
        self.num_procs = num_procs
        self.meta = dict(meta)
        op_index: dict[tuple[str, int], int] = {}
        blocks: list[set] = [set() for _ in range(num_procs)]
        plan_steps: list[_PlanStep] = []
        for work, messages in steps:
            comp = []
            for proc, records in work.items():
                if not records:
                    continue
                slots = []
                mine = blocks[proc]
                for rec in records:
                    key = (rec[0], rec[1])
                    slot = op_index.get(key)
                    if slot is None:
                        slot = op_index[key] = len(op_index)
                    slots.append(slot)
                    mine.add((rec[2], rec[3]))
                comp.append((proc, slots, records))
            remote = [
                (src, dst, size, uid)
                for uid, (src, dst, size) in enumerate(messages) if src != dst
            ]
            local = [
                (src, size, uid)
                for uid, (src, dst, size) in enumerate(messages) if src == dst
            ]
            touched = {r[0] for r in remote} | {r[1] for r in remote}
            plan_steps.append(
                _PlanStep(num_procs, comp, remote, local, tuple(sorted(touched)))
            )
        self.op_table = tuple(op_index)
        self.steps = plan_steps
        # anonymous work is tagged (-1, -1) and counts as no block
        self.block_counts = tuple(len(mine - {(-1, -1)}) for mine in blocks)


def compile_plan(trace: ProgramTrace) -> ProgramPlan:
    """Compile any ``trace`` into the plan format (pure, no caching)."""
    return ProgramPlan(
        trace.num_procs,
        (
            (
                {
                    proc: [
                        (w.op, w.b, w.block[0], w.block[1], w.iteration)
                        for w in ops
                    ]
                    for proc, ops in step.work.items()
                },
                [] if step.pattern is None
                else [(m.src, m.dst, m.size) for m in step.pattern],
            )
            for step in trace.steps
        ),
        trace.meta,
    )


def ge_plan(n: int, b: int, layout_name: str, P: int) -> ProgramPlan:
    """The compiled plan of one GE configuration, built on every call.

    Compiled straight from the wavefront recurrence
    (:func:`repro.apps.gauss.ge_steps`): no :class:`ProgramTrace`,
    ``Work`` or ``Message`` object is built.  Nothing is cached across
    calls: one batch call compiles one plan per configuration and every
    lane of that configuration shares it.
    """
    config = GEConfig(n=n, b=b, layout=LAYOUTS[layout_name](n // b, P))
    return ProgramPlan(P, ge_steps(config), ge_meta(config))


def _lane_cost_table(cost_model, op_table) -> list[float]:
    """Exact per-distinct-op costs of one lane (memoised when possible)."""
    priced = memoize(cost_model)
    return [priced.cost(op, b) for op, b in op_table]


def _proc_cost_tables(plan, machines, cache_model, resident) -> list[list[list[float]]]:
    """Per processor, every lane's cost per op-table slot.

    Without the cache extension every processor shares one list of lane
    tables.  With it, each entry a processor reads is ``cost +
    extra_cost`` at its resident footprint: the same two-term float a
    per-op loop adds.  Only the ops a processor runs are charged, so
    ``extra_cost`` never prices an op it would not have seen.
    """
    lanes = [_lane_cost_table(cm, plan.op_table) for _, cm in machines]
    if cache_model is None:
        return [lanes] * plan.num_procs
    used: list[set] = [set() for _ in range(plan.num_procs)]
    for pstep in plan.steps:
        for proc, slots, _ in pstep.work:
            used[proc].update(slots)
    tables = []
    for proc, slots in enumerate(used):
        extra = {
            j: cache_model.extra_cost(*plan.op_table[j], resident.get(proc, 0))
            for j in slots
        }
        tables.append([
            [cost + extra[j] if j in extra else cost for j, cost in enumerate(table)]
            for table in lanes
        ])
    return tables


def _fold_computation(
    plan: ProgramPlan,
    machines,
    cache_model=None,
    resident: Optional[dict[int, int]] = None,
    iter_overhead_us: float = 0.0,
) -> list[list[tuple]]:
    """Every lane's computation phases, folded step-major over all lanes.

    Returns, per plan step, one ``(proc, ops, times)`` per processor with
    work, where ``times[i]`` is lane ``i``'s phase time as a Python float.
    The phases are engine-independent (same trace, same cost model, same
    fold), so every mode of a lane replays the same list.

    The prediction extensions of
    :class:`~repro.core.program_sim.ProgramSimulator` are priced here:
    ``cache_model`` (with ``resident``, each processor's footprint in
    bytes) in the cost tables, and ``iter_overhead_us`` once per phase
    after its fold.  Neither adds a branch per operation.
    """
    per_proc = _proc_cost_tables(plan, machines, cache_model, resident)
    folds: list[list[tuple]] = []
    if len(machines) == 1:
        # width-1 specialisation: the same left-fold in plain Python
        # floats (bit-equal adds, no array overhead)
        tables = [lanes[0] for lanes in per_proc]
        for pstep in plan.steps:
            row = []
            for proc, slots, _ in pstep.work:
                table = tables[proc]
                t = 0.0
                for j in slots:
                    t += table[j]
                if iter_overhead_us:
                    t += iter_overhead_us * len(slots)
                row.append((proc, len(slots), (t,)))
            folds.append(row)
        return folds
    arrays = [np.array(lanes, dtype=np.float64).T for lanes in per_proc]  # (op, lane)
    for pstep in plan.steps:
        row = []
        for proc, slots, _ in pstep.work:
            seq = arrays[proc][slots]  # (k, lanes)
            # sequential left-fold per lane — NOT np.sum (pairwise)
            t = seq[0] if len(slots) == 1 else np.add.accumulate(seq, axis=0)[-1]
            if iter_overhead_us:
                t = t + iter_overhead_us * len(slots)
            row.append((proc, len(slots), t.tolist()))
        folds.append(row)
    return folds


def _replay(
    plan: ProgramPlan,
    folds: list[list[tuple]],
    lane: int,
    mode: str,
    params: LogGPParameters,
    rng: np.random.Generator,
    overlap: bool = False,
) -> PredictionReport:
    """Walk one (lane, mode) through the plan's steps.

    The one loop over program steps: each processor's folded computation
    phase is added to its clock, then each communication step runs the
    kernel step ``program_sim._SIMULATORS[mode]`` on the step's records,
    with the participants' clocks as start times, and hands back their
    new clocks and engaged times.  Traced or with ``overlap``, the step
    fills a sink of operation tuples, which the tracer records and the
    overlap extension reads.  When the ambient tracer is enabled the
    replay also emits the ``compute`` slices and ``sim.program_*``
    counters.
    """
    tracer = get_tracer()
    step = program_sim._SIMULATORS[mode]
    traced = tracer.enabled and tracer.wants("compute")
    comm_steps = f"sim.comm_steps.{mode}"
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
            if not pstep.remote:
                continue
            starts = {p: clocks[p] for p in pstep.participants}
            sink = [] if tracer.enabled or overlap else None
            ctimes, busy = step(params, pstep.remote, starts, rng, sink)
            if tracer.enabled:
                tracer.count(comm_steps)
                tracer.emit_comm_step(sink, ctimes, starts, mode)
            if overlap:
                # Overlap extension: the CPU pays engaged time only;
                # data dependencies pin it to its last receive end.  A
                # processor's operations reach the sink in time order, so
                # its last receive there is the one that ends last.
                last_recv = {
                    proc: start + dur
                    for proc, kind, start, dur, _, _ in sink
                    if kind is _RECV
                }
                for p in pstep.participants:
                    comm_busy[p] += busy[p]
                    clocks[p] = max(starts[p] + busy[p], last_recv.get(p, 0.0))
                continue
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
        meta=dict(plan.meta),
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
    if not machines:
        return
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
    done: Optional[Callable[[int, dict], None]] = None,
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

    Returns the flat summary dicts in input order.  ``done(position,
    summary)``, if given, is called as each point finishes, so a caller
    keeps the points a failing batch completed before it raised.
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
                    plan, machines[lane][0], machines[lane][1],
                    point.seed, emulator=emulators[lane],
                )
            row = GERow(
                n=n, b=b, layout=layout,
                pred_standard=reports["standard"],
                pred_worstcase=reports["worstcase"],
                measured=measured,
            )
            out[pos] = _flatten_ge_row(row, point.seed)
            if done is not None:
                done(pos, out[pos])
        # release this configuration's plan before the next is built, so
        # at most one is alive at a time
        del plan, lanes
    return out  # type: ignore[return-value]
