"""Structure-of-arrays batch simulation: many sweep points per step.

The scalar fast kernel (:mod:`repro.kernel.fastsim`) removed per-operation
interpreter overhead *within* one simulation; this module removes the
overhead *between* simulations.  A sweep evaluates many lanes — every
(point, engine) pair of a grid — over the same compiled program
structure, and the per-step LogGP recurrences of those lanes are
independent of each other.  So the batch simulator walks the program
**step-major**: at each step it advances every lane at once,

* pricing the computation phase for all lanes in one vectorized pass
  over a shared :class:`ProgramPlan` (the trace compiled once into flat
  numpy index arrays, instead of re-traversed per lane per engine), and
* pricing each lane's communication phase with the proven-bit-identical
  scalar step simulators, fed from the plan's precompiled per-step
  message patterns and participant lists.

Bit-identity discipline (enforced by ``tests/test_vector_property.py``
and the differential oracle):

* The scalar reference folds computation costs left to right
  (``total += cost``).  The vectorized fold uses
  ``np.add.accumulate``, which is the identical sequential left-fold
  per lane — *never* ``np.sum``, whose pairwise reduction regroups the
  additions and changes low bits.
* All lane state lives in float64 SoA arrays; values cross back into
  the scalar world through ``.item()`` so every number the caller sees
  is a plain Python float with the exact same bits.
* Each lane owns its tie-break RNG (``default_rng(seed)``, consumed
  only by that lane's communication phases in step order), so the draw
  stream per lane is bit-equal to a standalone scalar run.
* Cost models are assumed non-negative (every shipped model is), which
  makes the unconditional vector add bit-equal to the reference's
  ``if t:``-guarded add (``x + 0.0 == x`` for ``x >= 0.0``).

The batch path steps aside whenever the ambient tracer is enabled — the
traced per-step path stays the single source of the event stream, so
the bit-exact trace exports are untouched.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from ..core.des_check import simulate_causal
from ..core.loggp import LogGPParameters
from ..core.program_sim import PredictionReport
from ..core.standard_sim import simulate_standard
from ..core.worstcase_sim import simulate_worstcase
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

_SIMULATORS = {
    "standard": simulate_standard,
    "worstcase": simulate_worstcase,
    "causal": simulate_causal,
}

#: the kernel steps run without an event sink (same clocks/busy/RNG, no
#: CommEvent stream); the batch path is untraced by construction, so
#: nothing needs the events
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


def simulate_programs_batch(
    plan: ProgramPlan,
    machines: Sequence[tuple[LogGPParameters, object]],
    seeds: Sequence[int],
    modes: Sequence[str] = GE_MODES,
    rngs: Optional[Sequence[dict]] = None,
) -> list[dict[str, PredictionReport]]:
    """Advance every (machine, mode) lane through the plan, step-major.

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
        The engines to advance per point (default: the ``predict_both``
        pair).
    rngs:
        Optional pre-seeded generators, one ``{mode: Generator}`` dict
        per point lane (the RNG-stream equivalence tests inject these).

    Returns one ``{mode: PredictionReport}`` dict per point lane, each
    report bit-identical to the corresponding scalar simulation.
    """
    n_pts = len(machines)
    if n_pts != len(seeds):
        raise ValueError(f"{n_pts} machines but {len(seeds)} seeds")
    for mode in modes:
        if mode not in _SIMULATORS:
            raise ValueError(f"unknown mode {mode!r}")
    P = plan.num_procs

    # SoA lane state: one (P, n_pts) array per mode for the diverging
    # clocks, one shared comp array (computation phases are engine-
    # independent: same trace, same cost model, same fold).
    cost_lists = [_lane_cost_table(cm, plan.op_table) for _, cm in machines]
    C = (
        np.array(cost_lists, dtype=np.float64).T
        if plan.op_table
        else np.zeros((0, n_pts), dtype=np.float64)
    )
    comp = np.zeros((P, n_pts), dtype=np.float64)
    clocks = {mode: np.zeros((P, n_pts), dtype=np.float64) for mode in modes}
    comm_busy = {mode: np.zeros((P, n_pts), dtype=np.float64) for mode in modes}
    lane_rngs = [
        {mode: rngs[i][mode] for mode in modes}
        if rngs is not None
        else {mode: np.random.default_rng(seeds[i]) for mode in modes}
        for i in range(n_pts)
    ]

    single = n_pts == 1
    table0 = cost_lists[0] if single and cost_lists else ()

    for pstep in plan.steps:
        # -- computation phase: one fold per (step, proc), all lanes ----
        for proc, idx_list, idx_arr in pstep.comp:
            if single:
                # width-1 specialisation: the same left-fold in plain
                # Python floats (bit-equal adds, no array overhead)
                t = 0.0
                for j in idx_list:
                    t += table0[j]
                comp[proc, 0] += t
                for mode in modes:
                    clocks[mode][proc, 0] += t
            else:
                seq = C[idx_arr]  # (k, n_pts)
                if len(idx_list) == 1:
                    t = seq[0]
                else:
                    # sequential left-fold per lane — NOT np.sum (pairwise)
                    t = np.add.accumulate(seq, axis=0)[-1]
                comp[proc] += t
                for mode in modes:
                    clocks[mode][proc] += t

        # -- communication phase: scalar proven-identical sims per lane --
        if pstep.pattern is None:
            continue
        participants = pstep.participants
        for mode in modes:
            lean = _LEAN_SIMULATORS.get(mode)
            simulate = _SIMULATORS[mode]
            cl = clocks[mode]
            cb = comm_busy[mode]
            for i in range(n_pts):
                starts = {p: cl[p, i].item() for p in participants}
                if lean is not None:
                    ctimes, busy = lean(
                        machines[i][0], pstep.pattern, starts, lane_rngs[i][mode]
                    )
                else:
                    result = simulate(
                        machines[i][0], pstep.pattern,
                        start_times=starts, rng=lane_rngs[i][mode],
                    )
                    busy = result.timeline.busy_times()
                    ctimes = result.ctimes
                for p in participants:
                    cb[p, i] += busy.get(p, 0.0)
                    cl[p, i] = ctimes.get(p, cl[p, i].item())

    meta = dict(plan.trace.meta)
    out: list[dict[str, PredictionReport]] = []
    for i in range(n_pts):
        reports = {}
        for mode in modes:
            cl = clocks[mode]
            reports[mode] = PredictionReport(
                total_us=max(
                    (cl[p, i].item() for p in range(P)), default=0.0
                ),
                per_proc_comp_us={p: comp[p, i].item() for p in range(P)},
                per_proc_total_us={p: cl[p, i].item() for p in range(P)},
                per_proc_comm_busy_us={
                    p: comm_busy[mode][p, i].item() for p in range(P)
                },
                steps=[],
                meta=dict(meta),
            )
        out.append(reports)
    return out


def evaluate_ge_points_batch(
    points,
    params: LogGPParameters,
    cost_model,
    uq=None,
) -> list[dict]:
    """Batch twin of :func:`repro.core.predictor.summarize_ge_point`.

    ``points`` is a sequence of :class:`repro.sweep.SweepPoint`-shaped
    objects (``n``, ``b``, ``layout``, ``seed``, ``with_measured``).
    Points are grouped by configuration; each group's prediction lanes
    advance together over one compiled plan, then the (inherently
    sequential, stateful) machine emulator prices the ``with_measured``
    points one by one — through exactly the code path the scalar
    pipeline uses, so every flat summary dict is bit-identical to its
    ``summarize_ge_point`` / ``summarize_uq_point`` counterpart.

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
        predictions = simulate_programs_batch(plan, machines, seeds)
        for lane, pos in enumerate(positions):
            point = points[pos]
            measured = None
            if point.with_measured:
                measured = _measured_report(
                    plan.trace, machines[lane][0], machines[lane][1],
                    point.seed, emulator=emulators[lane],
                )
            row = GERow(
                n=n, b=b, layout=layout,
                pred_standard=predictions[lane]["standard"],
                pred_worstcase=predictions[lane]["worstcase"],
                measured=measured,
            )
            out[pos] = _flatten_ge_row(row, point.seed)
        # release this configuration's trace before the next is built, so
        # at most one is alive at a time
        del plan
    return out  # type: ignore[return-value]
