"""Whole-program simulation (the paper's prediction method, section 1).

The simulator follows the control flow of an oblivious program — a
:class:`~repro.trace.program.ProgramTrace` of alternating computation and
communication steps — and advances one clock per processor:

* a computation phase adds the cost-model price of each basic operation a
  processor performs (optionally plus the cache-extension and iteration
  overheads, which the *simple* prediction of the paper deliberately
  leaves out);
* a communication phase runs one of the LogGP communication-simulation
  algorithms (standard / worst-case / causal) with the current clocks as
  per-processor start times, and adopts the resulting clocks.

Per-processor clocks carry across steps, so a processor that finishes its
computation early starts communicating early — the "sequence of send and
receive operations which is more likely to occur in the real execution".

The report splits the total into computation and communication the same
way instrumented real executions do: per processor, computation time is
the sum of its compute phases and communication time is everything else
(engaged sends/receives plus waiting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from ..kernel.memo import memoize
from ..obs.events import get_tracer
from ..trace.program import ProgramTrace, Step
from .cache_extension import CachePredictionModel
from .costmodel import CostModel
from .des_check import simulate_causal
from .loggp import LogGPParameters, OpKind
from .standard_sim import simulate_standard
from .worstcase_sim import simulate_worstcase

__all__ = ["StepRecord", "PredictionReport", "ProgramSimulator", "SimMode"]

SimMode = Literal["standard", "worstcase", "causal"]

_SIMULATORS = {
    "standard": simulate_standard,
    "worstcase": simulate_worstcase,
    "causal": simulate_causal,
}


@dataclass(frozen=True)
class StepRecord:
    """Aggregates of one step (timelines are not retained, for memory)."""

    label: str
    comp_us: dict[int, float]
    comm_completion_us: float
    comm_busy_us: dict[int, float]
    messages: int


@dataclass
class PredictionReport:
    """Result of simulating one program."""

    #: completion time of the whole program: max final clock (µs)
    total_us: float
    #: per-processor sum of computation phases (µs)
    per_proc_comp_us: dict[int, float]
    #: per-processor final clock (µs)
    per_proc_total_us: dict[int, float]
    #: per-processor time engaged in send/receive operations (µs)
    per_proc_comm_busy_us: dict[int, float]
    steps: list[StepRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def comp_us(self) -> float:
        """Computation time: max over processors (the paper's Figure 9 series)."""
        return max(self.per_proc_comp_us.values(), default=0.0)

    @property
    def comm_us(self) -> float:
        """Communication time: max over processors of (total − computation),
        i.e. engaged communication plus waiting (the Figure 8 series)."""
        return max(
            (
                self.per_proc_total_us[p] - self.per_proc_comp_us.get(p, 0.0)
                for p in self.per_proc_total_us
            ),
            default=0.0,
        )

    def breakdown(self) -> dict[str, float]:
        """``{"total": .., "comp": .., "comm": ..}`` in µs."""
        return {"total": self.total_us, "comp": self.comp_us, "comm": self.comm_us}


class ProgramSimulator:
    """Drives a :class:`ProgramTrace` through the LogGP prediction.

    Parameters
    ----------
    params:
        LogGP machine parameters.
    cost_model:
        Basic-operation cost model (the Figure 6 table).
    mode:
        Which communication algorithm prices the communication phases:
        ``"standard"`` (Figure 2), ``"worstcase"`` (section 4.2), or
        ``"causal"`` (DES cross-check model).
    seed:
        Seed for the communication algorithms' tie-breaking.
    overlap:
        Extension (paper future work): model overlap of communication with
        the next computation phase.  A processor then pays only its engaged
        send/receive time on top of computation, but never proceeds past
        the completion of its last receive (data dependency).
    cache_model:
        Extension: add the analytic cache penalty per basic op, using each
        processor's resident block footprint from the trace.
    iter_overhead_us:
        Extension: per-block-scan overhead per step (the effect the paper
        identifies as its computation-time under-prediction).  The paper's
        simple prediction uses 0.
    keep_steps:
        Retain per-step aggregate records in the report.
    """

    def __init__(
        self,
        params: LogGPParameters,
        cost_model: CostModel,
        mode: SimMode = "standard",
        seed: int = 0,
        overlap: bool = False,
        cache_model: Optional[CachePredictionModel] = None,
        iter_overhead_us: float = 0.0,
        keep_steps: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        if mode not in _SIMULATORS:
            raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(_SIMULATORS)}")
        if iter_overhead_us < 0:
            raise ValueError("iter_overhead_us must be non-negative")
        self.params = params
        self.cost_model = cost_model
        self.mode = mode
        self.seed = seed
        self.overlap = overlap
        self.cache_model = cache_model
        self.iter_overhead_us = iter_overhead_us
        self.keep_steps = keep_steps
        #: optional pre-seeded tie-break generator; replaces the
        #: ``default_rng(seed)`` a run would build, so a caller can
        #: inspect the consumed stream afterwards (the RNG-equivalence
        #: property tests do).  Stateful across runs when injected.
        self.rng = rng

    # -- internals --------------------------------------------------------------
    @staticmethod
    def _resident_bytes(trace: ProgramTrace) -> dict[int, int]:
        """Distinct-block footprint per processor, from the trace's work."""
        return {
            proc: sum(b * b * 8 for b in sizes.values())
            for proc, sizes in trace.blocks_by_proc().items()
        }

    def _comp_time(
        self, step: Step, proc: int, resident: dict[int, int], cost_model=None
    ) -> float:
        if cost_model is None:
            cost_model = self.cost_model
        total = 0.0
        ops = step.work.get(proc, ())
        for w in ops:
            cost = cost_model.cost(w.op, w.b)
            if self.cache_model is not None:
                cost += self.cache_model.extra_cost(
                    w.op, w.b, resident.get(proc, 0)
                )
            total += cost
        if ops and self.iter_overhead_us:
            total += self.iter_overhead_us * len(ops)
        return total

    # -- main entry point ----------------------------------------------------------
    def run(self, trace: ProgramTrace) -> PredictionReport:
        """Simulate the program; see class docstring for the semantics.

        When the ambient observability tracer is enabled, the run emits
        structured events on the ``sim:<mode>`` track: a ``compute`` slice
        per processor per computation phase, with the communication
        phases' ``comm``/``send``/``recv`` slices emitted by the
        underlying step simulators (see :mod:`repro.obs`).
        """
        tracer = get_tracer()
        with tracer.in_track(f"sim:{self.mode}"):
            return self._run_traced(trace, tracer)

    def _run_traced(self, trace: ProgramTrace, tracer) -> PredictionReport:
        simulate = _SIMULATORS[self.mode]
        cost_model = memoize(self.cost_model)
        rng = self.rng if self.rng is not None else np.random.default_rng(self.seed)
        clocks = {p: 0.0 for p in range(trace.num_procs)}
        comp = {p: 0.0 for p in range(trace.num_procs)}
        comm_busy = {p: 0.0 for p in range(trace.num_procs)}
        resident = self._resident_bytes(trace) if self.cache_model else {}
        records: list[StepRecord] = []
        traced = tracer.enabled and tracer.wants("compute")

        for step_idx, step in enumerate(trace.steps):
            step_comp: dict[int, float] = {}
            for proc in step.work:
                t = self._comp_time(step, proc, resident, cost_model)
                if t:
                    if traced:
                        tracer.slice(
                            "compute", proc=proc, ts=clocks[proc], dur=t,
                            step=step_idx, ops=len(step.work.get(proc, ())),
                        )
                    clocks[proc] += t
                    comp[proc] += t
                    step_comp[proc] = t

            comm_completion = 0.0
            n_msgs = 0
            if step.pattern is not None and step.pattern.remote_messages():
                participants = {
                    p
                    for m in step.pattern.remote_messages()
                    for p in (m.src, m.dst)
                }
                starts = {p: clocks[p] for p in participants}
                result = simulate(self.params, step.pattern, start_times=starts, rng=rng)
                timeline = result.timeline
                comm_completion = timeline.completion_time
                n_msgs = len(step.pattern.remote_messages())

                if self.overlap:
                    # Overlap extension: the CPU pays engaged time only;
                    # data dependencies pin it to its last receive end.
                    for p in participants:
                        busy = timeline.busy_time(p)
                        comm_busy[p] += busy
                        last_recv = max(
                            (
                                e.end
                                for e in timeline.events
                                if e.proc == p and e.kind is OpKind.RECV
                            ),
                            default=0.0,
                        )
                        clocks[p] = max(starts[p] + busy, last_recv)
                else:
                    # One scan for all processors (bit-equal to per-proc
                    # busy_time(): same per-proc summation order).
                    busy = timeline.busy_times()
                    for p in participants:
                        comm_busy[p] += busy.get(p, 0.0)
                        clocks[p] = result.ctimes.get(p, clocks[p])

            if self.keep_steps:
                records.append(
                    StepRecord(
                        label=step.label,
                        comp_us=step_comp,
                        comm_completion_us=comm_completion,
                        comm_busy_us={},
                        messages=n_msgs,
                    )
                )

        total = max(clocks.values(), default=0.0)
        if tracer.enabled:
            tracer.count("sim.program_steps", len(trace.steps))
            tracer.count("sim.program_runs")
        return PredictionReport(
            total_us=total,
            per_proc_comp_us=comp,
            per_proc_total_us=dict(clocks),
            per_proc_comm_busy_us=comm_busy,
            steps=records,
            meta=dict(trace.meta),
        )
