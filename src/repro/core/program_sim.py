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

The loop runs in :mod:`repro.kernel.vector`: ``run`` compiles the trace
into a plan, folds its computation phases and replays the steps, the
path every sweep point takes.  Its readable transcription over the
trace's objects, which the kernel must match bit for bit, is
``tests/oracle.py::simulate_program_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from ..kernel.fastdes import causal_step
from ..kernel.fastsim import standard_step, worstcase_step
from ..trace.program import ProgramTrace
from .cache_extension import CachePredictionModel
from .costmodel import CostModel
from .loggp import LogGPParameters

__all__ = ["PredictionReport", "ProgramSimulator", "SimMode"]

SimMode = Literal["standard", "worstcase", "causal"]

#: the mode table: the kernel step that prices each communication step,
#: read by every replay at call time (so the differential oracle and the
#: benchmark's timing wrappers are reached by replacing its entries)
_SIMULATORS = {
    "standard": standard_step,
    "worstcase": worstcase_step,
    "causal": causal_step,
}


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
        #: optional pre-seeded tie-break generator; replaces the
        #: ``default_rng(seed)`` a run would build, so a caller can
        #: inspect the consumed stream afterwards (the RNG-equivalence
        #: property tests do).  Stateful across runs when injected.
        self.rng = rng

    def run(self, trace: ProgramTrace) -> PredictionReport:
        """Simulate the program; see class docstring for the semantics.

        The trace is compiled into a :class:`~repro.kernel.vector.ProgramPlan`
        and run by the batch kernel's fold and replay as one lane, so a
        prediction and a sweep point share one loop over program steps.

        When the ambient observability tracer is enabled, the run emits
        structured events on the ``sim:<mode>`` track: a ``compute`` slice
        per processor per computation phase, with the communication
        phases' ``comm``/``send``/``recv`` slices emitted by the
        underlying step simulators (see :mod:`repro.obs`).
        """
        from ..kernel.vector import _fold_computation, _replay, compile_plan

        plan = compile_plan(trace)
        resident = None
        if self.cache_model is not None:
            resident = {
                proc: sum(b * b * 8 for b in sizes.values())
                for proc, sizes in trace.blocks_by_proc().items()
            }
        folds = _fold_computation(
            plan, [(self.params, self.cost_model)],
            cache_model=self.cache_model, resident=resident,
            iter_overhead_us=self.iter_overhead_us,
        )
        rng = self.rng if self.rng is not None else np.random.default_rng(self.seed)
        return _replay(plan, folds, 0, self.mode, self.params, rng, overlap=self.overlap)
