"""The machine emulator: our stand-in for "real execution" on the Meiko CS-2.

The paper validates its prediction against measurements of the real
machine.  We have no CS-2, so :class:`MachineEmulator` plays its role: it
executes the *same* program trace the predictor consumes, but models the
effects the paper's simple prediction deliberately omits (section 6.3):

* **cache misses** — per-node block caches (``machine.cache``) charge
  line fills when operand blocks are not resident;
* **iteration overhead** — each node scans all of its assigned blocks
  every step (``machine.cpu``);
* **local transfers** — self-messages are memory copies with a per-byte
  cost (``machine.network``);
* **network variability** — per-message latencies jitter around the LogGP
  ``L`` (``machine.network``), executed by the causal active-message model
  on the DES engine.

Consequently "measured" totals exceed the simple prediction for small
blocks (cache + iteration effects), measured communication sits above the
standard simulation (jitter + local copies) but below the worst-case
bound, and measured computation slightly exceeds predicted computation —
exactly the qualitative relationships of Figures 7-9.

The emulator also reports the paper's instrumentation split: the run
where a separately-timed cache-warming section is subtracted out
("measured w/o caching", Figure 7 top).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..blockops.calibration import (
    CS2_CACHE_BYTES,
    CS2_LINE_BYTES,
    CS2_MISS_PENALTY_US,
    SCAN_US_PER_BLOCK,
)
from ..core.costmodel import CostModel
from ..core.des_check import simulate_causal
from ..core.loggp import LogGPParameters
from ..kernel.memo import memoize
from ..obs.events import get_tracer
from .cache import BlockCache
from .cpu import NodeCPU
from .network import JitteredNetwork

__all__ = ["MeasuredReport", "MachineEmulator"]


@dataclass
class MeasuredReport:
    """What the emulated machine "measures" for one program run."""

    #: wall-clock completion, µs (includes every modelled effect)
    total_us: float
    #: per-processor computation time: warm op cost + iteration overhead
    per_proc_comp_us: dict[int, float]
    #: per-processor separately-timed cache-warming section (paper §6.3)
    per_proc_cache_us: dict[int, float]
    #: per-processor local-copy time (self-messages)
    per_proc_local_us: dict[int, float]
    #: per-processor final clock
    per_proc_total_us: dict[int, float]
    meta: dict = field(default_factory=dict)

    @property
    def comp_us(self) -> float:
        """Measured computation time (Figure 9 series): max over processors."""
        return max(self.per_proc_comp_us.values(), default=0.0)

    @property
    def cache_us(self) -> float:
        """The separately-timed caching section: max over processors."""
        return max(self.per_proc_cache_us.values(), default=0.0)

    @property
    def comm_us(self) -> float:
        """Measured communication time (Figure 8): everything that is
        neither computation nor the caching section, max over processors."""
        return max(
            (
                self.per_proc_total_us[p]
                - self.per_proc_comp_us.get(p, 0.0)
                - self.per_proc_cache_us.get(p, 0.0)
                for p in self.per_proc_total_us
            ),
            default=0.0,
        )

    @property
    def total_without_cache_us(self) -> float:
        """"Measured w/o caching": total minus the caching section."""
        return max(
            (
                self.per_proc_total_us[p] - self.per_proc_cache_us.get(p, 0.0)
                for p in self.per_proc_total_us
            ),
            default=0.0,
        )

    def breakdown(self) -> dict[str, float]:
        """``{"total", "total_wo_cache", "comp", "comm", "cache"}`` in µs."""
        return {
            "total": self.total_us,
            "total_wo_cache": self.total_without_cache_us,
            "comp": self.comp_us,
            "comm": self.comm_us,
            "cache": self.cache_us,
        }


class MachineEmulator:
    """Executes a program on the emulated Meiko-CS-2 stand-in.

    Parameters
    ----------
    params:
        LogGP means of the machine's network.
    cost_model:
        Warm-cache basic-op costs (the same Figure 6 table the predictor
        uses — the emulator differs only in the omitted effects).
    cache_bytes:
        Per-node cache capacity; ``None`` disables cache modelling.
    network:
        Jittered network; defaults to a :class:`JitteredNetwork` seeded
        from ``seed``.
    noise_sigma:
        Multiplicative timing noise on basic ops.
    scan_us_per_block:
        Iteration-overhead rate; 0 disables it.
    seed:
        Master seed for all stochastic parts.
    """

    def __init__(
        self,
        params: LogGPParameters,
        cost_model: CostModel,
        cache_bytes: Optional[int] = CS2_CACHE_BYTES,
        line_bytes: int = CS2_LINE_BYTES,
        miss_penalty_us: float = CS2_MISS_PENALTY_US,
        network: Optional[JitteredNetwork] = None,
        noise_sigma: float = 0.02,
        scan_us_per_block: float = SCAN_US_PER_BLOCK,
        seed: int = 0,
    ):
        self.params = params
        self.cost_model = cost_model
        self.cache_bytes = cache_bytes
        self.line_bytes = line_bytes
        self.miss_penalty_us = miss_penalty_us
        self.network = (
            network
            if network is not None
            else JitteredNetwork(params=params, seed=seed)
        )
        self.noise_sigma = noise_sigma
        self.scan_us_per_block = scan_us_per_block
        self.seed = seed

    def run(self, program) -> MeasuredReport:
        """Execute the program; returns the emulated measurements.

        ``program`` is a :class:`~repro.trace.program.ProgramTrace` or an
        already compiled :class:`~repro.kernel.vector.ProgramPlan`; a
        trace is compiled first (:func:`~repro.kernel.vector.compile_plan`),
        so both run the same loop over the plan's flat records.

        When the ambient observability tracer is enabled, the run emits
        structured events on the ``emulator`` track: per-phase ``compute``
        slices (with cache/scan attribution), ``local_copy`` slices for
        self-messages, and the causal communication model's
        ``comm``/``send``/``recv`` slices (see :mod:`repro.obs`).  Only a
        traced run builds those events: it looks the causal model up as
        this module's ``simulate_causal`` (the oracle's injection point)
        and hands it the step's pattern, built from the plan's records on
        first use; an untraced run replays each step's records for their
        clocks alone, with the step's wire latencies drawn in one
        :meth:`~repro.machine.network.JitteredNetwork.latencies` call.
        """
        # imported on first run, so loading the CLI imports nothing new
        from ..kernel.vector import ProgramPlan, compile_plan

        plan = program if isinstance(program, ProgramPlan) else compile_plan(program)
        tracer = get_tracer()
        with tracer.in_track("emulator"):
            return self._run_plan(plan, tracer)

    def _run_plan(self, plan, tracer) -> MeasuredReport:
        from ..kernel.fastdes import causal_step

        # the two slice categories this loop emits, hoisted out of it
        traced = tracer.enabled and tracer.wants("compute")
        traced_copy = tracer.enabled and tracer.wants("local_copy")
        # Safe under timing noise: NodeCPU draws its noise factor
        # separately and multiplies the (pure) cost — so memoising the
        # cost changes nothing, including the RNG stream.
        cost_model = memoize(self.cost_model)
        table = [cost_model.cost(op, b) for op, b in plan.op_table]
        P = plan.num_procs
        cpus = [
            NodeCPU(
                cost_model=cost_model,
                cache=BlockCache(self.cache_bytes) if self.cache_bytes else None,
                assigned_blocks=plan.block_counts[p],
                line_bytes=self.line_bytes,
                miss_penalty_us=self.miss_penalty_us,
                scan_us_per_block=self.scan_us_per_block,
                noise_sigma=self.noise_sigma,
                rng=np.random.default_rng((self.seed, p)),
            )
            for p in range(P)
        ]
        network = self.network
        latency_of = network.latency_of

        clocks = [0.0] * P
        comp = [0.0] * P
        cache_acc = [0.0] * P
        local_acc = [0.0] * P

        for step_idx, pstep in enumerate(plan.steps):
            for proc, slots, records in pstep.work:
                phase = cpus[proc].run_records(table, slots, records)
                if traced:
                    tracer.slice(
                        "compute", proc=proc, ts=clocks[proc],
                        dur=phase.total_us, step=step_idx,
                        warm_us=phase.warm_us, cache_us=phase.cache_us,
                        scan_us=phase.scan_us,
                    )
                clocks[proc] += phase.total_us
                comp[proc] += phase.warm_us + phase.scan_us
                cache_acc[proc] += phase.cache_us

            if pstep.remote:
                participants = pstep.participants
                starts = {p: clocks[p] for p in participants}
                if tracer.enabled:
                    ctimes = simulate_causal(
                        self.params,
                        pstep.pattern,
                        start_times=starts,
                        latency_of=latency_of,
                    ).ctimes
                else:
                    # Only the clocks are read: replay the records without
                    # events.  Each record is sent once, so the step asks
                    # for exactly len(remote) latencies, and the k-th send
                    # takes the k-th draw either way.
                    draw = iter(network.latencies(len(pstep.remote))).__next__
                    ctimes, _ = causal_step(
                        self.params, pstep.remote, starts,
                        lambda _rec, _draw=draw: _draw(),
                    )
                for p in participants:
                    clocks[p] = ctimes.get(p, clocks[p])
            for src, size, _ in pstep.local:
                cost = network.copy_us(size)
                if traced_copy:
                    tracer.slice(
                        "local_copy", proc=src, ts=clocks[src],
                        dur=cost, bytes=size, step=step_idx,
                    )
                clocks[src] += cost
                local_acc[src] += cost

        if tracer.enabled:
            tracer.count("emulator.runs")
            tracer.count("emulator.steps", len(plan.steps))
        return MeasuredReport(
            total_us=max(clocks, default=0.0),
            per_proc_comp_us=dict(enumerate(comp)),
            per_proc_cache_us=dict(enumerate(cache_acc)),
            per_proc_local_us=dict(enumerate(local_acc)),
            per_proc_total_us=dict(enumerate(clocks)),
            meta=dict(plan.meta),
        )
