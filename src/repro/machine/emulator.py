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
from ..trace.program import ProgramTrace
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
    """Executes a program trace on the emulated Meiko-CS-2 stand-in.

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

    def run(self, trace: ProgramTrace) -> MeasuredReport:
        """Execute the program; returns the emulated measurements.

        When the ambient observability tracer is enabled, the run emits
        structured events on the ``emulator`` track: per-phase ``compute``
        slices (with cache/scan attribution), ``local_copy`` slices for
        self-messages, and the causal communication model's
        ``comm``/``send``/``recv`` slices (see :mod:`repro.obs`).  Only a
        traced run builds those events: it looks the causal model up as
        this module's ``simulate_causal`` (the oracle's injection point),
        while an untraced run replays each step for its clocks alone.
        """
        tracer = get_tracer()
        with tracer.in_track("emulator"):
            return self._run_traced(trace, tracer)

    def _run_traced(self, trace: ProgramTrace, tracer) -> MeasuredReport:
        # imported on first run, so loading the CLI imports nothing new
        from ..kernel.fastdes import causal_step

        # the two slice categories this loop emits, hoisted out of it
        traced = tracer.enabled and tracer.wants("compute")
        traced_copy = tracer.enabled and tracer.wants("local_copy")
        # Safe under timing noise: NodeCPU draws its noise factor
        # separately and multiplies the (pure) cost — so memoising the
        # cost changes nothing, including the RNG stream.
        cost_model = memoize(self.cost_model)
        owned = trace.blocks_by_proc()
        cpus: dict[int, NodeCPU] = {}
        for p in range(trace.num_procs):
            cache = BlockCache(self.cache_bytes) if self.cache_bytes else None
            cpus[p] = NodeCPU(
                cost_model=cost_model,
                cache=cache,
                assigned_blocks=len(owned.get(p, {})),
                line_bytes=self.line_bytes,
                miss_penalty_us=self.miss_penalty_us,
                scan_us_per_block=self.scan_us_per_block,
                noise_sigma=self.noise_sigma,
                rng=np.random.default_rng((self.seed, p)),
            )

        clocks = {p: 0.0 for p in range(trace.num_procs)}
        comp = {p: 0.0 for p in range(trace.num_procs)}
        cache_acc = {p: 0.0 for p in range(trace.num_procs)}
        local_acc = {p: 0.0 for p in range(trace.num_procs)}

        for step_idx, step in enumerate(trace.steps):
            for proc, ops in step.work.items():
                if not ops:
                    continue
                phase = cpus[proc].run_phase(ops)
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

            if step.pattern is None:
                continue
            remote = step.pattern.remote_messages()
            if remote:
                participants = {p for m in remote for p in (m.src, m.dst)}
                starts = {p: clocks[p] for p in participants}
                if tracer.enabled:
                    ctimes = simulate_causal(
                        self.params,
                        step.pattern,
                        start_times=starts,
                        latency_of=self.network.latency_of,
                    ).ctimes
                else:
                    # only the clocks are read: replay without events
                    ctimes, _ = causal_step(
                        self.params, step.pattern, starts, self.network.latency_of
                    )
                for p in participants:
                    clocks[p] = ctimes.get(p, clocks[p])
            for msg in step.pattern.local_messages():
                cost = self.network.local_copy_us(msg)
                if traced_copy:
                    tracer.slice(
                        "local_copy", proc=msg.src, ts=clocks[msg.src],
                        dur=cost, bytes=msg.size, step=step_idx,
                    )
                clocks[msg.src] += cost
                local_acc[msg.src] += cost

        if tracer.enabled:
            tracer.count("emulator.runs")
            tracer.count("emulator.steps", len(trace.steps))
        return MeasuredReport(
            total_us=max(clocks.values(), default=0.0),
            per_proc_comp_us=comp,
            per_proc_cache_us=cache_acc,
            per_proc_local_us=local_acc,
            per_proc_total_us=dict(clocks),
            meta=dict(trace.meta),
        )
