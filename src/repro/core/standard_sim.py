"""The standard LogGP communication-simulation algorithm (paper Figure 2).

Given a communication pattern and per-processor start clocks, determine the
sequence of send and receive operations each processor performs, such that:

* the gap rules of Figure 1 hold between consecutive operations,
* available messages are sent as soon as possible,
* **receives have priority over sends** — whenever a processor wants to
  send while at least one message is waiting to be received, the receive is
  performed first (Split-C active-message semantics),
* ties between processors with equal current time break randomly (seeded).

The algorithm keeps, per processor, a FIFO queue of messages to send (in
program order) and a priority queue of in-flight messages ordered by
arrival time.  The main loop repeatedly picks the processor with the
minimum current time among those that still want to send, and lets it
perform whichever of {next send, earliest receive} can *start* earlier —
with the strict comparison giving receives priority on ties.  Once all
sends are done, every processor drains its receive queue.

Self-messages are local memory transfers in real execution and are
deliberately excluded here (paper section 6.3); they are reported in
:attr:`SimulationResult.skipped_local`.

The loop runs in :func:`repro.kernel.fastsim.standard_step`;
its readable transcription, which the kernel must match bit for bit, is
the differential oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..obs.events import get_tracer
from .events import CommEvent, StepTimeline
from .loggp import LogGPParameters
from .message import CommPattern, Message

__all__ = ["SimulationResult", "simulate_standard", "simulate_step"]


@dataclass
class SimulationResult:
    """Outcome of one communication-step simulation."""

    timeline: StepTimeline
    #: per-processor clock after the step (end of each processor's last op)
    ctimes: dict[int, float]
    #: self-messages excluded from the LogGP simulation
    skipped_local: tuple[Message, ...] = ()

    @property
    def completion_time(self) -> float:
        """Completion time of the step (max over processors)."""
        return self.timeline.completion_time

    def elapsed(self, start_times: Optional[Mapping[int, float]] = None) -> float:
        """Step duration relative to the earliest start clock."""
        starts = start_times if start_times is not None else self.timeline.start_times
        base = min(starts.values(), default=0.0) if starts else 0.0
        return self.completion_time - base


def simulate_standard(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Functional entry point for the Figure 2 algorithm.

    Parameters
    ----------
    params:
        LogGP machine parameters.
    pattern:
        The communication pattern of this step.
    start_times:
        Per-processor clocks at the start of the step (missing ids start
        at 0); processors not mentioned and not in the pattern are ignored.
    rng, seed:
        Randomness for tie-breaking; ``rng`` wins if both are given.
    """
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    from ..kernel.fastsim import standard_step

    return simulate_step(standard_step, "standard", params, pattern, start_times, rng)


def simulate_step(
    step,
    algo: str,
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]],
    rng: Optional[np.random.Generator],
) -> SimulationResult:
    """Run one record-level kernel step on ``pattern`` and wrap it as a result.

    ``step`` is a kernel step (or anything with its signature, such as
    the oracle's wrapped reference simulators).  Its sink's flat
    ``(proc, kind, start, duration, record, arrival)`` tuples become
    :class:`CommEvent` objects carrying ``pattern.messages[uid]``.
    Traced, the step is counted in ``sim.comm_steps.<algo>`` and its
    tuples go to the ambient tracer as they are.
    """
    starts = start_times or {}
    sink: list = []
    ctimes, _ = step(params, pattern.remote_records(), start_times, rng, sink)
    step_starts = {p: starts.get(p, 0.0) for p in ctimes}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count(f"sim.comm_steps.{algo}")
        tracer.emit_comm_step(sink, ctimes, step_starts, algo)
    messages = pattern.messages
    events = [
        CommEvent(proc, kind, start, duration, messages[rec[3]], arrival)
        for proc, kind, start, duration, rec, arrival in sink
    ]
    return SimulationResult(
        timeline=StepTimeline(params=params, events=events, start_times=step_starts),
        ctimes=ctimes,
        skipped_local=pattern.local_messages(),
    )
