"""Causal event-driven LogGP execution (cross-check of the Figure 2 algorithm).

This is an independent, process-per-processor model of the LogGP
communication step: each processor behaves as a coroutine that issues its
sends as soon as possible but gives priority to any message that has
already arrived — the Split-C active-message policy.

It differs from the paper's Figure 2 algorithm in one deliberate way: it is
strictly *causal*.  The Figure 2 algorithm lets a processor commit to a
send using only the messages whose transmissions have already been
simulated; a message that would arrive between the decision point and the
send's start is not considered.  The causal model re-evaluates when such a
message lands.  The two models coincide whenever ``o + L >= g`` or whenever
message order is forced by the pattern; on other patterns they may differ
slightly — the paper itself observes that "if only one message arrives a
bit later than the LogGP model expected, the whole sequence ... can be
completely changed" (section 4.1).  The test suite uses this module both as
an exact cross-check on order-forced patterns and as an invariant-preserving
second opinion elsewhere.

It runs as :func:`repro.kernel.fastdes.causal_step`, a flat-heap
replay of the coroutine model on the :mod:`repro.des` engine; that model
itself, the readable specification the kernel must match event for
event, is the differential oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .loggp import LogGPParameters
from .message import CommPattern
from .events import CommEvent
from .standard_sim import SimulationResult, step_result

__all__ = ["simulate_causal"]


def simulate_causal(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    latency_of=None,
) -> SimulationResult:
    """Simulate one communication step with the causal active-message model.

    Arguments mirror :func:`repro.core.standard_sim.simulate_standard`.
    ``rng``/``seed`` are accepted for interface symmetry; the causal model
    is deterministic (the DES engine orders same-time events by creation)
    unless ``latency_of`` is stochastic.

    ``latency_of(message) -> us`` overrides the wire latency per message
    (the machine emulator's jittered network); default is ``params.L``.
    """
    del rng, seed  # deterministic; kept for API symmetry
    from ..kernel.fastdes import causal_step

    events: list[CommEvent] = []
    ctimes, des_events = causal_step(
        params, pattern.remote_records(), start_times, latency_of, events,
        pattern.messages,
    )
    return step_result(
        params, pattern, start_times, ctimes, events, "causal", des_events
    )
