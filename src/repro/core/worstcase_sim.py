"""The overestimation ("worst case") algorithm (paper section 4.2).

To bound the communication time from above, each processor first waits for
*all* the messages it has to receive, and only afterwards starts
transmitting its own.  Each processor knows its expected message count via
a messages-to-receive counter; at each round, every processor whose counter
has reached zero (and whose receives are all performed) sends all of its
messages, decrementing the counters at the destinations; then the
destinations perform the corresponding receive operations.

The paper notes this schedule cannot occur in a real Split-C execution — it
exists purely to upper-bound the LogGP communication time — and that cyclic
communication patterns would deadlock it: every processor on a cycle waits
for some other.  In that case the algorithm "performs randomly some message
transmissions in order to break the deadlock"; here a uniformly random
blocked sender (seeded RNG) is forced to transmit its next message.

The same LogGP gap rules (Figure 1) apply as in the standard algorithm.

The rounds run in :func:`repro.kernel.fastsim.worstcase_step`;
their readable transcription, which the kernel must match bit for bit,
is the differential oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .loggp import LogGPParameters
from .message import CommPattern
from .events import CommEvent
from .standard_sim import SimulationResult, step_result

__all__ = ["simulate_worstcase"]


def simulate_worstcase(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Functional entry point for the overestimation algorithm."""
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    return _simulate(params, pattern, start_times, rng)


def _simulate(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
) -> SimulationResult:
    from ..kernel.fastsim import worstcase_step

    events: list[CommEvent] = []
    ctimes, _ = worstcase_step(
        params, pattern.remote_records(), start_times, rng, events, pattern.messages
    )
    return step_result(params, pattern, start_times, ctimes, events, "worstcase")
