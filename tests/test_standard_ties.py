"""The standard algorithm's ready-sender heap picks the reference's ties.

``standard_step`` keeps the processors that still have sends in a heap of
``(clock, proc)`` entries.  When several share the minimum clock it pops
all of them — in ``procs`` order, which is the reference's tie list —
draws one, and pushes the others back.  Regular programs seldom tie, so
these patterns make ties the rule: every sender starts at the same
clock, every message has the same size, and on the ``tied`` machine
(``o == L == g``) the gap rules keep the clocks in lockstep.  Against
``simulate_standard_reference`` the kernel must give the same clocks,
the same busy times and leave the generator in the same state.

With equal sizes, the order in which tied senders go seldom changes the
clocks: a message sent at the tied clock arrives after it.  It does on
the ``wide-gap`` machine (``g > o + L``) from staggered starts, where a
sender that has not sent yet can make a tied neighbour receive first, so
a wrong tie order shows in the clocks and not only in the draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MEIKO_CS2, LogGPParameters
from repro.core.message import CommPattern
from repro.kernel import clear_all_caches
from repro.kernel.fastsim import standard_step

from .oracle import simulate_standard_reference

MACHINES = [
    MEIKO_CS2,
    LogGPParameters(L=5.0, o=5.0, g=5.0, G=0.5, P=8, name="tied"),
    LogGPParameters(L=1.0, o=1.0, g=9.0, G=0.0, P=8, name="wide-gap"),
]

#: start clock of processor p
STARTS = {
    "zero": lambda p: 0.0,
    "equal": lambda p: 12.5,
    "staggered": lambda p: float(p % 2),
}


class _CountingRng:
    """Forwards ``integers`` to a generator and counts the draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws = 0

    def integers(self, low, high):
        self.draws += 1
        return self.rng.integers(low, high)


def _all_to_all(P: int, rounds: int, size: int) -> CommPattern:
    return CommPattern(
        P,
        [(s, d, size) for _ in range(rounds) for s in range(P) for d in range(P) if s != d],
    )


def _shifts(P: int, rounds: int, size: int) -> CommPattern:
    """Round r: every processor sends to its r-th right neighbour."""
    return CommPattern(
        P, [(s, (s + r) % P, size) for r in range(1, rounds + 1) for s in range(P)]
    )


def _scattered(P: int, rounds: int, size: int) -> CommPattern:
    """Uneven and asymmetric: processor s sends ``rounds + s`` messages to
    fixed pseudo-random others, so picking the wrong tied sender shows."""
    dests = np.random.default_rng(P).integers(1, P, size=(P, rounds + P))
    return CommPattern(
        P,
        [(s, (s + int(dests[s, i])) % P, size) for s in range(P) for i in range(rounds + s)],
    )


PATTERNS = {"all-to-all": _all_to_all, "scattered": _scattered, "shifts": _shifts}


@pytest.mark.parametrize("P", [2, 3, 8])
@pytest.mark.parametrize("params", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("shape", sorted(PATTERNS))
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("start", sorted(STARTS))
def test_tie_heavy_patterns_equal_reference(P, params, shape, seed, start):
    pattern = PATTERNS[shape](P, 3, 64)
    starts = {p: STARTS[start](p) for p in range(P)}
    clear_all_caches()
    ref_rng = np.random.default_rng(seed)
    ref = simulate_standard_reference(params, pattern, start_times=starts, rng=ref_rng)
    ref_busy = ref.timeline.busy_times()

    rng = _CountingRng(np.random.default_rng(seed))
    ctimes, busy = standard_step(params, pattern.remote_records(), starts, rng)
    assert repr(ctimes) == repr(ref.ctimes)
    assert repr(busy) == repr({p: ref_busy.get(p, 0.0) for p in busy})
    assert rng.rng.bit_generator.state == ref_rng.bit_generator.state
    if start != "staggered":
        # ties are the rule: at least every other pick draws
        assert 2 * rng.draws >= len(pattern.remote_records())
