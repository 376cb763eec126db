"""Tie-breaks and forced sends: the kernel draws what the oracle draws.

The kernel's step simulators pick a random element as
``seq[int(rng.integers(0, len(seq)))]``; the reference transcriptions in
``tests/oracle.py`` call ``int(rng.choice(seq))``.  The first test pins
that the two agree element for element and leave the generator in the
same state.  The rest drive the worst-case algorithm's forced-send
branch hard — all-to-all exchanges, rings and random dense patterns, all
starting from tied clocks, so every round deadlocks and every tie needs
a draw — and require the kernel (which drains each forced send's
destination without a rescan) to equal the oracle in events, clocks,
busy times and generator state, with and without an event sink.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MEIKO_CS2, LogGPParameters
from repro.core.message import CommPattern
from repro.core.standard_sim import simulate_standard
from repro.core.worstcase_sim import simulate_worstcase
from repro.kernel import clear_all_caches
from repro.kernel.fastsim import standard_step, worstcase_step

from .oracle import simulate_standard_reference, simulate_worstcase_reference

#: the paper's machine, plus one where o == L == g (every gap rule ties)
MACHINES = [
    MEIKO_CS2,
    LogGPParameters(L=5.0, o=5.0, g=5.0, G=0.5, P=8, name="tied"),
]

ENGINES = {
    "standard": (simulate_standard, standard_step, simulate_standard_reference),
    "worstcase": (simulate_worstcase, worstcase_step, simulate_worstcase_reference),
}


@settings(max_examples=300, deadline=None)
@given(
    seq=st.lists(st.integers(0, 63), min_size=1, max_size=16, unique=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    draws=st.integers(min_value=1, max_value=12),
)
def test_integers_draw_equals_choice(seq, seed, draws):
    """Same element every draw, same generator state afterwards."""
    kernel = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    for _ in range(draws):
        assert seq[int(kernel.integers(0, len(seq)))] == int(oracle.choice(seq))
    assert kernel.random() == oracle.random()


def _all_to_all(P: int, size: int) -> CommPattern:
    return CommPattern(P, [(s, d, size) for s in range(P) for d in range(P) if s != d])


def _ring(P: int, rounds: int, size: int) -> CommPattern:
    return CommPattern(P, [(s, (s + 1) % P, size) for _ in range(rounds) for s in range(P)])


def _check(engine, params, pattern, starts, seed):
    """Kernel == oracle: events, clocks, busy times and the next draw."""
    public, step, reference = ENGINES[engine]
    clear_all_caches()
    ref_rng = np.random.default_rng(seed)
    ref = reference(params, pattern, start_times=starts, rng=ref_rng)
    ref_events = [repr(e) for e in ref.timeline.events]
    ref_busy = ref.timeline.busy_times()
    ref_next = ref_rng.random()

    # the public entry point: a full SimulationResult built from a sink
    rng = np.random.default_rng(seed)
    got = public(params, pattern, start_times=starts, rng=rng)
    assert [repr(e) for e in got.timeline.events] == ref_events
    assert repr(got.ctimes) == repr(ref.ctimes)
    assert repr(got.timeline.start_times) == repr(ref.timeline.start_times)
    assert repr(got.timeline.busy_times()) == repr(ref_busy)
    assert rng.random() == ref_next

    # the folded step, with and without a sink
    for sink in ([], None):
        rng = np.random.default_rng(seed)
        ctimes, busy = step(params, pattern.remote_records(), starts, rng, sink)
        assert repr(ctimes) == repr(ref.ctimes)
        assert set(ref_busy) <= set(busy)
        assert repr(busy) == repr({p: ref_busy.get(p, 0.0) for p in busy})
        assert rng.random() == ref_next
        if sink is not None:
            assert repr(sink) == repr(ref.timeline.op_records())


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("params", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("P", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_all_to_all_tied_starts(engine, params, P, seed):
    """Every processor owes every other: each worst-case round deadlocks."""
    starts = {p: 0.0 for p in range(P)}
    _check(engine, params, _all_to_all(P, 64), starts, seed)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("params", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("P,rounds", [(2, 3), (4, 2), (7, 3)])
@pytest.mark.parametrize("seed", [0, 5])
def test_ring_tied_starts(engine, params, P, rounds, seed):
    """A cyclic ring, repeated: forced sends keep unblocking one neighbour."""
    starts = {p: 12.5 for p in range(P)}
    _check(engine, params, _ring(P, rounds, 16), starts, seed)


_edges = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 64)),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(
    P=st.integers(min_value=2, max_value=6),
    edges=_edges,
    clocks=st.lists(st.sampled_from([0.0, 0.0, 5.0, 19.0]), min_size=6, max_size=6),
    machine=st.sampled_from(MACHINES),
    seed=st.integers(min_value=0, max_value=15),
)
def test_random_dense_patterns_tied_starts(P, edges, clocks, machine, seed):
    """Random dense patterns from a few tied clocks, both engines."""
    pattern = CommPattern(P, [(s % P, d % P, size) for s, d, size in edges])
    starts = {p: clocks[p] for p in range(P)}
    for engine in ENGINES:
        _check(engine, machine, pattern, starts, seed)
