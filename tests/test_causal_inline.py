"""The causal replay runs zero-delay events in place, sequence-exactly.

``repro.kernel.fastdes`` skips the heap round trip for an ``INIT_DELIVER``,
``WAKEUP`` or ``ANYOF_FIRE`` entry that would pop next anyway.  That is
only exact if the entry really is next, so these tests aim at ties:
constant or small-integer wire latencies, equal start clocks, ``o == L``
and zero-latency wires put many events at the same instant.  Against the
coroutine model on the DES engine (``simulate_causal_reference``) the
kernel must produce the same events, the same clocks, the same number of
processed DES events, and ask for latencies in the same message order —
both sides draw from one shared latency sequence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MEIKO_CS2, LogGPParameters
from repro.core.des_check import simulate_causal
from repro.core.message import CommPattern
from repro.kernel import clear_all_caches
from repro.kernel.fastdes import causal_step
from repro.obs import Tracer, tracing

from .oracle import simulate_causal_reference

MACHINES = [
    MEIKO_CS2,
    LogGPParameters(L=5.0, o=5.0, g=5.0, G=0.5, P=8, name="o-eq-L"),
    LogGPParameters(L=2.0, o=2.0, g=9.0, G=0.0, P=8, name="wide-gap"),
]


def _latencies(sequence):
    """A latency source cycling through ``sequence``, logging who asked."""
    asked = []

    def latency_of(msg):
        asked.append(msg.uid)
        return sequence[(len(asked) - 1) % len(sequence)]

    return latency_of, asked


def _record_latencies(sequence):
    """:func:`_latencies` for a replay that hands ``(src, dst, size, uid)``
    records instead of messages."""
    asked = []

    def latency_of(record):
        asked.append(record[3])
        return sequence[(len(asked) - 1) % len(sequence)]

    return latency_of, asked


def _run(simulate, params, pattern, starts, sequence):
    clear_all_caches()
    latency_of, asked = _latencies(sequence) if sequence else (None, [])
    tracer = Tracer()
    with tracing(tracer):
        result = simulate(params, pattern, start_times=starts, latency_of=latency_of)
    return (
        [repr(e) for e in result.timeline.events],
        repr(result.ctimes),
        tracer.metrics.counter("des.events").value,
        asked,
    )


_edges = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 32)),
    min_size=1,
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(
    P=st.integers(min_value=2, max_value=9),
    edges=_edges,
    clocks=st.lists(st.sampled_from([0.0, 0.0, 2.0, 5.0]), min_size=9, max_size=9),
    machine=st.sampled_from(MACHINES),
    sequence=st.one_of(
        st.just([]),  # constant L
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0, 9.0]), min_size=1, max_size=6),
    ),
)
def test_causal_kernel_equals_des_reference(P, edges, clocks, machine, sequence):
    """Events, clocks, DES event count and latency draw order all equal."""
    pattern = CommPattern(P, [(s % P, d % P, size) for s, d, size in edges])
    starts = {p: clocks[p] for p in range(P)}
    ref = _run(simulate_causal_reference, machine, pattern, starts, sequence)
    got = _run(simulate_causal, machine, pattern, starts, sequence)
    assert got == ref

    # the event-free replay of the records: same clocks, same count, and
    # the same draws, asked for with each message's record
    latency_of, asked = _record_latencies(sequence) if sequence else (None, [])
    tracer = Tracer()
    with tracing(tracer):
        ctimes, _ = causal_step(
            machine, pattern.remote_records(), starts, None, None, latency_of
        )
    des_events = tracer.metrics.counter("des.events").value
    assert (repr(ctimes), des_events, asked) == (ref[1], ref[2], ref[3])


@settings(max_examples=150, deadline=None)
@given(
    P=st.integers(min_value=2, max_value=9),
    edges=_edges,
    clocks=st.lists(st.sampled_from([0.0, 0.0, 2.0, 5.0]), min_size=9, max_size=9),
    machine=st.sampled_from(MACHINES),
)
def test_causal_kernel_busy_and_sink_equal_reference_timeline(P, edges, clocks, machine):
    """The folded engaged times and the sink's operation tuples are the
    reference timeline's, bit for bit and in its event order."""
    pattern = CommPattern(P, [(s % P, d % P, size) for s, d, size in edges])
    starts = {p: clocks[p] for p in range(P)}
    clear_all_caches()
    ref = simulate_causal_reference(machine, pattern, start_times=starts)
    ref_busy = ref.timeline.busy_times()
    sink: list = []
    ctimes, busy = causal_step(machine, pattern.remote_records(), starts, None, sink)
    assert repr(ctimes) == repr(ref.ctimes)
    assert repr(busy) == repr({p: ref_busy.get(p, 0.0) for p in ref.ctimes})
    assert repr(sink) == repr(ref.timeline.op_records())
