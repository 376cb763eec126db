"""Flat-heap causal simulator: the DES cross-check without coroutines.

The reference causal model (``simulate_causal_reference`` in
``tests/oracle.py``) runs one generator coroutine per processor on
:class:`repro.des.Environment`.  Each simulated action costs several
kernel :class:`~repro.des.Event` allocations, callback lists, and
generator suspensions — ~13 µs per event, all interpreter
overhead.  This module replays the *same computation* as a flat state
machine over plain tuples: the event slab.

Equivalence is sequence-exact, not merely value-exact.  The reference
engine orders same-time events by a global creation counter, and the
machine emulator's jittered network draws latencies from one shared RNG
in send-completion order — so any reordering of equal-time pops would
change numeric results.  The kernel therefore allocates its sequence
numbers at exactly the moments the reference engine calls
``Environment._schedule``:

====================  ==================================================
reference event        slab entry (when, seq, kind, ...)
====================  ==================================================
``Initialize(proc)``   ``INIT_PROC`` — run the processor's first decision
``Timeout(recv gap)``  ``RECV_START`` — emit the RECV event, start it
``Timeout(recv o)``    ``RECV_END`` — commit clock, count the receive
``Timeout(send dur)``  ``SEND_END`` — commit clock, launch delivery
``Initialize(deliver)````INIT_DELIVER`` — schedule the wire timeout
``Timeout(wire)``      ``DELIVER`` — enqueue arrival, wake the receiver
``wakeup.succeed()``   ``WAKEUP`` — resume a blocked processor
``Timeout(send slot)`` ``SENDSLOT`` — the AnyOf's timeout arm
``AnyOf.succeed()``    ``ANYOF_FIRE`` — resume the send-slot waiter
``Process.succeed()``  *skipped push* — a pure no-op pop; the sequence
                       number is still consumed so heap order and the
                       ``des.events`` total stay identical
====================  ==================================================

**Zero-delay events run in place.**  Three kinds are scheduled at the
current time: ``INIT_DELIVER``, ``WAKEUP`` and ``ANYOF_FIRE``.  Such an
entry ``(now, s)`` pops next exactly when no heap entry precedes it —
an entry already in the heap at ``now`` with a smaller sequence number.
Every other entry is due at ``now`` or later (simulated time never runs
backwards), and sequence numbers are unique, so one comparison against
the heap top decides it.  When nothing precedes it, the replay skips the
push and the pop and runs the entry as the very next event.  Its
sequence number is still consumed where the reference consumes it, so
the final counter, the pop order and every latency draw are unchanged.
``INIT_DELIVER`` is tested only after the sender's next decision has
run — the reference pops it after that decision, and the ``DELIVER`` it
schedules takes the sequence number current at that point.

The step reads its remote messages as flat ``(src, dst, size, uid)``
records, and ``latency_of`` receives the record of the message whose
wire latency it draws.  It shares the argument order and the return of
the :mod:`repro.kernel.fastsim` steps: ``(params, remote, start_times,
rng, sink)`` in, ``(ctimes, busy)`` out, with each processor's engaged
time folded in operation order.  ``rng`` is unused (the model is
deterministic unless ``latency_of`` is not).  Given a ``sink`` list, the
step appends one flat ``(proc, kind, start, duration, record, arrival)``
tuple per operation, in the order the reference adds its events.  Like
the reference engine (:meth:`repro.des.Environment.run`), the step
counts the DES events it processes into the ambient tracer's
``des.events`` when tracing is on.

**One decision loop.**  The reference coroutine's body — loop top to the
next yield — runs inline in the event loop, not in a nested function:
the five events that resume a processor (``INIT_PROC``, ``RECV_END``,
``SEND_END``, a live ``WAKEUP`` on a plain wait, ``ANYOF_FIRE``) fall
through to one decision block, and every other event ends its branch.
``SEND_END`` builds its ``INIT_DELIVER`` entry (drawing the latency)
before that decision and pushes it, or makes it pending, after it.

Stale wakeups are real in the reference (a message landing between an
``AnyOf`` firing and the processor resuming schedules a wakeup that
resolves into nothing); per-processor wait generation counters replicate
them as explicit no-op pops.

Float discipline: a reference ``Timeout(delta)`` schedules at
``now + delta`` where ``delta = target - now`` — which can differ from
``target`` in the last ulp.  Slab entries therefore carry the *target*
values (``recv_start``, ``last_end``) alongside the reference-exact heap
``when``, exactly as the coroutine keeps them in locals across the wait.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Mapping, Optional, Sequence

from ..core.loggp import LogGPParameters, OpKind
from ..obs.events import get_tracer
from .memo import send_durations

__all__ = ["causal_step"]

_INF = float("inf")
_SEND = OpKind.SEND
_RECV = OpKind.RECV

# slab entry kinds (never compared by heapq: seq is unique)
_INIT_PROC = 0
_RECV_START = 1
_RECV_END = 2
_SEND_END = 3
_INIT_DELIVER = 4
_DELIVER = 5
_WAKEUP = 6
_SENDSLOT = 7
_ANYOF_FIRE = 8

# wait states
_NO_WAIT = 0
_PLAIN = 1   # `yield st.wakeup` — block until any delivery
_ANYOF = 2   # `yield any_of([timeout, wakeup])` — send slot or delivery


def causal_step(
    params: LogGPParameters,
    remote: Sequence[tuple[int, int, int, int]],
    start_times: Optional[Mapping[int, float]] = None,
    rng=None,
    sink: Optional[list] = None,
    latency_of=None,
) -> tuple[dict[int, float], dict[int, float]]:
    """Flat-heap replay of the causal model (:mod:`repro.core.des_check`)
    over ``(src, dst, size, uid)`` records.

    Returns ``(ctimes, busy)``.  Appends one ``(proc, kind, start,
    duration, record, arrival)`` tuple per operation to ``sink`` if given.
    ``latency_of(record)`` draws each message's wire latency (default
    ``params.L``); ``rng`` is accepted for the common step signature.
    """
    del rng  # deterministic; kept for the common step signature
    if latency_of is None:
        latency_of = lambda _rec: params.L  # noqa: E731 - mirrors reference
    starts = start_times or {}
    procs = sorted({r[0] for r in remote} | {r[1] for r in remote} | set(starts))

    o = params.o
    g = params.g
    G = params.G
    rs_gap = max(o, g) - o
    sdur = send_durations(params)
    sdur_get = sdur.get

    # Per-processor state lives in flat lists indexed by the processor's
    # rank in ``procs`` (list indexing beats dict hashing in the pop loop);
    # heap entries carry the rank.  Ranks never participate in heap
    # comparisons — ``seq`` is unique.
    n_procs = len(procs)
    rank_of = {p: i for i, p in enumerate(procs)}
    expected = [0] * n_procs
    received = [0] * n_procs
    last_kind: list = [None] * n_procs
    last_end = [starts.get(p, 0.0) for p in procs]
    busy = [0.0] * n_procs
    sends = [deque() for _ in range(n_procs)]
    arrived: list = [[] for _ in range(n_procs)]
    wait_state = [_NO_WAIT] * n_procs
    wait_gen = [0] * n_procs
    wakeup_live = [False] * n_procs
    anyof_fired = [False] * n_procs
    for rec in remote:  # one pass; per-source order is the remote order
        sends[rank_of[rec[0]]].append(rec)
        expected[rank_of[rec[1]]] += 1

    emit = None if sink is None else sink.append
    rec_of = None if sink is None else {rec[3]: rec for rec in remote}

    # One INIT_PROC per processor at t=0, seqs 0..P-1 — already heap-ordered.
    heap: list[tuple] = [(0.0, i, _INIT_PROC, i) for i in range(n_procs)]
    seq = n_procs

    # ``pending`` holds a zero-delay entry that pops next (module
    # docstring): it runs as the next event without a heap round trip.
    pending = None
    while True:
        if pending is not None:
            item = pending
            pending = None
        elif heap:
            item = heappop(heap)
        else:
            break
        now = item[0]
        kind = item[2]
        pid = item[3]
        # Events that only schedule end in ``continue``; the five that
        # resume a processor fall through to the decision block below.
        if kind == _SENDSLOT:
            if (
                item[4] == wait_gen[pid]
                and wait_state[pid] == _ANYOF
                and not anyof_fired[pid]
            ):
                anyof_fired[pid] = True
                entry = (now, seq, _ANYOF_FIRE, pid)
                if heap and heap[0] < entry:
                    heappush(heap, entry)
                else:
                    pending = entry
                seq += 1
            # else: the AnyOf already fired via a wakeup — no-op pop
            continue
        elif kind == _RECV_START:
            recv_start = item[4]
            if emit is not None:
                emit((procs[pid], _RECV, recv_start, o, rec_of[item[6]], item[5]))
            busy[pid] += o
            heappush(heap, (now + o, seq, _RECV_END, pid, recv_start + o))
            seq += 1
            continue
        elif kind == _DELIVER:
            heappush(arrived[pid], (now, item[4]))
            if wakeup_live[pid]:
                wakeup_live[pid] = False
                entry = (now, seq, _WAKEUP, pid, wait_gen[pid])
                if heap and heap[0] < entry:
                    heappush(heap, entry)
                else:
                    pending = entry
                seq += 1
            seq += 1  # delivery Process completion: no-op pop, skip push
            continue
        elif kind == _INIT_DELIVER:
            heappush(heap, (now + item[4], seq, _DELIVER, pid, item[5]))
            seq += 1
            continue
        elif kind == _RECV_END:
            last_kind[pid] = _RECV
            last_end[pid] = item[4]
            received[pid] += 1
        elif kind == _SEND_END:
            rec = item[5]
            last_kind[pid] = _SEND
            last_end[pid] = item[4]
            # Wire latency is drawn *before* the delivery process is
            # scheduled and before the next decision — the emulator's
            # shared-RNG draw order depends on this.  The entry is pushed
            # (or made pending) after the decision, below.
            deliver = (now, seq, _INIT_DELIVER, rank_of[rec[1]], latency_of(rec), rec[3])
            seq += 1
        elif kind == _WAKEUP:
            if item[4] != wait_gen[pid]:
                continue  # stale wakeup — the reference pops it into a no-op too
            ws = wait_state[pid]
            if ws == _ANYOF:
                if not anyof_fired[pid]:
                    anyof_fired[pid] = True
                    entry = (now, seq, _ANYOF_FIRE, pid)
                    if heap and heap[0] < entry:
                        heappush(heap, entry)
                    else:
                        pending = entry
                    seq += 1
                continue
            if ws != _PLAIN:
                continue
            wait_state[pid] = _NO_WAIT
        elif kind == _ANYOF_FIRE:
            wait_state[pid] = _NO_WAIT
            wakeup_live[pid] = False  # resume clears st.wakeup
        # else: _INIT_PROC

        # The decision: one pass of the processor loop, from its top to
        # the next yield.  Every branch of the reference coroutine body
        # ends in a yield (or terminates), so one resume runs exactly one
        # decision.
        sq = sends[pid]
        if not sq and received[pid] >= expected[pid]:
            seq += 1  # Process completion event: pure no-op pop, skip push
        else:
            lk = last_kind[pid]
            le = last_end[pid]
            if sq:
                es = le if lk is None else (le + rs_gap if lk is _RECV else le + g)
                send_start = es if es > now else now  # max(now, es)
            else:
                send_start = _INF
            arr = arrived[pid]
            if arr:
                es = le if lk is None else le + g
                # max(now, arr[0][0], es), keeping max's first-wins ties
                recv_start = arr[0][0]
                if not recv_start > now:
                    recv_start = now
                if es > recv_start:
                    recv_start = es
            else:
                recv_start = _INF

            if arr and recv_start <= send_start:
                arrival, uid = heappop(arr)
                if recv_start > now:
                    heappush(
                        heap,
                        (
                            now + (recv_start - now),
                            seq,
                            _RECV_START,
                            pid,
                            recv_start,
                            arrival,
                            uid,
                        ),
                    )
                else:
                    if emit is not None:
                        emit((procs[pid], _RECV, recv_start, o, rec_of[uid], arrival))
                    busy[pid] += o
                    heappush(heap, (now + o, seq, _RECV_END, pid, recv_start + o))
                seq += 1
            elif sq:
                if send_start > now:
                    gen = wait_gen[pid] = wait_gen[pid] + 1
                    wait_state[pid] = _ANYOF
                    anyof_fired[pid] = False
                    wakeup_live[pid] = True
                    heappush(
                        heap, (now + (send_start - now), seq, _SENDSLOT, pid, gen)
                    )
                else:
                    rec = sq.popleft()
                    size = rec[2]
                    duration = sdur_get(size)
                    if duration is None:
                        duration = sdur[size] = o + (size - 1) * G
                    if emit is not None:
                        emit((procs[pid], _SEND, send_start, duration, rec, None))
                    busy[pid] += duration
                    heappush(
                        heap,
                        (now + duration, seq, _SEND_END, pid, send_start + duration, rec),
                    )
                seq += 1
            else:
                wait_gen[pid] += 1
                wait_state[pid] = _PLAIN
                wakeup_live[pid] = True

        if kind == _SEND_END:
            # the reference pops INIT_DELIVER after the sender's decision
            if heap and heap[0] < deliver:
                heappush(heap, deliver)
            else:
                pending = deliver

    # Every reference schedule maps to one consumed seq, so the final
    # counter equals the engine's processed-event total.
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("des.events", seq)
    return (
        {p: last_end[i] for i, p in enumerate(procs)},
        {p: busy[i] for i, p in enumerate(procs)},
    )
