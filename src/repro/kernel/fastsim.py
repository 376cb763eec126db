"""Step simulators: bit-identical tight-loop rewrites of Figure 2 & §4.2.

One function per algorithm.  :func:`standard_step` and
:func:`worstcase_step` compute exactly what the reference transcriptions
(``simulate_standard_reference`` and ``simulate_worstcase_reference`` in
``tests/oracle.py``) compute — same operations in the same global order, same final clocks, same RNG consumption — but with the
per-operation overhead removed:

* the LogGP gap rules and durations are inlined (the receive→send gap
  ``max(o, g) - o`` is a constant, receive duration is ``o``, send
  durations come from the shared per-machine table in
  :mod:`repro.kernel.memo`);
* each reads the step's remote messages as flat ``(src, dst, size,
  uid)`` records (:meth:`CommPattern.remote_records`, or a compiled
  plan's step) and never touches a :class:`~repro.core.message.Message`;
* each returns ``(ctimes, busy)``: every processor's engaged time is
  folded on the fly — the same per-processor left-fold over the same
  durations in the same order as ``StepTimeline.busy_times()`` over the
  events.  Given a ``sink`` list, a step appends one flat ``(proc,
  kind, start, duration, record, arrival)`` tuple per operation, in the
  reference's event order (``arrival`` is ``None`` for a send).  The
  tracer stores those tuples as they are
  (:meth:`repro.obs.events.Tracer.emit_comm_step`), and
  :func:`repro.core.standard_sim.simulate_step` turns them into the
  public :class:`~repro.core.standard_sim.SimulationResult`'s events;
* random draws are ``seq[int(rng.integers(0, len(seq)))]`` where the
  reference calls ``int(rng.choice(seq))``: on a plain sequence the two
  pick the same element and leave the generator in the same state (the
  oracle keeps ``rng.choice``, so the differential suite re-checks this
  on every run);
* the standard algorithm adds a **batched deterministic segment**: after
  the main loop picks the unique minimum-clock sender, that processor
  keeps operating while its clock stays *strictly* below every other
  sender's — precisely the iterations in which the reference rescans all
  processors, finds a singleton tie set, and consumes no randomness.
  Ties (clock equality) always fall back to the outer pick, so a draw
  happens on exactly the same tie sets as the reference;
* the standard algorithm's outer pick reads a **ready-sender heap** of
  ``(clock, proc)`` entries instead of rescanning every processor.  Only
  the operating processor's clock changes between picks, and it is out
  of the heap while it operates, so the heap top is the minimum-clock
  sender.  Entries with equal clocks pop in ``procs`` order — the
  reference's tie list — so popping every entry tied with the minimum
  gives the same list to draw from; the others go back unchanged;
* the worst-case algorithm **drains a forced send's destination at
  once**.  A send is forced only when no processor can send and none
  has a pending receive; the forced send adds exactly one pending
  receive, at its destination, and changes no other processor's
  messages-to-receive counter.  The reference's next round would
  therefore find no ready sender and that one receiver — so the kernel
  drains it without the rescan, and keeps forcing from the same blocked
  list (minus a sender whose queue emptied) until the destination is
  ready or nothing is left to send.

Float discipline: every arithmetic expression here is the same sequence
of operations as the reference (e.g. ``arrival = (start + duration) + L``,
never ``start + (duration + L)``), so results are bit-equal, not just
close.  The differential oracle (``tests/test_kernel_differential.py``)
and the hypothesis suites (``tests/test_kernel_property.py``,
``tests/test_kernel_forced.py``) enforce this on every app × layout ×
engine.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.loggp import LogGPParameters, OpKind
from .memo import send_durations

__all__ = ["standard_step", "worstcase_step"]

_INF = float("inf")
_SEND = OpKind.SEND
_RECV = OpKind.RECV


def standard_step(
    params: LogGPParameters,
    remote: Sequence[tuple[int, int, int, int]],
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
    sink: Optional[list] = None,
) -> tuple[dict[int, float], dict[int, float]]:
    """The Figure 2 algorithm over ``(src, dst, size, uid)`` records.

    Returns ``(ctimes, busy)``.  Appends one ``(proc, kind, start,
    duration, record, arrival)`` tuple per operation to ``sink`` if given.
    """
    starts = start_times or {}
    procs = sorted({r[0] for r in remote} | {r[1] for r in remote} | set(starts))

    o = params.o
    g = params.g
    L = params.L
    G = params.G
    rs_gap = max(o, g) - o  # receive -> send gap (Figure 1's asymmetric rule)
    sdur = send_durations(params)
    sdur_get = sdur.get
    emit = None if sink is None else sink.append
    rec_of = None if sink is None else {rec[3]: rec for rec in remote}

    ctime: dict[int, float] = {}
    busy: dict[int, float] = {}
    last_kind: dict[int, Optional[OpKind]] = {}
    send_q: dict[int, deque] = {}
    recv_h: dict[int, list] = {}
    for p in procs:
        ctime[p] = starts.get(p, 0.0)
        busy[p] = 0.0
        last_kind[p] = None
        send_q[p] = deque()
        recv_h[p] = []
    for rec in remote:  # one pass; per-source order is the remote order
        send_q[rec[0]].append(rec)

    # Ready-sender heap: ``(ctime, proc)`` of every processor with a
    # non-empty send queue.  Only the operating processor's clock changes
    # between picks, and it is out of the heap while it operates, so the
    # heap top is always the reference's minimum-clock sender.
    ready = [(ctime[p], p) for p in procs if send_q[p]]
    heapify(ready)
    while ready:
        min_ct, proc = heappop(ready)
        if ready and ready[0][0] == min_ct:
            # Equal clocks pop in ``procs`` order: the reference's tie list.
            tied = [proc]
            while ready and ready[0][0] == min_ct:
                tied.append(heappop(ready)[1])
            proc = tied[int(rng.integers(0, len(tied)))]
            for p in tied:
                if p != proc:
                    heappush(ready, (min_ct, p))
        # Strict bound for the batched segment: while this processor's
        # clock stays below every other sender's, the reference would
        # re-pick it with a singleton tie set (no RNG) — so we may keep
        # going without rescanning.  Other senders' clocks cannot change
        # meanwhile (only `proc` operates; sends only grow *receive*
        # heaps).
        other_min = ready[0][0] if ready else _INF

        sq = send_q[proc]
        rh = recv_h[proc]
        ct = ctime[proc]
        lk = last_kind[proc]
        bz = busy[proc]
        while True:
            if rh:
                arrival = rh[0][0]
                start_recv = max(arrival, ct if lk is None else ct + g)
            else:
                start_recv = _INF
            start_send = (
                ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
            )

            if start_send < start_recv:
                _, dst, size, uid = sq.popleft()
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                if emit is not None:
                    emit((proc, _SEND, start_send, duration, rec_of[uid], None))
                bz += duration
                ct = start_send + duration
                lk = _SEND
                heappush(recv_h[dst], (ct + L, uid))
            else:
                arrival, uid = heappop(rh)
                if emit is not None:
                    emit((proc, _RECV, start_recv, o, rec_of[uid], arrival))
                bz += o
                ct = start_recv + o
                lk = _RECV
            if not sq or not ct < other_min:
                break
        ctime[proc] = ct
        last_kind[proc] = lk
        busy[proc] = bz
        if sq:
            heappush(ready, (ct, proc))

    # Drain: every processor performs its remaining receives.
    for p in procs:
        rh = recv_h[p]
        if not rh:
            continue
        ct = ctime[p]
        lk = last_kind[p]
        bz = busy[p]
        while rh:
            arrival, uid = heappop(rh)
            start = max(arrival, ct if lk is None else ct + g)
            if emit is not None:
                emit((p, _RECV, start, o, rec_of[uid], arrival))
            bz += o
            ct = start + o
            lk = _RECV
        ctime[p] = ct
        last_kind[p] = lk
        busy[p] = bz

    return ctime, busy


def worstcase_step(
    params: LogGPParameters,
    remote: Sequence[tuple[int, int, int, int]],
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
    sink: Optional[list] = None,
) -> tuple[dict[int, float], dict[int, float]]:
    """The §4.2 overestimation algorithm over ``(src, dst, size, uid)`` records.

    Returns ``(ctimes, busy)``.  Appends one ``(proc, kind, start,
    duration, record, arrival)`` tuple per operation to ``sink`` if given.
    """
    starts = start_times or {}
    procs = sorted({r[0] for r in remote} | {r[1] for r in remote} | set(starts))

    o = params.o
    g = params.g
    L = params.L
    G = params.G
    rs_gap = max(o, g) - o
    sdur = send_durations(params)
    sdur_get = sdur.get
    emit = None if sink is None else sink.append
    rec_of = None if sink is None else {rec[3]: rec for rec in remote}

    ctime: dict[int, float] = {}
    busy: dict[int, float] = {}
    last_kind: dict[int, Optional[OpKind]] = {}
    send_q: dict[int, deque] = {}
    recv_h: dict[int, list] = {}
    expected: dict[int, int] = {}
    for p in procs:
        ctime[p] = starts.get(p, 0.0)
        busy[p] = 0.0
        last_kind[p] = None
        send_q[p] = deque()
        recv_h[p] = []
        expected[p] = 0
    for rec in remote:  # one pass; per-source order is the remote order
        send_q[rec[0]].append(rec)
        expected[rec[1]] += 1
    remaining = len(remote)

    def drain_recvs(proc: int) -> None:
        rh = recv_h[proc]
        ct = ctime[proc]
        lk = last_kind[proc]
        bz = busy[proc]
        while rh:
            arrival, uid = heappop(rh)
            start = max(arrival, ct if lk is None else ct + g)
            if emit is not None:
                emit((proc, _RECV, start, o, rec_of[uid], arrival))
            bz += o
            ct = start + o
            lk = _RECV
        ctime[proc] = ct
        last_kind[proc] = lk
        busy[proc] = bz

    while remaining:
        # One scan classifies the round: senders that may transmit
        # (nothing owed, nothing pending) and processors with pending
        # receives, both in ``procs`` order like the reference listcomps.
        ready = []
        receivers = []
        for p in procs:
            if recv_h[p]:
                receivers.append(p)
            elif send_q[p] and expected[p] == 0:
                ready.append(p)
        if not ready:
            if receivers:
                for p in receivers:
                    drain_recvs(p)
                continue
            # Deadlock: random forced transmissions break the cycle, one
            # send at a time, each destination drained at once (see the
            # module docstring for why no rescan is needed in between).
            blocked = [p for p in procs if send_q[p]]
            while True:
                n_blocked = len(blocked)
                victim = (
                    blocked[0] if n_blocked == 1
                    else blocked[int(rng.integers(0, n_blocked))]
                )
                sq = send_q[victim]
                _, dst, size, uid = sq.popleft()
                lk = last_kind[victim]
                ct = ctime[victim]
                start = ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                if emit is not None:
                    emit((victim, _SEND, start, duration, rec_of[uid], None))
                busy[victim] += duration
                end = start + duration
                ctime[victim] = end
                last_kind[victim] = _SEND
                heappush(recv_h[dst], (end + L, uid))
                expected[dst] -= 1
                remaining -= 1
                drain_recvs(dst)
                if not remaining or (send_q[dst] and expected[dst] == 0):
                    break
                if not sq:
                    blocked.remove(victim)
            continue

        for p in ready:
            sq = send_q[p]
            ct = ctime[p]
            lk = last_kind[p]
            bz = busy[p]
            remaining -= len(sq)
            while sq:
                _, dst, size, uid = sq.popleft()
                start = (
                    ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
                )
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                if emit is not None:
                    emit((p, _SEND, start, duration, rec_of[uid], None))
                bz += duration
                ct = start + duration
                lk = _SEND
                heappush(recv_h[dst], (ct + L, uid))
                expected[dst] -= 1
            ctime[p] = ct
            last_kind[p] = lk
            busy[p] = bz
        for p in procs:
            if recv_h[p]:
                drain_recvs(p)

    # Receives left over from the final round of sends.
    for p in procs:
        if recv_h[p]:
            drain_recvs(p)

    return ctime, busy
