"""Fast step simulators: bit-identical tight-loop rewrites of Figure 2 & §4.2.

These functions compute exactly what the reference transcriptions of
the two algorithms (``simulate_standard_reference`` and
``simulate_worstcase_reference`` in ``tests/oracle.py``) compute — same
:class:`CommEvent` stream in the same global order, same final clocks,
same RNG consumption — but with the per-operation overhead removed:

* the LogGP gap rules and durations are inlined (the receive→send gap
  ``max(o, g) - o`` is a constant, receive duration is ``o``, send
  durations come from the shared per-machine table in
  :mod:`repro.kernel.memo`);
* the standard algorithm adds a **batched deterministic segment**: after
  the main loop picks the unique minimum-clock sender, that processor
  keeps operating while its clock stays *strictly* below every other
  sender's — precisely the iterations in which the reference rescans all
  processors, finds a singleton tie set, and consumes no randomness.
  Ties (clock equality) always fall back to the outer rescan, so
  ``rng.choice`` is invoked on exactly the same tie sets as the
  reference — bit-equal draws, bit-equal schedules.

Float discipline: every arithmetic expression here is the same sequence
of operations as the reference (e.g. ``arrival = (start + duration) + L``,
never ``start + (duration + L)``), so results are bit-equal, not just
close.  The differential oracle (``tests/test_kernel_differential.py``)
and the hypothesis suite (``tests/test_kernel_property.py``) enforce
this on every app × layout × engine.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Mapping, Optional

import numpy as np

from ..core.events import CommEvent, StepTimeline
from ..core.loggp import LogGPParameters, OpKind
from ..core.message import CommPattern
from ..core.standard_sim import SimulationResult
from ..obs.events import get_tracer
from .memo import send_durations

__all__ = [
    "simulate_standard_fast",
    "simulate_worstcase_fast",
    "simulate_standard_lean",
    "simulate_worstcase_lean",
]

_INF = float("inf")
_SEND = OpKind.SEND
_RECV = OpKind.RECV


def simulate_standard_fast(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
) -> SimulationResult:
    """Fast path of the Figure 2 algorithm (see module docstring)."""
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    local = pattern.local_messages()
    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))

    o = params.o
    g = params.g
    L = params.L
    G = params.G
    rs_gap = max(o, g) - o  # receive -> send gap (Figure 1's asymmetric rule)
    sdur = send_durations(params)
    sdur_get = sdur.get

    ctime: dict[int, float] = {}
    last_kind: dict[int, Optional[OpKind]] = {}
    send_q: dict[int, deque] = {}
    recv_h: dict[int, list] = {}
    for p in procs:
        ctime[p] = starts.get(p, 0.0)
        last_kind[p] = None
        send_q[p] = deque()
        recv_h[p] = []
    for m in remote:  # one pass; per-source order is the remote order
        send_q[m.src].append(m)

    timeline = StepTimeline(
        params=params, start_times={p: ctime[p] for p in procs}
    )
    events = timeline.events
    events_append = events.append

    while True:
        # One scan finds the senders and their minimum clock together.
        senders = []
        min_ct = _INF
        for p in procs:
            if send_q[p]:
                senders.append(p)
                c = ctime[p]
                if c < min_ct:
                    min_ct = c
        if not senders:
            break
        if len(senders) == 1:
            # Sole sender: singleton tie set in the reference (no RNG
            # draw) and no other sender to bound the batched segment.
            proc = senders[0]
            other_min = _INF
        else:
            tied = [p for p in senders if ctime[p] == min_ct]
            proc = tied[0] if len(tied) == 1 else int(rng.choice(tied))

            # Strict bound for the batched segment: while this processor's
            # clock stays below every other sender's, the reference would
            # re-pick it with a singleton tie set (no RNG) — so we may keep
            # going without rescanning.  Other senders' clocks cannot change
            # meanwhile (only `proc` operates; sends only grow *receive*
            # heaps).
            other_min = _INF
            for p in senders:
                if p != proc and ctime[p] < other_min:
                    other_min = ctime[p]

        sq = send_q[proc]
        rh = recv_h[proc]
        ct = ctime[proc]
        lk = last_kind[proc]
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
                msg = sq.popleft()
                size = msg.size
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                events_append(CommEvent(proc, _SEND, start_send, duration, msg))
                ct = start_send + duration
                lk = _SEND
                heappush(recv_h[msg.dst], (ct + L, msg.uid, msg))
            else:
                arrival, _, msg = heappop(rh)
                events_append(
                    CommEvent(proc, _RECV, start_recv, o, msg, arrival=arrival)
                )
                ct = start_recv + o
                lk = _RECV
            if not sq or not ct < other_min:
                break
        ctime[proc] = ct
        last_kind[proc] = lk

    # Drain: every processor performs its remaining receives.
    for p in procs:
        rh = recv_h[p]
        if not rh:
            continue
        ct = ctime[p]
        lk = last_kind[p]
        while rh:
            arrival, _, msg = heappop(rh)
            start = max(arrival, ct if lk is None else ct + g)
            events_append(CommEvent(p, _RECV, start, o, msg, arrival=arrival))
            ct = start + o
            lk = _RECV
        ctime[p] = ct
        last_kind[p] = lk

    ctimes = {p: ctime[p] for p in procs}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("sim.comm_steps.standard")
        tracer.emit_comm_step(timeline, ctimes, algo="standard")
    return SimulationResult(timeline=timeline, ctimes=ctimes, skipped_local=local)


def simulate_standard_lean(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
) -> tuple[dict[int, float], dict[int, float]]:
    """The Figure 2 algorithm without event materialisation.

    Identical schedule, clocks and RNG consumption as
    :func:`simulate_standard_fast`, but instead of building the
    :class:`CommEvent` stream it folds each processor's engaged time on
    the fly — the same per-processor left-fold over the same durations
    in the same order as ``StepTimeline.busy_times()`` over the events,
    so both outputs are bit-equal to the full simulation's.  Returns
    ``(ctimes, busy)``.

    For the untraced batch path only: no timeline exists to trace, so
    callers must not use this while the observability tracer is enabled.
    """
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))

    o = params.o
    g = params.g
    L = params.L
    G = params.G
    rs_gap = max(o, g) - o
    sdur = send_durations(params)
    sdur_get = sdur.get

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
    for m in remote:
        send_q[m.src].append(m)

    while True:
        senders = []
        min_ct = _INF
        for p in procs:
            if send_q[p]:
                senders.append(p)
                c = ctime[p]
                if c < min_ct:
                    min_ct = c
        if not senders:
            break
        if len(senders) == 1:
            proc = senders[0]
            other_min = _INF
        else:
            tied = [p for p in senders if ctime[p] == min_ct]
            proc = tied[0] if len(tied) == 1 else int(rng.choice(tied))
            other_min = _INF
            for p in senders:
                if p != proc and ctime[p] < other_min:
                    other_min = ctime[p]

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
                msg = sq.popleft()
                size = msg.size
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                bz += duration
                ct = start_send + duration
                lk = _SEND
                heappush(recv_h[msg.dst], (ct + L, msg.uid, msg))
            else:
                arrival, _, msg = heappop(rh)
                bz += o
                ct = start_recv + o
                lk = _RECV
            if not sq or not ct < other_min:
                break
        ctime[proc] = ct
        last_kind[proc] = lk
        busy[proc] = bz

    for p in procs:
        rh = recv_h[p]
        if not rh:
            continue
        ct = ctime[p]
        lk = last_kind[p]
        bz = busy[p]
        while rh:
            arrival, _, msg = heappop(rh)
            start = max(arrival, ct if lk is None else ct + g)
            bz += o
            ct = start + o
            lk = _RECV
        ctime[p] = ct
        last_kind[p] = lk
        busy[p] = bz

    return ctime, busy


def simulate_worstcase_fast(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
) -> SimulationResult:
    """Fast path of the overestimation algorithm (round structure kept)."""
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    local = pattern.local_messages()
    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))

    o = params.o
    g = params.g
    L = params.L
    G = params.G
    rs_gap = max(o, g) - o
    sdur = send_durations(params)
    sdur_get = sdur.get

    ctime: dict[int, float] = {}
    last_kind: dict[int, Optional[OpKind]] = {}
    send_q: dict[int, deque] = {}
    recv_h: dict[int, list] = {}
    expected: dict[int, int] = {}
    for p in procs:
        ctime[p] = starts.get(p, 0.0)
        last_kind[p] = None
        send_q[p] = deque()
        recv_h[p] = []
        expected[p] = 0
    for m in remote:  # one pass; per-source order is the remote order
        send_q[m.src].append(m)
        expected[m.dst] += 1
    remaining = len(remote)

    timeline = StepTimeline(
        params=params, start_times={p: ctime[p] for p in procs}
    )
    events = timeline.events
    events_append = events.append

    def drain_recvs(proc: int) -> None:
        rh = recv_h[proc]
        ct = ctime[proc]
        lk = last_kind[proc]
        while rh:
            arrival, _, msg = heappop(rh)
            start = max(arrival, ct if lk is None else ct + g)
            events_append(CommEvent(proc, _RECV, start, o, msg, arrival=arrival))
            ct = start + o
            lk = _RECV
        ctime[proc] = ct
        last_kind[proc] = lk

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
            blocked = [p for p in procs if send_q[p]]
            victim = blocked[0] if len(blocked) == 1 else int(rng.choice(blocked))
            # Random forced transmission breaks the cycle (one send).
            msg = send_q[victim].popleft()
            lk = last_kind[victim]
            ct = ctime[victim]
            start = ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
            size = msg.size
            duration = sdur_get(size)
            if duration is None:
                duration = sdur[size] = o + (size - 1) * G
            events_append(CommEvent(victim, _SEND, start, duration, msg))
            end = start + duration
            ctime[victim] = end
            last_kind[victim] = _SEND
            heappush(recv_h[msg.dst], (end + L, msg.uid, msg))
            expected[msg.dst] -= 1
            remaining -= 1
            continue

        for p in ready:
            sq = send_q[p]
            ct = ctime[p]
            lk = last_kind[p]
            remaining -= len(sq)
            while sq:
                msg = sq.popleft()
                start = (
                    ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
                )
                size = msg.size
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                events_append(CommEvent(p, _SEND, start, duration, msg))
                ct = start + duration
                lk = _SEND
                heappush(recv_h[msg.dst], (ct + L, msg.uid, msg))
                expected[msg.dst] -= 1
            ctime[p] = ct
            last_kind[p] = lk
        for p in procs:
            if recv_h[p]:
                drain_recvs(p)

    for p in procs:
        if recv_h[p]:
            drain_recvs(p)

    ctimes = {p: ctime[p] for p in procs}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("sim.comm_steps.worstcase")
        tracer.emit_comm_step(timeline, ctimes, algo="worstcase")
    return SimulationResult(timeline=timeline, ctimes=ctimes, skipped_local=local)


def simulate_worstcase_lean(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]],
    rng: np.random.Generator,
) -> tuple[dict[int, float], dict[int, float]]:
    """The §4.2 overestimation algorithm without event materialisation.

    The :func:`simulate_standard_lean` counterpart for the worst-case
    engine: same schedule, clocks and RNG draws as
    :func:`simulate_worstcase_fast`, engaged time folded on the fly.
    Returns ``(ctimes, busy)``; untraced batch path only.
    """
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))

    o = params.o
    g = params.g
    L = params.L
    G = params.G
    rs_gap = max(o, g) - o
    sdur = send_durations(params)
    sdur_get = sdur.get

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
    for m in remote:
        send_q[m.src].append(m)
        expected[m.dst] += 1
    remaining = len(remote)

    def drain_recvs(proc: int) -> None:
        rh = recv_h[proc]
        ct = ctime[proc]
        lk = last_kind[proc]
        bz = busy[proc]
        while rh:
            arrival, _, msg = heappop(rh)
            start = max(arrival, ct if lk is None else ct + g)
            bz += o
            ct = start + o
            lk = _RECV
        ctime[proc] = ct
        last_kind[proc] = lk
        busy[proc] = bz

    while remaining:
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
            blocked = [p for p in procs if send_q[p]]
            victim = blocked[0] if len(blocked) == 1 else int(rng.choice(blocked))
            msg = send_q[victim].popleft()
            lk = last_kind[victim]
            ct = ctime[victim]
            start = ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
            size = msg.size
            duration = sdur_get(size)
            if duration is None:
                duration = sdur[size] = o + (size - 1) * G
            busy[victim] += duration
            end = start + duration
            ctime[victim] = end
            last_kind[victim] = _SEND
            heappush(recv_h[msg.dst], (end + L, msg.uid, msg))
            expected[msg.dst] -= 1
            remaining -= 1
            continue

        for p in ready:
            sq = send_q[p]
            ct = ctime[p]
            lk = last_kind[p]
            bz = busy[p]
            remaining -= len(sq)
            while sq:
                msg = sq.popleft()
                start = (
                    ct if lk is None else (ct + rs_gap if lk is _RECV else ct + g)
                )
                size = msg.size
                duration = sdur_get(size)
                if duration is None:
                    duration = sdur[size] = o + (size - 1) * G
                bz += duration
                ct = start + duration
                lk = _SEND
                heappush(recv_h[msg.dst], (ct + L, msg.uid, msg))
                expected[msg.dst] -= 1
            ctime[p] = ct
            last_kind[p] = lk
            busy[p] = bz
        for p in procs:
            if recv_h[p]:
                drain_recvs(p)

    for p in procs:
        if recv_h[p]:
            drain_recvs(p)

    return ctime, busy
