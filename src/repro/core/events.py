"""Timelines of simulated communication operations.

The output of both communication-simulation algorithms is a
:class:`StepTimeline`: for each processor, the timed sequence of send and
receive operations (the paper plots these as Figures 4 and 5).  The
timeline knows how to check the LogGP invariants the algorithms must
satisfy, which the test suite leans on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .loggp import LogGPParameters, OpKind
from .message import Message
from .units import TIME_EPS, approx_ge

__all__ = ["CommEvent", "StepTimeline"]


@dataclass(slots=True)
class CommEvent:
    """One operation at one processor: ``proc`` does ``kind`` on ``message``.

    Not ``frozen``: the simulators create one of these per simulated
    operation (hundreds of thousands per sweep point), and a frozen
    dataclass pays ``object.__setattr__`` per field — ~4x the
    construction cost.  Events are still value-like: nothing mutates
    them after creation, and ``__hash__`` hashes the same field tuple a
    frozen dataclass would.
    """

    proc: int
    kind: OpKind
    start: float
    duration: float
    message: Message
    #: for receives: the time the message fully arrived (start >= arrival)
    arrival: Optional[float] = None

    def __hash__(self) -> int:
        return hash(
            (self.proc, self.kind, self.start, self.duration, self.message, self.arrival)
        )

    @property
    def end(self) -> float:
        """Completion time of the operation."""
        return self.start + self.duration

    def __str__(self) -> str:
        arrow = "->" if self.kind is OpKind.SEND else "<-"
        peer = self.message.dst if self.kind is OpKind.SEND else self.message.src
        return (
            f"P{self.proc} {self.kind.value} {arrow} P{peer} "
            f"[{self.start:.2f}, {self.end:.2f}) {self.message.size}B"
        )


@dataclass
class StepTimeline:
    """All operations of one communication step, plus validation helpers."""

    params: LogGPParameters
    events: list[CommEvent] = field(default_factory=list)
    #: per-processor clock at the start of the step (defaults to zeros)
    start_times: dict[int, float] = field(default_factory=dict)

    # -- accumulation -----------------------------------------------------------
    def add(self, event: CommEvent) -> None:
        """Record an operation."""
        self.events.append(event)

    # -- queries -----------------------------------------------------------------
    def events_of(self, proc: int) -> list[CommEvent]:
        """Operations at ``proc`` ordered by start time."""
        return sorted(
            (e for e in self.events if e.proc == proc), key=lambda e: (e.start, e.end)
        )

    def sends(self) -> list[CommEvent]:
        """All send operations, by start time."""
        return sorted((e for e in self.events if e.kind is OpKind.SEND), key=lambda e: e.start)

    def recvs(self) -> list[CommEvent]:
        """All receive operations, by start time."""
        return sorted((e for e in self.events if e.kind is OpKind.RECV), key=lambda e: e.start)

    def participants(self) -> list[int]:
        """Sorted ids of processors that performed at least one operation."""
        return sorted({e.proc for e in self.events})

    def finish_time(self, proc: int) -> float:
        """Time ``proc`` completes its last operation (or its start clock)."""
        own = [e.end for e in self.events if e.proc == proc]
        base = self.start_times.get(proc, 0.0)
        return max(own, default=base)

    @property
    def completion_time(self) -> float:
        """Completion of the whole step (max over processors, paper's metric)."""
        if not self.events:
            return max(self.start_times.values(), default=0.0)
        return max(e.start + e.duration for e in self.events)

    def per_proc_finish(self) -> dict[int, float]:
        """``{proc: finish time}`` over all processors seen."""
        procs = set(self.start_times) | {e.proc for e in self.events}
        return {p: self.finish_time(p) for p in sorted(procs)}

    def busy_time(self, proc: int) -> float:
        """Total time ``proc`` spent engaged in operations this step."""
        return sum(e.duration for e in self.events if e.proc == proc)

    def op_records(self) -> list[tuple]:
        """The operations as the step simulators' sink tuples, in event order.

        One ``(proc, kind, start, duration, (src, dst, size, uid),
        arrival)`` per event: what
        :meth:`repro.obs.events.Tracer.emit_comm_step` records.
        """
        return [
            (e.proc, e.kind, e.start, e.duration,
             (e.message.src, e.message.dst, e.message.size, e.message.uid), e.arrival)
            for e in self.events
        ]

    def busy_times(self) -> dict[int, float]:
        """Engaged time of every participating processor, in one pass.

        Each processor's durations accumulate in event order — the same
        float summation order :meth:`busy_time` uses — so
        ``busy_times()[p] == busy_time(p)`` bit for bit, at a single scan
        instead of one scan per processor.
        """
        out: dict[int, float] = {}
        get = out.get
        for e in self.events:
            p = e.proc
            out[p] = get(p, 0.0) + e.duration
        return out

    # -- invariant checking --------------------------------------------------------
    def validate(
        self,
        pattern_messages: Optional[Iterable[Message]] = None,
        strict_latency: bool = True,
    ) -> None:
        """Check every LogGP invariant; raise ``AssertionError`` on violation.

        Checks (all from the paper's sections 3-4):

        1. single port: operations at a processor never overlap;
        2. gap rules of Figure 1 between consecutive operations;
        3. every receive starts at or after its message's arrival time;
        4. arrival time equals ``send.start + send_duration + L``
           (with ``strict_latency=False`` — used for the machine emulator's
           jittered network — only ``arrival >= send end`` is required);
        5. each message is sent exactly once and received exactly once
           (when the original message set is supplied);
        6. sends of one processor follow program order;
        7. no operation starts before its processor's step start clock.
        """
        p = self.params
        send_of: dict[int, CommEvent] = {}
        recv_of: dict[int, CommEvent] = {}
        for e in self.events:
            book = send_of if e.kind is OpKind.SEND else recv_of
            assert e.message.uid not in book, f"duplicate {e.kind.value} of {e.message}"
            book[e.message.uid] = e

        if pattern_messages is not None:
            remote = [m for m in pattern_messages if not m.is_local]
            uids = {m.uid for m in remote}
            assert set(send_of) == uids, "sent-message set mismatch"
            assert set(recv_of) == uids, "received-message set mismatch"

        for uid, recv in recv_of.items():
            send = send_of.get(uid)
            assert send is not None, f"receive without send for uid {uid}"
            nominal = send.start + p.send_duration(send.message.size) + p.L
            arrival = recv.arrival if recv.arrival is not None else nominal
            if strict_latency:
                assert abs(arrival - nominal) < 1e-6, (
                    f"arrival mismatch for {recv.message}: recorded {recv.arrival}, "
                    f"implied {nominal}"
                )
            else:
                assert approx_ge(arrival, send.end), (
                    f"{recv.message}: arrival {arrival} precedes send end {send.end}"
                )
            assert approx_ge(recv.start, arrival), (
                f"{recv.message}: receive starts at {recv.start} before arrival {arrival}"
            )

        for proc in self.participants():
            seq = self.events_of(proc)
            clock = self.start_times.get(proc, 0.0)
            assert approx_ge(seq[0].start, clock), (
                f"P{proc} first op at {seq[0].start} predates its clock {clock}"
            )
            for prev, nxt in zip(seq, seq[1:]):
                assert approx_ge(nxt.start, prev.end), (
                    f"P{proc} overlap: {prev} then {nxt}"
                )
                required = p.earliest_start(prev.kind, prev.end, nxt.kind)
                assert nxt.start >= required - TIME_EPS, (
                    f"P{proc} gap violation: {prev.kind.value}->{nxt.kind.value} "
                    f"start {nxt.start} < required {required}"
                )
            own_sends = [e for e in seq if e.kind is OpKind.SEND]
            seqs = [e.message.seq for e in own_sends]
            assert seqs == sorted(seqs), f"P{proc} sends violate program order: {seqs}"

    def __repr__(self) -> str:
        return (
            f"StepTimeline(events={len(self.events)}, "
            f"completion={self.completion_time:.2f}us)"
        )
