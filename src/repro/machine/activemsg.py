"""A Split-C-style active-message runtime on the DES engine.

The paper's test program was written in Split-C, "whose active messages
mechanism gives priority to receive operations" — the assumption baked
into the Figure 2 algorithm.  This module provides that substrate as an
executable abstraction: per-processor :class:`ActiveMessagePort` objects
enforcing the single-port LogGP discipline (op durations, Figure 1 gap
rules, receive priority), over which small message-driven programs can be
written directly — ``store()`` a payload at a peer and its handler runs
after the receive operation completes, like Split-C's ``store``
instructions that the destination "is not aware of in the program".

The test suite uses this runtime as a third, handler-driven implementation
of communication steps; an example (``examples/irregular_pattern.py``)
drives it interactively.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.events import CommEvent, StepTimeline
from ..core.loggp import LogGPParameters, OpKind
from ..core.message import Message
from ..des import Environment, Event
from ..obs.events import get_tracer

__all__ = ["ActiveMessagePort", "SplitCMachine"]

Handler = Callable[[int, Any], None]


class ActiveMessagePort:
    """One processor's message port under the LogGP single-port discipline.

    ``store(dst, size, payload)`` enqueues an outgoing message; the port
    process interleaves sends and receives with receive priority and the
    Figure 1 gap rules, invoking the destination's handler after each
    receive operation completes.
    """

    def __init__(self, machine: "SplitCMachine", pid: int):
        self.machine = machine
        self.pid = pid
        self.env = machine.env
        self.last_kind: Optional[OpKind] = None
        self.last_end = 0.0
        self._outbox: list[tuple[int, int, Any]] = []
        self._arrived: list[tuple[float, int, Message, Any]] = []
        self._wakeup: Optional[Event] = None
        self._done = False

    # -- program-facing API ------------------------------------------------------
    def store(self, dst: int, size: int, payload: Any = None) -> None:
        """Issue an asynchronous store to processor ``dst`` (Split-C style)."""
        if self._done:
            raise RuntimeError("port already shut down")
        self._outbox.append((dst, size, payload))
        self._wake()

    def finish(self) -> None:
        """Declare that this processor will issue no further stores."""
        self._done = True
        self._wake()

    # -- internals -----------------------------------------------------------------
    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _delivered(self, msg: Message, payload: Any) -> None:
        heapq.heappush(self._arrived, (self.env.now, msg.uid, msg, payload))
        self._wake()

    def _run(self):
        params = self.machine.params
        env = self.env
        while True:
            now = env.now
            send_start = (
                max(now, params.earliest_start(self.last_kind, self.last_end, OpKind.SEND))
                if self._outbox
                else float("inf")
            )
            recv_start = (
                max(
                    now,
                    self._arrived[0][0],
                    params.earliest_start(self.last_kind, self.last_end, OpKind.RECV),
                )
                if self._arrived
                else float("inf")
            )

            if self._arrived and recv_start <= send_start:
                arrival, _, msg, payload = heapq.heappop(self._arrived)
                if recv_start > now:
                    yield env.timeout(recv_start - now)
                duration = params.recv_duration(msg.size)
                self.machine.timeline.add(
                    CommEvent(self.pid, OpKind.RECV, recv_start, duration, msg, arrival=arrival)
                )
                yield env.timeout(duration)
                self.last_kind, self.last_end = OpKind.RECV, recv_start + duration
                self.machine._pending -= 1
                handler = self.machine.handlers.get(self.pid)
                if handler is not None:
                    handler(msg.src, payload)
            elif self._outbox:
                if send_start > now:
                    self._wakeup = env.event()
                    yield env.any_of([env.timeout(send_start - now), self._wakeup])
                    self._wakeup = None
                    continue
                dst, size, payload = self._outbox.pop(0)
                msg = Message(
                    src=self.pid, dst=dst, size=size, uid=next(self.machine._uid)
                )
                duration = params.send_duration(size)
                self.machine.timeline.add(
                    CommEvent(self.pid, OpKind.SEND, send_start, duration, msg)
                )
                self.machine._pending += 1
                yield env.timeout(duration)
                self.last_kind, self.last_end = OpKind.SEND, send_start + duration
                env.process(self.machine._deliver(msg, payload))
            else:
                # Idle: block until a store or a delivery wakes us.  If
                # nothing ever does, the event heap drains and the run ends
                # with this process left suspended — the DES equivalent of
                # a processor parked in its scheduler.
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None


class SplitCMachine:
    """A P-processor machine running active-message programs.

    Usage::

        m = SplitCMachine(MEIKO_CS2)
        m.on_receive(1, lambda src, payload: ...)
        m.run(program)   # program(m) issues m.port(p).store(...) calls

    ``run`` returns the :class:`~repro.core.events.StepTimeline` of every
    send/receive operation performed.
    """

    def __init__(self, params: LogGPParameters):
        self.params = params
        self.env = Environment()
        self.timeline = StepTimeline(params=params)
        self.handlers: dict[int, Handler] = {}
        self._uid = itertools.count()
        self._pending = 0
        self._ports: dict[int, ActiveMessagePort] = {}
        self._started = False

    def port(self, pid: int) -> ActiveMessagePort:
        """The port of processor ``pid`` (created on first use)."""
        if not (0 <= pid < self.params.P):
            raise ValueError(f"pid {pid} out of range for P={self.params.P}")
        if pid not in self._ports:
            port = ActiveMessagePort(self, pid)
            self._ports[pid] = port
            if self._started:
                self.env.process(port._run(), name=f"port{pid}")
        return self._ports[pid]

    def on_receive(self, pid: int, handler: Handler) -> None:
        """Register the active-message handler of processor ``pid``."""
        self.handlers[pid] = handler

    def _deliver(self, msg: Message, payload: Any):
        yield self.env.timeout(self.params.L)
        self.port(msg.dst)._delivered(msg, payload)

    def run(self, program: Callable[["SplitCMachine"], None]) -> StepTimeline:
        """Run ``program`` (which issues stores and ``finish()`` calls)."""
        if self._started:
            raise RuntimeError("run() called twice on one machine")
        program(self)
        self._started = True
        for port in list(self._ports.values()):
            self.env.process(port._run(), name=f"port{port.pid}")
        self.env.run()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("sim.activemsg_runs")
            ctimes = {pid: port.last_end for pid, port in self._ports.items()}
            tracer.emit_comm_step(
                self.timeline.op_records(), ctimes, self.timeline.start_times,
                algo="activemsg",
            )
        return self.timeline
