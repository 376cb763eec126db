"""The reference simulators: the differential oracle of :mod:`repro.kernel`.

These are the readable transcriptions of the paper's algorithms that the
package ran before the kernel became its only engine:

* :func:`simulate_standard_reference` — the standard LogGP algorithm of
  Figure 2 (receives have priority over sends, random tie-breaks);
* :func:`simulate_worstcase_reference` — the overestimation algorithm of
  section 4.2 (receive everything first, random deadlock breaking);
* :func:`simulate_causal_reference` — the causal active-message model as
  one coroutine per processor on the :mod:`repro.des` engine;
* :func:`run_phase_reference` — the emulated node's computation phase,
  drawing its timing noise one scalar draw per operation;
* :func:`build_ge_trace_reference` — the GE wavefront trace, built block
  by block as :class:`~repro.trace.program.Work` and
  :class:`~repro.core.message.CommPattern` objects;
* :func:`simulate_program_reference` — the whole-program prediction loop
  over :class:`~repro.trace.program.ProgramTrace` objects, with the
  overlap, cache and iteration-overhead extensions.

Runtime does not need them: :mod:`repro.kernel` computes the same values
bit for bit with less interpreter overhead.  The kernel's tests compare
against these functions, so they are the specification the kernel must
keep matching.  Each step simulator takes the public signature of its
runtime twin (``simulate_standard`` / ``simulate_worstcase`` /
``simulate_causal``); :func:`simulate_program_reference` takes a
configured :class:`~repro.core.program_sim.ProgramSimulator` and the
trace its ``run`` would take.

:func:`reference_engine` injects them at the lookup points the whole
prediction pipeline goes through, for tests that compare end-to-end
results (GE points, sweeps, UQ ensembles) against the reference.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional

import numpy as np

from repro.apps.gauss import GEConfig
from repro.core import program_sim
from repro.core.events import CommEvent, StepTimeline
from repro.core.loggp import LogGPParameters, OpKind
from repro.core.message import CommPattern, Message
from repro.core.program_sim import PredictionReport, ProgramSimulator
from repro.core.standard_sim import SimulationResult
from repro.des import Environment, Event
from repro.kernel.memo import memoize
from repro.machine import emulator as emulator_mod
from repro.machine.cpu import CompPhaseResult, NodeCPU, touched_blocks
from repro.obs import TraceConfig, Tracer, tracing
from repro.obs.events import get_tracer
from repro.trace.program import ProgramTrace, Step, Work

__all__ = [
    "simulate_standard_reference",
    "simulate_worstcase_reference",
    "simulate_causal_reference",
    "run_phase_reference",
    "build_ge_trace_reference",
    "simulate_program_reference",
    "REFERENCE_SIMULATORS",
    "reference_engine",
]

_INF = float("inf")


def _rng(rng: Optional[np.random.Generator], seed: Optional[int]) -> np.random.Generator:
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    return rng


# -- the standard algorithm (paper Figure 2) ---------------------------------


class _ProcState:
    """Mutable per-processor simulation state."""

    __slots__ = ("ctime", "last_kind", "send_queue", "recv_heap")

    def __init__(self, ctime: float, sends: tuple[Message, ...]):
        self.ctime = ctime
        self.last_kind: Optional[OpKind] = None
        self.send_queue: deque[Message] = deque(sends)
        # entries: (arrival_time, uid, Message)
        self.recv_heap: list[tuple[float, int, Message]] = []


def simulate_standard_reference(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """The Figure 2 algorithm; see :mod:`repro.core.standard_sim`."""
    rng = _rng(rng, seed)
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    local = pattern.local_messages()

    procs = sorted(
        {m.src for m in remote} | {m.dst for m in remote} | set(starts)
    )
    state: dict[int, _ProcState] = {}
    for p in procs:
        sends = tuple(m for m in remote if m.src == p)
        state[p] = _ProcState(starts.get(p, 0.0), sends)

    timeline = StepTimeline(params=params, start_times={p: starts.get(p, 0.0) for p in procs})

    def do_send(proc: int) -> None:
        st = state[proc]
        msg = st.send_queue.popleft()
        start = params.earliest_start(st.last_kind, st.ctime, OpKind.SEND)
        duration = params.send_duration(msg.size)
        timeline.add(CommEvent(proc, OpKind.SEND, start, duration, msg))
        st.ctime = start + duration
        st.last_kind = OpKind.SEND
        arrival = start + duration + params.L
        heapq.heappush(state[msg.dst].recv_heap, (arrival, msg.uid, msg))

    def do_recv(proc: int) -> None:
        st = state[proc]
        arrival, _, msg = heapq.heappop(st.recv_heap)
        earliest = params.earliest_start(st.last_kind, st.ctime, OpKind.RECV)
        start = max(arrival, earliest)
        duration = params.recv_duration(msg.size)
        timeline.add(
            CommEvent(proc, OpKind.RECV, start, duration, msg, arrival=arrival)
        )
        st.ctime = start + duration
        st.last_kind = OpKind.RECV

    # Main loop: processors that still want to send, in ctime order.
    while True:
        senders = [p for p in procs if state[p].send_queue]
        if not senders:
            break
        min_ct = min(state[p].ctime for p in senders)
        tied = [p for p in senders if state[p].ctime == min_ct]
        min_proc = tied[0] if len(tied) == 1 else int(rng.choice(tied))
        st = state[min_proc]

        if st.recv_heap:
            arrival = st.recv_heap[0][0]
            start_recv = max(
                arrival, params.earliest_start(st.last_kind, st.ctime, OpKind.RECV)
            )
        else:
            start_recv = float("inf")
        start_send = params.earliest_start(st.last_kind, st.ctime, OpKind.SEND)

        # Strict '<' gives receives priority over sends on equal start times.
        if start_send < start_recv:
            do_send(min_proc)
        else:
            do_recv(min_proc)

    # Drain: every processor performs its remaining receives.
    for p in procs:
        while state[p].recv_heap:
            do_recv(p)

    ctimes = {p: state[p].ctime for p in procs}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("sim.comm_steps.standard")
        tracer.emit_comm_step(timeline, ctimes, algo="standard")
    return SimulationResult(timeline=timeline, ctimes=ctimes, skipped_local=local)


# -- the overestimation algorithm (paper section 4.2) ------------------------


class _WorstCaseState:
    __slots__ = ("ctime", "last_kind", "send_queue", "recv_heap", "expected")

    def __init__(self, ctime: float, sends: tuple[Message, ...], expected: int):
        self.ctime = ctime
        self.last_kind: Optional[OpKind] = None
        self.send_queue: deque[Message] = deque(sends)
        self.recv_heap: list[tuple[float, int, Message]] = []
        #: messages-to-receive counter (decremented when a source *sends*)
        self.expected = expected


def simulate_worstcase_reference(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """The section 4.2 algorithm; see :mod:`repro.core.worstcase_sim`."""
    rng = _rng(rng, seed)
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    local = pattern.local_messages()

    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))
    state: dict[int, _WorstCaseState] = {}
    for p in procs:
        sends = tuple(m for m in remote if m.src == p)
        expected = sum(1 for m in remote if m.dst == p)
        state[p] = _WorstCaseState(starts.get(p, 0.0), sends, expected)

    timeline = StepTimeline(
        params=params, start_times={p: starts.get(p, 0.0) for p in procs}
    )

    def do_send(proc: int) -> None:
        st = state[proc]
        msg = st.send_queue.popleft()
        start = params.earliest_start(st.last_kind, st.ctime, OpKind.SEND)
        duration = params.send_duration(msg.size)
        timeline.add(CommEvent(proc, OpKind.SEND, start, duration, msg))
        st.ctime = start + duration
        st.last_kind = OpKind.SEND
        arrival = start + duration + params.L
        dst = state[msg.dst]
        heapq.heappush(dst.recv_heap, (arrival, msg.uid, msg))
        dst.expected -= 1

    def do_recv(proc: int) -> None:
        st = state[proc]
        arrival, _, msg = heapq.heappop(st.recv_heap)
        earliest = params.earliest_start(st.last_kind, st.ctime, OpKind.RECV)
        start = max(arrival, earliest)
        duration = params.recv_duration(msg.size)
        timeline.add(CommEvent(proc, OpKind.RECV, start, duration, msg, arrival=arrival))
        st.ctime = start + duration
        st.last_kind = OpKind.RECV

    while any(state[p].send_queue for p in procs):
        # A processor may transmit once it expects no more messages *and*
        # has actually performed every receive.
        ready = [
            p
            for p in procs
            if state[p].send_queue
            and state[p].expected == 0
            and not state[p].recv_heap
        ]
        if not ready:
            # Either a cycle (true deadlock) or receives still pending this
            # round; first let pending receives complete, then force-break.
            receivers = [p for p in procs if state[p].recv_heap]
            if receivers:
                for p in receivers:
                    while state[p].recv_heap:
                        do_recv(p)
                continue
            blocked = [p for p in procs if state[p].send_queue]
            victim = blocked[0] if len(blocked) == 1 else int(rng.choice(blocked))
            do_send(victim)  # random forced transmission breaks the cycle
            continue

        # Part 1 of the round: every ready processor sends all its messages.
        for p in ready:
            while state[p].send_queue:
                do_send(p)
        # Part 2: destinations perform the corresponding receives.
        for p in procs:
            while state[p].recv_heap:
                do_recv(p)

    # Drain any receives left over from the final round of sends.
    for p in procs:
        while state[p].recv_heap:
            do_recv(p)

    ctimes = {p: state[p].ctime for p in procs}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("sim.comm_steps.worstcase")
        tracer.emit_comm_step(timeline, ctimes, algo="worstcase")
    return SimulationResult(timeline=timeline, ctimes=ctimes, skipped_local=local)


# -- the causal active-message model on the DES engine -----------------------


class _Proc:
    __slots__ = ("pid", "last_kind", "last_end", "sends", "arrived", "wakeup", "received")

    def __init__(self, pid: int, ctime: float, sends: tuple[Message, ...]):
        self.pid = pid
        self.last_kind: Optional[OpKind] = None
        self.last_end = ctime
        self.sends: deque[Message] = deque(sends)
        self.arrived: list[tuple[float, int, Message]] = []
        self.wakeup: Optional[Event] = None
        self.received = 0


def simulate_causal_reference(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    latency_of=None,
) -> SimulationResult:
    """The causal model; see :mod:`repro.core.des_check`."""
    del rng, seed  # deterministic; kept for API symmetry
    if latency_of is None:
        latency_of = lambda _msg: params.L  # noqa: E731 - tiny closure
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    local = pattern.local_messages()
    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))

    expected = {p: sum(1 for m in remote if m.dst == p) for p in procs}
    state = {
        p: _Proc(p, starts.get(p, 0.0), tuple(m for m in remote if m.src == p))
        for p in procs
    }
    timeline = StepTimeline(
        params=params, start_times={p: starts.get(p, 0.0) for p in procs}
    )

    env = Environment()

    def deliver(dst: int, msg: Message, wire_delay: float):
        """Carry a message across the wire, then wake the destination."""
        yield env.timeout(wire_delay)
        st = state[dst]
        heapq.heappush(st.arrived, (env.now, msg.uid, msg))
        if st.wakeup is not None and not st.wakeup.triggered:
            st.wakeup.succeed()

    def processor(pid: int):
        st = state[pid]
        while st.sends or st.received < expected[pid]:
            now = env.now
            if st.sends:
                send_start = max(
                    now, params.earliest_start(st.last_kind, st.last_end, OpKind.SEND)
                )
            else:
                send_start = _INF
            if st.arrived:
                recv_start = max(
                    now,
                    st.arrived[0][0],
                    params.earliest_start(st.last_kind, st.last_end, OpKind.RECV),
                )
            else:
                recv_start = _INF

            if st.arrived and recv_start <= send_start:
                # Receive priority (strict '<' in Figure 2 == '<=' here,
                # because the send is the one that must yield).
                arrival, _, msg = heapq.heappop(st.arrived)
                if recv_start > now:
                    yield env.timeout(recv_start - now)
                duration = params.recv_duration(msg.size)
                timeline.add(
                    CommEvent(pid, OpKind.RECV, recv_start, duration, msg, arrival=arrival)
                )
                yield env.timeout(duration)
                st.last_kind, st.last_end = OpKind.RECV, recv_start + duration
                st.received += 1
            elif st.sends:
                if send_start > now:
                    # Wait for the send slot, but re-evaluate on any arrival.
                    st.wakeup = env.event()
                    yield env.any_of([env.timeout(send_start - now), st.wakeup])
                    st.wakeup = None
                    continue
                msg = st.sends.popleft()
                duration = params.send_duration(msg.size)
                timeline.add(CommEvent(pid, OpKind.SEND, send_start, duration, msg))
                yield env.timeout(duration)
                st.last_kind, st.last_end = OpKind.SEND, send_start + duration
                env.process(deliver(msg.dst, msg, latency_of(msg)))
            else:
                # Nothing sendable and nothing arrived: block until delivery.
                st.wakeup = env.event()
                yield st.wakeup
                st.wakeup = None

    # Start clocks are enforced through each _Proc.last_end, so every
    # processor coroutine can start at simulation time zero.
    for p in procs:
        env.process(processor(p), name=f"P{p}")

    env.run()

    ctimes = {p: state[p].last_end for p in procs}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("sim.comm_steps.causal")
        tracer.emit_comm_step(timeline, ctimes, algo="causal")
    return SimulationResult(timeline=timeline, ctimes=ctimes, skipped_local=local)


# -- the emulated node's computation phase -----------------------------------


def run_phase_reference(cpu: NodeCPU, ops) -> CompPhaseResult:
    """``NodeCPU.run_phase`` with one scalar noise draw per operation."""

    def noise() -> float:
        if cpu.noise_sigma == 0.0:
            return 1.0
        return float(np.exp(cpu.rng.normal(0.0, cpu.noise_sigma)))

    warm = 0.0
    cache_extra = 0.0
    for w in ops:
        warm += cpu.cost_model.cost(w.op, w.b) * noise()
        if cpu.cache is not None:
            touched = touched_blocks(w)
            footprint = sum(nbytes for _, nbytes in touched)
            cacheable = max(0.0, 1.0 - footprint / cpu.cache.capacity_bytes)
            for key, nbytes in touched:
                if not cpu.cache.touch(key, nbytes) and cacheable > 0.0:
                    cache_extra += (
                        (nbytes / cpu.line_bytes) * cpu.miss_penalty_us * cacheable
                    )
    scan = cpu.scan_us_per_block * cpu.assigned_blocks if ops else 0.0
    return CompPhaseResult(
        total_us=warm + cache_extra + scan,
        warm_us=warm,
        cache_us=cache_extra,
        scan_us=scan,
    )


# -- the GE program trace --------------------------------------------------


def _op_of_reference(i: int, j: int, k: int) -> str:
    if i == k and j == k:
        return "op1"
    if i == k:
        return "op2"
    if j == k:
        return "op3"
    return "op4"


def build_ge_trace_reference(config: GEConfig) -> ProgramTrace:
    """The wavefront GE program trace, built block by block as objects.

    The readable transcription of the recurrence in
    :func:`repro.apps.gauss.ge_steps`: ``tests/test_ge_plan_direct.py``
    holds ``build_ge_trace`` and the directly compiled ``ge_plan`` to it.

    The trace has ``3*(nb-1) + 1`` steps; step ``t`` holds the computation
    of every block ``(i, j, k)`` with ``3k + (i-k) + (j-k) == t`` and the
    communication pattern of the data those blocks emit.
    """
    nb = config.nb
    b = config.b
    layout = config.layout
    owner = layout.owner
    block_bytes = b * b * 8
    factor_bytes = b * (b + 1) // 2 * 8  # one triangular factor

    trace = ProgramTrace(num_procs=layout.num_procs)
    last_t = 3 * (nb - 1)
    for t in range(last_t + 1):
        work: dict[int, list[Work]] = {}
        pattern = CommPattern(layout.num_procs)
        # iterations whose wave is alive at step t
        k_hi = min(t // 3, nb - 1)
        for k in range(k_hi + 1):
            s = t - 3 * k
            if s > 2 * (nb - 1 - k):
                continue
            # blocks (i, j) with i,j >= k and (i-k) + (j-k) == s
            di_lo = max(0, s - (nb - 1 - k))
            di_hi = min(s, nb - 1 - k)
            for di in range(di_lo, di_hi + 1):
                i = k + di
                j = k + (s - di)
                me = owner(i, j)
                op = _op_of_reference(i, j, k)
                work.setdefault(me, []).append(
                    Work(op=op, b=b, block=(i, j), iteration=k)
                )
                # outgoing data (systolic forwarding)
                if op == "op1":
                    if j + 1 < nb:
                        pattern.add(me, owner(i, j + 1), factor_bytes)
                    if i + 1 < nb:
                        pattern.add(me, owner(i + 1, j), factor_bytes)
                elif op == "op2":
                    if j + 1 < nb:
                        pattern.add(me, owner(i, j + 1), factor_bytes)
                    if i + 1 < nb:
                        pattern.add(me, owner(i + 1, j), block_bytes)
                elif op == "op3":
                    if i + 1 < nb:
                        pattern.add(me, owner(i + 1, j), factor_bytes)
                    if j + 1 < nb:
                        pattern.add(me, owner(i, j + 1), block_bytes)
                else:  # op4 forwards both streams
                    if j + 1 < nb:
                        pattern.add(me, owner(i, j + 1), block_bytes)
                    if i + 1 < nb:
                        pattern.add(me, owner(i + 1, j), block_bytes)
        trace.add_step(Step(work=work, pattern=pattern, label=f"t={t}"))

    trace.meta.update(
        {
            "app": "gauss",
            "n": config.n,
            "b": b,
            "nb": nb,
            "layout": layout.name,
            "num_procs": layout.num_procs,
            "block_bytes": block_bytes,
            "factor_bytes": factor_bytes,
        }
    )
    return trace


# -- the whole-program loop (paper section 1) ----------------------------------


def _resident_bytes(trace: ProgramTrace) -> dict[int, int]:
    """Distinct-block footprint per processor, from the trace's work."""
    return {
        proc: sum(b * b * 8 for b in sizes.values())
        for proc, sizes in trace.blocks_by_proc().items()
    }


def _comp_time(
    sim: ProgramSimulator, step: Step, proc: int, resident: dict[int, int], cost_model
) -> float:
    total = 0.0
    ops = step.work.get(proc, ())
    for w in ops:
        cost = cost_model.cost(w.op, w.b)
        if sim.cache_model is not None:
            cost += sim.cache_model.extra_cost(
                w.op, w.b, resident.get(proc, 0)
            )
        total += cost
    if ops and sim.iter_overhead_us:
        total += sim.iter_overhead_us * len(ops)
    return total


def simulate_program_reference(sim: ProgramSimulator, trace: ProgramTrace) -> PredictionReport:
    """What ``sim.run(trace)`` returns, walked over the trace's objects.

    Per step: each processor's computation phase is priced op by op and
    added to its clock, then the step's communication pattern runs
    through ``program_sim._SIMULATORS[sim.mode]`` (the kernel's step
    simulators, or the oracle's under :func:`reference_engine`) with the
    current clocks as start times.  Traced, it emits the ``compute``
    slices and ``sim.program_*`` counters on the ``sim:<mode>`` track.
    """
    tracer = get_tracer()
    with tracer.in_track(f"sim:{sim.mode}"):
        simulate = program_sim._SIMULATORS[sim.mode]
        cost_model = memoize(sim.cost_model)
        rng = sim.rng if sim.rng is not None else np.random.default_rng(sim.seed)
        clocks = {p: 0.0 for p in range(trace.num_procs)}
        comp = {p: 0.0 for p in range(trace.num_procs)}
        comm_busy = {p: 0.0 for p in range(trace.num_procs)}
        resident = _resident_bytes(trace) if sim.cache_model else {}
        traced = tracer.enabled and tracer.wants("compute")

        for step_idx, step in enumerate(trace.steps):
            for proc in step.work:
                t = _comp_time(sim, step, proc, resident, cost_model)
                if t:
                    if traced:
                        tracer.slice(
                            "compute", proc=proc, ts=clocks[proc], dur=t,
                            step=step_idx, ops=len(step.work.get(proc, ())),
                        )
                    clocks[proc] += t
                    comp[proc] += t

            if step.pattern is not None and step.pattern.remote_messages():
                participants = {
                    p
                    for m in step.pattern.remote_messages()
                    for p in (m.src, m.dst)
                }
                starts = {p: clocks[p] for p in participants}
                result = simulate(sim.params, step.pattern, start_times=starts, rng=rng)
                timeline = result.timeline

                if sim.overlap:
                    # Overlap extension: the CPU pays engaged time only;
                    # data dependencies pin it to its last receive end.
                    for p in participants:
                        busy = timeline.busy_time(p)
                        comm_busy[p] += busy
                        last_recv = max(
                            (
                                e.end
                                for e in timeline.events
                                if e.proc == p and e.kind is OpKind.RECV
                            ),
                            default=0.0,
                        )
                        clocks[p] = max(starts[p] + busy, last_recv)
                else:
                    # One scan for all processors (bit-equal to per-proc
                    # busy_time(): same per-proc summation order).
                    busy = timeline.busy_times()
                    for p in participants:
                        comm_busy[p] += busy.get(p, 0.0)
                        clocks[p] = result.ctimes.get(p, clocks[p])

        total = max(clocks.values(), default=0.0)
        if tracer.enabled:
            tracer.count("sim.program_steps", len(trace.steps))
            tracer.count("sim.program_runs")
        return PredictionReport(
            total_us=total,
            per_proc_comp_us=comp,
            per_proc_total_us=dict(clocks),
            per_proc_comm_busy_us=comm_busy,
            meta=dict(trace.meta),
        )


REFERENCE_SIMULATORS = {
    "standard": simulate_standard_reference,
    "worstcase": simulate_worstcase_reference,
    "causal": simulate_causal_reference,
}


@contextmanager
def reference_engine(tracer: Optional[Tracer] = None) -> Iterator[None]:
    """Run the whole prediction pipeline on the reference simulators.

    Injects the oracle where the pipeline looks its step simulators up:
    the mode table (``program_sim._SIMULATORS``) that the batch kernel's
    traced lanes (``ProgramSimulator.run`` among them) and
    :func:`simulate_program_reference` read, and the emulator's causal
    model (``repro.machine.emulator.simulate_causal``).

    Untraced, the batch lanes run the sink-free kernel steps and the
    emulator replays its causal steps for their clocks alone; both bypass
    these lookups.  So the block runs under ``tracer``, or — when none is
    given — under a tracer that records no categories (nothing is
    buffered; tracing never changes a result).  Forked pool workers
    inherit the injection, so pass ``mp_context="fork"`` to a
    multi-worker reference sweep.  ``tests/test_traced_batch_parity.py``
    checks that every communication step of ``run_ge_point`` and
    ``evaluate_ge_points_batch`` reaches the oracle.
    """
    if tracer is None:
        tracer = Tracer(config=TraceConfig(categories=frozenset()))
    saved_sims = dict(program_sim._SIMULATORS)
    saved_causal = emulator_mod.simulate_causal
    program_sim._SIMULATORS.update(REFERENCE_SIMULATORS)
    emulator_mod.simulate_causal = simulate_causal_reference
    try:
        with tracing(tracer):
            yield
    finally:
        program_sim._SIMULATORS.update(saved_sims)
        emulator_mod.simulate_causal = saved_causal
