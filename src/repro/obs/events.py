"""The structured event model and the tracer (span/event) API.

An observability *event* is one of

* a **slice** — a named interval ``[ts, ts + dur)`` on some processor's
  track (``compute``, ``send``, ``recv``, ``comm``, ``local_copy``, ...),
* an **instant** — a named point in time, or
* a wall-clock **span** recorded by the :meth:`Tracer.span` context
  manager (self-instrumentation of the simulator: how long a phase of
  *our* code took, as opposed to simulated time).

Simulated timestamps are microseconds, like everything else in the
package.  Wall-clock spans live on the reserved ``"wall"`` track and are
excluded from bucket aggregation.

Production-cost recording
-------------------------
The tracer is built to stay on during real sweeps.  Three mechanisms
keep an *enabled* run close to the disabled one:

1. **Ring buffer of packed tuples.**  Emission writes a plain tuple into
   a preallocated chunk slot (:mod:`repro.obs.ringbuf`); no dataclass,
   no per-event dict beyond what the caller already built.
2. **Deferred encoding.**  :class:`TraceEvent` objects — and everything
   downstream of them (Perfetto/JSONL/CSV serialisation, bucket
   aggregation) — materialise lazily when :attr:`Tracer.events` is first
   consumed, bit-exactly equal to what eager emission produced.  Whole
   communication steps are recorded as *one* packed record holding the
   step timeline, so the per-message expansion (the bulk of a traced
   sweep) happens entirely at export time.
3. **Category filters and deterministic sampling.**  A
   :class:`repro.obs.config.TraceConfig` turns categories off (zero
   buffer writes, tallied in ``obs.dropped.<category>``) or retains a
   deterministic 1-in-N subset (content-keyed, so retention is identical
   across worker counts; rejects tallied in ``obs.sampled.<category>``).
   Retained counts appear as ``obs.events.<category>`` once the stream
   is materialised.

One rule decides retention (:meth:`Tracer._retains`) for slices,
instants and communication steps alike, and one generator
(:meth:`Tracer._comm_step_events`) expands a communication step into its
retained ``comm``/``send``/``recv`` slices.  When it runs depends only
on the filters: with every comm category on (sampled or not) the step
is stored as one record and the generator runs at materialisation; with
any comm category filtered out it runs at emission and only retained
slices reach the buffer.  Content-keyed sampling makes both moments
retain the same events.

The ambient tracer
------------------
Instrumented code asks for the current tracer with :func:`get_tracer` and
checks ``tracer.enabled`` before doing any work::

    tr = get_tracer()
    if tr.enabled:
        tr.emit_comm_step(timeline, ctimes, algo="standard")

The default ambient tracer is :data:`NULL_TRACER` (``enabled = False``,
every method a no-op), so an uninstrumented run pays one attribute read
per emission *site*, not per event.  :func:`tracing` installs a real
:class:`Tracer` for the duration of a ``with`` block.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional

from .config import CATEGORIES, TraceConfig, category_of
from .metrics import MetricsRegistry
from .ringbuf import RingBuffer

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "is_enabled",
    "WALL_TRACK",
]

#: reserved track for wall-clock self-instrumentation spans
WALL_TRACK = "wall"

# -- packed record tags (first element of every ring-buffer tuple) ----------
_R_SLICE = 0     # (_R_SLICE, name, ts, dur, proc, track, attrs)
_R_INSTANT = 1   # (_R_INSTANT, name, ts, proc, track, attrs)
_R_COMM = 2      # (_R_COMM, algo, track, events, ctimes, start_times)

#: per-category codes feeding the retention hash (stable across processes)
_CAT_CODE = {cat: i + 1 for i, cat in enumerate(CATEGORIES)}

#: the categories one communication step expands into
_COMM_CATS = ("comm", "send", "recv")

_M64 = 0xFFFFFFFFFFFFFFFF
_MIX = 0x9E3779B97F4A7C15


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured observation.

    ``kind`` is ``"slice"`` (interval) or ``"instant"`` (point).  ``proc``
    is the processor the event belongs to, or ``-1`` for machine-level
    events.  ``track`` groups events into Perfetto processes (one per
    simulator engine / emulator run).
    """

    name: str
    kind: str
    ts: float
    dur: float = 0.0
    proc: int = -1
    track: str = "sim"
    attrs: Optional[Mapping[str, Any]] = None

    @property
    def end(self) -> float:
        """End of the interval (``ts`` for instants)."""
        return self.ts + self.dur


def event_rows(events) -> list[tuple]:
    """Events as plain ``(name, kind, ts, dur, proc, track, attrs)`` tuples.

    The one row format: sweep workers ship it, trace shards store it one
    JSON array per line, and the trace digest hashes it.
    """
    return [
        (e.name, e.kind, e.ts, e.dur, e.proc, e.track,
         dict(e.attrs) if e.attrs else None)
        for e in events
    ]


class Tracer:
    """Collects packed event records and metrics during a run.

    One tracer is one event stream; exporters and aggregators consume
    :attr:`events` (materialised on demand) after the traced section
    completes.  ``enabled`` is a plain attribute so hot paths can gate on
    it cheaply; ``config`` selects categories and sampling rates (the
    default records everything).
    """

    enabled: bool = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        config: Optional[TraceConfig] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.config = config if config is not None else TraceConfig()
        #: current track name; use :meth:`in_track` to switch temporarily
        self.track: str = "sim"
        self._buf = RingBuffer()
        #: (on, rate, code) per category, resolved once from the config
        self._plans = {
            cat: (self.config.enabled(cat), self.config.rate_of(cat), _CAT_CODE[cat])
            for cat in CATEGORIES
        }
        #: categories recorded whole (on, unsampled): every event passes
        #: with one set lookup, no call into :meth:`_retains`
        self._whole = frozenset(
            cat for cat, (on, rate, _) in self._plans.items() if on and rate == 1
        )
        #: a comm step is stored as one record while no comm category is
        #: filtered out — sampling is content-keyed, so applying it when
        #: the record materialises retains exactly what emission would;
        #: a filter, whose contract is zero buffer writes, expands the
        #: step at emission instead
        self._comm_deferred = all(self._plans[c][0] for c in _COMM_CATS)
        self._seed_mix = (self.config.seed * 0x94D049BB133111EB) & _M64
        #: distributed trace context (:class:`repro.obs.telemetry.TraceContext`)
        #: — ``None`` (the default) keeps spans id-free, so pre-existing
        #: golden exports are bit-identical; installing one makes every
        #: :meth:`span` stamp trace/span/parent ids onto its wall slice
        self.context: Optional[Any] = None
        #: per-(parent span id, name) child sequence numbers
        self._span_seq: dict[tuple[str, str], int] = {}
        self._ops_counters: dict[str, Any] = {}
        self._dropped: dict[str, Any] = {}
        self._sampled: dict[str, Any] = {}
        # incremental materialisation state
        self._mat: list[TraceEvent] = []
        self._mat_records = 0
        self._retained: dict[str, int] = {}

    # -- retention ----------------------------------------------------------
    def wants(self, category: str) -> bool:
        """True when events of ``category`` are recorded (possibly sampled).

        Emission sites with per-run loops hoist this check so a filtered
        category costs nothing per event.
        """
        return self._plans[category][0]

    def _keep(self, code: int, rate: int, proc: int, ts: float, uid: int = 0) -> bool:
        """Deterministic 1-in-``rate`` retention, keyed on event content.

        Pure integer arithmetic over (proc, quantised ts, uid, category,
        seed) — no string hashing, no emission-order counters — so the
        same event is retained or rejected identically in every process.
        """
        h = (
            (int(ts * 1024.0) + uid * 7919 + (proc + 2) * 2654435761 + code * 40503
             + self._seed_mix)
            * _MIX
        ) & _M64
        h ^= h >> 29
        return h % rate == 0

    def _retains(self, cat: str, proc: int, ts: float, uid: int = 0) -> bool:
        """The retention rule: is this event of category ``cat`` recorded?

        A filtered category drops it (tallied in ``obs.dropped.<cat>``); a
        sampled one keeps the 1-in-N subset :meth:`_keep` picks (rejects
        tallied in ``obs.sampled.<cat>``).  Callers test ``cat in
        self._whole`` first, so a category recorded whole never gets here.
        """
        on, rate, code = self._plans[cat]
        if on and (rate == 1 or self._keep(code, rate, proc, ts, uid)):
            return True
        cache, prefix = (
            (self._sampled, "obs.sampled.") if on else (self._dropped, "obs.dropped.")
        )
        c = cache.get(cat)
        if c is None:
            c = cache[cat] = self.metrics.counter(prefix + cat)
        c.inc()
        return False

    # -- emission -----------------------------------------------------------
    def slice(
        self,
        name: str,
        proc: int,
        ts: float,
        dur: float,
        track: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Record a named interval ``[ts, ts + dur)`` on ``proc``'s track."""
        if track is None:
            track = self.track
        cat = category_of(name, "slice", track)
        if cat in self._whole or self._retains(cat, proc, ts):
            self._buf.append((_R_SLICE, name, ts, dur, proc, track, attrs or None))

    def instant(self, name: str, ts: float, proc: int = -1, **attrs: Any) -> None:
        """Record a named point in (simulated) time."""
        if "instant" in self._whole or self._retains("instant", proc, ts):
            self._buf.append((_R_INSTANT, name, ts, proc, self.track, attrs or None))

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment the counter ``name`` in the metrics registry."""
        self.metrics.counter(name).inc(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.metrics.gauge(name).set(value)

    @contextmanager
    def span(
        self,
        name: str,
        proc: int = -1,
        ctx: Optional[Any] = None,
        parent_span_id: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[None]:
        """Wall-clock span: times the enclosed block of *our* code.

        The slice lands on the reserved ``"wall"`` track with microsecond
        timestamps from :func:`time.perf_counter`, so exported traces show
        the simulator's own phases alongside the simulated timelines.

        With a trace :attr:`context` installed the span becomes a node of
        the distributed trace: its slice carries ``trace_id`` /
        ``span_id`` / ``parent_span_id`` attrs with a deterministic child
        id (per-(parent, name) sequence), and the context moves down to
        the node for the duration of the block so nested spans parent
        correctly.  ``ctx`` short-circuits the derivation with an
        explicitly pre-derived node — the cross-process case, where a
        sweep worker's chunk id must be a function of the chunk number,
        not of a per-process counter (see
        :mod:`repro.obs.telemetry`).  Without either, nothing changes:
        the slice is bit-identical to the pre-context tracer's.
        """
        prev = self.context
        if ctx is not None:
            self.context = ctx
            attrs["trace_id"] = ctx.trace_id
            attrs["span_id"] = ctx.span_id
            if parent_span_id is not None:
                attrs["parent_span_id"] = parent_span_id
        elif prev is not None:
            key = (prev.span_id, name)
            seq = self._span_seq.get(key, 0)
            self._span_seq[key] = seq + 1
            node = prev.child(name, seq)
            self.context = node
            attrs["trace_id"] = node.trace_id
            attrs["span_id"] = node.span_id
            attrs["parent_span_id"] = prev.span_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.context = prev
            self.slice(
                name, proc=proc, ts=t0 * 1e6, dur=(t1 - t0) * 1e6,
                track=WALL_TRACK, **attrs,
            )

    @contextmanager
    def in_track(self, track: str) -> Iterator[None]:
        """Route emissions inside the block to the named track."""
        prev, self.track = self.track, track
        try:
            yield
        finally:
            self.track = prev

    # -- domain helpers -----------------------------------------------------
    def emit_comm_step(self, timeline, ctimes: Mapping[int, float], algo: str) -> None:
        """Record one simulated communication step.

        While no comm category is filtered out this appends a *single*
        packed record referencing the step's timeline, which
        :meth:`_comm_step_events` expands (sampling included) when the
        stream materialises.  With a comm-category filter active —
        whose contract is zero buffer writes for the filtered category —
        the same expansion runs now and only retained slices are written.
        ``sim.ops.<algo>`` counts the simulated operations either way.

        ``timeline`` is a :class:`repro.core.events.StepTimeline` (duck
        typed: ``events`` with ``proc``/``kind``/``start``/``duration``/
        ``message``, and ``start_times``).
        """
        events = timeline.events
        try:
            ops_counter = self._ops_counters[algo]
        except KeyError:
            ops_counter = self._ops_counters[algo] = self.metrics.counter(
                f"sim.ops.{algo}"
            )
        ops_counter.inc(len(events))
        if self._comm_deferred:
            # Snapshots guard against callers reusing the dicts; the event
            # list is copied into a tuple so later timeline.add() calls
            # (none exist today) could not corrupt the deferred record.
            self._buf.append(
                (_R_COMM, algo, self.track, tuple(events),
                 dict(ctimes), dict(timeline.start_times))
            )
        else:
            self._buf.extend(
                (_R_SLICE, e.name, e.ts, e.dur, e.proc, e.track, e.attrs)
                for e in self._comm_step_events(
                    algo, self.track, events, ctimes, timeline.start_times
                )
            )

    def _comm_step_events(
        self, algo, track, events, ctimes, start_times
    ) -> Iterator[TraceEvent]:
        """The retained events of one communication step, in stream order.

        Per participating processor (ascending) an enclosing ``comm``
        phase slice, then that processor's ``send``/``recv`` operation
        slices; a processor that only appears in the start clocks and
        did nothing is skipped.  Each event passes :meth:`_retains`
        unless its category is recorded whole, so under the default
        config no event pays a retention call.  The golden exports of
        ``tests/test_obs_sampling.py`` pin its output byte for byte.
        """
        comm_whole, send_whole, recv_whole = (c in self._whole for c in _COMM_CATS)
        retains = self._retains
        by_proc: dict[int, list] = {}
        for e in events:
            by_proc.setdefault(e.proc, []).append(e)
        for p in sorted(set(start_times) | set(by_proc)):
            ops = by_proc.get(p, ())
            start = start_times.get(p, ops[0].start if ops else 0.0)
            finish = ctimes.get(p, start)
            if not ops and finish <= start:
                continue  # mentioned in start clocks but did nothing
            if comm_whole or retains("comm", p, start):
                yield TraceEvent(
                    name="comm", kind="slice", ts=start, dur=finish - start,
                    proc=p, track=track, attrs={"algo": algo},
                )
            for e in ops:
                kind = e.kind.value  # "send" | "recv"
                msg = e.message
                sending = kind == "send"
                if not (send_whole if sending else recv_whole) and not retains(
                    kind, e.proc, e.start, msg.uid
                ):
                    continue
                attrs = {
                    "peer": msg.dst if sending else msg.src,
                    "bytes": msg.size,
                    "uid": msg.uid,
                }
                if not sending and e.arrival is not None:
                    attrs["arrival"] = e.arrival
                yield TraceEvent(
                    name=kind, kind="slice", ts=e.start, dur=e.duration,
                    proc=e.proc, track=track, attrs=attrs,
                )

    # -- materialisation ----------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events as :class:`TraceEvent` objects.

        Packed records are decoded lazily and incrementally: the first
        access after new emissions expands only the new records.  The
        returned list is the tracer's materialisation cache — treat it as
        read-only.
        """
        total = self._buf.count()
        if self._mat_records != total:
            self._materialize(total)
        return self._mat

    def _materialize(self, upto: int) -> None:
        out = self._mat
        fresh_from = len(out)
        for rec in self._buf.iter_from(self._mat_records):
            tag = rec[0]
            if tag == _R_SLICE:
                out.append(
                    TraceEvent(
                        name=rec[1], kind="slice", ts=rec[2], dur=rec[3],
                        proc=rec[4], track=rec[5], attrs=rec[6],
                    )
                )
            elif tag == _R_INSTANT:
                out.append(
                    TraceEvent(
                        name=rec[1], kind="instant", ts=rec[2], proc=rec[3],
                        track=rec[4], attrs=rec[5],
                    )
                )
            else:
                out.extend(self._comm_step_events(*rec[1:]))
        self._mat_records = upto
        # fold the newly materialised span into the per-category tallies
        fresh: dict[str, int] = {}
        for e in out[fresh_from:]:
            cat = category_of(e.name, e.kind, e.track)
            fresh[cat] = fresh.get(cat, 0) + 1
        for cat, n in fresh.items():
            self._retained[cat] = self._retained.get(cat, 0) + n
            self.metrics.counter(f"obs.events.{cat}").inc(n)

    def category_counts(self) -> dict[str, int]:
        """Retained events per category (materialises the stream)."""
        self.events  # noqa: B018 - force materialisation
        return dict(self._retained)

    def telemetry(self) -> dict:
        """JSON-ready summary of what was kept, dropped and sampled out."""
        self.events  # noqa: B018 - force materialisation
        dropped = {cat: c.value for cat, c in self._dropped.items()}
        sampled = {cat: c.value for cat, c in self._sampled.items()}
        return {
            "config": self.config.to_dict(),
            "events_by_category": dict(self._retained),
            "dropped_by_category": dropped,
            "sampled_out_by_category": sampled,
        }

    # -- cross-process shipping ---------------------------------------------
    def export_rows(self) -> list[tuple]:
        """The materialised stream as plain picklable tuples.

        Sweep workers trace their chunks locally (with the parent's
        config, so filters and sampling have already been applied) and
        ship these rows back for :meth:`absorb_rows`.
        """
        return event_rows(self.events)

    def absorb_rows(self, rows) -> None:
        """Append rows from :meth:`export_rows` (no re-filtering)."""
        self._buf.extend(
            (_R_SLICE, name, ts, dur, proc, track, attrs)
            if kind == "slice"
            else (_R_INSTANT, name, ts, proc, track, attrs)
            for name, kind, ts, dur, proc, track, attrs in rows
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tracer records={self._buf.count()} track={self.track!r} "
            f"config={'default' if self.config.is_default() else self.config.to_dict()}>"
        )


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op.

    Installed as the ambient tracer by default so instrumented code can
    unconditionally fetch it and branch on :attr:`enabled`.
    """

    enabled = False

    def __init__(self):
        super().__init__(metrics=MetricsRegistry())

    def wants(self, category: str) -> bool:
        return False

    def slice(self, *args: Any, **kwargs: Any) -> None:
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:
        pass

    def count(self, *args: Any, **kwargs: Any) -> None:
        pass

    def observe(self, *args: Any, **kwargs: Any) -> None:
        pass

    def gauge(self, *args: Any, **kwargs: Any) -> None:
        pass

    @contextmanager
    def span(self, name: str, proc: int = -1, **attrs: Any) -> Iterator[None]:
        yield

    @contextmanager
    def in_track(self, track: str) -> Iterator[None]:
        yield

    def emit_comm_step(self, timeline, ctimes, algo) -> None:
        pass


#: the shared disabled tracer (ambient default)
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The ambient tracer (a :class:`NullTracer` unless one is installed)."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` as the ambient tracer (``None`` disables tracing)."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER


def is_enabled() -> bool:
    """True when the ambient tracer records events."""
    return _current.enabled


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the ``with`` block."""
    global _current
    prev, _current = _current, tracer
    try:
        yield tracer
    finally:
        _current = prev
