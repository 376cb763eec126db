"""Exporters: Chrome trace-event JSON (Perfetto), JSONL and CSV dumps.

The Chrome trace-event format is the lingua franca of timeline viewers —
the exported file loads directly in `Perfetto <https://ui.perfetto.dev>`_
or ``chrome://tracing``.  Layout:

* one Chrome *process* per track (``sim:standard``, ``emulator``, ...),
* one Chrome *thread* per simulated processor (named ``P0``, ``P1``, ...),
* every slice as a matched ``B``/``E`` duration pair (children nested
  inside their enclosing ``comm`` phase),
* uncovered stretches of ``comm`` phases synthesised as ``wait`` slices,
  so each track reads compute / send / recv / wait at a glance,
* instants as ``i`` events, metrics as the top-level ``otherData``.

Timestamps stay in microseconds — the package's native unit and the trace
format's expected one, so no scaling is applied.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from itertools import islice
from typing import Iterable, Iterator, Optional

from .events import WALL_TRACK, TraceEvent
from .metrics import MetricsRegistry

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "events_from_chrome_trace",
    "write_events_jsonl",
    "write_events_csv",
]

#: tid used for machine-level (proc == -1) events
_MACHINE_TID = 999_999

#: slice names treated as children of an enclosing ``comm`` phase
_COMM_OPS = ("send", "recv")

#: gaps shorter than this are not synthesised as wait slices (float fuzz)
_WAIT_EPS = 1e-9

#: reserved args key carrying a slice's exact duration across export/import
_DUR_KEY = "dur_us"


def _tid(proc: int) -> int:
    return proc if proc >= 0 else _MACHINE_TID


def _synth_wait(slices: list[TraceEvent]) -> list[TraceEvent]:
    """Wait slices for the uncovered parts of each ``comm`` phase.

    Linear in the ops each phase covers.  The ops are sorted by
    ``(ts, end)``, so a phase bisects to its first candidate (the first op
    with ``ts >= phase.ts - eps``) and stops at the first op with
    ``ts > phase.end + eps``.  That stop is exact because every emitted
    ``send``/``recv`` has ``dur >= 0``: such an op ends past the phase too,
    and so does every op after it.
    """
    out: list[TraceEvent] = []
    ops = sorted(
        (s for s in slices if s.name in _COMM_OPS), key=lambda s: (s.ts, s.end)
    )
    starts = [op.ts for op in ops]
    for phase in (s for s in slices if s.name == "comm"):
        cursor = phase.ts
        limit = phase.end + _WAIT_EPS
        for op in islice(ops, bisect_left(starts, phase.ts - _WAIT_EPS), None):
            if op.ts > limit:
                break
            end = op.end
            if end > limit:
                continue
            if op.ts - cursor > _WAIT_EPS:
                out.append(
                    TraceEvent(
                        name="wait", kind="slice", ts=cursor, dur=op.ts - cursor,
                        proc=phase.proc, track=phase.track,
                    )
                )
            cursor = max(cursor, end)
        if phase.end - cursor > _WAIT_EPS:
            out.append(
                TraceEvent(
                    name="wait", kind="slice", ts=cursor, dur=phase.end - cursor,
                    proc=phase.proc, track=phase.track,
                )
            )
    return out


def _nested_begin_end(slices: list[TraceEvent], pid: int) -> list[dict]:
    """Emit one thread's slices as properly nested B/E pairs.

    Slices are sorted outermost-first; a stack closes every slice that
    ends at or before the next one starts.  Ties close children before
    parents, which is what the B/E stack discipline requires.
    """
    ordered = sorted(slices, key=lambda s: (s.ts, -s.dur))
    out: list[dict] = []
    stack: list[TraceEvent] = []

    def close(upto: float) -> None:
        while stack and stack[-1].end <= upto:
            top = stack.pop()
            out.append(
                {"ph": "E", "ts": top.end, "pid": pid, "tid": _tid(top.proc),
                 "name": top.name}
            )

    for s in ordered:
        close(s.ts)
        ev = {"ph": "B", "ts": s.ts, "pid": pid, "tid": _tid(s.proc),
              "name": s.name, "cat": s.track}
        # The exact duration: E.ts - B.ts cannot recover it bit-for-bit
        # ((ts + dur) - ts loses low bits), and the aggregation round-trip
        # guarantee needs it.  Viewers show it as a slice property.
        ev["args"] = {**(s.attrs or {}), _DUR_KEY: s.dur}
        out.append(ev)
        stack.append(s)
    close(float("inf"))
    return out


def _group(
    events: Iterable[TraceEvent],
) -> dict[str, dict[int, tuple[list[TraceEvent], list[TraceEvent]]]]:
    """One pass: ``track -> proc -> (slices, instants)``, first-seen order.

    A proc is registered by any event on it, whatever its kind, so it gets
    its thread-name record even with nothing to draw.
    """
    tracks: dict[str, dict[int, tuple[list, list]]] = {}
    for e in events:
        procs = tracks.get(e.track)
        if procs is None:
            procs = tracks[e.track] = {}
        lanes = procs.get(e.proc)
        if lanes is None:
            lanes = procs[e.proc] = ([], [])
        if e.kind == "slice":
            lanes[0].append(e)
        elif e.kind == "instant":
            lanes[1].append(e)
    return tracks


def _chrome_batches(
    events: Iterable[TraceEvent], synthesize_wait: bool
) -> Iterator[list[dict]]:
    """The ``traceEvents`` records, one non-empty list at a time.

    A track's process-name record comes first, then one list per
    processor (in proc order): its thread-name record, its slices as B/E
    pairs, then its instants.  Only one list is alive at a time, so a
    streamed write holds one thread's records, not the whole trace.
    """
    for pid, (track, procs) in enumerate(_group(events).items()):
        yield [{"ph": "M", "ts": 0, "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": track}}]
        for proc in sorted(procs):
            slices, instants = procs[proc]
            tid = _tid(proc)
            batch = [{"ph": "M", "ts": 0, "pid": pid, "tid": tid,
                      "name": "thread_name",
                      "args": {"name": f"P{proc}" if proc >= 0 else "machine"}}]
            if synthesize_wait and track != WALL_TRACK:
                slices = slices + _synth_wait(slices)
            batch.extend(_nested_begin_end(slices, pid))
            for e in instants:
                ev = {"ph": "i", "ts": e.ts, "pid": pid, "tid": tid,
                      "name": e.name, "s": "t"}
                if e.attrs:
                    ev["args"] = dict(e.attrs)
                batch.append(ev)
            yield batch


def _other_fields(metrics: Optional[MetricsRegistry]) -> dict:
    """The top-level fields besides ``traceEvents``, in document order."""
    doc: dict = {"displayTimeUnit": "ms"}
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics.snapshot()}
    return doc


def to_chrome_trace(
    events: Iterable[TraceEvent],
    metrics: Optional[MetricsRegistry] = None,
    synthesize_wait: bool = True,
) -> dict:
    """Convert an event stream to a Chrome trace-event JSON object."""
    trace_events = [
        ev for batch in _chrome_batches(events, synthesize_wait) for ev in batch
    ]
    return {"traceEvents": trace_events, **_other_fields(metrics)}


def _write_chrome(
    events: Iterable[TraceEvent],
    path,
    metrics: Optional[MetricsRegistry] = None,
    synthesize_wait: bool = True,
    sort_keys: bool = False,
) -> None:
    """Stream ``json.dumps(to_chrome_trace(...), sort_keys=...)`` to ``path``.

    Each batch goes through the C encoder and is written with its
    brackets stripped, joined by the encoder's own ``", "``, so the bytes
    equal the one-shot dump while neither the document nor its string is
    ever built whole.
    """
    encode = json.JSONEncoder(sort_keys=sort_keys).encode
    rest = encode(_other_fields(metrics))
    if sort_keys:  # "traceEvents" sorts after every other top-level key
        head, tail = rest[:-1] + ', "traceEvents": [', "]}"
    else:
        head, tail = '{"traceEvents": [', "], " + rest[1:]
    with open(path, "w") as fh:
        fh.write(head)
        sep = ""
        for batch in _chrome_batches(events, synthesize_wait):
            fh.write(sep)
            fh.write(encode(batch)[1:-1])
            sep = ", "
        fh.write(tail)


def write_chrome_trace(
    events: Iterable[TraceEvent],
    path,
    metrics: Optional[MetricsRegistry] = None,
    synthesize_wait: bool = True,
) -> None:
    """Write the Chrome trace JSON for ``events`` to ``path``, streamed."""
    _write_chrome(events, path, metrics=metrics, synthesize_wait=synthesize_wait)


def events_from_chrome_trace(doc: dict) -> list[TraceEvent]:
    """Reconstruct slice/instant events from a Chrome trace JSON object.

    The inverse of :func:`to_chrome_trace` up to the synthesised ``wait``
    slices (which aggregation ignores by design); used by tests to prove
    that bucket sums survive an export/import round trip exactly.
    """
    names: dict[int, str] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            names[ev["pid"]] = ev["args"]["name"]

    out: list[TraceEvent] = []
    open_stacks: dict[tuple[int, int], list[dict]] = {}
    for ev in doc["traceEvents"]:
        ph = ev.get("ph")
        key = (ev.get("pid", 0), ev.get("tid", 0))
        track = names.get(ev.get("pid", 0), "sim")
        proc = ev["tid"] if ev.get("tid", _MACHINE_TID) != _MACHINE_TID else -1
        if ph == "B":
            open_stacks.setdefault(key, []).append(ev)
        elif ph == "E":
            stack = open_stacks.get(key)
            if not stack:
                raise ValueError(f"unmatched E event {ev!r}")
            b = stack.pop()
            if b["name"] != ev["name"]:
                raise ValueError(
                    f"mismatched B/E pair: {b['name']!r} closed by {ev['name']!r}"
                )
            attrs = dict(b.get("args") or {})
            dur = attrs.pop(_DUR_KEY, None)
            out.append(
                TraceEvent(
                    name=b["name"], kind="slice", ts=b["ts"],
                    dur=dur if dur is not None else ev["ts"] - b["ts"],
                    proc=proc, track=track, attrs=attrs or None,
                )
            )
        elif ph == "i":
            out.append(
                TraceEvent(
                    name=ev["name"], kind="instant", ts=ev["ts"], proc=proc,
                    track=track, attrs=ev.get("args"),
                )
            )
    leftovers = [b["name"] for stack in open_stacks.values() for b in stack]
    if leftovers:
        raise ValueError(f"unclosed B events: {leftovers}")
    return out


def write_events_jsonl(events: Iterable[TraceEvent], path) -> None:
    """Flat dump: one JSON object per line per event."""
    with open(path, "w") as fh:
        for e in events:
            rec = {
                "name": e.name, "kind": e.kind, "ts": e.ts, "dur": e.dur,
                "proc": e.proc, "track": e.track,
            }
            if e.attrs:
                rec["attrs"] = dict(e.attrs)
            fh.write(json.dumps(rec) + "\n")


def write_events_csv(events: Iterable[TraceEvent], path) -> None:
    """Flat dump: one CSV row per event (attrs as a JSON column)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "kind", "ts", "dur", "proc", "track", "attrs"])
        for e in events:
            writer.writerow(
                [e.name, e.kind, repr(e.ts), repr(e.dur), e.proc, e.track,
                 json.dumps(dict(e.attrs)) if e.attrs else ""]
            )
