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

One producer, :func:`_chrome_text`, writes the document as JSON text, one
(track, proc) lane at a time.  The text is byte for byte what
``json.dumps(doc, sort_keys=...)`` writes for the same records.  The
``B``/``E`` records, nearly all of a trace, are filled into per-lane
templates:

* the templates are laid out the way the encoder lays an object out:
  ``", "`` and ``": "`` separators, keys in insertion order or sorted
  under ``sort_keys``, and keys, names and the track encoded by the
  encoder itself (``ensure_ascii``);
* an exact ``float`` is written as ``float.__repr__``, or as ``NaN``,
  ``Infinity`` or ``-Infinity``; an exact ``int`` as ``int.__repr__``.
  Those are the encoder's own spellings.  Every other value (``bool``,
  ``None``, ``str``, lists, subclasses) goes through the encoder;
* a record a template cannot express (an attr key that is not a ``str``,
  or one named ``dur_us``) is encoded whole, as are the few ``M`` and
  ``i`` records.

:func:`to_chrome_trace` is ``json.loads`` of that text, so the in-memory
and on-disk exports cannot drift apart.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from itertools import chain, islice
from math import isfinite
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

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

# A lane's slices as rows ``(ts, -dur, dur, end, name, attrs)``; B/E order
# is outermost-first, ``(ts, -dur)``.
_TS, _NEG_DUR, _DUR, _END, _NAME = range(5)
_NESTING_ORDER = itemgetter(_TS, _NEG_DUR)


def _tid(proc: int) -> int:
    return proc if proc >= 0 else _MACHINE_TID


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


def _wait_rows(rows: list[tuple]) -> list[tuple]:
    """Wait rows for the uncovered parts of each ``comm`` phase.

    Linear in the ops each phase covers.  The ops are sorted by
    ``(ts, end)``, so a phase bisects to its first candidate (the first op
    with ``ts >= phase.ts - eps``) and stops at the first op with
    ``ts > phase.end + eps``.  That stop is exact because every emitted
    ``send``/``recv`` has ``dur >= 0``: such an op ends past the phase too,
    and so does every op after it.
    """
    out: list[tuple] = []
    spans = sorted([(r[_TS], r[_END]) for r in rows if r[_NAME] in _COMM_OPS])
    starts = [start for start, _ in spans]
    for phase in rows:
        if phase[_NAME] != "comm":
            continue
        cursor = phase[_TS]
        phase_end = phase[_END]
        limit = phase_end + _WAIT_EPS
        for start, end in islice(spans, bisect_left(starts, cursor - _WAIT_EPS), None):
            if start > limit:
                break
            if end > limit:
                continue
            if start - cursor > _WAIT_EPS:
                dur = start - cursor
                out.append((cursor, -dur, dur, cursor + dur, "wait", None))
            if end > cursor:  # max(cursor, end), keeping the first on ties
                cursor = end
        if phase_end - cursor > _WAIT_EPS:
            dur = phase_end - cursor
            out.append((cursor, -dur, dur, cursor + dur, "wait", None))
    return out


def _value_text(encode: Callable[[object], str]) -> Callable[[object], str]:
    """``value -> JSON text``, exactly as ``encode`` writes the value.

    Exact floats and ints are spelt here the way the encoder spells them;
    everything else is handed to the encoder.
    """
    float_repr, int_repr = float.__repr__, int.__repr__

    def text(value) -> str:
        kind = type(value)
        if kind is float:
            if value - value == 0.0:  # finite
                return float_repr(value)
            if value != value:
                return "NaN"
            return "Infinity" if value > 0 else "-Infinity"
        if kind is int:
            return int_repr(value)
        return encode(value)

    return text


def _columns_text(
    columns: list[tuple], text: Callable[[object], str]
) -> list[list[str]]:
    """``[list(map(text, c)) for c in columns]``, finite floats spelt in C.

    A lane repeats most of its timestamps (an op's end is the next op's
    start), so each distinct float is spelt once.  ``0.0 == -0.0`` share a
    dict slot but not a spelling, so zeros are spelt one by one.
    """
    if set(map(type, chain(*columns))) == {float}:
        distinct = set(chain(*columns))
        if all(map(isfinite, distinct)):
            spelt = dict(zip(distinct, map(float.__repr__, distinct)))
            if spelt.pop(0.0, None) is None:
                return [list(map(spelt.__getitem__, c)) for c in columns]
            return [[spelt.get(v) or float.__repr__(v) for v in c] for c in columns]
    return [list(map(text, c)) for c in columns]


def _object(
    fields: list[tuple[str, str, tuple]], encode, sort_keys: bool
) -> tuple[str, tuple]:
    """``(template, slots)`` of one JSON object, laid out as ``encode`` does.

    ``fields`` are ``(key, template, slots)`` with unique ``str`` keys.  A
    template is literal JSON text with ``%`` doubled, or ``%s`` holes;
    ``slots`` say which of the caller's values fill its holes, in order.
    """
    if sort_keys:
        fields = sorted(fields, key=itemgetter(0))
    body = ", ".join(
        f"{encode(k).replace('%', '%%')}: {t}" for k, t, _ in fields
    )
    return "{" + body + "}", tuple(s for _, _, slots in fields for s in slots)


def _lane_text(
    pid: int,
    track: str,
    proc: int,
    slices: list[TraceEvent],
    instants: list[TraceEvent],
    synthesize_wait: bool,
    encode: Callable[[object], str],
    sort_keys: bool,
) -> str:
    """One thread's records as ``", "``-joined JSON text.

    Its thread-name record, its slices (and synthesised waits) as properly
    nested B/E pairs, then its instants.  Slices are sorted
    outermost-first; a stack closes every slice that ends at or before the
    next one starts.  Ties close children before parents, which is what
    the B/E stack discipline requires.
    """
    tid = _tid(proc)
    text = _value_text(encode)
    out = [encode({"ph": "M", "ts": 0, "pid": pid, "tid": tid,
                   "name": "thread_name",
                   "args": {"name": f"P{proc}" if proc >= 0 else "machine"}})]
    emit = out.append

    rows = [(e.ts, -e.dur, e.dur, e.ts + e.dur, e.name, e.attrs) for e in slices]
    if synthesize_wait and track != WALL_TRACK:
        rows += _wait_rows(rows)
    rows.sort(key=_NESTING_ORDER)

    def literal(value) -> str:
        return text(value).replace("%", "%%")

    lane = [("pid", literal(pid), ()), ("tid", literal(tid), ())]
    cat = ("cat", literal(track), ())
    begins: dict[tuple, Optional[tuple]] = {}

    def begin_template(name, keys: tuple) -> Optional[tuple]:
        """``(template, pick)``: ``pick`` orders ``(ts, *attr values, dur)``."""
        if _DUR_KEY in keys or any(type(k) is not str for k in keys):
            return None
        args = [(k, "%s", (i,)) for i, k in enumerate(keys, 1)]
        args.append((_DUR_KEY, "%s", (len(keys) + 1,)))
        template, slots = _object(
            [("ph", '"B"', ()), ("ts", "%s", (0,)), *lane,
             ("name", literal(name), ()), cat,
             ("args", *_object(args, encode, sort_keys))],
            encode, sort_keys,
        )
        return template, itemgetter(*slots)

    def end_template(name) -> str:
        return _object(
            [("ph", '"E"', ()), ("ts", "%s", (0,)), *lane,
             ("name", literal(name), ())],
            encode, sort_keys,
        )[0]

    columns = list(zip(*rows)) or [()] * 6
    ends = {name: end_template(name) for name in set(columns[_NAME])}
    texts = _columns_text([columns[_TS], columns[_DUR], columns[_END]], text)
    stack: list[tuple[float, str]] = []  # (end, its E record)
    push, pop = stack.append, stack.pop
    for (ts, _, dur, end, name, attrs), ts_text, dur_text, end_text in zip(
        rows, *texts
    ):
        while stack and stack[-1][0] <= ts:
            emit(pop()[1])
        keys = tuple(attrs) if attrs else ()
        try:
            begin = begins[name, keys]
        except KeyError:
            begin = begins[name, keys] = begin_template(name, keys)
        if begin is None:
            emit(encode({"ph": "B", "ts": ts, "pid": pid, "tid": tid,
                         "name": name, "cat": track,
                         "args": {**(attrs or {}), _DUR_KEY: dur}}))
        else:
            template, pick = begin
            values = map(text, attrs.values()) if attrs else ()
            emit(template % pick((ts_text, *values, dur_text)))
        push((end, ends[name] % end_text))
    while stack and stack[-1][0] <= float("inf"):
        emit(pop()[1])

    for e in instants:
        ev = {"ph": "i", "ts": e.ts, "pid": pid, "tid": tid, "name": e.name,
              "s": "t"}
        if e.attrs:
            ev["args"] = dict(e.attrs)
        emit(encode(ev))
    return ", ".join(out)


def _other_fields(metrics: Optional[MetricsRegistry]) -> dict:
    """The top-level fields besides ``traceEvents``, in document order."""
    doc: dict = {"displayTimeUnit": "ms"}
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics.snapshot()}
    return doc


def _chrome_text(
    events: Iterable[TraceEvent],
    metrics: Optional[MetricsRegistry] = None,
    synthesize_wait: bool = True,
    sort_keys: bool = False,
) -> Iterator[str]:
    """``json.dumps(doc, sort_keys=...)`` of the Chrome trace, in pieces.

    The document head, then per track its process-name record and one
    piece per processor (in proc order), then the tail.  Only one lane's
    records are alive at a time, so a streamed write holds one thread's
    text, not the whole trace.
    """
    encode = json.JSONEncoder(sort_keys=sort_keys).encode
    rest = encode(_other_fields(metrics))
    if sort_keys:  # "traceEvents" sorts after every other top-level key
        yield rest[:-1] + ', "traceEvents": ['
    else:
        yield '{"traceEvents": ['
    sep = ""
    for pid, (track, procs) in enumerate(_group(events).items()):
        yield sep + encode({"ph": "M", "ts": 0, "pid": pid, "tid": 0,
                            "name": "process_name", "args": {"name": track}})
        sep = ", "
        for proc in sorted(procs):
            slices, instants = procs[proc]
            yield sep + _lane_text(pid, track, proc, slices, instants,
                                   synthesize_wait, encode, sort_keys)
    yield "]}" if sort_keys else "], " + rest[1:]


def to_chrome_trace(
    events: Iterable[TraceEvent],
    metrics: Optional[MetricsRegistry] = None,
    synthesize_wait: bool = True,
) -> dict:
    """Convert an event stream to a Chrome trace-event JSON object.

    The object is ``json.loads`` of the text :func:`write_chrome_trace`
    writes, so the two exports are one.
    """
    return json.loads("".join(_chrome_text(events, metrics, synthesize_wait)))


def _write_chrome(
    events: Iterable[TraceEvent],
    path,
    metrics: Optional[MetricsRegistry] = None,
    synthesize_wait: bool = True,
    sort_keys: bool = False,
) -> None:
    """Stream ``json.dumps(to_chrome_trace(...), sort_keys=...)`` to ``path``."""
    with open(path, "w") as fh:
        fh.writelines(_chrome_text(events, metrics, synthesize_wait, sort_keys))


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
