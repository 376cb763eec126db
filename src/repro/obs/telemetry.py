"""Cross-process trace propagation, shard files and deterministic stitching.

The PR 6 tracer stops at process boundaries: a traced ``repro sweep
--workers N`` ships worker events back for live absorption, but nothing
ties a worker's ``sweep.chunk`` span to the dispatching run — and a
crashed or long-running job leaves no per-process artefact to stitch
after the fact.  This module closes both gaps:

* :class:`TraceContext` — a compact trace context (``trace_id`` +
  ``span_id``) that travels in worker payloads and serve batches.  Span
  ids are *derived*, not drawn: ``sha256(trace_id | parent | name | seq)``
  truncated to 16 hex chars, so re-running the same program yields the
  same tree and no coordination between processes is ever needed.
  :meth:`repro.obs.Tracer.span` stamps ``trace_id`` / ``span_id`` /
  ``parent_span_id`` attrs onto its wall slices whenever a context is
  installed (and stays bit-exactly silent when none is — the golden
  exports never see an id).
* **Shard files** — :func:`write_shard` flushes one tracer's ring buffer
  to a JSONL sidecar (header line with schema/config/context/metrics,
  then one packed event row per line, written atomically);
  :func:`read_shard` inverts it.
* **Deterministic merging** — :func:`merge_shards` stitches any set of
  shards into one timeline by a stable sort on packed event tuples.  The
  sort key is a pure function of event content, so merging shards *in
  any permutation* yields a byte-identical export, and — because PR 6's
  retention hash is content-keyed — the non-wall portion of the merged
  stream is identical across worker counts.  :func:`trace_digest`
  canonicalises exactly that portion (wall spans carry
  ``perf_counter`` timestamps and worker-dependent chunk structure, so
  they are correlation data, not digest material).
* **Validation** — :func:`validate_span_tree` resolves every
  ``parent_span_id`` against the span ids present in the stream (plus
  the implicit per-trace root, a pure function of the trace id), which
  is the CI gate's zero-orphan check.

Wire format and determinism rules are specified in DESIGN.md §14.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .events import WALL_TRACK, TraceEvent, Tracer, event_rows
from .export import _write_chrome
from .metrics import MetricsRegistry

__all__ = [
    "SHARD_SCHEMA",
    "TRACE_ID_ATTR",
    "SPAN_ID_ATTR",
    "PARENT_SPAN_ATTR",
    "TraceContext",
    "root_span_id",
    "child_span_id",
    "TraceShard",
    "write_shard",
    "read_shard",
    "MergedTrace",
    "merge_shards",
    "trace_digest",
    "SpanTreeReport",
    "validate_span_tree",
    "write_merged_trace",
    "write_merged_events",
]

#: schema identifier of shard files (the header line's ``schema`` field)
SHARD_SCHEMA = "repro.trace-shard/v1"

#: attr keys carrying the trace context on wall-track span slices
TRACE_ID_ATTR = "trace_id"
SPAN_ID_ATTR = "span_id"
PARENT_SPAN_ATTR = "parent_span_id"

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16


def _hex(material: str, width: int) -> str:
    return hashlib.sha256(material.encode()).hexdigest()[:width]


def root_span_id(trace_id: str) -> str:
    """The implicit root span id of ``trace_id``.

    A pure function of the trace id, so any process holding the id — and
    any post-hoc validator — can resolve parents that point at the root
    without a root event ever being shipped.
    """
    return _hex(f"repro-root|{trace_id}", _SPAN_ID_HEX)


def child_span_id(trace_id: str, parent_span_id: str, name: str, seq: int) -> str:
    """The deterministic id of the ``seq``-th ``name`` child of a span."""
    return _hex(
        f"repro-span|{trace_id}|{parent_span_id}|{name}|{seq}", _SPAN_ID_HEX
    )


@dataclass(frozen=True)
class TraceContext:
    """One node of a distributed trace: ``(trace_id, span_id)``.

    Immutable and JSON-round-trippable, so it travels in sweep worker
    payloads, serve batch state and shard headers.  :meth:`child` derives
    the next tree node without coordination; the caller supplies the
    sequence discriminator (the tracer uses a per-(parent, name) counter,
    the sweep runner uses the chunk number, the server its request/batch
    sequence) so ids stay unique *and* reproducible.
    """

    trace_id: str
    span_id: str

    @classmethod
    def root(cls, *material: object) -> "TraceContext":
        """A root context derived from ``material`` (command, argv, ...)."""
        trace_id = _hex(
            "repro-trace|" + "|".join(str(m) for m in material), _TRACE_ID_HEX
        )
        return cls(trace_id=trace_id, span_id=root_span_id(trace_id))

    def child(self, name: str, seq: int) -> "TraceContext":
        """The context of this node's ``seq``-th ``name`` child span."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=child_span_id(self.trace_id, self.span_id, name, seq),
        )

    def to_dict(self) -> dict:
        """JSON-ready wire document (see DESIGN.md §14)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, doc) -> "TraceContext":
        """Inverse of :meth:`to_dict`."""
        return cls(trace_id=str(doc["trace_id"]), span_id=str(doc["span_id"]))


# -- shard files --------------------------------------------------------------
@dataclass
class TraceShard:
    """One process's flushed trace: header facts plus packed event rows."""

    label: str
    config: dict
    context: Optional[dict]
    metrics: dict
    rows: list[tuple]

    @property
    def trace_context(self) -> Optional[TraceContext]:
        """The shard's :class:`TraceContext` (``None`` for uncorrelated)."""
        return TraceContext.from_dict(self.context) if self.context else None


def write_shard(
    path,
    tracer: Tracer,
    *,
    label: str = "main",
    context: Optional[TraceContext] = None,
) -> Path:
    """Flush one tracer's materialised stream to a shard file.

    The file is JSONL: one header object (schema, label, trace config,
    context, metrics snapshot), then one packed ``[name, kind, ts, dur,
    proc, track, attrs]`` row per retained event.  Written atomically
    (temp file + rename) so a concurrently-started merge never reads a
    torn shard.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    if context is None:
        context = getattr(tracer, "context", None)
    # materialise before snapshotting: materialisation tallies the
    # obs.events.* retained counters, which belong in the header
    rows = tracer.export_rows()
    header = {
        "schema": SHARD_SCHEMA,
        "label": label,
        "config": tracer.config.to_dict(),
        "context": context.to_dict() if context is not None else None,
        "metrics": tracer.metrics.snapshot(),
    }
    tmp = out.with_name(out.name + f".tmp.{os.getpid()}")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    os.replace(tmp, out)
    return out


def read_shard(path) -> TraceShard:
    """Read one :func:`write_shard` file back."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty trace shard: {path}")
    header = json.loads(lines[0])
    if header.get("schema") != SHARD_SCHEMA:
        raise ValueError(
            f"{path}: not a {SHARD_SCHEMA} shard "
            f"(schema={header.get('schema')!r})"
        )
    rows = [tuple(json.loads(line)) for line in lines[1:] if line.strip()]
    return TraceShard(
        label=str(header.get("label", "")),
        config=dict(header.get("config") or {}),
        context=header.get("context"),
        metrics=dict(header.get("metrics") or {}),
        rows=rows,
    )


# -- deterministic merging ----------------------------------------------------
_KIND_RANK = {"slice": 0, "instant": 1}


def _sort_key(row: tuple) -> tuple:
    """Total order over packed event rows, a pure function of content.

    ``(track, proc, ts, dur, kind, name, canonical attrs)`` — two rows
    compare equal under this key only when they are the same event, so a
    stable sort of any shard permutation produces one canonical stream.
    """
    name, kind, ts, dur, proc, track, attrs = row
    return (
        track, proc, ts, dur, _KIND_RANK.get(kind, 2), name,
        json.dumps(attrs, sort_keys=True) if attrs else "",
    )


@dataclass
class MergedTrace:
    """A stitched timeline: canonical events plus folded shard metrics."""

    events: list[TraceEvent]
    metrics: MetricsRegistry
    shards: list[str] = field(default_factory=list)
    contexts: list[Optional[dict]] = field(default_factory=list)

    @property
    def trace_ids(self) -> list[str]:
        """Distinct trace ids among the shard contexts (sorted)."""
        return sorted(
            {c["trace_id"] for c in self.contexts if c and c.get("trace_id")}
        )


ShardLike = Union[TraceShard, str, Path]


def merge_shards(shards: Iterable[ShardLike]) -> MergedTrace:
    """Stitch shards into one canonical timeline.

    Event rows from every shard are concatenated and stable-sorted on
    :func:`_sort_key`; shard metric snapshots fold into one registry
    (counters/histograms additive).  The result is independent of the
    order shards are passed in — the order-invariance property the
    hypothesis suite pins byte-for-byte.

    Each event must live in exactly one shard (the sweep runner and the
    CLI guarantee this: worker chunks flush their own shards *instead of*
    shipping rows back when a shard directory is configured).
    """
    loaded: list[TraceShard] = []
    for s in shards:
        loaded.append(s if isinstance(s, TraceShard) else read_shard(s))
    if not loaded:
        raise ValueError("merge_shards needs at least one shard")
    rows = [row for shard in loaded for row in shard.rows]
    rows.sort(key=_sort_key)
    events = [
        TraceEvent(
            name=r[0], kind=r[1], ts=r[2], dur=r[3], proc=r[4], track=r[5],
            attrs=r[6] or None,
        )
        for r in rows
    ]
    metrics = MetricsRegistry()
    # fold in label order so gauge last-writer-wins is deterministic too
    for shard in sorted(loaded, key=lambda s: s.label):
        if shard.metrics:
            metrics.merge(shard.metrics)
    return MergedTrace(
        events=events,
        metrics=metrics,
        shards=[s.label for s in sorted(loaded, key=lambda s: s.label)],
        contexts=[s.context for s in sorted(loaded, key=lambda s: s.label)],
    )


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over the canonical non-wall portion of an event stream.

    Wall-track spans carry host ``perf_counter`` timestamps and
    worker-count-dependent chunk boundaries; everything else is simulated
    time under the content-keyed retention discipline, hence identical
    across re-runs and worker counts.  The digest sorts those events on
    the same key the merger uses, so a serial run's stream and a merged
    worker-shard stream agree bit for bit — the trace-stitch CI gate.
    """
    rows = sorted(
        event_rows(e for e in events if e.track != WALL_TRACK),
        key=_sort_key,
    )
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- span-tree validation -----------------------------------------------------
@dataclass
class SpanTreeReport:
    """What :func:`validate_span_tree` found."""

    spans: int
    traces: list[str]
    roots: list[str]
    orphans: list[TraceEvent]

    @property
    def ok(self) -> bool:
        """True when every parent id resolves within the stream."""
        return not self.orphans

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "traces": self.traces,
            "roots": self.roots,
            "orphans": [
                {
                    "name": e.name,
                    "parent_span_id": (e.attrs or {}).get(PARENT_SPAN_ATTR),
                }
                for e in self.orphans
            ],
            "ok": self.ok,
        }


def validate_span_tree(
    events: Iterable[TraceEvent],
    extra_roots: Sequence[str] = (),
) -> SpanTreeReport:
    """Resolve every ``parent_span_id`` within the stream.

    A parent resolves when it is (a) some event's ``span_id``, (b) the
    implicit root of any trace id seen in the stream, or (c) listed in
    ``extra_roots`` (a client-supplied upstream context whose span lives
    in another system's trace).  Anything else is an orphan — the merge
    dropped a shard or a propagation path failed to thread the context.
    """
    events = list(events)
    known: set[str] = set(extra_roots)
    traces: set[str] = set()
    spans = 0
    for e in events:
        attrs = e.attrs or {}
        sid = attrs.get(SPAN_ID_ATTR)
        if sid:
            known.add(sid)
            spans += 1
        tid = attrs.get(TRACE_ID_ATTR)
        if tid:
            traces.add(tid)
    roots = sorted(root_span_id(tid) for tid in traces)
    known.update(roots)
    orphans = [
        e
        for e in events
        if (e.attrs or {}).get(PARENT_SPAN_ATTR) not in (None, *known)
    ]
    return SpanTreeReport(
        spans=spans, traces=sorted(traces), roots=roots, orphans=orphans
    )


# -- merged exports -----------------------------------------------------------
def write_merged_trace(merged: MergedTrace, path) -> Path:
    """Write the merged timeline as Chrome/Perfetto trace JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_chrome(merged.events, out, metrics=merged.metrics, sort_keys=True)
    return out


def write_merged_events(merged: MergedTrace, path) -> Path:
    """Write the merged timeline as a flat JSONL event dump."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for row in event_rows(merged.events):
            fh.write(json.dumps(row) + "\n")
    return out


def shard_paths(directory) -> list[Path]:
    """The shard files under ``directory``, sorted by name."""
    return sorted(Path(directory).glob("shard-*.jsonl"))
