"""The Chrome exporter (repro.obs.export) against the writer it replaced.

The exporter writes JSON text from per-lane templates.  The dict-building
writer it replaced is kept below, verbatim, as the reference:
``_synth_wait`` (linear wait synthesis), ``_nested_begin_end`` (B/E
records as dicts) and ``_to_chrome_trace_reference`` (per-track
filtering around them).  Three properties are pinned here:

1. **Wait synthesis is exact.**  The reference ``_synth_wait`` bisects into
   the sorted ops of each ``comm`` phase; it must return the identical list
   to the quadratic scan it replaced (hypothesis-verified on phase edges,
   zero-length and straddling ops), and the exporter's lanes must equal
   the reference export on the same lanes.
2. **One-pass grouping is exact.**  ``to_chrome_trace`` groups events
   once by ``(track, proc)``; it must equal the reference that re-filtered
   the stream per track and per processor.
3. **Streamed writes are the reference dump, byte for byte.**
   ``write_chrome_trace`` and ``_write_chrome(sort_keys=True)`` (the
   ``trace-merge`` writer) write ``json.dumps(reference, sort_keys=...)``,
   also for the values JSON treats specially (non-finite floats, ``-0.0``,
   bools, ``None``, nested lists, escapes, non-``str`` keys, an attr named
   ``dur_us``), without holding the document: a ``tracemalloc`` bound
   guards the streaming.
"""

import json
import math
import tempfile
import tracemalloc
from bisect import bisect_left
from itertools import islice
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, to_chrome_trace, write_chrome_trace
from repro.obs.events import WALL_TRACK, TraceEvent
from repro.obs.export import _COMM_OPS, _DUR_KEY, _WAIT_EPS, _tid, _write_chrome
from repro.obs.telemetry import TraceShard, merge_shards, write_merged_trace

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - test extras absent
    HAVE_HYPOTHESIS = False


# -- references: the dict-building writer, verbatim ------------------------------
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


# the quadratic wait scan ``_synth_wait`` replaced
def _synth_wait_reference(slices):
    """Wait slices for the uncovered parts of each ``comm`` phase."""
    out = []
    ops = sorted(
        (s for s in slices if s.name in _COMM_OPS), key=lambda s: (s.ts, s.end)
    )
    for phase in (s for s in slices if s.name == "comm"):
        cursor = phase.ts
        for op in ops:
            if op.ts < phase.ts - _WAIT_EPS or op.end > phase.end + _WAIT_EPS:
                continue
            if op.ts - cursor > _WAIT_EPS:
                out.append(
                    TraceEvent(
                        name="wait", kind="slice", ts=cursor, dur=op.ts - cursor,
                        proc=phase.proc, track=phase.track,
                    )
                )
            cursor = max(cursor, op.end)
        if phase.end - cursor > _WAIT_EPS:
            out.append(
                TraceEvent(
                    name="wait", kind="slice", ts=cursor, dur=phase.end - cursor,
                    proc=phase.proc, track=phase.track,
                )
            )
    return out


def _to_chrome_trace_reference(events, metrics=None, synthesize_wait=True):
    events = list(events)
    tracks = []
    for e in events:
        if e.track not in tracks:
            tracks.append(e.track)
    trace_events = []
    for pid, track in enumerate(tracks):
        trace_events.append(
            {"ph": "M", "ts": 0, "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": track}}
        )
        mine = [e for e in events if e.track == track]
        for proc in sorted({e.proc for e in mine}):
            trace_events.append(
                {"ph": "M", "ts": 0, "pid": pid, "tid": _tid(proc),
                 "name": "thread_name",
                 "args": {"name": f"P{proc}" if proc >= 0 else "machine"}}
            )
            slices = [e for e in mine if e.proc == proc and e.kind == "slice"]
            if synthesize_wait and track != WALL_TRACK:
                slices = slices + _synth_wait(slices)
            trace_events.extend(_nested_begin_end(slices, pid))
            for e in mine:
                if e.proc == proc and e.kind == "instant":
                    ev = {"ph": "i", "ts": e.ts, "pid": pid, "tid": _tid(proc),
                          "name": e.name, "s": "t"}
                    if e.attrs:
                        ev["args"] = dict(e.attrs)
                    trace_events.append(ev)
    doc = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics.snapshot()}
    return doc


def _reference_dump(events, metrics=None, synthesize_wait=True, sort_keys=False):
    """What the replaced writer wrote: the one-shot dump of the reference."""
    doc = _to_chrome_trace_reference(
        events, metrics=metrics, synthesize_wait=synthesize_wait
    )
    return json.dumps(doc, sort_keys=sort_keys)


def _written(events, metrics=None, synthesize_wait=True, sort_keys=False):
    """The file ``write_chrome_trace`` (or, sorted, ``_write_chrome``) writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        if sort_keys:
            _write_chrome(events, path, metrics=metrics,
                          synthesize_wait=synthesize_wait, sort_keys=True)
        else:
            write_chrome_trace(events, path, metrics=metrics,
                               synthesize_wait=synthesize_wait)
        return path.read_text()


def _outcome(write, *args, **kwargs):
    """The text ``write`` returns, or the type of the error it raises."""
    try:
        return write(*args, **kwargs)
    except (TypeError, ValueError) as exc:  # e.g. mixed key types under sort_keys
        return type(exc)


# -- streams -------------------------------------------------------------------
def _slice(name, ts, dur, proc=0, track="sim:standard", attrs=None):
    return TraceEvent(name=name, kind="slice", ts=ts, dur=dur, proc=proc,
                      track=track, attrs=attrs)


def _instant(name, ts, proc=0, track="sim:standard", attrs=None):
    return TraceEvent(name=name, kind="instant", ts=ts, proc=proc, track=track,
                      attrs=attrs)


def _steps(track, procs, steps):
    """Compute then a comm phase with one send and one recv, per step."""
    out = []
    for step in range(steps):
        t = step * 10.0
        for p in range(procs):
            out.append(_slice("compute", t, 2.0 + 0.25 * p, p, track))
            out.append(_slice("comm", t + 3.0, 5.0, p, track, {"algo": "standard"}))
            out.append(_slice("send", t + 3.5, 1.0, p, track,
                              {"peer": (p + 1) % procs, "bytes": 64, "uid": step}))
            out.append(_slice("recv", t + 5.0, 0.5, p, track,
                              {"peer": (p - 1) % procs, "bytes": 64,
                               "uid": step, "arrival": t + 4.75}))
    return out


def _metrics():
    reg = MetricsRegistry()
    reg.counter("points").inc(3)
    reg.histogram("latency_us").observe(12.5)
    return reg


def _mixed_stream():
    """Several tracks, machine-level events, instants with and without attrs."""
    return [
        *_steps("sim:standard", 3, 4),
        _instant("barrier", 40.0, proc=1),
        _instant("fault", 12.0, proc=0, attrs={"kind": "drop", "uid": 7}),
        *_steps("emulator", 2, 3),
        _slice("sweep", 0.0, 1e6, proc=-1, track=WALL_TRACK, attrs={"points": 4}),
        _slice("sweep.point", 10.0, 5e5, proc=-1, track=WALL_TRACK),
        _instant("gc", 7.0, proc=-1, track="emulator"),
        _slice("comm", 100.0, 4.0, proc=-1, track="emulator"),
    ]


STREAMS = {
    "empty": [],
    "wall_only": [
        _slice("sweep", 0.0, 2e6, proc=-1, track=WALL_TRACK, attrs={"points": 2}),
        _slice("sweep.chunk", 5.0, 1e6, proc=-1, track=WALL_TRACK),
    ],
    "instants": [
        _instant("plain", 1.0, proc=0),
        _instant("tagged", 2.0, proc=0, attrs={"n": 1, "why": "x"}),
        _instant("empty_attrs", 3.0, proc=2, attrs={}),
    ],
    "machine_level": [
        _slice("comm", 0.0, 4.0, proc=-1, track="emulator"),
        _slice("send", 1.0, 1.0, proc=-1, track="emulator"),
        _instant("tick", 2.0, proc=-1, track="emulator"),
    ],
    "several_tracks": _mixed_stream(),
    "json_values": [
        _slice("compute", 0.0, 2.0, attrs={"ok": True, "none": None,
                                           "nested": [1, [2.5, -0.0], "x"]}),
        _slice("comm", -0.0, 5.0, attrs={"algo": 'q"uote\\ \t\x01 nön ✓'}),
        _slice("send", 1.0, 0.0, attrs={"big": 2**70, "neg": -3, "f": 1e-300}),
        _slice("recv", 4.0, 1.0, attrs={_DUR_KEY: "shadowed", "after": 1}),
        _slice("compute", 6.0, math.inf, attrs={"%s {0} %%": "{}%d"}),
        _slice('na"me %s {}', 7.0, 1.5, track="tr\u00e4ck %d {x}"),
        _slice("compute", -math.inf, 1.0, proc=2),
        _instant("tick", -0.0, attrs={"why": ["a", None, False]}),
    ],
}


if HAVE_HYPOTHESIS:
    _OFFSET = st.sampled_from(
        [-2 * _WAIT_EPS, -_WAIT_EPS, -_WAIT_EPS / 2, 0.0,
         _WAIT_EPS / 2, _WAIT_EPS, 2 * _WAIT_EPS]
    )

    @st.composite
    def _lane(draw):
        """One processor's slices: comm phases, their ops, a compute slice."""
        phases, t = [], 0.0
        for _ in range(draw(st.integers(1, 4))):
            t += draw(st.integers(-2, 3))  # negative: overlapping phases
            dur = float(draw(st.integers(0, 8)))
            phases.append(_slice("comm", t, dur))
            t += dur
        edge = lambda phase: draw(st.sampled_from([phase.ts, phase.end]))
        ops = []
        for phase in phases:
            for _ in range(draw(st.integers(0, 4))):  # 0: a phase with no ops
                where = draw(st.sampled_from(["edge", "inside", "anywhere"]))
                if where == "edge":
                    start = edge(phase) + draw(_OFFSET)
                elif where == "inside":
                    start = draw(st.floats(phase.ts, phase.end))
                else:  # may straddle either edge of any phase
                    start = draw(st.floats(min(-3.0, t + 3.0), t + 3.0))
                length = draw(st.sampled_from(["zero", "edge", "free"]))
                if length == "zero":
                    dur = 0.0
                elif length == "edge":
                    dur = max(0.0, edge(phase) + draw(_OFFSET) - start)
                else:
                    dur = draw(st.floats(0.0, 6.0))
                ops.append(_slice(draw(st.sampled_from(_COMM_OPS)), start, dur))
        # t reaches -8 after four empty phases that each start 2 earlier:
        # the lower bound follows it so the interval is never empty
        extra = [_slice("compute", draw(st.floats(min(-3.0, t), t)), 1.0)]
        return draw(st.permutations(phases + ops + extra))

    _events = st.lists(
        st.builds(
            TraceEvent,
            name=st.sampled_from(["compute", "comm", "send", "recv", "x"]),
            kind=st.sampled_from(["slice", "instant"]),
            ts=st.floats(0, 100, allow_nan=False),
            dur=st.floats(0, 20, allow_nan=False),
            proc=st.integers(-1, 3),
            track=st.sampled_from(["sim:standard", "emulator", WALL_TRACK]),
            attrs=st.one_of(st.none(), st.just({"k": 1})),
        ),
        max_size=40,
    )

    # The values JSON treats specially: non-finite floats and -0.0, bools,
    # None, big ints, nested lists and dicts, strings with quotes, control
    # characters and non-ASCII text, the ``%`` and braces the exporter's
    # templates escape, non-``str`` attr keys and an attr named ``dur_us``.
    _ODD_TEXT = st.one_of(
        st.sampled_from(['q"uote', "back\\slash", "tab\tnl\n\x00\x1f",
                         "nön-ascii ✓ \U0001f600", "%s %d %% {} {0}", ""]),
        st.text(max_size=6),
    )
    _TIME = st.one_of(
        st.floats(-5, 100, allow_nan=False),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0]),
    )
    _VALUE = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                  _TIME, st.floats(), _ODD_TEXT),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(_ODD_TEXT, inner, max_size=2),
        ),
        max_leaves=6,
    )
    _json_events = st.lists(
        st.builds(
            TraceEvent,
            name=st.one_of(
                st.sampled_from(["compute", "comm", "send", "recv"]), _ODD_TEXT
            ),
            kind=st.sampled_from(["slice", "instant"]),
            ts=_TIME,
            dur=_TIME,
            proc=st.integers(-1, 3),
            track=st.one_of(
                st.sampled_from(["sim:standard", "emulator", WALL_TRACK]),
                _ODD_TEXT,
            ),
            attrs=st.one_of(
                st.none(),
                st.dictionaries(
                    st.one_of(st.sampled_from(["k", "peer", _DUR_KEY]),
                              _ODD_TEXT, st.integers(0, 3)),
                    _VALUE, max_size=4,
                ),
            ),
        ),
        max_size=40,
    )


# -- 1. wait synthesis ------------------------------------------------------------
class TestWaitSynthesis:
    def test_matches_reference_on_a_regular_lane(self):
        slices = _steps("sim:standard", 1, 20)
        assert _synth_wait(slices) == _synth_wait_reference(slices)
        assert _synth_wait(slices)  # the fixture does have uncovered stretches

    def test_phase_without_ops_is_one_wait(self):
        phase = _slice("comm", 2.0, 3.0)
        assert _synth_wait([phase]) == [
            TraceEvent(name="wait", kind="slice", ts=2.0, dur=3.0, proc=0,
                       track="sim:standard")
        ]
        begins = [(ev["name"], ev["ts"], ev["args"]) for ev in
                  to_chrome_trace([phase])["traceEvents"] if ev["ph"] == "B"]
        assert begins == [("comm", 2.0, {_DUR_KEY: 3.0}),
                          ("wait", 2.0, {_DUR_KEY: 3.0})]

    def test_regular_lane_export_equals_reference_export(self):
        slices = _steps("sim:standard", 1, 20)
        for sort_keys in (False, True):
            assert _written(slices, sort_keys=sort_keys) == _reference_dump(
                slices, sort_keys=sort_keys
            )

    if HAVE_HYPOTHESIS:

        @given(slices=_lane())
        @example(slices=[  # the lowest lane: four empty phases, t = -8
            _slice("comm", -2.0, 0.0), _slice("comm", -4.0, 0.0),
            _slice("comm", -6.0, 0.0), _slice("comm", -8.0, 0.0),
            _slice("send", -5.0, 1.0), _slice("recv", -8.0, 0.0),
            _slice("compute", -8.0, 1.0),
        ])
        @settings(max_examples=400, deadline=None)
        def test_matches_quadratic_reference(self, slices):
            assert _synth_wait(slices) == _synth_wait_reference(slices)

        @given(slices=_lane(), sort_keys=st.booleans())
        @settings(max_examples=400, deadline=None)
        def test_lane_export_equals_reference_export(self, slices, sort_keys):
            assert _written(slices, sort_keys=sort_keys) == _reference_dump(
                slices, sort_keys=sort_keys
            )


# -- 2. one-pass grouping ----------------------------------------------------------
class TestGrouping:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    @pytest.mark.parametrize("synthesize_wait", [True, False])
    def test_matches_filtering_reference(self, name, synthesize_wait):
        events = STREAMS[name]
        assert to_chrome_trace(events, synthesize_wait=synthesize_wait) == (
            _to_chrome_trace_reference(events, synthesize_wait=synthesize_wait)
        )

    def test_accepts_a_one_shot_iterator(self):
        events = _mixed_stream()
        assert to_chrome_trace(iter(events), metrics=_metrics()) == (
            _to_chrome_trace_reference(events, metrics=_metrics())
        )

    def test_proc_of_an_unknown_kind_still_gets_a_thread(self):
        events = [TraceEvent(name="mark", kind="counter", ts=1.0, proc=3)]
        doc = to_chrome_trace(events)
        assert doc == _to_chrome_trace_reference(events)
        assert [ev["name"] for ev in doc["traceEvents"]] == [
            "process_name", "thread_name",
        ]

    if HAVE_HYPOTHESIS:

        @given(events=_events, synthesize_wait=st.booleans())
        @settings(max_examples=200, deadline=None)
        def test_random_streams_match_reference(self, events, synthesize_wait):
            assert to_chrome_trace(events, synthesize_wait=synthesize_wait) == (
                _to_chrome_trace_reference(events, synthesize_wait=synthesize_wait)
            )


# -- 3. streamed writes ------------------------------------------------------------
class TestStreamedWrites:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    @pytest.mark.parametrize("metrics", [None, "registry"])
    @pytest.mark.parametrize("synthesize_wait", [True, False])
    def test_bytes_equal_one_shot_dump(self, tmp_path, name, metrics, synthesize_wait):
        events = STREAMS[name]
        reg = _metrics() if metrics else None
        path = tmp_path / "t.json"
        write_chrome_trace(events, path, metrics=reg, synthesize_wait=synthesize_wait)
        text = path.read_text()
        assert text == _reference_dump(
            events, metrics=reg, synthesize_wait=synthesize_wait
        )
        assert text == json.dumps(
            to_chrome_trace(events, metrics=reg, synthesize_wait=synthesize_wait)
        )

    @pytest.mark.parametrize("metrics", [None, "registry"])
    def test_sorted_keys_equal_one_shot_dump(self, tmp_path, metrics):
        events = _mixed_stream()
        reg = _metrics() if metrics else None
        path = tmp_path / "t.json"
        _write_chrome(events, path, metrics=reg, sort_keys=True)
        assert path.read_text() == _reference_dump(events, metrics=reg, sort_keys=True)
        assert path.read_text() == json.dumps(
            to_chrome_trace(events, metrics=reg), sort_keys=True
        )

    @pytest.mark.parametrize("name", sorted(STREAMS))
    @pytest.mark.parametrize("metrics", [None, "registry"])
    @pytest.mark.parametrize("synthesize_wait", [True, False])
    def test_sorted_bytes_equal_reference_dump(self, name, metrics, synthesize_wait):
        events = STREAMS[name]
        reg = _metrics() if metrics else None
        assert _written(
            events, metrics=reg, synthesize_wait=synthesize_wait, sort_keys=True
        ) == _reference_dump(
            events, metrics=reg, synthesize_wait=synthesize_wait, sort_keys=True
        )

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_inexpressible_records_are_encoded_whole(self, sort_keys):
        """Non-``str`` attr keys and a ``dur_us`` attr go through the encoder.

        Under ``sort_keys`` a key of another type cannot be ordered against
        ``dur_us``: both writers raise the encoder's ``TypeError``.
        """
        for attrs in ({_DUR_KEY: 7, "k": "v"}, {1: "one", "k": None},
                      {2.5: [1]}, {None: 0, True: 1}):
            events = [_slice("send", 1.0, 2.0, attrs=attrs),
                      _instant("mark", 1.5, attrs=attrs)]
            assert _outcome(_written, events, sort_keys=sort_keys) == (
                _outcome(_reference_dump, events, sort_keys=sort_keys)
            )
        assert _written([_slice("send", 1.0, 2.0, attrs={1: "one"})]) == (
            _reference_dump([_slice("send", 1.0, 2.0, attrs={1: "one"})])
        )

    def test_merged_trace_equals_sorted_one_shot_dump(self, tmp_path):
        rows = [(e.name, e.kind, e.ts, e.dur, e.proc, e.track, e.attrs)
                for e in _mixed_stream()]
        merged = merge_shards([
            TraceShard(
                label=f"chunk-{i:04d}", config={}, context=None,
                metrics={"counters": {"points": 2.0}, "gauges": {},
                         "histograms": {}},
                rows=part,
            )
            for i, part in enumerate((rows[::2], rows[1::2]))
        ])
        path = write_merged_trace(merged, tmp_path / "merged.json")
        assert path.read_text() == _reference_dump(
            merged.events, metrics=merged.metrics, sort_keys=True
        )
        assert path.read_text() == json.dumps(
            to_chrome_trace(merged.events, metrics=merged.metrics), sort_keys=True
        )

    if HAVE_HYPOTHESIS:

        @given(events=_json_events, synthesize_wait=st.booleans(),
               sort_keys=st.booleans())
        @example(  # signed zeros on one lane: one dict slot, two spellings
            events=[_slice("comm", 0.0, 3.0), _slice("send", -0.0, 1.0),
                    _slice("recv", 2.0, -0.0), _slice("compute", 0.0, 0.0)],
            synthesize_wait=True, sort_keys=False,
        )
        @example(  # an op ending at -0.0 on a cursor at 0.0: the cursor keeps 0.0
            events=[_slice("comm", 0.0, 5.0), _slice("send", -0.0, -0.0),
                    _slice("recv", 2.0, 1.0)],
            synthesize_wait=True, sort_keys=False,
        )
        @settings(max_examples=300, deadline=None)
        def test_random_json_values_equal_reference_dump(
            self, events, synthesize_wait, sort_keys
        ):
            kwargs = dict(synthesize_wait=synthesize_wait, sort_keys=sort_keys)
            assert _outcome(_written, events, **kwargs) == (
                _outcome(_reference_dump, events, **kwargs)
            )

    def test_peak_memory_is_under_half_the_one_shot_dump(self, tmp_path):
        events = [e for track in ("sim:standard", "sim:worstcase")
                  for e in _steps(track, 8, 320)]
        assert 19_000 <= len(events) <= 22_000

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed = peak(lambda: write_chrome_trace(events, tmp_path / "t.json"))
        one_shot = peak(lambda: json.dumps(to_chrome_trace(events)))
        assert streamed < one_shot / 2, (streamed, one_shot)
