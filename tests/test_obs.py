"""Tests for the observability layer: tracer, metrics, exporters, manifests."""

import csv
import json

import pytest

from repro.core import MEIKO_CS2, simulate_standard
from repro.apps import sample_pattern
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    RunRecord,
    TraceEvent,
    Tracer,
    bucket_sums,
    default_manifest_path,
    events_from_chrome_trace,
    get_tracer,
    is_enabled,
    loggp_dict,
    set_tracer,
    to_chrome_trace,
    tracing,
    write_chrome_trace,
    write_events_csv,
    write_events_jsonl,
)


class TestTracerApi:
    def test_slice_records_interval(self):
        tr = Tracer()
        tr.slice("compute", proc=2, ts=10.0, dur=5.0, step=3)
        (e,) = tr.events
        assert (e.name, e.kind, e.proc, e.ts, e.dur) == ("compute", "slice", 2, 10.0, 5.0)
        assert e.attrs == {"step": 3}
        assert e.end == 15.0

    def test_instant_records_point(self):
        tr = Tracer()
        tr.instant("tick", ts=4.0, proc=1)
        (e,) = tr.events
        assert e.kind == "instant" and e.dur == 0.0

    def test_in_track_routes_and_restores(self):
        tr = Tracer()
        with tr.in_track("emulator"):
            tr.slice("compute", proc=0, ts=0.0, dur=1.0)
        tr.slice("compute", proc=0, ts=1.0, dur=1.0)
        assert [e.track for e in tr.events] == ["emulator", "sim"]

    def test_span_lands_on_wall_track(self):
        tr = Tracer()
        with tr.span("setup"):
            pass
        (e,) = tr.events
        assert e.track == "wall" and e.dur >= 0.0

    def test_metrics_shortcuts(self):
        tr = Tracer()
        tr.count("runs")
        tr.count("runs", 2)
        tr.observe("latency", 5.0)
        tr.gauge("procs", 8)
        snap = tr.metrics.snapshot()
        assert snap["counters"]["runs"] == 3
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["gauges"]["procs"] == 8

    def test_emit_comm_step_from_simulator(self):
        result = simulate_standard(MEIKO_CS2, sample_pattern(1160))
        tr = Tracer()
        tr.emit_comm_step(
            result.timeline.op_records(), result.ctimes,
            result.timeline.start_times, algo="standard",
        )
        names = {e.name for e in tr.events}
        assert "comm" in names and "send" in names and "recv" in names
        # every op slice lies inside its processor's comm phase
        comm = {e.proc: e for e in tr.events if e.name == "comm"}
        for e in tr.events:
            if e.name in ("send", "recv"):
                phase = comm[e.proc]
                assert phase.ts <= e.ts and e.end <= phase.end + 1e-9


class TestAmbientTracer:
    def test_default_is_disabled(self):
        assert get_tracer() is NULL_TRACER
        assert not is_enabled()

    def test_tracing_installs_and_restores(self):
        tr = Tracer()
        with tracing(tr) as got:
            assert got is tr and get_tracer() is tr and is_enabled()
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_resets(self):
        set_tracer(Tracer())
        try:
            assert is_enabled()
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        nt.slice("x", proc=0, ts=0, dur=1)
        nt.instant("x", ts=0)
        nt.count("x")
        nt.observe("x", 1.0)
        nt.gauge("x", 1.0)
        with nt.span("x"):
            pass
        with nt.in_track("t"):
            pass
        nt.emit_comm_step(None, {}, {}, algo="none")
        assert nt.events == [] and len(nt.metrics) == 0


class TestMetrics:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_streams(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 6.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3 and snap["min"] == 1.0 and snap["max"] == 6.0
        assert snap["mean"] == pytest.approx(3.0)

    def test_registry_reuses_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert len(reg) == 1


def _some_events():
    return [
        TraceEvent(name="compute", kind="slice", ts=0.0, dur=3.0, proc=0),
        TraceEvent(name="comm", kind="slice", ts=3.0, dur=4.0, proc=0),
        TraceEvent(name="send", kind="slice", ts=3.0, dur=1.0, proc=0,
                   attrs={"peer": 1, "bytes": 8}),
        TraceEvent(name="done", kind="instant", ts=7.0, proc=0),
    ]


class TestExporters:
    def test_jsonl_round_trips_fields(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_events_jsonl(_some_events(), path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[2]["attrs"] == {"peer": 1, "bytes": 8}
        assert rows[0]["ts"] == 0.0 and rows[1]["dur"] == 4.0

    def test_csv_has_header_and_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        write_events_csv(_some_events(), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "kind", "ts", "dur", "proc", "track", "attrs"]
        assert len(rows) == 5

    def test_chrome_trace_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "t.json"
        tr = Tracer()
        tr.count("x")
        events = _some_events()
        write_chrome_trace(events, path, metrics=tr.metrics)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["metrics"]["counters"]["x"] == 1
        back = events_from_chrome_trace(doc)
        orig_sums, orig_mk = bucket_sums(events, num_procs=1)
        back_sums, back_mk = bucket_sums(back, num_procs=1)
        assert back_sums == orig_sums and back_mk == orig_mk

    def test_chrome_trace_synthesises_wait(self):
        doc = to_chrome_trace(_some_events())
        waits = [e for e in doc["traceEvents"] if e.get("name") == "wait"]
        # comm covers [3, 7), the send covers [3, 4) -> wait [4, 7)
        assert any(e["ph"] == "B" and e["ts"] == pytest.approx(4.0) for e in waits)

    def test_unmatched_end_is_rejected(self):
        doc = {"traceEvents": [
            {"ph": "E", "ts": 1.0, "pid": 0, "tid": 0, "name": "x"},
        ]}
        with pytest.raises(ValueError, match="unmatched"):
            events_from_chrome_trace(doc)

    def test_unclosed_begin_is_rejected(self):
        doc = {"traceEvents": [
            {"ph": "B", "ts": 1.0, "pid": 0, "tid": 0, "name": "x"},
        ]}
        with pytest.raises(ValueError, match="unclosed"):
            events_from_chrome_trace(doc)


class TestRunRecord:
    def test_begin_note_finish_write_load(self, tmp_path):
        tr = Tracer()
        tr.slice("compute", proc=0, ts=0.0, dur=1.0)
        tr.count("runs")
        rec = RunRecord.begin("predict", ["predict", "-n", "120"])
        rec.note(
            params=loggp_dict(MEIKO_CS2), engine="standard",
            workload={"n": 120, "b": 24}, makespan_us=123.5, custom="x",
        )
        rec.finish(tracer=tr)
        path = rec.write(tmp_path / "r.json")
        back = RunRecord.load(path)
        assert back.command == "predict" and back.status == "ok"
        assert back.params["P"] == MEIKO_CS2.P
        assert back.makespan_us == 123.5
        assert back.event_count == 1
        assert back.extra["custom"] == "x"
        assert back.wall_s > 0 and back.events_per_sec > 0
        assert back.metrics["counters"]["runs"] == 1

    def test_default_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        path = default_manifest_path("sweep")
        assert path.parent == tmp_path / "runs"
        assert path.name.startswith("sweep-")

    def test_write_creates_directories(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "deep" / "runs"))
        rec = RunRecord.begin("ops")
        out = rec.finish().write()
        assert out.exists()
        assert json.loads(out.read_text())["schema"] == "repro.run-record/v1"


class TestInstrumentedEngines:
    def test_des_engine_counts_events(self):
        from repro.des import Environment

        tr = Tracer()
        with tracing(tr):
            env = Environment()

            def proc(env):
                yield env.timeout(1.0)
                yield env.timeout(2.0)

            env.process(proc(env))
            env.run()
        assert tr.metrics.counter("des.events").value > 0

    def test_program_simulator_emits_per_mode_track(self):
        from repro.apps.gauss import GEConfig, build_ge_trace
        from repro.core import CalibratedCostModel
        from repro.core.program_sim import ProgramSimulator
        from repro.layouts import LAYOUTS

        trace = build_ge_trace(
            GEConfig(n=120, b=24, layout=LAYOUTS["diagonal"](5, 4))
        )
        tr = Tracer()
        with tracing(tr):
            ProgramSimulator(MEIKO_CS2, CalibratedCostModel(), mode="worstcase").run(trace)
        tracks = {e.track for e in tr.events}
        assert tracks == {"sim:worstcase"}
        assert {"compute", "comm", "send", "recv"} <= {e.name for e in tr.events}

    def test_emulator_emits_on_emulator_track(self):
        from repro.apps.gauss import GEConfig, build_ge_trace
        from repro.core import CalibratedCostModel
        from repro.layouts import LAYOUTS
        from repro.machine import MachineEmulator

        trace = build_ge_trace(
            GEConfig(n=120, b=24, layout=LAYOUTS["diagonal"](5, 4))
        )
        tr = Tracer()
        with tracing(tr):
            MachineEmulator(MEIKO_CS2, CalibratedCostModel()).run(trace)
        assert {e.track for e in tr.events} == {"emulator"}
        assert tr.metrics.counter("emulator.runs").value == 1

    def test_disabled_tracer_means_no_events(self):
        from repro.apps.gauss import GEConfig, build_ge_trace
        from repro.core import CalibratedCostModel
        from repro.core.program_sim import ProgramSimulator
        from repro.layouts import LAYOUTS

        trace = build_ge_trace(
            GEConfig(n=120, b=24, layout=LAYOUTS["diagonal"](5, 4))
        )
        assert not is_enabled()
        report = ProgramSimulator(MEIKO_CS2, CalibratedCostModel()).run(trace)
        assert report.total_us > 0
        assert NULL_TRACER.events == []
