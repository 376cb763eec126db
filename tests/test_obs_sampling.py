"""The ring-buffer tracer: golden exports, filters, deterministic sampling.

Three properties of the PR-6 tracer rewrite are pinned here:

1. **Bit-exact deferred encoding.**  An unfiltered run exported to
   Chrome-trace/JSONL/CSV is byte-identical to ``tests/data/obs_golden/``,
   which was generated with the pre-rewrite eager tracer — deferred
   materialisation must be observationally invisible.
2. **Filters mean zero buffer writes.**  A category that is filtered out
   never reaches the ring buffer, which the per-category counters (and
   the raw buffer count) make assertable.
3. **Sampling is content-keyed.**  Retention is a pure function of event
   content and the config seed, so a 1-worker and a 2-worker sweep of
   the same grid retain the *identical* event sequence.
"""

import hashlib
from pathlib import Path

import pytest

from repro.apps.gauss import GEConfig, build_ge_trace
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.collectives import binomial_broadcast_pattern, simulate_tree_broadcast
from repro.core.program_sim import ProgramSimulator
from repro.layouts import LAYOUTS
from repro.machine import MachineEmulator
from repro.obs import (
    CATEGORIES,
    MetricsRegistry,
    TraceConfig,
    Tracer,
    tracing,
    write_chrome_trace,
    write_events_csv,
    write_events_jsonl,
)
from repro.obs.config import category_of
from repro.obs.events import _CAT_CODE
from repro.obs.ringbuf import CHUNK_SLOTS, RingBuffer
from repro.sweep.points import expand_grid
from repro.sweep.runner import run_sweep

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "obs_golden"

#: the golden workload — mirror any change in data/regen_obs_golden.py
N, B, LAYOUT, P = 120, 24, "block2d", 4


def _golden_run() -> Tracer:
    trace = build_ge_trace(GEConfig(n=N, b=B, layout=LAYOUTS[LAYOUT](N // B, P)))
    tracer = Tracer()
    with tracing(tracer):
        ProgramSimulator(MEIKO_CS2, CalibratedCostModel(), mode="standard").run(trace)
        ProgramSimulator(MEIKO_CS2, CalibratedCostModel(), mode="causal").run(trace)
        MachineEmulator(MEIKO_CS2, CalibratedCostModel()).run(trace)
        simulate_tree_broadcast(MEIKO_CS2, binomial_broadcast_pattern(P, size=1160))
    return tracer


def _ge_events(config=None, modes=("standard",)):
    """A small traced simulator run; returns the tracer."""
    trace = build_ge_trace(GEConfig(n=96, b=24, layout=LAYOUTS["block2d"](4, 4)))
    tracer = Tracer(config=config)
    with tracing(tracer):
        for mode in modes:
            ProgramSimulator(MEIKO_CS2, CalibratedCostModel(), mode=mode).run(trace)
    return tracer


def _keys(events):
    return [(e.name, e.kind, e.ts, e.dur, e.proc, e.track) for e in events]


class TestGoldenExports:
    """Deferred encoding is byte-identical to the pre-rewrite tracer."""

    @pytest.fixture(scope="class")
    def tracer(self):
        return _golden_run()

    @pytest.mark.parametrize(
        "golden, writer",
        [
            ("chrome.json", write_chrome_trace),
            ("events.jsonl", write_events_jsonl),
            ("events.csv", write_events_csv),
        ],
    )
    def test_export_bytes_match_golden(self, tracer, tmp_path, golden, writer):
        out = tmp_path / golden
        writer(tracer.events, out)
        expected = (GOLDEN_DIR / golden).read_bytes()
        got = out.read_bytes()
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(expected).hexdigest()

    def test_materialisation_is_idempotent(self, tracer):
        first = _keys(tracer.events)
        assert _keys(tracer.events) == first


class TestCategoryFilters:
    def test_filtered_categories_emit_zero_buffer_writes(self):
        tracer = _ge_events(TraceConfig.parse(categories="comm,send,recv"))
        # the hoisted wants("compute") check skips the buffer entirely
        counts = tracer.category_counts()
        assert "compute" not in counts
        assert counts["comm"] > 0 and counts["send"] > 0 and counts["recv"] > 0
        # every buffer record materialises into retained events only
        assert all(e.name != "compute" for e in tracer.events)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["obs.events.comm"] == counts["comm"]
        assert "obs.events.compute" not in counters

    def test_filter_all_comm_keeps_compute_only(self):
        tracer = _ge_events(TraceConfig.parse(categories="compute"))
        counts = tracer.category_counts()
        assert set(counts) == {"compute"}
        # the filtered comm step tallies what it did not record
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["obs.dropped.send"] > 0
        assert counters["obs.dropped.recv"] > 0
        assert counters["obs.dropped.comm"] > 0

    def test_sim_ops_metric_is_retention_independent(self):
        full = _ge_events()
        filtered = _ge_events(TraceConfig.parse(categories="compute"))
        key = "sim.ops.standard"
        assert (
            filtered.metrics.snapshot()["counters"][key]
            == full.metrics.snapshot()["counters"][key]
        )

    def test_wants_reflects_config(self):
        tracer = Tracer(config=TraceConfig.parse(categories="send,recv"))
        assert tracer.wants("send") and tracer.wants("recv")
        assert not tracer.wants("compute") and not tracer.wants("wall")


class TestDeterministicSampling:
    @pytest.mark.parametrize(
        "categories, sample",
        [
            ("comm,send", None),  # filtered: the step expands at emission
            ("comm,send,compute", "send=4"),  # filtered and sampled
            (None, "send=4,recv=4"),  # deferred to materialisation, sampled
        ],
        ids=["eager", "eager-sampled", "deferred-sampled"],
    )
    def test_every_emission_mode_retains_the_filtered_full_stream(
        self, categories, sample
    ):
        """Whenever a comm step expands, it keeps what the retention rule keeps.

        The expected stream is the default config's full stream passed
        through the category filter and the content-keyed 1-in-N rule.
        """
        cfg = TraceConfig.parse(categories=categories, sample=sample)
        modes = ("standard", "causal")
        full = _ge_events(modes=modes).events
        tracer = _ge_events(cfg, modes)
        expected = []
        rejected: dict[str, int] = {}
        for e in full:
            cat = category_of(e.name, e.kind, e.track)
            rate = cfg.rate_of(cat)
            uid = e.attrs["uid"] if cat in ("send", "recv") else 0
            if cfg.enabled(cat) and (
                rate == 1 or tracer._keep(_CAT_CODE[cat], rate, e.proc, e.ts, uid)
            ):
                expected.append(e)
            else:
                rejected[cat] = rejected.get(cat, 0) + 1
        assert 0 < len(expected) < len(full)
        assert tracer.events == expected
        # every comm-step reject is tallied once, as dropped or sampled out
        # (a filtered compute category is skipped before emission instead)
        counters = tracer.metrics.snapshot()["counters"]
        comm_cats = [cat for cat in ("comm", "send", "recv") if cat in rejected]
        tallied = {
            cat: counters.get(f"obs.dropped.{cat}", 0)
            + counters.get(f"obs.sampled.{cat}", 0)
            for cat in comm_cats
        }
        assert tallied == {cat: rejected[cat] for cat in comm_cats}

    def test_sampled_stream_is_subset_and_accounted(self):
        full = _ge_events()
        sampled = _ge_events(TraceConfig.parse(sample="send=4,recv=4"))
        full_keys = set(_keys(full.events))
        sampled_keys = _keys(sampled.events)
        assert set(sampled_keys) <= full_keys
        counters = sampled.metrics.snapshot()["counters"]
        counts = sampled.category_counts()
        for cat in ("send", "recv"):
            retained = counts.get(cat, 0)
            rejected = counters.get(f"obs.sampled.{cat}", 0)
            total = full.category_counts()[cat]
            assert retained + rejected == total
            assert 0 < retained < total

    def test_same_seed_same_retention(self):
        cfg = TraceConfig.parse(sample="send=4,recv=4", seed=3)
        assert _keys(_ge_events(cfg).events) == _keys(_ge_events(cfg).events)

    def test_different_seed_different_retention(self):
        a = _ge_events(TraceConfig.parse(sample="send=4,recv=4", seed=0))
        b = _ge_events(TraceConfig.parse(sample="send=4,recv=4", seed=99))
        assert _keys(a.events) != _keys(b.events)

    @pytest.mark.parametrize(
        "categories, sample",
        [
            # every comm category on: steps expand at materialisation
            ("compute,comm,send,recv", "send=4,recv=4"),
            # recv filtered out: steps expand at emission, in the workers
            ("compute,comm,send", "send=4"),
        ],
        ids=["deferred", "eager"],
    )
    def test_one_and_two_workers_retain_identical_events(self, categories, sample):
        """Same seed => identical retained sets across worker counts.

        Wall spans are excluded by the category filter (worker wall clocks
        differ by construction); everything simulated must match exactly.
        """
        points = expand_grid(96, [12, 24, 48], ["block2d"], with_measured=False)
        cfg = TraceConfig.parse(categories=categories, sample=sample, seed=7)

        def run(workers):
            tracer = Tracer(config=cfg)
            with tracing(tracer):
                result = run_sweep(
                    points, MEIKO_CS2, CalibratedCostModel(), workers=workers,
                )
            return result, tracer

        r1, t1 = run(1)
        r2, t2 = run(2)
        assert r1.digest() == r2.digest()
        assert _keys(t1.events) == _keys(t2.events)
        assert t1.category_counts() == t2.category_counts()
        c1 = t1.metrics.snapshot()["counters"]
        c2 = t2.metrics.snapshot()["counters"]
        # wall spans are per chunk, so their drop count follows the workers
        tallies = lambda c: {
            k: v for k, v in c.items()
            if k.startswith(("obs.sampled.", "obs.dropped."))
            and not k.endswith(".wall")
        }
        assert tallies(c1) == tallies(c2)


class TestTraceConfig:
    def test_round_trip(self):
        cfg = TraceConfig.parse(
            categories="comm,send,recv", sample="send=16,recv=8", seed=5
        )
        assert TraceConfig.from_dict(cfg.to_dict()) == cfg

    def test_default_is_default(self):
        assert TraceConfig().is_default()
        assert TraceConfig.parse().is_default()
        assert not TraceConfig.parse(sample="16").is_default()

    def test_alias_kernel_step_maps_to_compute(self):
        cfg = TraceConfig.parse(categories="kernel_step")
        assert cfg.enabled("compute")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace category"):
            TraceConfig.parse(categories="bogus")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            TraceConfig.parse(sample="send=0")
        with pytest.raises(ValueError, match="integer"):
            TraceConfig.parse(sample="send=fast")

    def test_global_rate_applies_everywhere(self):
        cfg = TraceConfig.parse(sample="16")
        assert all(cfg.rate_of(cat) == 16 for cat in CATEGORIES)


class TestRingBuffer:
    def test_append_iterate_across_chunks(self):
        buf = RingBuffer()
        n = CHUNK_SLOTS + 17
        for i in range(n):
            buf.append((i,))
        assert len(buf) == n
        assert [r[0] for r in buf] == list(range(n))

    def test_iter_from_resumes(self):
        buf = RingBuffer()
        for i in range(CHUNK_SLOTS + 5):
            buf.append((i,))
        start = CHUNK_SLOTS - 2
        assert [r[0] for r in buf.iter_from(start)] == list(
            range(start, CHUNK_SLOTS + 5)
        )
        assert list(buf.iter_from(len(buf))) == []


class TestMetricsMerge:
    def test_merge_folds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(7)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        b.histogram("h").observe(3.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["min"] == 1.0 and h["max"] == 5.0
        assert h["sum"] == pytest.approx(9.0)
