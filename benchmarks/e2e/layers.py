"""Per-layer metrics from the span files of one traced workload run.

Every process of the run (each CLI command, each forked pool worker)
leaves a ``spans-<pid>.jsonl`` file behind (see ``boot.py``).  This
module merges them and reduces the spans to the per-layer metrics:

* ``<span>.calls`` — how often the layer was entered, over all processes;
* ``<span>.self_pct`` — the layer's self time as a share of
  ``layers.total_s``, the run's total attributed time: the self time of
  every span in every process plus ``cli.unattributed_s``, the part of
  each main process's wall time that no span covers.  The shares of one
  run add up to 100%, so they say which layer a speed-up has to come
  from.  Layers a workload never enters read 0%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: every span ``boot.py`` records, grouped by the module (layer) it times
SPAN_NAMES = (
    "apps.build_ge_trace",
    "core.program_sim.standard",
    "core.program_sim.worstcase",
    "core.comm_step.standard",
    "core.comm_step.worstcase",
    "machine.emulator",
    "machine.perturbed_sample",
    "kernel.ge_trace",
    "kernel.ge_plan",
    "kernel.simulate_programs_batch",
    "kernel.evaluate_ge_points_batch",
    "experiments.store_get",
    "experiments.store_put",
    "sweep.run_sweep",
    "sweep.decide_executor",
    "sweep.run_point_batch",
    "sweep.chunk",
    "sweep.point",
    "serve.http",
    "serve.handle",
    "serve.protocol_from_doc",
    "serve.protocol_fingerprint",
    "serve.batch",
    "uq.reduce_replicates",
    "calib.measure_emulator",
    "calib.model_init",
    "calib.run_mcmc",
    "obs.absorb_rows",
    "obs.materialize",
    "obs.write_chrome_trace",
    "obs.manifest_finish",
    "obs.manifest_write",
)


@dataclass(frozen=True)
class Span:
    pid: int
    name: str
    start: float
    end: float
    self_s: float
    parent: str | None
    thread: int

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """All spans, counters and values of one run, merged across processes."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    #: pid -> stamps of each main (CLI) process
    mains: dict = field(default_factory=dict)

    def add(self, record: dict) -> None:
        pid = record["pid"]
        self.spans.extend(Span(pid, *s) for s in record["spans"])
        for name, amount in record["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + amount
        self.values.update(record["values"])
        if record.get("main"):
            self.mains[pid] = record["stamps"]


def load(directory: Path) -> Trace:
    """Merge every ``spans-*.jsonl`` under ``directory``."""
    trace = Trace()
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            trace.add(json.loads(line))
    return trace


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total self seconds)``."""
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, self_s + s.self_s)
    return out


def pool_busy_ratio(spans: list[Span], main_pids: Iterable[int]) -> float:
    """Worker busy time over pool capacity, across every process-pool sweep.

    A pool's capacity is its worker count times the interval from its
    first chunk's start to its last chunk's end, so the tail where one
    worker still runs the heaviest point while the others idle shows up
    as lost capacity.  0 when no sweep ran a process pool.
    """
    mains = set(main_pids)
    chunks = [s for s in spans if s.name == "sweep.chunk" and s.pid not in mains]
    busy = capacity = 0.0
    for sweep in (s for s in spans if s.name == "sweep.run_sweep" and s.pid in mains):
        inside = [c for c in chunks if sweep.start <= c.start and c.end <= sweep.end]
        if inside:
            workers = len({c.pid for c in inside})
            window = max(c.end for c in inside) - min(c.start for c in inside)
            busy += sum(c.dur for c in inside)
            capacity += workers * window
    return busy / capacity if capacity else 0.0


def layer_metrics(trace: Trace, windows: dict[int, tuple[float, float]]) -> dict:
    """The per-layer metrics of one traced run.

    ``windows`` maps each main process to the wall-time interval its
    spans are expected to cover: ``[t_main, t_end]`` for a CLI command,
    the load window for the server.
    """
    main_wall = sum(hi - lo for lo, hi in windows.values())
    unattributed = sum(
        (hi - lo) - covered(((s.start, s.end) for s in trace.spans if s.pid == pid), lo, hi)
        for pid, (lo, hi) in windows.items()
    )
    per_span = self_times(trace.spans)
    total = sum(self_s for _, self_s in per_span.values()) + unattributed
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s = per_span.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_pct"] = 100.0 * self_s / total
    gets = per_span.get("experiments.store_get", (0, 0.0))[0]
    batches = per_span.get("serve.batch", (0, 0.0))[0]
    points = [s.dur for s in trace.spans if s.name == "sweep.point"]
    out.update({
        "layers.total_s": total,
        "cli.import_s": sum(m["t_import"] - m["t_start"] for m in trace.mains.values()),
        "cli.unattributed_s": unattributed,
        "cli.unattributed_pct": 100.0 * unattributed / main_wall,
        "calib.log_posterior.calls": trace.counts.get("calib.log_posterior.calls", 0),
        "calib.accept_rate": trace.values.get("calib.accept_rate", 0.0),
        "experiments.store_get.hit_ratio": (
            trace.counts.get("experiments.store_get.hits", 0) / gets if gets else 0.0
        ),
        "sweep.points_computed": trace.counts.get("sweep.points_computed", 0),
        "sweep.points_cached": trace.counts.get("sweep.points_cached", 0),
        "sweep.chunks": trace.counts.get("sweep.chunks", 0),
        "sweep.pool_busy_ratio": pool_busy_ratio(trace.spans, windows),
        "sweep.heaviest_point_s": max(points, default=0.0),
        "serve.batch.mean_size": (
            trace.counts.get("serve.batch.points", 0) / batches if batches else 0.0
        ),
        "uq.replicates": trace.counts.get("uq.replicates", 0),
        "obs.events": trace.counts.get("obs.events", 0),
    })
    return out
