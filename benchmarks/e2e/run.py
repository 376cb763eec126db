"""End-to-end benchmark of the ``repro`` CLI paths users run.

Runs one or all of four workloads through the real CLI in fresh child
processes, checks that their outputs are correct, and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python benchmarks/e2e/run.py --workload fig7-sweep --seed 3 --seconds 10
    python benchmarks/e2e/run.py --workload serve-zipf --trace 1
    python benchmarks/e2e/run.py --repeat 5 --out runs-a/   # all workloads
    python benchmarks/e2e/compare.py runs-a/ runs-b/

A run first measures set-up (child start until ``repro.cli.main`` is
entered, or until ``repro serve`` prints its listening line) a few
times, then repeats the workload's unit of work until ``--seconds`` have
passed, at least once, and reports medians over the units.  With
``--trace 1`` it instead alternates an untraced and a traced unit (the
traced one under ``boot.py``'s layer wrappers) and reports the
per-layer metrics.  See README.md for the workloads and metrics.

Children run with ``REPRO_FAST`` removed from their environment (the
default engine users get), with ``PYTHONPATH`` pointing at this
checkout's ``src/``, and with a fresh ``REPRO_RUNS_DIR``; everything
they write lands in a scratch directory inside the checkout that is
removed on exit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BOOT = HERE / "boot.py"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from stats import beyond, nearest_rank  # noqa: E402

WORKLOADS = ("fig7-sweep", "sweep-traced", "serve-zipf", "calib-uq")
#: golden digests of each workload at full scale and seed 0
GOLDEN = json.loads((HERE / "golden.json").read_text())
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150.0
#: closed-loop load threads, one connection each; never more than the CPUs
CLIENTS = min(2, os.cpu_count() or 1)
ZIPF_S = 1.1
LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")


@dataclass(frozen=True)
class Scale:
    """Problem sizes of the four workloads."""

    sweep_n: int
    traced_n: int
    calib_draws: int
    calib_burn: int
    uq_n: int
    uq_blocks: tuple
    uq_replicates: int
    serve_n: int
    serve_blocks: tuple
    serve_seeds: tuple
    serve_requests: int
    serve_cache: int
    #: set-up measurements per run, after one discarded warm-up
    probes: int


FULL = Scale(
    sweep_n=480, traced_n=240, calib_draws=8000, calib_burn=4000,
    uq_n=240, uq_blocks=(15, 16, 20, 24, 30, 40, 48, 60, 80, 120),
    uq_replicates=16, serve_n=240,
    serve_blocks=(8, 10, 12, 15, 16, 20, 24, 30, 40, 48, 60, 80, 120),
    serve_seeds=(0, 1, 2, 3), serve_requests=4000, serve_cache=52, probes=5,
)
#: seconds-long variant that exercises every code path (``--smoke``)
SMOKE = Scale(
    sweep_n=120, traced_n=120, calib_draws=400, calib_burn=200,
    uq_n=120, uq_blocks=(20, 30, 60), uq_replicates=4, serve_n=120,
    serve_blocks=(20, 24, 30, 40, 60, 120), serve_seeds=(0, 1),
    serve_requests=300, serve_cache=12, probes=1,
)


def serve_universe(scale: Scale) -> list[dict]:
    """Every distinct prediction-only request of ``serve-zipf``."""
    return [
        {"n": scale.serve_n, "b": b, "layout": layout, "seed": s}
        for b in scale.serve_blocks
        for layout in ("diagonal", "stripped")
        for s in scale.serve_seeds
    ]


def zipf_schedule(universe: list[dict], count: int, seed: int) -> list[dict]:
    """``count`` requests drawn with weight ∝ 1/rank^s, deterministic in ``seed``.

    The seed also decides which points are popular, so popularity is not
    tied to block size.
    """
    rng = random.Random(seed)
    ranked = list(universe)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


# -- child processes ---------------------------------------------------------
def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL a child and every process in its group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Command:
    """One finished CLI child."""

    argv: list
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float
    manifest: dict
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.manifest.get("status") == "ok"


class Session:
    """The scratch directory, child environment and live children of one run."""

    def __init__(self):
        self.tmp = Path(tempfile.mkdtemp(prefix=".e2e-tmp-", dir=ROOT))
        self.live: list[subprocess.Popen] = []
        self.spawned = 0
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAST"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.tmp)
        self.env = env

    def close(self) -> None:
        for proc in self.live:
            _kill(proc)
            proc.wait()
        self.live.clear()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp))

    def spawn(self, cli: list, runs: Path, *, spans: Optional[Path] = None,
              probe: bool = False, pipe: bool = False):
        """Start ``boot.py`` on ``cli``.

        Returns ``(proc, t_spawn, stamp path, stderr path)``; with
        ``pipe`` stderr is readable from ``proc.stderr`` instead of a file.
        """
        self.spawned += 1
        stamp = runs / f"stamp-{self.spawned}.json"
        err = runs / f"stderr-{self.spawned}.txt"
        boot = [sys.executable, str(BOOT), str(stamp)]
        if probe:
            boot.append("--probe")
        if spans is not None:
            boot += ["--spans", str(spans)]
        env = dict(self.env, REPRO_RUNS_DIR=str(runs))
        if "REPRO_FAST" in env:
            raise RuntimeError("REPRO_FAST must not reach a benchmark child")
        with open(err, "w") as err_fh:
            t_spawn = time.monotonic()
            # a process group of its own, so _kill() also reaches pool workers
            proc = subprocess.Popen(
                boot + ["--"] + cli, cwd=self.tmp, env=env, text=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE if pipe else err_fh,
                start_new_session=True,
            )
        self.live.append(proc)
        return proc, t_spawn, stamp, err

    def reap(self, proc) -> tuple[int, float, float, float]:
        """Wait for ``proc``; ``(exit code, exit time, cpu s, peak RSS MB)``.

        ``wait4`` reports the child's own usage together with that of
        every descendant it waited for (its pool workers): user+system
        CPU summed, and the largest resident set of any one of them.
        """
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return (proc.returncode, t_exit, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def command(self, cli: list, runs: Path, spans: Optional[Path] = None) -> Command:
        """Run one CLI command to completion."""
        proc, t_spawn, stamp, err = self.spawn(cli, runs, spans=spans)
        code, t_exit, cpu, rss = self.reap(proc)
        stamps = json.loads(stamp.read_text()) if stamp.exists() else {}
        manifests = sorted(runs.glob(f"{cli[0]}-*.json"))
        manifest = json.loads(manifests[-1].read_text()) if manifests else {}
        return Command(
            argv=cli, code=code, wall_s=t_exit - t_spawn, cpu_s=cpu, rss_mb=rss,
            setup_s=stamps.get("t_main", t_spawn) - t_spawn,
            manifest=manifest, stderr=err.read_text(),
        )

    def probe(self, runs: Path) -> float:
        """Set-up time of one CLI command: child start until ``main`` is entered."""
        proc, t_spawn, stamp, err = self.spawn([], runs, probe=True)
        code = self.reap(proc)[0]
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {err.read_text().strip()}")
        return json.loads(stamp.read_text())["t_main"] - t_spawn

    def start_server(self, cli: list, runs: Path, spans: Optional[Path] = None):
        """Start ``repro serve`` and wait for its listening line.

        Returns ``(proc, setup s, host, port, stderr reader, stderr lines)``.
        """
        proc, t_spawn, _, _ = self.spawn(cli, runs, spans=spans, pipe=True)
        ready = threading.Event()
        seen: dict = {"lines": []}

        def watch():
            for line in proc.stderr:
                match = LISTENING.search(line)
                if match and not ready.is_set():
                    seen["t"], seen["addr"] = time.monotonic(), match.groups()
                    ready.set()
                seen["lines"].append(line)
            ready.set()

        reader = threading.Thread(target=watch, daemon=True)
        reader.start()
        if not ready.wait(60.0) or "addr" not in seen:
            raise RuntimeError("repro serve did not start: " + "".join(seen["lines"]))
        host, port = seen["addr"]
        return proc, seen["t"] - t_spawn, host, int(port), reader, seen["lines"]

    def stop_server(self, proc, reader, host: str, port: int):
        """Interrupt ``repro serve`` once its request loop is running.

        The listening line is printed just before ``serve_forever`` is
        entered, and only there does the server turn SIGINT into a clean
        shutdown; an answered ``/healthz`` proves the loop runs.
        """
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
        finally:
            conn.close()
        proc.send_signal(signal.SIGINT)
        result = self.reap(proc)
        reader.join(10.0)
        return result


# -- units of work ---------------------------------------------------------------
@dataclass
class Unit:
    """One execution of a workload's unit of work and what it produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    items: int = 0
    latencies_ms: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    digest: object = None
    #: operations (CLI commands or HTTP requests) attempted and failed
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)

    def absorb(self, cmd: Command) -> None:
        self.cpu_s += cmd.cpu_s
        self.rss_mb = max(self.rss_mb, cmd.rss_mb)
        self.latencies_ms.append(cmd.wall_s * 1e3)
        self.attempted += 1
        if not cmd.ok:
            self.failed += 1
            self.failures.append(
                f"{' '.join(cmd.argv[:1])} exited {cmd.code} "
                f"(manifest status {cmd.manifest.get('status')!r}): "
                f"{cmd.stderr.strip()[-400:]}"
            )


def traced_layers(spans: Path, windows=None, results=(), trace_mb: float = 0.0) -> dict:
    """Per-layer metrics of a traced unit (the same names on every workload).

    ``windows`` defaults to each CLI process's ``[t_main, t_end]``;
    ``results`` are the serve load's per-request results, if any.
    """
    trace = layers.load(spans)
    if windows is None:
        windows = {pid: (m["t_main"], m["t_end"]) for pid, m in trace.mains.items()}
    out = layers.layer_metrics(trace, windows)
    out.update(tier_metrics(results, trace))
    out["obs.trace_file_mb"] = trace_mb
    return out


def unit_sweep(sess, scale, seed, traced, *, with_trace_out):
    """``repro sweep`` over the Figure 7 grid (optionally writing a trace)."""
    work = sess.fresh()
    spans = work / "spans" if traced else None
    if spans:
        spans.mkdir()
    n = scale.traced_n if with_trace_out else scale.sweep_n
    cli = ["sweep", "-n", str(n), "--seed", str(seed), "--layout", "diagonal"]
    if not with_trace_out:
        cli.append("stripped")
    trace_out = work / "trace.json"
    if with_trace_out:
        cli += ["--trace-out", str(trace_out)]
    cmd = sess.command(cli, work, spans)
    unit = Unit(wall_s=cmd.wall_s, setups=[cmd.setup_s])
    unit.absorb(cmd)
    unit.items = cmd.manifest.get("extra", {}).get("sweep", {}).get("total", 0)
    unit.digest = cmd.manifest.get("extra", {}).get("results_sha256")
    trace_mb = 0.0
    if with_trace_out:
        if trace_out.exists():
            trace_mb = trace_out.stat().st_size / 1e6
            trace_out.unlink()
        if cmd.ok and not (trace_mb and cmd.manifest.get("event_count")):
            unit.failures.append("sweep --trace-out wrote no trace events")
    if traced:
        unit.layer = traced_layers(spans, trace_mb=trace_mb)
    shutil.rmtree(work)
    return unit


def unit_calib_uq(sess, scale, seed, traced):
    """``repro calibrate`` then ``repro uq`` replaying its posterior."""
    work = sess.fresh()
    spans = work / "spans" if traced else None
    if spans:
        spans.mkdir()
    post = work / "post.json"
    calibrate = [
        "calibrate", "--noise-sigma", "0.05", "--draws", str(scale.calib_draws),
        "--burn", str(scale.calib_burn), "--seed", str(seed), "-o", str(post),
    ]
    uq = [
        "uq", "-n", str(scale.uq_n), "--blocks", *map(str, scale.uq_blocks),
        "--layout", "diagonal", "stripped", "--posterior", str(post),
        "-r", str(scale.uq_replicates), "--store", str(work / "store"),
        "--seed", str(seed),
    ]
    first = sess.command(calibrate, work, spans)
    unit = Unit(setups=[first.setup_s])
    unit.absorb(first)
    if first.ok:
        second = sess.command(uq, work, spans)
        unit.absorb(second)
        unit.wall_s = first.wall_s + second.wall_s
        unit.items = second.manifest.get("extra", {}).get("sweep", {}).get("total", 0)
        unit.digest = second.manifest.get("uq", {}).get("summary_sha256")
    if traced:
        unit.layer = traced_layers(spans)
    shutil.rmtree(work)
    return unit


def drive(host: str, port: int, schedule: list[dict]):
    """Closed-loop load: ``CLIENTS`` threads, each sending its next request
    when the previous one is answered.

    Every request opens its own connection.  On a kept-alive connection
    the server's two writes per response (headers, then body) meet the
    client's delayed ACK and every response stalls ~40 ms, which would
    hide everything the server itself does.

    Returns ``(per-request results, load start, load end)``; a result is
    ``(latency s, HTTP status, tier, digest, error)``.
    """
    results: list = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            body = json.dumps(schedule[i]).encode()
            t0 = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=60.0)
            try:
                conn.request("POST", "/v1/predict", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                doc = json.loads(resp.read())
                results[i] = (time.perf_counter() - t0, resp.status,
                              doc.get("cache", {}).get("tier"), doc.get("digest"), None)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                results[i] = (time.perf_counter() - t0, 0, None, None, str(exc))
            finally:
                conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, t0, time.monotonic()


def served_digests(schedule, results) -> dict:
    """``point -> set of digests`` its successful responses carried."""
    seen: dict = {}
    for doc, (_, status, _, digest, _) in zip(schedule, results):
        if status == 200:
            key = (doc["n"], doc["b"], doc["layout"], doc["seed"])
            seen.setdefault(key, set()).add(digest)
    return seen


def unit_serve(sess, scale, seed, traced):
    """A fresh ``repro serve`` under a closed-loop zipf mix."""
    work = sess.fresh()
    spans = work / "spans" if traced else None
    if spans:
        spans.mkdir()
    cli = ["serve", "--port", "0", "--store", str(work / "store"),
           "--cache-size", str(scale.serve_cache)]
    schedule = zipf_schedule(serve_universe(scale), scale.serve_requests, seed)
    proc, setup, host, port, reader, lines = sess.start_server(cli, work, spans)
    try:
        results, t0, t1 = drive(host, port, schedule)
    finally:
        code, _, cpu, rss = sess.stop_server(proc, reader, host, port)
    manifests = sorted(work.glob("serve-*.json"))
    manifest = json.loads(manifests[-1].read_text()) if manifests else {}
    bad = [r for r in results if r[1] != 200 or not r[3]]
    unit = Unit(wall_s=t1 - t0, cpu_s=cpu, rss_mb=rss, items=len(schedule),
                setups=[setup], attempted=len(schedule), failed=len(bad))
    unit.latencies_ms = [r[0] * 1e3 for r in results]
    unit.failures += [f"request failed: status {r[1]} {r[4] or ''}" for r in bad[:5]]
    if code != 0 or manifest.get("status") != "ok":
        unit.failures.append(f"repro serve exited {code}: {''.join(lines)[-400:]}")
    seen = served_digests(schedule, results)
    unit.failures += [
        f"point {key} served {len(d)} different digests" for key, d in seen.items() if len(d) > 1
    ]
    unit.digest = {key: min(d) for key, d in seen.items()}
    if traced:
        unit.layer = traced_layers(spans, {proc.pid: (t0, t1)}, results)
    shutil.rmtree(work)
    return unit


def tier_metrics(results, trace) -> dict:
    """Client-side serve breakdown: requests and latency share per cache tier
    (all 0 without serve requests)."""
    total = sum(r[0] for r in results)

    def share(seconds: float) -> float:
        return 100.0 * seconds / total if total else 0.0

    out = {}
    for tier in ("memory", "store", "computed", "inflight"):
        mine = [r[0] for r in results if r[2] == tier]
        out[f"serve.tier_{tier}.count"] = len(mine)
        out[f"serve.tier_{tier}.latency_pct"] = share(sum(mine))
    handled = sum(s.dur for s in trace.spans if s.name == "serve.handle")
    out["serve.http_overhead_pct"] = share(total - handled)
    return out


# -- workloads ---------------------------------------------------------------
def _direct_digests(scale: Scale) -> dict:
    """Digests of the 8 cheapest serve points, computed without the server."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import MEIKO_CS2, CalibratedCostModel
    from repro.core.predictor import summarize_ge_point
    from repro.serve import point_digest

    cheap = sorted(serve_universe(scale), key=lambda d: (-d["b"], d["seed"], d["layout"]))[:8]
    return {
        (d["n"], d["b"], d["layout"], d["seed"]): point_digest(summarize_ge_point(
            d["n"], d["b"], d["layout"], MEIKO_CS2, CalibratedCostModel(),
            with_measured=False, seed=d["seed"],
        ))
        for d in cheap
    }


#: workload -> unit of work ``(session, scale, seed, traced) -> Unit``
UNITS = {
    "fig7-sweep": lambda *a: unit_sweep(*a, with_trace_out=False),
    "sweep-traced": lambda *a: unit_sweep(*a, with_trace_out=True),
    "serve-zipf": unit_serve,
    "calib-uq": unit_calib_uq,
}


def setup_probes(name: str, sess: Session, scale: Scale) -> list[float]:
    """One discarded warm-up, then ``scale.probes`` set-up measurements."""
    runs = sess.fresh()
    samples = []
    for _ in range(scale.probes + 1):
        if name == "serve-zipf":
            cli = ["serve", "--port", "0", "--no-manifest"]
            proc, setup, host, port, reader, lines = sess.start_server(cli, runs)
            if sess.stop_server(proc, reader, host, port)[0] != 0:
                raise RuntimeError("repro serve probe failed: " + "".join(lines))
            samples.append(setup)
        else:
            samples.append(sess.probe(runs))
    return samples[1:]


# -- one run -----------------------------------------------------------------
def gates(workload: str, units: list[Unit], seed: int, scale: Scale) -> list[str]:
    """Correctness failures of a run's units (empty: correct)."""
    problems = [f for u in units for f in u.failures]
    digests = [u.digest for u in units]
    if any(d is None for d in digests):
        problems.append("a unit reported no result digest")
    elif any(d != digests[0] for d in digests):
        problems.append("units of one run disagree on the result digest")
    elif workload == "serve-zipf":
        served = digests[0]
        for key, want in _direct_digests(scale).items():
            if served.get(key) != want:
                problems.append(f"served digest of {key} differs from the direct engine")
    elif scale is FULL and seed == GOLDEN["seed"] and digests[0] != GOLDEN[workload]:
        problems.append(f"digest {digests[0]} differs from the golden {GOLDEN[workload]}")
    return problems


def end_to_end(units: list[Unit], setups: list[float]) -> dict:
    latencies = [x for u in units for x in u.latencies_ms]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "cpu_s": (statistics.median(u.cpu_s for u in units), "s"),
        "peak_rss_mb": (statistics.median(u.rss_mb for u in units), "MB"),
        "items_per_s": (statistics.median(u.items / u.wall_s for u in units), "1/s"),
        "latency_p50_ms": (nearest_rank(latencies, 0.50), "ms"),
        "latency_p90_ms": (nearest_rank(latencies, 0.90), "ms"),
    }


def per_layer(untraced: list[Unit], traced: list[Unit]) -> dict:
    names = traced[0].layer.keys()
    out = {name: statistics.median(u.layer[name] for u in traced) for name in names}
    out["trace_overhead_pct"] = 100.0 * (
        statistics.median(u.wall_s for u in traced)
        / statistics.median(u.wall_s for u in untraced) - 1.0
    )
    # too noisy run to run for a bound (the miss path of serve-zipf): reported
    # here, from the untraced units, instead of among the end-to-end metrics
    out["latency_p99_ms"] = nearest_rank([x for u in untraced for x in u.latencies_ms], 0.99)
    return {name: (value, unit_of(name)) for name, value in out.items()}


def unit_of(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_pct", "%"), ("_s", "s"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_ratio", "ratio"), ("accept_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_once(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    """One benchmark run of one workload; returns its result document."""
    unit = UNITS[name]
    sess = Session()
    try:
        setups = [] if trace else setup_probes(name, sess, scale)
        untraced: list[Unit] = []
        traced: list[Unit] = []
        deadline = time.monotonic() + seconds
        while not untraced or time.monotonic() < deadline:
            untraced.append(unit(sess, scale, seed, False))
            if trace:
                traced.append(unit(sess, scale, seed, True))
    finally:
        sess.close()
    units = untraced + traced
    problems = gates(name, units, seed, scale)
    if trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(units, setups + [s for u in units for s in u.setups])
    return {
        "workload": name, "seed": seed, "trace": int(trace), "units": len(untraced),
        "latency_samples": sum(len(u.latencies_ms) for u in untraced),
        "correct": not problems, "problems": problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def host_facts() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's own ``.git`` (no git binary; ``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(doc: dict, out=sys.stdout) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
          f"units {doc['units']}  operations {doc['attempted']} ({doc['failed']} failed)",
          file=out)
    n = doc["latency_samples"]
    for name, m in doc["metrics"].items():
        note = ""
        if name.startswith("latency_p"):
            q = int(name[len("latency_p"):-len("_ms")]) / 100
            note = f"  ({n} samples, {beyond(n, q)} beyond)"
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{note}", file=out)
    print("  correctness: " + ("ok" if doc["correct"] else "; ".join(doc["problems"])),
          file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measurement time per run; at least one unit runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="report the per-layer metrics of a traced pass instead")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds SEED, SEED+1, ...")
    parser.add_argument("--out", type=Path,
                        help="also write each run's result document into this directory")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes: checks the harness, measures nothing")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else FULL
    host = host_facts()
    print(f"host: {host['cpus_usable']}/{host['cpus']} CPUs, Python {host['python']}, "
          f"{host['platform']}, commit {host['commit'][:12]}")
    ok = True
    for name in [args.workload] if args.workload else WORKLOADS:
        for i in range(args.repeat):
            doc = run_once(name, args.seed + i, args.seconds, bool(args.trace), scale)
            ok = ok and doc["correct"]
            report(doc)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                path = args.out / f"{name}-seed{doc['seed']}-trace{doc['trace']}.json"
                path.write_text(json.dumps(dict(doc, host=host), indent=2) + "\n")
            print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
