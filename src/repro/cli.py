"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``timeline``   simulate one communication step and render it
               (the paper's Figures 4/5 for any pattern)
``predict``    predict a GE configuration (both algorithms + emulated run)
``sweep``      block-size sweep for GE, with optimum report (Figure 7);
               ``--workers N`` runs serial (1) or a pool of N (N > 1),
               ``--workers auto`` (default) picks by CPU count and grid
               weight, and ``--store DIR --resume`` makes interrupted
               sweeps restart where they stopped (see :mod:`repro.sweep`)
``uq``         Monte Carlo uncertainty bands around the sweep: seeded
               machine-parameter perturbations fanned as replicates
               through the sweep engine, reduced to mean/CI envelopes
               plus an optional LogGP sensitivity ranking
               (see :mod:`repro.uq`)
``serve``      run the prediction server: JSON over HTTP with a layered
               cache (in-memory LRU -> experiment store -> batch kernel),
               single-flighted misses and request batching
               (see :mod:`repro.serve`); ``--check`` runs an in-process
               self-test and exits
``ops``        print the basic-operation cost table (Figure 6)
``trace``      generate a GE trace and save it as JSON
``observe``    run one GE configuration under the tracer and export the
               event stream (Chrome/Perfetto trace, JSONL/CSV, profile)
``trace-merge``  stitch per-process trace shards (``--trace-shards``)
               into one correlated timeline, validate the span tree and
               print the deterministic retention digest

Every run also writes a machine-readable :class:`repro.obs.RunRecord`
manifest (``.repro/runs/`` by default, ``--manifest-out`` to choose the
path, ``--no-manifest`` to skip).  ``predict``/``sweep``/``profile``/
``observe`` accept ``--json`` for machine-readable stdout output and
``--trace-out`` to export a Perfetto-loadable trace of the run.

Examples
--------
::

    python -m repro timeline --pattern sample --algorithm worstcase
    python -m repro predict -n 480 -b 48 --layout diagonal --json
    python -m repro sweep -n 480 --layout diagonal stripped
    python -m repro sweep -n 960 --workers 4 --store .repro/store --resume
    python -m repro uq -n 960 --layout block2d --replicates 64 --sigma 0.1
    python -m repro serve --store .repro/store --port 8787
    python -m repro serve --check --json
    python -m repro uq -n 480 --replicates 32 --sigma 0.15 --sensitivity --json
    python -m repro ops -b 10 20 40 80 160 --source calibrated
    python -m repro trace -n 240 -b 24 --layout diagonal -o ge.json
    python -m repro profile -n 480 -b 48 --trace-out profile.trace.json
    python -m repro observe --layout block2d -b 60 -P 8 --trace-out t.json
    python -m repro fit --jitter
    python -m repro svg --pattern sample -o fig4.svg
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from .analysis import format_figure, format_table, render_timeline, series_from_rows
from .apps import (
    PAPER_BLOCK_SIZES,
    all_to_all_pattern,
    ring_pattern,
    sample_pattern,
)
from .apps.gauss import GEConfig, build_ge_trace
from .blockops import OP_NAMES, calibrated_table, measure_op_costs
from .core import (
    MEIKO_CS2,
    CalibratedCostModel,
    LogGPParameters,
    run_ge_point,
    simulate_causal,
    simulate_standard,
    simulate_worstcase,
)
from .core.units import us_to_s
from .layouts import LAYOUTS
from .obs import (
    CATEGORIES,
    JsonlLogger,
    RunRecord,
    TraceConfig,
    TraceContext,
    Tracer,
    bucket_sums,
    loggp_dict,
    merge_shards,
    set_logger,
    shard_paths,
    trace_digest,
    tracing,
    validate_span_tree,
    write_chrome_trace,
    write_events_csv,
    write_events_jsonl,
    write_merged_events,
    write_merged_trace,
    write_shard,
)
from .sweep import expand_grid, run_sweep
from .trace.serialization import save_trace

__all__ = ["main", "build_parser"]

_ALGORITHMS = {
    "standard": simulate_standard,
    "worstcase": simulate_worstcase,
    "causal": simulate_causal,
}

_PATTERNS = {
    "sample": lambda P, size: sample_pattern(size),
    "ring": ring_pattern,
    "alltoall": all_to_all_pattern,
}


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--L", type=float, default=MEIKO_CS2.L, help="latency, us")
    parser.add_argument("--o", type=float, default=MEIKO_CS2.o, help="overhead, us")
    parser.add_argument("--g", type=float, default=MEIKO_CS2.g, help="gap, us")
    parser.add_argument("--G", type=float, default=MEIKO_CS2.G, help="gap per byte, us/B")
    parser.add_argument(
        "-P", "--procs", type=int, default=MEIKO_CS2.P, help="processor count"
    )


def _add_obs_args(parser: argparse.ArgumentParser, exports: bool = False) -> None:
    """Observability flags; ``exports`` adds --json/--trace-out."""
    grp = parser.add_argument_group("observability")
    if exports:
        grp.add_argument(
            "--json", action="store_true",
            help="print machine-readable JSON results to stdout",
        )
        grp.add_argument(
            "--trace-out", metavar="PATH",
            help="write a Chrome/Perfetto trace JSON of the run",
        )
        grp.add_argument(
            "--trace-categories", metavar="CATS",
            help="comma-separated event categories to record "
                 f"(default: all of {','.join(CATEGORIES)})",
        )
        grp.add_argument(
            "--trace-sample", metavar="SPEC",
            help="deterministic 1-in-N event sampling: a global rate "
                 "('16') or per-category rates ('send=16,recv=16')",
        )
        grp.add_argument(
            "--trace-seed", type=int, default=0, metavar="SEED",
            help="seed of the deterministic sampling hash (default: 0)",
        )
        grp.add_argument(
            "--trace-shards", metavar="DIR",
            help="flush per-process trace shards under DIR (the parent "
                 "writes shard-main.jsonl, sweep workers their chunks); "
                 "stitch afterwards with `repro trace-merge DIR`",
        )
    grp.add_argument(
        "--log-jsonl", metavar="PATH",
        help="append structured JSONL log records (stamped with "
             "trace/span ids when tracing) to PATH",
    )
    grp.add_argument(
        "--manifest-out", metavar="PATH",
        help="run manifest path (default: $REPRO_RUNS_DIR or .repro/runs/)",
    )
    grp.add_argument(
        "--no-manifest", action="store_true",
        help="skip writing the run manifest",
    )


def _workers_arg(value: str):
    """``--workers`` accepts an integer or ``auto`` (the default)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {value!r}"
        )


def _add_sweep_engine_args(parser: argparse.ArgumentParser) -> None:
    """The execution knobs shared by ``sweep`` and ``uq``."""
    grp = parser.add_argument_group("sweep engine")
    grp.add_argument(
        "-w", "--workers", type=_workers_arg, default="auto",
        help="worker processes: 1 runs serial in-process, N > 1 a process "
             "pool of N, 'auto' (default) serial on one CPU or for a light "
             "grid, else a pool as wide as the CPUs; every choice is "
             "bit-identical — only wall time differs",
    )
    grp.add_argument(
        "--store", metavar="DIR",
        help="persist every point into an experiment store at DIR",
    )
    grp.add_argument(
        "--resume", action="store_true",
        help="skip points already in --store (only missing ones are dispatched)",
    )
    grp.add_argument(
        "--chunk-size", type=int, default=None,
        help="points per dispatched chunk (default: ~4 chunks per worker)",
    )
    grp.add_argument(
        "--progress", action="store_true",
        help="print one progress line per point to stderr",
    )


def _machine(args: argparse.Namespace) -> LogGPParameters:
    return LogGPParameters(L=args.L, o=args.o, g=args.g, G=args.G, P=args.procs, name="cli")


def _record(args: argparse.Namespace) -> RunRecord:
    """The run's manifest record (a detached one if main() didn't attach)."""
    rec = getattr(args, "run_record", None)
    if rec is None:
        rec = RunRecord.begin(getattr(args, "command", "unknown"))
        args.run_record = rec
    return rec


def _trace_config(args: argparse.Namespace) -> TraceConfig:
    """The run's :class:`TraceConfig`, parsed from the CLI flags."""
    return TraceConfig.parse(
        categories=getattr(args, "trace_categories", None),
        sample=getattr(args, "trace_sample", None),
        seed=getattr(args, "trace_seed", 0),
    )


def _root_context(args: argparse.Namespace) -> TraceContext:
    """The run's deterministic trace root.

    Derived from the command and its *workload* scalars only — never the
    execution knobs — so a ``--workers 2`` re-run of the same grid shares
    the trace id (and hence every derived span id) with the ``--workers
    1`` reference run.
    """
    material = {
        key: getattr(args, key)
        for key in ("n", "b", "blocks", "layout", "seed", "replicates",
                    "trace_seed")
        if getattr(args, key, None) is not None
    }
    return TraceContext.root(
        args.command, json.dumps(material, sort_keys=True, default=str)
    )


def _wants_trace(args: argparse.Namespace) -> Optional[Tracer]:
    """A fresh tracer when the run asked for one, else ``None``.

    ``--trace-out`` requests an export; ``--trace-categories`` /
    ``--trace-sample`` alone still enable tracing so the run manifest
    captures the (filtered, sampled) telemetry without writing a trace
    file, and ``--trace-shards`` enables it for shard-mode stitching.
    The tracer carries the run's deterministic root
    :class:`~repro.obs.TraceContext`, so every span is stamped with
    trace/span ids.  It is stashed on ``args`` so :func:`main` can fold
    its event count, telemetry block, trace id and metrics into the
    manifest.
    """
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "trace_categories", None)
        or getattr(args, "trace_sample", None)
        or getattr(args, "trace_shards", None)
    ):
        tracer = Tracer(config=_trace_config(args))
        tracer.context = _root_context(args)
        args.obs_tracer = tracer
        return tracer
    return None


def _export_trace(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    if tracer is None:
        return
    if getattr(args, "trace_out", None):
        write_chrome_trace(tracer.events, args.trace_out, metrics=tracer.metrics)
        print(f"wrote trace {args.trace_out} ({len(tracer.events)} events)", file=sys.stderr)
    if getattr(args, "trace_shards", None):
        path = write_shard(
            Path(args.trace_shards) / "shard-main.jsonl", tracer, label="main"
        )
        print(
            f"wrote trace shard {path} ({len(tracer.events)} events)",
            file=sys.stderr,
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LogGP running-time prediction (Rugina & Schauser, IPPS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("timeline", help="simulate one communication step")
    p.add_argument("--pattern", choices=sorted(_PATTERNS), default="sample")
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="standard")
    p.add_argument("--size", type=int, default=1160, help="message bytes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=100)
    _add_machine_args(p)
    _add_obs_args(p)

    p = sub.add_parser("predict", help="predict one GE configuration")
    p.add_argument("-n", type=int, default=480, help="matrix order")
    p.add_argument("-b", type=int, default=48, help="block size")
    p.add_argument("--layout", choices=sorted(LAYOUTS), default="diagonal")
    p.add_argument("--no-measured", action="store_true", help="skip the emulated run")
    p.add_argument("--seed", type=int, default=0)
    _add_machine_args(p)
    _add_obs_args(p, exports=True)

    p = sub.add_parser("sweep", help="GE block-size sweep (Figure 7)")
    p.add_argument("-n", type=int, default=480)
    p.add_argument("--blocks", type=int, nargs="*", default=None,
                   help="block sizes (default: paper sizes dividing n)")
    p.add_argument("--layout", nargs="+", choices=sorted(LAYOUTS), default=["diagonal"])
    p.add_argument("--no-measured", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_sweep_engine_args(p)
    _add_machine_args(p)
    _add_obs_args(p, exports=True)

    p = sub.add_parser(
        "uq", help="Monte Carlo uncertainty bands for the GE sweep"
    )
    p.add_argument("-n", type=int, default=480)
    p.add_argument("--blocks", type=int, nargs="*", default=None,
                   help="block sizes (default: paper sizes dividing n)")
    p.add_argument("--layout", nargs="+", choices=sorted(LAYOUTS), default=["diagonal"])
    p.add_argument("--no-measured", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="base seed of the study")
    grp = p.add_argument_group("uncertainty model")
    grp.add_argument(
        "-r", "--replicates", type=int, default=32,
        help="Monte Carlo replicates per point",
    )
    grp.add_argument(
        "--sigma", type=float, default=0.1,
        help="relative log-normal sigma on L, o, g, G (0 = deterministic)",
    )
    grp.add_argument(
        "--op-sigma", type=float, default=0.0,
        help="relative log-normal sigma on per-op block timings",
    )
    grp.add_argument(
        "--ci", type=float, default=0.95,
        help="confidence level of the percentile interval",
    )
    grp.add_argument(
        "--jitter-sigma", type=float, default=None,
        help="override the emulated network's jitter sigma",
    )
    grp.add_argument(
        "--straggler-prob", type=float, default=None,
        help="override the emulated network's straggler probability",
    )
    grp.add_argument(
        "--straggler-factor", type=float, default=None,
        help="override the emulated network's straggler factor",
    )
    grp.add_argument(
        "--posterior", metavar="PATH",
        help="replay a calibrated posterior (the `repro calibrate` output "
             "JSON) instead of the sigma knobs above",
    )
    grp.add_argument(
        "--sensitivity", action="store_true",
        help="also report one-at-a-time LogGP elasticities per block size",
    )
    grp.add_argument(
        "--svg-out", metavar="PATH",
        help="write a CI-band SVG per layout (layout name suffixed when >1)",
    )
    _add_sweep_engine_args(p)
    _add_machine_args(p)
    _add_obs_args(p, exports=True)

    p = sub.add_parser(
        "serve", help="run the prediction server (JSON over HTTP)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8787, help="bind port (0 = ephemeral)")
    p.add_argument(
        "--store", metavar="DIR",
        help="experiment-store directory (tier 2; omit for memory + compute only)",
    )
    p.add_argument(
        "--cache-size", type=int, default=4096,
        help="entries held by the in-memory LRU (tier 1)",
    )
    p.add_argument(
        "--batch-window-ms", type=float, default=10.0,
        help="how long the first miss waits to coalesce a batch",
    )
    p.add_argument(
        "--batch-max", type=int, default=64,
        help="most misses coalesced into one batch",
    )
    p.add_argument(
        "--serve-manifests", metavar="DIR",
        help="write per-request and per-batch run manifests under DIR",
    )
    p.add_argument(
        "--check", action="store_true",
        help="self-test: answer one request in process twice "
             "(cold then cached), print the stats document and exit",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable --check output (stats document only)",
    )
    _add_machine_args(p)
    _add_obs_args(p)

    p = sub.add_parser("ops", help="basic-operation cost table (Figure 6)")
    p.add_argument("-b", "--blocks", type=int, nargs="+", default=[10, 20, 40, 60, 80, 160])
    p.add_argument("--source", choices=["calibrated", "measured"], default="calibrated")
    p.add_argument("--repeats", type=int, default=3, help="host-timing repeats")
    _add_obs_args(p)

    p = sub.add_parser("trace", help="generate and save a GE trace as JSON")
    p.add_argument("-n", type=int, default=240)
    p.add_argument("-b", type=int, default=24)
    p.add_argument("--layout", choices=sorted(LAYOUTS), default="diagonal")
    p.add_argument("-o", "--output", required=True, help="output JSON path")
    p.add_argument("-P", "--procs", type=int, default=MEIKO_CS2.P)
    _add_obs_args(p)

    p = sub.add_parser("profile", help="lost-cycles decomposition of a GE run")
    p.add_argument("-n", type=int, default=480)
    p.add_argument("-b", type=int, default=48)
    p.add_argument("--layout", choices=sorted(LAYOUTS), default="diagonal")
    p.add_argument("--mode", choices=["standard", "worstcase", "causal"], default="standard")
    p.add_argument("--seed", type=int, default=0)
    _add_machine_args(p)
    _add_obs_args(p, exports=True)

    p = sub.add_parser(
        "observe",
        help="run one GE configuration under the tracer and export the events",
    )
    p.add_argument("-n", type=int, default=960, help="matrix order")
    p.add_argument("-b", type=int, default=60, help="block size")
    p.add_argument("--layout", choices=sorted(LAYOUTS), default="block2d")
    p.add_argument("--mode", choices=["standard", "worstcase", "causal"], default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events-out", metavar="PATH", help="flat JSONL event dump")
    p.add_argument("--csv-out", metavar="PATH", help="flat CSV event dump")
    _add_machine_args(p)
    _add_obs_args(p, exports=True)

    p = sub.add_parser("fit", help="recover LogGP parameters via micro-benchmarks")
    p.add_argument("--jitter", action="store_true", help="run against the jittered network")
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    _add_machine_args(p)
    _add_obs_args(p)

    p = sub.add_parser(
        "calibrate",
        help="Bayesian LogGP calibration: posterior over (L, o, g, G, op costs)",
    )
    src = p.add_argument_group("measurements")
    src.add_argument(
        "--measurements", metavar="PATH",
        help="import a measurement-set JSON (trace) instead of measuring "
             "the emulator",
    )
    src.add_argument(
        "--noise-sigma", type=float, default=0.05,
        help="injected log-normal timer noise on emulator observables "
             "(0 = noiseless: the posterior collapses to the point fit)",
    )
    src.add_argument(
        "--repeats", type=int, default=7,
        help="observations per micro-benchmark observable",
    )
    src.add_argument("--large-bytes", type=int, default=65536)
    src.add_argument("--burst-count", type=int, default=16)
    src.add_argument(
        "--no-ops", action="store_true",
        help="calibrate the network parameters only (skip per-op costs)",
    )
    grp = p.add_argument_group("posterior")
    grp.add_argument("--draws", type=int, default=200, help="posterior samples kept")
    grp.add_argument("--burn", type=int, default=200, help="burn-in sweeps")
    grp.add_argument("--thin", type=int, default=2, help="sweeps per kept sample")
    grp.add_argument(
        "--prior-tau", type=float, default=1.0,
        help="prior sd in log space around the point fit",
    )
    grp.add_argument(
        "--ci", type=float, default=0.9,
        help="credible-interval level of the printed summary",
    )
    grp.add_argument(
        "--max-draws", type=int, default=None,
        help="subsample the posterior to this many draws in the output spec",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "-o", "--out", metavar="PATH",
        help="write the posterior JSON here (feeds `repro uq --posterior`)",
    )
    _add_machine_args(p)
    _add_obs_args(p, exports=True)

    p = sub.add_parser(
        "trace-merge",
        help="stitch trace shards into one correlated timeline",
    )
    p.add_argument(
        "shards", nargs="+", metavar="SHARD",
        help="shard files, or directories holding shard-*.jsonl",
    )
    p.add_argument(
        "-o", "--output", metavar="PATH",
        help="write the merged Chrome/Perfetto trace JSON here",
    )
    p.add_argument(
        "--events-out", metavar="PATH",
        help="write the merged flat JSONL event dump here",
    )
    p.add_argument(
        "--extra-root", action="append", default=[], metavar="SPAN_ID",
        help="treat SPAN_ID as a resolvable upstream parent "
             "(a client-supplied trace context from another system)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any span's parent does not resolve (orphans)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable merge summary on stdout",
    )
    _add_obs_args(p)

    p = sub.add_parser("svg", help="render a communication step as SVG")
    p.add_argument("--pattern", choices=sorted(_PATTERNS), default="sample")
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="standard")
    p.add_argument("--size", type=int, default=1160)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg-width", type=int, default=900)
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    _add_machine_args(p)
    _add_obs_args(p)

    return parser


def _cmd_timeline(args: argparse.Namespace) -> int:
    params = _machine(args)
    pattern = _PATTERNS[args.pattern](params.P if args.pattern != "sample" else 10, args.size)
    result = _ALGORITHMS[args.algorithm](params, pattern, seed=args.seed)
    _record(args).note(
        params=loggp_dict(params), engine=args.algorithm,
        workload={"pattern": args.pattern, "size": args.size},
        makespan_us=result.completion_time,
    )
    print(f"{args.algorithm} algorithm on {args.pattern!r} pattern  ({params.describe()})")
    print(render_timeline(result.timeline, width=args.width))
    print(f"completion: {result.completion_time:.2f} us")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    params = _machine(args)
    tracer = _wants_trace(args)
    with tracing(tracer) if tracer else nullcontext():
        row = run_ge_point(
            args.n, args.b, args.layout, params, CalibratedCostModel(),
            with_measured=not args.no_measured, seed=args.seed,
        )
    _export_trace(args, tracer)
    _record(args).note(
        params=loggp_dict(params), engine="predict",
        workload={"n": args.n, "b": args.b, "layout": args.layout},
        makespan_us=row.pred_standard.total_us,
    )
    if args.json:
        print(json.dumps({
            "n": args.n, "b": args.b, "layout": args.layout,
            "params": loggp_dict(params), "series_us": row.series(),
        }, indent=2))
        return 0
    print(f"{args.n}x{args.n} GE, b={args.b}, layout={args.layout}  ({params.describe()})")
    for name, us in row.series().items():
        print(f"  {name:26s} {us_to_s(us):9.4f} s")
    return 0


def _sweep_blocks(args: argparse.Namespace) -> Optional[list[int]]:
    """Validated block sizes for a sweep-shaped command (None = usage error)."""
    blocks = args.blocks or [b for b in PAPER_BLOCK_SIZES if args.n % b == 0]
    if not blocks:
        print(f"error: no paper block size divides n={args.n}", file=sys.stderr)
        return None
    bad = [b for b in blocks if args.n % b]
    if bad:
        print(f"error: block sizes {bad} do not divide n={args.n}", file=sys.stderr)
        return None
    if args.resume and not args.store:
        print("error: --resume requires --store DIR", file=sys.stderr)
        return None
    return blocks


def _sweep_progress(args: argparse.Namespace):
    """The stderr per-point progress callback, or None."""
    if not args.progress:
        return None

    def show_progress(done, total, point, source):
        print(f"sweep [{done}/{total}] {point.describe()} ({source})",
              file=sys.stderr)

    return show_progress


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _machine(args)
    blocks = _sweep_blocks(args)
    if blocks is None:
        return 2
    grid = expand_grid(
        args.n, blocks, args.layout, seeds=(args.seed,),
        with_measured=not args.no_measured,
    )
    show_progress = _sweep_progress(args)
    tracer = _wants_trace(args)
    with tracing(tracer) if tracer else nullcontext():
        result = run_sweep(
            grid, params, CalibratedCostModel(),
            workers=args.workers,
            store=args.store,
            resume=args.resume,
            chunk_size=args.chunk_size,
            progress=show_progress,
            trace_shard_dir=args.trace_shards,
        )
    rows = result.summaries
    _export_trace(args, tracer)
    best_by_layout = {
        layout: min(
            (r for r in rows if r.layout == layout),
            key=lambda r: r.pred_standard_total,
        ).b
        for layout in args.layout
    }
    _record(args).note(
        params=loggp_dict(params), engine="sweep",
        workload={"n": args.n, "blocks": blocks, "layouts": args.layout,
                  "seed": args.seed},
        best_block=best_by_layout,
        results_sha256=result.digest(),
        sweep=result.stats.to_dict(),
    )
    if args.json:
        print(json.dumps({
            "n": args.n, "params": loggp_dict(params),
            "rows": [
                {"layout": r.layout, "b": r.b, "series_us": r.series()}
                for r in rows
            ],
            "best_block": best_by_layout,
        }, indent=2))
        return 0
    for layout in args.layout:
        mine = [r for r in rows if r.layout == layout]
        series = series_from_rows(mine, "b", lambda r: r.series())
        print(format_figure(f"{layout} mapping, n={args.n}", series))
        print(f"predicted optimal block size: {best_by_layout[layout]}\n")
    return 0


def _load_posterior_spec(path: str):
    """The :class:`repro.uq.EmpiricalSpec` inside a calibrate output file.

    Accepts the ``repro calibrate -o`` document (uses its ``spec`` block,
    which reflects any ``--max-draws`` subsampling), a bare spec
    document, or a bare posterior document.
    """
    from .calib import Posterior
    from .uq import EmpiricalSpec

    with open(path) as fh:
        doc = json.load(fh)
    if "spec" in doc:
        return EmpiricalSpec.from_dict(doc["spec"])
    if "posterior" in doc:
        return Posterior.from_dict(doc["posterior"]).to_spec()
    if doc.get("kind") == "empirical":
        return EmpiricalSpec.from_dict(doc)
    return Posterior.from_dict(doc).to_spec()


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calib import MeasurementSet, calibrate, calibrate_emulator

    params = _machine(args)
    cost_model = None if args.no_ops else CalibratedCostModel()
    tracer = _wants_trace(args)
    with tracing(tracer) if tracer else nullcontext():
        if args.measurements:
            with open(args.measurements) as fh:
                mset = MeasurementSet.from_dict(json.load(fh))
            posterior = calibrate(
                mset,
                base_cost_model=cost_model,
                draws=args.draws, burn=args.burn, thin=args.thin,
                prior_tau=args.prior_tau, seed=args.seed,
            )
        else:
            posterior = calibrate_emulator(
                params, cost_model,
                noise_sigma=args.noise_sigma, repeats=args.repeats,
                large_bytes=args.large_bytes, burst_count=args.burst_count,
                draws=args.draws, burn=args.burn, thin=args.thin,
                prior_tau=args.prior_tau, seed=args.seed,
            )
    _export_trace(args, tracer)
    spec = posterior.to_spec(max_draws=args.max_draws)
    summary = posterior.summary(args.ci)
    doc = {
        "posterior": posterior.to_dict(),
        "spec": spec.to_dict(),
        "summary": summary,
        "ci": args.ci,
        "fingerprint": posterior.fingerprint(),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    _record(args).note(
        params=loggp_dict(params), engine="calib",
        workload={
            "measurements": args.measurements,
            "noise_sigma": args.noise_sigma if not args.measurements else None,
            "repeats": args.repeats, "seed": args.seed,
        },
        calib={
            "fingerprint": posterior.fingerprint(),
            "spec_fingerprint": spec.fingerprint(),
            "degenerate": posterior.degenerate,
            "accept_rate": posterior.accept_rate,
            "draws": len(posterior.draws),
            "spec_draws": len(spec.draws),
            "ci": args.ci,
            "summary": summary,
            "config": dict(posterior.config),
        },
    )
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    point = posterior.point_fit
    fit_by_name = {"L": point.L, "o": point.o, "g": point.g, "G": point.G}
    fit_by_name.update({f"op:{op}": f for op, f in point.ops})
    level = int(args.ci * 100)
    print(
        f"posterior {posterior.fingerprint()} "
        f"({len(posterior.draws)} draws"
        + (", degenerate — collapsed to the point fit"
           if posterior.degenerate
           else f", accept rate {posterior.accept_rate:.2f}")
        + ")"
    )
    header = (
        f"{'parameter':<10} {'point fit':>12} {'post mean':>12} "
        f"{'sd':>10} {level:>3}% CI"
    )
    print(header)
    for name, stats in summary.items():
        print(
            f"{name:<10} {fit_by_name.get(name, float('nan')):>12.6g} "
            f"{stats['mean']:>12.6g} {stats['sd']:>10.3g} "
            f"[{stats['lo']:.6g}, {stats['hi']:.6g}]"
        )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_uq(args: argparse.Namespace) -> int:
    from .analysis import (
        format_ci_band_table,
        format_sensitivity_table,
        save_ci_band_svg,
    )
    from .uq import UQSpec, oat_sensitivity, run_uq

    params = _machine(args)
    blocks = _sweep_blocks(args)
    if blocks is None:
        return 2
    if args.posterior:
        spec = _load_posterior_spec(args.posterior)
    else:
        spec = UQSpec(
            sigma=args.sigma,
            op_sigma=args.op_sigma,
            jitter_sigma=args.jitter_sigma,
            straggler_prob=args.straggler_prob,
            straggler_factor=args.straggler_factor,
        )
    cost_model = CalibratedCostModel()
    tracer = _wants_trace(args)
    with tracing(tracer) if tracer else nullcontext():
        result = run_uq(
            args.n, blocks, args.layout, params, cost_model,
            spec=spec,
            replicates=args.replicates,
            ci=args.ci,
            base_seed=args.seed,
            with_measured=not args.no_measured,
            workers=args.workers,
            store=args.store,
            resume=args.resume,
            chunk_size=args.chunk_size,
            progress=_sweep_progress(args),
            trace_shard_dir=args.trace_shards,
        )
    _export_trace(args, tracer)
    sensitivity = (
        {
            layout: oat_sensitivity(args.n, blocks, layout, params, cost_model)
            for layout in args.layout
        }
        if args.sensitivity
        else None
    )
    svg_paths = []
    if args.svg_out:
        for layout in args.layout:
            mine = [s for s in result.summaries if s.layout == layout]
            path = args.svg_out
            if len(args.layout) > 1:
                stem, dot, ext = path.rpartition(".")
                path = f"{stem}-{layout}{dot}{ext}" if dot else f"{path}-{layout}"
            save_ci_band_svg(
                mine, path,
                title=f"{layout} mapping, n={args.n}, "
                      f"{int(args.ci * 100)}% CI over {args.replicates} replicates",
            )
            svg_paths.append(path)
    _record(args).note(
        params=loggp_dict(params), engine="uq",
        workload={"n": args.n, "blocks": blocks, "layouts": args.layout,
                  "seed": args.seed},
        results_sha256=result.replicate_digest(),
        sweep=result.sweep.stats.to_dict(),
        uq={
            "spec": spec.to_dict(),
            "replicates": args.replicates,
            "ci": args.ci,
            "deterministic": spec.is_deterministic(),
            "summary_sha256": result.summary_digest(),
        },
    )
    if args.json:
        doc = {
            "n": args.n, "params": loggp_dict(params),
            "spec": spec.to_dict(),
            "replicates": args.replicates, "ci": args.ci,
            "rows": result.to_rows(),
            "summary_sha256": result.summary_digest(),
            "results_sha256": result.replicate_digest(),
        }
        if sensitivity is not None:
            doc["sensitivity"] = sensitivity
        print(json.dumps(doc, indent=2))
        return 0
    noise_label = (
        f"posterior {spec.fingerprint()}" if args.posterior
        else f"sigma={args.sigma:g}"
    )
    for layout in args.layout:
        mine = [s for s in result.summaries if s.layout == layout]
        print(format_ci_band_table(
            mine,
            title=(
                f"{layout} mapping, n={args.n}: predicted time [s], "
                f"{int(args.ci * 100)}% CI over {args.replicates} replicates "
                f"({noise_label})"
            ),
        ))
        if sensitivity is not None:
            print()
            print(format_sensitivity_table(
                sensitivity[layout],
                title=f"{layout} mapping: LogGP elasticities (OAT)",
            ))
        print()
    for path in svg_paths:
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import PredictionClient, PredictionService, ServeConfig, serve_http

    params = _machine(args)
    config = ServeConfig(
        store_dir=args.store,
        cache_size=args.cache_size,
        batch_window_s=args.batch_window_ms / 1000.0,
        batch_max=args.batch_max,
        manifest_dir=args.serve_manifests,
        machine=params,
    )
    _record(args).note(
        params=loggp_dict(params), engine="serve",
        workload={
            "host": args.host, "port": args.port, "store": args.store,
            "cache_size": args.cache_size, "batch_max": args.batch_max,
            "batch_window_ms": args.batch_window_ms, "check": args.check,
        },
    )
    if args.check:
        with PredictionService(config) as service:
            client = PredictionClient.in_process(service)
            cold = client.predict(n=120, b=30, layout="diagonal")
            warm = client.predict(n=120, b=30, layout="diagonal")
            ok = cold.digest == warm.digest and warm.cache_tier == "memory"
            stats = service.stats()
        _record(args).note(digest=cold.digest, serve=stats)
        doc = {
            "status": "ok" if ok else "error",
            "digest": cold.digest,
            "tiers": [cold.cache_tier, warm.cache_tier],
            "stats": stats,
        }
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(
                f"serve self-test: {doc['status']} "
                f"(tiers {cold.cache_tier} -> {warm.cache_tier}, "
                f"digest {cold.digest[:16]}...)"
            )
        return 0 if ok else 1
    service = PredictionService(config)
    server = serve_http(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"repro serve listening on http://{host}:{port} "
        f"(store={args.store or 'none'}, cache={args.cache_size}, "
        f"window={args.batch_window_ms:g}ms)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        service.close()
        _record(args).note(serve=service.stats())
    return 0


def _cmd_ops(args: argparse.Namespace) -> int:
    if args.source == "calibrated":
        table = calibrated_table(args.blocks)
        title = "calibrated CS-2 stand-in [ms]"
    else:
        table = measure_op_costs(args.blocks, repeats=args.repeats)
        title = "host-measured [ms]"
    _record(args).note(workload={"blocks": args.blocks, "source": args.source})
    rows = [
        {"b": b, **{op: table[op][b] / 1000.0 for op in OP_NAMES}} for b in args.blocks
    ]
    print(format_table(rows, ["b", *OP_NAMES], title=title))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    layout = LAYOUTS[args.layout](args.n // args.b, args.procs)
    trace = build_ge_trace(GEConfig(n=args.n, b=args.b, layout=layout))
    save_trace(trace, args.output)
    _record(args).note(
        workload={"n": args.n, "b": args.b, "layout": args.layout, "P": args.procs},
        steps=len(trace), ops=trace.total_ops(), messages=trace.total_messages(),
    )
    print(
        f"wrote {args.output}: {len(trace)} steps, {trace.total_ops()} ops, "
        f"{trace.total_messages()} messages"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .apps.gauss import GEConfig as _GEConfig
    from .machine import profile_program

    params = _machine(args)
    layout = LAYOUTS[args.layout](args.n // args.b, params.P)
    trace = build_ge_trace(_GEConfig(n=args.n, b=args.b, layout=layout))
    tracer = _wants_trace(args)
    profile = profile_program(
        trace, params, CalibratedCostModel(), mode=args.mode, seed=args.seed,
        tracer=tracer,
    )
    _export_trace(args, tracer)
    _record(args).note(
        params=loggp_dict(params), engine=args.mode,
        workload={"n": args.n, "b": args.b, "layout": args.layout},
        makespan_us=profile.makespan_us,
    )
    if args.json:
        print(json.dumps({
            "n": args.n, "b": args.b, "layout": args.layout, "mode": args.mode,
            "params": loggp_dict(params), "makespan_us": profile.makespan_us,
            "processors": {
                str(p): {k: getattr(prof, k) for k in
                         ("compute", "send", "recv", "wait", "idle")}
                for p, prof in profile.processors.items()
            },
            "utilization": profile.utilization,
        }, indent=2))
        return 0
    print(profile.describe())
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from .apps.gauss import GEConfig as _GEConfig
    from .machine import profile_program

    params = _machine(args)
    layout = LAYOUTS[args.layout](args.n // args.b, params.P)
    trace = build_ge_trace(_GEConfig(n=args.n, b=args.b, layout=layout))

    tracer = Tracer(config=_trace_config(args))
    tracer.context = _root_context(args)
    args.obs_tracer = tracer
    with tracer.span("observe.simulate"):
        profile = profile_program(
            trace, params, CalibratedCostModel(), mode=args.mode,
            seed=args.seed, tracer=tracer,
        )
    sums, makespan = bucket_sums(
        tracer.events, trace.num_procs, makespan=profile.makespan_us
    )

    if args.trace_out:
        write_chrome_trace(tracer.events, args.trace_out, metrics=tracer.metrics)
    if args.events_out:
        write_events_jsonl(tracer.events, args.events_out)
    if args.csv_out:
        write_events_csv(tracer.events, args.csv_out)
    if args.trace_shards:
        write_shard(
            Path(args.trace_shards) / "shard-main.jsonl", tracer, label="main"
        )

    _record(args).note(
        params=loggp_dict(params), engine=args.mode,
        workload={"n": args.n, "b": args.b, "layout": args.layout},
        makespan_us=profile.makespan_us,
    )
    if args.json:
        print(json.dumps({
            "n": args.n, "b": args.b, "layout": args.layout, "mode": args.mode,
            "params": loggp_dict(params), "makespan_us": makespan,
            "processors": {str(p): buckets for p, buckets in sums.items()},
            "event_count": len(tracer.events),
            "metrics": tracer.metrics.snapshot(),
        }, indent=2))
        return 0
    print(
        f"{args.n}x{args.n} GE, b={args.b}, layout={args.layout}, "
        f"mode={args.mode}  ({params.describe()})"
    )
    print(profile.describe())
    print(f"events: {len(tracer.events)}, metrics: {len(tracer.metrics)}")
    for flag, path in (
        ("trace", args.trace_out), ("events", args.events_out), ("csv", args.csv_out),
    ):
        if path:
            print(f"wrote {flag}: {path}")
    return 0


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    paths: list[Path] = []
    for item in args.shards:
        p = Path(item)
        if p.is_dir():
            paths.extend(shard_paths(p))
        else:
            paths.append(p)
    if not paths:
        print("error: no shard files found", file=sys.stderr)
        return 2
    merged = merge_shards(paths)
    report = validate_span_tree(merged.events, extra_roots=args.extra_root)
    digest = trace_digest(merged.events)
    if args.output:
        write_merged_trace(merged, args.output)
    if args.events_out:
        write_merged_events(merged, args.events_out)
    _record(args).note(
        engine="trace-merge",
        workload={"shards": [str(p) for p in paths]},
        trace_merge={
            "digest": digest,
            "events": len(merged.events),
            **report.to_dict(),
        },
    )
    doc = {
        "shards": [str(p) for p in paths],
        "labels": merged.shards,
        "trace_ids": merged.trace_ids,
        "events": len(merged.events),
        "spans": report.spans,
        "orphans": len(report.orphans),
        "ok": report.ok,
        "digest": digest,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"merged {len(paths)} shards: {len(merged.events)} events, "
            f"{report.spans} spans, {len(report.orphans)} orphans"
        )
        print(f"digest {digest}")
        for flag, path in (("trace", args.output), ("events", args.events_out)):
            if path:
                print(f"wrote {flag}: {path}")
    if args.strict and not report.ok:
        for orphan in report.to_dict()["orphans"]:
            print(
                f"orphan span: {orphan['name']} "
                f"(parent {orphan['parent_span_id']})",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .core.fitting import assess_fit, emulator_runner, fit_loggp

    truth = _machine(args)
    if args.jitter:
        from .machine import JitteredNetwork

        net = JitteredNetwork(params=truth, seed=args.seed)
        runner = emulator_runner(truth, latency_of=net.latency_of)
    else:
        runner = emulator_runner(truth, seed=args.seed)
    fitted = fit_loggp(runner, num_procs=truth.P, repeats=args.repeats)
    errors = assess_fit(fitted, truth)
    _record(args).note(
        params=loggp_dict(truth), engine="fit",
        workload={"jitter": args.jitter, "repeats": args.repeats},
        fitted=loggp_dict(fitted),
    )
    print(f"truth : {truth.describe()}")
    print(f"fitted: {fitted.describe()}")
    print(
        "errors: "
        + ", ".join(f"{k}={100 * v:.2f}%" for k, v in sorted(errors.items()))
    )
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from .analysis.svg import save_timeline_svg

    params = _machine(args)
    pattern = _PATTERNS[args.pattern](params.P if args.pattern != "sample" else 10, args.size)
    result = _ALGORITHMS[args.algorithm](params, pattern, seed=args.seed)
    save_timeline_svg(
        result.timeline,
        args.output,
        width=args.svg_width,
        title=f"{args.algorithm} algorithm, {args.pattern} pattern",
    )
    _record(args).note(
        params=loggp_dict(params), engine=args.algorithm,
        workload={"pattern": args.pattern, "size": args.size},
        makespan_us=result.completion_time,
    )
    print(f"wrote {args.output} (completion {result.completion_time:.2f} us)")
    return 0


_COMMANDS = {
    "timeline": _cmd_timeline,
    "predict": _cmd_predict,
    "sweep": _cmd_sweep,
    "uq": _cmd_uq,
    "serve": _cmd_serve,
    "ops": _cmd_ops,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "observe": _cmd_observe,
    "fit": _cmd_fit,
    "calibrate": _cmd_calibrate,
    "trace-merge": _cmd_trace_merge,
    "svg": _cmd_svg,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every invocation writes a :class:`repro.obs.RunRecord` manifest
    (unless ``--no-manifest``); manifest I/O failures warn on stderr but
    never change the exit code.
    """
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv_list)
    rec = RunRecord.begin(args.command, argv_list)
    args.run_record = rec
    logger = None
    if getattr(args, "log_jsonl", None):
        logger = JsonlLogger(args.log_jsonl)
        set_logger(logger)
    status = "ok"
    try:
        code = _COMMANDS[args.command](args)
        if code != 0:
            status = "error"
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rec.note(error=str(exc))
        status = "error"
        return 2
    finally:
        rec.finish(tracer=getattr(args, "obs_tracer", None), status=status)
        if logger is not None:
            logger.log(
                "cli.run", command=args.command, status=status,
                wall_s=rec.wall_s, trace_id=rec.trace_id or None,
            )
            set_logger(None)
            logger.close()
        if not getattr(args, "no_manifest", False):
            try:
                rec.write(getattr(args, "manifest_out", None))
            except OSError as exc:  # pragma: no cover - environment-dependent
                print(f"warning: could not write run manifest: {exc}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
