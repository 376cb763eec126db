"""Observability overhead guard.

PR 1 made the simulators observable; PR 6's ring-buffer tracer makes
observability affordable.  This bench quantifies both halves of that
claim on the Figure 7 prediction sweep:

Every timing comes from ``ROUNDS`` interleaved rounds.  Each round
times, back to back, a loop of disabled emission-site checks, the sweep
untraced ("off"), the sweep under the sampled config and the sweep under
a default-config tracer ("on"), so the three sweeps of a round see the
same host load; a sweep's recorded time is the median over the rounds,
and every round's values are recorded too.  (On a shared 2-CPU host one
sweep drifts about 2x between moments, so a best-of-N taken at
different moments can misstate the overhead many times over.)

* ``disabled_overhead_pct`` — an upper bound on what the disabled hooks
  cost, computed as (number of emission-site checks) x (measured cost of
  one ``get_tracer().enabled`` check) relative to the sweep time.  The
  check count is bounded by the events an *enabled* run emits, since
  every disabled site corresponds to at most one suppressed event.  Each
  round's bound comes from its own check loop and untraced sweep; the
  recorded bound is the median round's.  Target (asserted always):
  **< 5%**.
* ``enabled_overhead_pct`` — the honest price of recording: the median
  sweep under a live default-config tracer, relative to the median
  untraced sweep.  Target (asserted on >= 4-CPU hosts, and CI-gated by
  ``check_throughput.py --obs-enabled``): **<= 10%**.  The
  pre-ring-buffer tracer measured 109% here.
* ``per_event_emit_ns`` — the marginal recording cost per retained
  event, ``(enabled_s - disabled_s) / events``.
* ``sampled`` — the same sweep under ``--trace-sample 16``-style
  config, demonstrating what deterministic sampling buys on top.

Results are printed and recorded into ``BENCH_obs.json`` at the repo
root (at reduced scale in ``benchmarks/results/BENCH_obs.reduced.json``,
the record CI checks).
"""

import json
import os
import statistics
import time

from _shared import (
    BLOCK_SIZES,
    COST_MODEL,
    MATRIX_N,
    PARAMS,
    REDUCED,
    bench_json,
    scale_banner,
)

from repro.core import run_ge_point
from repro.obs import RunRecord, TraceConfig, Tracer, get_tracer, loggp_dict, tracing

BENCH_JSON = bench_json("obs")
TARGET_DISABLED_PCT = 5.0
TARGET_ENABLED_PCT = 10.0
#: the sampled demonstration config (1-in-16 on the per-message categories)
SAMPLE_SPEC = "send=16,recv=16"
#: interleaved (check loop, off, sampled, on) rounds behind every timing
ROUNDS = 5


def _kernel():
    """The Fig. 7 kernel: prediction-only sweep over the block grid."""
    for b in BLOCK_SIZES:
        run_ge_point(
            MATRIX_N, b, "diagonal", PARAMS, COST_MODEL, with_measured=False
        )


def _per_check_cost_s(checks: int = 1_000_000) -> float:
    """Measured cost of one disabled emission-site check."""
    t0 = time.perf_counter()
    for _ in range(checks):
        get_tracer().enabled  # noqa: B018 - the expression IS the workload
    return (time.perf_counter() - t0) / checks


def _sweep(config=None):
    """One timed sweep: ``(seconds, tracer)``, untraced when ``config`` is None.

    A traced sweep gets a fresh tracer; its events are counted by the
    caller, outside the timed section.
    """
    if config is None:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0, None
    tracer = Tracer(config=config)
    with tracing(tracer):
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0, tracer


def _rounds(rounds: int):
    """``rounds`` interleaved rounds, and the last round's enabled tracer.

    Each round is a dict of its per-check cost and its off, sampled and
    on sweep times with their retained event counts.  The enabled run
    comes last in a round and its tracer is released before the next
    round starts, so no timed sweep runs while millions of records from
    an earlier one are still held.
    """
    sample = TraceConfig.parse(sample=SAMPLE_SPEC)
    out = []
    tracer = None
    for _ in range(rounds):
        tracer = None
        per_check_s = _per_check_cost_s()
        off_s, _ = _sweep()
        sampled_s, sampled = _sweep(sample)
        sampled_events = len(sampled.events)
        del sampled
        on_s, tracer = _sweep(TraceConfig())
        out.append({
            "per_check_ns": per_check_s * 1e9,
            "off_s": off_s,
            "sampled_s": sampled_s,
            "sampled_events": sampled_events,
            "on_s": on_s,
            "events": len(tracer.events),
        })
    return out, tracer


def test_obs_overhead(benchmark):
    _kernel()  # warm calibration tables and trace builders

    rounds, tracer = _rounds(ROUNDS)
    disabled_s = statistics.median(r["off_s"] for r in rounds)
    enabled_s = statistics.median(r["on_s"] for r in rounds)
    sampled_s = statistics.median(r["sampled_s"] for r in rounds)
    events = rounds[-1]["events"]
    sampled_events = rounds[-1]["sampled_events"]

    # each round's bound from its own check loop and sweep; the median round
    round_bounds = [100.0 * events * r["per_check_ns"] * 1e-9 / r["off_s"]
                    for r in rounds]
    disabled_overhead_pct = statistics.median(round_bounds)
    per_check_s = statistics.median(r["per_check_ns"] for r in rounds) * 1e-9
    per_event_emit_ns = 1e9 * (enabled_s - disabled_s) / events if events else 0.0
    enabled_overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s
    sampled_overhead_pct = 100.0 * (sampled_s - disabled_s) / disabled_s
    cpu_count = os.cpu_count() or 1

    benchmark.pedantic(_kernel, rounds=1, iterations=1)

    record = {
        "bench": "obs_overhead",
        "scale": scale_banner(),
        "fast": REDUCED,
        "n": MATRIX_N,
        "block_sizes": list(BLOCK_SIZES),
        "cpu_count": cpu_count,
        "rounds": len(rounds),
        "statistic": "median over interleaved rounds",
        "categories": "all",
        "sample_rate": 1,
        "sweep_disabled_s": disabled_s,
        "sweep_enabled_s": enabled_s,
        "events": events,
        "events_per_sec": events / enabled_s if enabled_s else None,
        "per_check_ns": per_check_s * 1e9,
        "per_event_emit_ns": per_event_emit_ns,
        "disabled_overhead_pct": disabled_overhead_pct,
        "disabled_bound_rounds": round_bounds,
        "enabled_overhead_pct": enabled_overhead_pct,
        "target_disabled_pct": TARGET_DISABLED_PCT,
        "target_enabled_pct": TARGET_ENABLED_PCT,
        "sampled": {
            "sample": SAMPLE_SPEC,
            "sweep_s": sampled_s,
            "events": sampled_events,
            "overhead_pct": sampled_overhead_pct,
        },
        "per_round": rounds,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    manifest = RunRecord.begin("bench:obs_overhead")
    manifest.note(
        params=loggp_dict(PARAMS), engine="standard",
        workload={"n": MATRIX_N, "block_sizes": list(BLOCK_SIZES), "fast": REDUCED},
        disabled_overhead_pct=disabled_overhead_pct,
        enabled_overhead_pct=enabled_overhead_pct,
    ).finish(tracer=tracer)
    # the meaningful wall time is the traced sweep, not begin()->finish()
    manifest.note(
        wall_s=enabled_s, event_count=events, events_per_sec=events / enabled_s
    ).write()

    print()
    print(f"observability overhead — {scale_banner()}")
    print(f"  medians of {len(rounds)} interleaved rounds on {cpu_count} CPU(s)")
    print(f"  sweep, tracing disabled : {disabled_s:8.3f} s")
    print(f"  sweep, tracing enabled  : {enabled_s:8.3f} s "
          f"({enabled_overhead_pct:+.1f}%, target <= {TARGET_ENABLED_PCT}%)")
    print(f"  sweep, sampled {SAMPLE_SPEC:>14s} : {sampled_s:8.3f} s "
          f"({sampled_overhead_pct:+.1f}%, {sampled_events} events)")
    print(f"  events recorded         : {events} "
          f"({events / enabled_s:,.0f} events/s)")
    print(f"  per-event emission      : {per_event_emit_ns:.1f} ns")
    print(f"  disabled-site check     : {per_check_s * 1e9:.1f} ns")
    print(f"  disabled overhead bound : {disabled_overhead_pct:.3f}% "
          f"(median of {len(rounds)} rounds "
          f"{min(round_bounds):.2f}-{max(round_bounds):.2f}%, "
          f"target < {TARGET_DISABLED_PCT}%)")
    print(f"  recorded -> {BENCH_JSON.name}")

    assert disabled_overhead_pct < TARGET_DISABLED_PCT
    if cpu_count >= 4:
        assert enabled_overhead_pct <= TARGET_ENABLED_PCT
    else:
        print(f"  note: {cpu_count} CPU(s) < 4 — enabled gate left to CI's "
              "check_throughput --obs-enabled")
