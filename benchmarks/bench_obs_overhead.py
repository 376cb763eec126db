"""Observability overhead guard.

PR 1 made the simulators observable; PR 6's ring-buffer tracer makes
observability affordable.  This bench quantifies both halves of that
claim on the Figure 7 prediction sweep:

* ``disabled_overhead_pct`` — an upper bound on what the disabled hooks
  cost, computed as (number of emission-site checks) x (measured cost of
  one ``get_tracer().enabled`` check) relative to the sweep time.  The
  check count is bounded by the events an *enabled* run emits, since
  every disabled site corresponds to at most one suppressed event.  Each
  of ``DISABLED_ROUNDS`` rounds times a check loop and an untraced sweep
  back to back, so both see the same host load; the recorded bound is
  the median round's.  (On a shared 2-CPU host either input alone drifts
  about 2x between moments.)  Target (asserted always): **< 5%**.
* ``enabled_overhead_pct`` — the honest price of recording: the same
  sweep under a live default-config tracer, relative to the disabled
  run.  Target (asserted on >= 4-CPU hosts, and CI-gated by
  ``check_throughput.py --obs-enabled``): **<= 10%**.  The pre-ring-buffer
  tracer measured 109% here.
* ``per_event_emit_ns`` — the marginal recording cost per retained
  event, ``(enabled_s - disabled_s) / events``.
* ``sampled`` — the same sweep again under ``--trace-sample 16``-style
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
#: back-to-back (check loop, untraced sweep) pairs behind the disabled bound
DISABLED_ROUNDS = 5


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


def _disabled_rounds(rounds: int) -> list[tuple[float, float]]:
    """``(untraced sweep s, per-check s)`` pairs, each timed back to back."""
    out = []
    for _ in range(rounds):
        per_check_s = _per_check_cost_s()
        t0 = time.perf_counter()
        _kernel()
        out.append((time.perf_counter() - t0, per_check_s))
    return out


def _traced_sweep(config=None, repeats=2):
    """Best-of-``repeats`` enabled sweep: (seconds, retained events, tracer).

    A fresh tracer per repeat (the previous one is freed before the next
    run starts), so each repetition pays the same cold-buffer cost and
    the minimum is comparable with the fastest untraced round.
    """
    best = float("inf")
    tracer = None
    for _ in range(repeats):
        tracer = Tracer(config=config)
        with tracing(tracer):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    return best, len(tracer.events), tracer


def test_obs_overhead(benchmark):
    _kernel()  # warm calibration tables and trace builders

    rounds = _disabled_rounds(DISABLED_ROUNDS)
    disabled_s = min(sweep_s for sweep_s, _ in rounds)
    # sampled first: the default-config tracer below retains millions of
    # records, and holding those while timing the sampled sweep would
    # charge the smaller run for the bigger run's memory pressure
    sampled_s, sampled_events, _ = _traced_sweep(
        TraceConfig.parse(sample=SAMPLE_SPEC)
    )
    enabled_s, events, tracer = _traced_sweep()

    # each round's bound from its own check loop and sweep; the median round
    round_bounds = [100.0 * events * per_check_s / sweep_s
                    for sweep_s, per_check_s in rounds]
    disabled_overhead_pct = statistics.median(round_bounds)
    per_check_s = statistics.median(per_check_s for _, per_check_s in rounds)
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
          f"(median of {DISABLED_ROUNDS} rounds "
          f"{min(round_bounds):.2f}-{max(round_bounds):.2f}%, "
          f"target < {TARGET_DISABLED_PCT}%)")
    print(f"  recorded -> {BENCH_JSON.name}")

    assert disabled_overhead_pct < TARGET_DISABLED_PCT
    if cpu_count >= 4:
        assert enabled_overhead_pct <= TARGET_ENABLED_PCT
    else:
        print(f"  note: {cpu_count} CPU(s) < 4 — enabled gate left to CI's "
              "check_throughput --obs-enabled")
