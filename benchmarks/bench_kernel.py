"""Steady-state throughput of the simulation kernel.

The kernel (:mod:`repro.kernel`) exists to make the Figure 7 sweep hot
path — GE predictions (all three engines' work lives here) plus the
emulated "measured" run per point — cheap enough for dense grids and
Monte Carlo studies.  This bench quantifies it on exactly that workload
and gates the two claims the kernel makes:

* ``identical``        — the kernel sweep's ``results_sha256`` equals
  the reference sweep's (the simulators of ``tests/oracle.py``).  **The hard gate**: any bit of drift fails the
  bench outright, on every host.
* ``speedup``          — reference wall-clock / steady-state fast
  wall-clock.  Target ≥ 2×; asserted only on hosts with ≥ 4 CPUs
  (small/noisy runners can't time reliably; ``cpu_count`` is recorded
  so the number can be judged in context).

"Steady state" means caches warm: the first kernel pass populates the
cost memos (and doubles as the identity run), the second pass is the
one timed.  ``points_per_sec_fast`` from that pass
lands in ``BENCH_kernel.json`` at the repo root (at reduced scale in
``benchmarks/results/BENCH_kernel.reduced.json``), which
``benchmarks/check_throughput.py --kernel`` compares against the
checked-in baseline (``benchmarks/baselines/kernel_throughput.json``)
in CI.  Run standalone with ``python benchmarks/bench_kernel.py`` or
via ``pytest benchmarks/bench_kernel.py``.
"""

import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from _shared import (  # noqa: E402
    BLOCK_SIZES,
    COST_MODEL,
    LAYOUTS,
    MATRIX_N,
    PARAMS,
    REDUCED,
    bench_json,
    scale_banner,
)

from repro.kernel import clear_all_caches  # noqa: E402
from repro.obs import RunRecord, loggp_dict  # noqa: E402
from repro.sweep import expand_grid, run_sweep  # noqa: E402
from tests.oracle import reference_engine  # noqa: E402

BENCH_JSON = bench_json("kernel")
TARGET_SPEEDUP = 2.0


def _timed_sweep(grid, fast: bool):
    """One serial sweep on the kernel (``fast``) or the reference oracle."""
    with nullcontext() if fast else reference_engine():
        t0 = time.perf_counter()
        result = run_sweep(grid, PARAMS, COST_MODEL, workers=1, store=None)
        elapsed = time.perf_counter() - t0
    return result, elapsed


def run_bench() -> dict:
    grid = expand_grid(MATRIX_N, BLOCK_SIZES, LAYOUTS, with_measured=True)
    cpus = os.cpu_count() or 1

    clear_all_caches()
    ref, ref_s = _timed_sweep(grid, fast=False)
    clear_all_caches()
    warm, warmup_s = _timed_sweep(grid, fast=True)   # cold caches + identity run
    steady, fast_s = _timed_sweep(grid, fast=True)   # caches warm: the timed pass

    identical = ref.digest() == warm.digest() == steady.digest()
    speedup = ref_s / fast_s if fast_s else float("inf")
    record = {
        "bench": "kernel",
        "scale": scale_banner(),
        "fast_scale": REDUCED,
        "n": MATRIX_N,
        "block_sizes": list(BLOCK_SIZES),
        "layouts": list(LAYOUTS),
        "points": len(grid),
        "cpu_count": cpus,
        "reference_s": ref_s,
        "warmup_s": warmup_s,
        "fast_s": fast_s,
        "points_per_sec_ref": len(grid) / ref_s,
        "points_per_sec_fast": len(grid) / fast_s,
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_gated": cpus >= 4,
        "identical": identical,
        "results_sha256": steady.digest(),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    manifest = RunRecord.begin("bench:kernel")
    manifest.note(
        params=loggp_dict(PARAMS), engine="kernel",
        workload={"n": MATRIX_N, "block_sizes": list(BLOCK_SIZES),
                  "layouts": list(LAYOUTS), "fast_scale": REDUCED},
        **{k: record[k] for k in
           ("points", "cpu_count", "reference_s", "fast_s",
            "points_per_sec_fast", "speedup", "identical", "results_sha256")},
    ).finish().write()

    print()
    print(f"kernel — {scale_banner()}")
    print(f"  grid points               : {len(grid)}")
    print(f"  reference (tests oracle)  : {ref_s:8.3f} s "
          f"({record['points_per_sec_ref']:.2f} points/s)")
    print(f"  kernel, cold caches       : {warmup_s:8.3f} s")
    print(f"  kernel, steady state      : {fast_s:8.3f} s "
          f"({record['points_per_sec_fast']:.2f} points/s)")
    print(f"  speedup                   : {speedup:.2f}x "
          f"(target >= {TARGET_SPEEDUP}x, {cpus} CPUs"
          f"{'' if cpus >= 4 else ' — below 4, target not gated'})")
    print(f"  kernel == reference       : {identical}")
    print(f"  recorded -> {BENCH_JSON.name}")
    return record


def test_kernel_throughput():
    record = run_bench()
    assert record["identical"], "fast kernel drifted from reference results"
    if record["speedup_gated"]:
        assert record["speedup"] >= TARGET_SPEEDUP, (
            f"speedup {record['speedup']:.2f}x below {TARGET_SPEEDUP}x "
            f"on {record['cpu_count']} CPUs"
        )


if __name__ == "__main__":
    rec = run_bench()
    if not rec["identical"]:
        sys.exit("FAIL: fast kernel results differ from reference results")
    if rec["speedup_gated"] and rec["speedup"] < TARGET_SPEEDUP:
        sys.exit(
            f"FAIL: speedup {rec['speedup']:.2f}x below target "
            f"{TARGET_SPEEDUP}x on {rec['cpu_count']} CPUs"
        )
