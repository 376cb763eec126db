"""Batch (SoA) kernel vs scalar kernel on the Figure 7 workloads.

The vectorized batch kernel (:mod:`repro.kernel.vector`) advances many
sweep points per step over one compiled program plan; this bench
quantifies what that buys over the scalar kernel path on the two shapes
the sweep engine actually dispatches:

* ``grid``  — the Figure 7 prediction grid (every block size × both
  layouts, predictions only): one batch call vs a scalar
  ``summarize_ge_point``-shaped loop, both cold.
* ``lanes`` — a replicate batch (one GE configuration, many seeds, the
  UQ engine's shape): ``simulate_programs_batch`` vs per-lane scalar
  runs.

The scalar side is the whole-program loop over trace objects
(``tests/oracle.py::simulate_program_reference``) on the kernel's step
simulators: ``ProgramSimulator.run`` itself runs the batch replay, so
timing it would compare the batch path with itself.

Gates:

* ``identical`` — batch results are ``repr``-equal to scalar results on
  every point/lane/mode.  **The hard gate**, enforced on every host.
* ``speedup_grid`` — scalar / batch wall-clock on the grid workload.
  Target ≥ 1.1× (the batch path's win is algorithmic — lean event-free
  step sims plus SoA comp phases — not parallelism, so it is modest but
  CPU-count independent); asserted only at paper scale on hosts with
  ≥ 4 CPUs — reduced-scale points are too cheap for the lean sims to
  pay, and small-runner wall-clock is too noisy to gate.

Results land in ``BENCH_vector.json`` at the repo root (at reduced
scale in ``benchmarks/results/BENCH_vector.reduced.json``).  Run standalone
with ``python benchmarks/bench_vector.py`` or via
``pytest benchmarks/bench_vector.py``.
"""

import json
import os
import sys
import time
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

from repro.core import ProgramSimulator  # noqa: E402
from repro.kernel import clear_all_caches  # noqa: E402
from repro.kernel.vector import (  # noqa: E402
    GE_MODES,
    evaluate_ge_points_batch,
    ge_plan,
)
from repro.obs import RunRecord, loggp_dict  # noqa: E402
from repro.sweep import expand_grid  # noqa: E402
from tests.oracle import simulate_program_reference  # noqa: E402

BENCH_JSON = bench_json("vector")
TARGET_SPEEDUP = 1.1
LANE_SEEDS = tuple(range(8))
LANE_B = 60


def _scalar(trace, mode, seed):
    """One whole-program run of the object loop on the kernel's steps."""
    sim = ProgramSimulator(PARAMS, COST_MODEL, mode=mode, seed=seed)
    return simulate_program_reference(sim, trace)


def _grid_workload():
    # The scalar baseline walks each point's trace with the object loop:
    # summarize_ge_point and ProgramSimulator.run both route through the
    # batch kernel, which would compare batch against batch.
    from repro.core.predictor import GERow, _flatten_ge_row
    from repro.kernel.tracecache import ge_trace

    grid = expand_grid(MATRIX_N, BLOCK_SIZES, LAYOUTS, with_measured=False)

    clear_all_caches()
    t0 = time.perf_counter()
    scalar = []
    for p in grid:
        trace = ge_trace(p.n, p.b, p.layout, PARAMS.P)
        pred_std, pred_wc = (_scalar(trace, mode, p.seed) for mode in GE_MODES)
        scalar.append(
            _flatten_ge_row(
                GERow(n=p.n, b=p.b, layout=p.layout,
                      pred_standard=pred_std, pred_worstcase=pred_wc,
                      measured=None),
                p.seed,
            )
        )
    scalar_s = time.perf_counter() - t0

    clear_all_caches()
    t0 = time.perf_counter()
    batch = evaluate_ge_points_batch(grid, PARAMS, COST_MODEL)
    batch_s = time.perf_counter() - t0

    identical = all(
        {k: repr(v) for k, v in b.items()} == {k: repr(v) for k, v in s.items()}
        for b, s in zip(batch, scalar)
    )
    return len(grid), scalar_s, batch_s, identical


def _lane_workload():
    from repro.kernel.tracecache import ge_trace

    # the scalar lanes read the configuration as a trace, the batch lanes
    # as its compiled plan; both are built before either clock starts
    trace = ge_trace(MATRIX_N, LANE_B, "diagonal", PARAMS.P)
    plan = ge_plan(MATRIX_N, LANE_B, "diagonal", PARAMS.P)
    lanes = [(PARAMS, COST_MODEL)] * len(LANE_SEEDS)

    clear_all_caches()
    t0 = time.perf_counter()
    scalar = [
        {mode: _scalar(trace, mode, seed) for mode in GE_MODES}
        for seed in LANE_SEEDS
    ]
    scalar_s = time.perf_counter() - t0

    clear_all_caches()
    from repro.kernel.vector import simulate_programs_batch

    t0 = time.perf_counter()
    batch = simulate_programs_batch(plan, lanes, list(LANE_SEEDS), modes=GE_MODES)
    batch_s = time.perf_counter() - t0

    def key(report):
        return (
            repr(report.total_us),
            repr(report.per_proc_total_us),
            repr(report.per_proc_comp_us),
            repr(report.per_proc_comm_busy_us),
        )

    identical = all(
        key(b[mode]) == key(s[mode])
        for b, s in zip(batch, scalar)
        for mode in GE_MODES
    )
    return len(LANE_SEEDS), scalar_s, batch_s, identical


def run_bench() -> dict:
    cpus = os.cpu_count() or 1
    grid_pts, grid_scalar_s, grid_batch_s, grid_ok = _grid_workload()
    lane_n, lane_scalar_s, lane_batch_s, lane_ok = _lane_workload()

    record = {
        "bench": "vector",
        "scale": scale_banner(),
        "fast": REDUCED,
        "n": MATRIX_N,
        "block_sizes": list(BLOCK_SIZES),
        "layouts": list(LAYOUTS),
        "cpu_count": cpus,
        "grid_points": grid_pts,
        "grid_scalar_s": grid_scalar_s,
        "grid_batch_s": grid_batch_s,
        "speedup_grid": grid_scalar_s / grid_batch_s if grid_batch_s else float("inf"),
        "points_per_sec_batch": grid_pts / grid_batch_s if grid_batch_s else 0.0,
        "lane_count": lane_n,
        "lane_b": LANE_B,
        "lane_scalar_s": lane_scalar_s,
        "lane_batch_s": lane_batch_s,
        "speedup_lanes": lane_scalar_s / lane_batch_s if lane_batch_s else float("inf"),
        "target_speedup": TARGET_SPEEDUP,
        "speedup_gated": cpus >= 4 and not REDUCED,
        "identical": grid_ok and lane_ok,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    manifest = RunRecord.begin("bench:vector")
    manifest.note(
        params=loggp_dict(PARAMS), engine="vector",
        workload={"n": MATRIX_N, "block_sizes": list(BLOCK_SIZES),
                  "layouts": list(LAYOUTS), "fast": REDUCED},
        **{k: record[k] for k in
           ("grid_points", "cpu_count", "grid_scalar_s", "grid_batch_s",
            "speedup_grid", "speedup_lanes", "identical")},
    ).finish().write()

    print()
    print(f"vector batch kernel — {scale_banner()}")
    print(f"  grid points                : {grid_pts}")
    print(f"  grid scalar                : {grid_scalar_s:8.3f} s")
    print(f"  grid batch  (SoA)          : {grid_batch_s:8.3f} s")
    print(f"  grid speedup               : {record['speedup_grid']:.2f}x")
    print(f"  lanes ({lane_n} seeds, b={LANE_B})    "
          f"  : {lane_scalar_s:8.3f} s scalar / {lane_batch_s:8.3f} s batch "
          f"({record['speedup_lanes']:.2f}x)")
    print(f"  batch == scalar            : {record['identical']}")
    print(f"  recorded -> {BENCH_JSON.name}")
    return record


def test_vector_batch_speedup():
    record = run_bench()
    assert record["identical"], "batch kernel drifted from scalar results"
    if record["speedup_gated"]:
        assert record["speedup_grid"] >= TARGET_SPEEDUP, (
            f"grid speedup {record['speedup_grid']:.2f}x below "
            f"{TARGET_SPEEDUP}x on {record['cpu_count']} CPUs"
        )


if __name__ == "__main__":
    rec = run_bench()
    if not rec["identical"]:
        sys.exit("FAIL: batch kernel results differ from scalar results")
    if rec["speedup_gated"] and rec["speedup_grid"] < TARGET_SPEEDUP:
        sys.exit(
            f"FAIL: grid speedup {rec['speedup_grid']:.2f}x below target "
            f"{TARGET_SPEEDUP}x"
        )
