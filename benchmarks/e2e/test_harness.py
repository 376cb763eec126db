"""Tests of the benchmark harness itself: ``pytest benchmarks/e2e``."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import boot
import compare
import layers
import run
from stats import beyond, nearest_rank, quartiles, spread

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_nearest_rank_picks_observed_samples():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.9) == 5.0
    assert nearest_rank(values, 0.2) == 1.0
    assert nearest_rank([7.0], 0.99) == 7.0
    assert nearest_rank(list(range(1, 101)), 0.99) == 99


def test_nearest_rank_counts_beyond():
    # 4000 requests leave 40 samples past p99, 400 past p90
    assert beyond(4000, 0.99) == 40
    assert beyond(4000, 0.90) == 400
    assert beyond(2, 0.5) == 1
    assert beyond(1, 0.99) == 0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_quartiles_match_statistics_module():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) == pytest.approx(1.0)


def _write(path, pid, spans, main=False, **extra):
    doc = {"pid": pid, "spans": spans, "counts": {}, "values": {}}
    if main:
        doc.update(main=True, stamps={"t_start": 0.0, "t_import": 0.5, "t_main": 1.0,
                                      "t_end": 11.0, "pid": pid})
    doc.update(extra)
    with open(path / f"spans-{pid}.jsonl", "a") as fh:
        fh.write(json.dumps(doc) + "\n")


def test_self_time_and_multi_pid_merge(tmp_path):
    # main process: run_sweep [2, 10] waits on the pool; a decide child [2, 3]
    _write(tmp_path, 1, [
        ["sweep.decide_executor", 2.0, 3.0, 1.0, "sweep.run_sweep", 7],
        ["sweep.run_sweep", 2.0, 10.0, 7.0, None, 7],
    ], main=True)
    # two pool workers, each flushing one chunk (plus a later flush of pid 2)
    _write(tmp_path, 2, [["sweep.point", 3.0, 6.0, 3.0, "sweep.chunk", 1],
                         ["sweep.chunk", 3.0, 6.0, 0.0, None, 1]])
    _write(tmp_path, 3, [["sweep.chunk", 3.0, 8.0, 5.0, None, 1]])
    _write(tmp_path, 2, [["sweep.chunk", 6.0, 8.0, 2.0, None, 1]],
           counts={"sweep.points_computed": 3})
    trace = layers.load(tmp_path)
    assert trace.mains == {1: {"t_start": 0.0, "t_import": 0.5, "t_main": 1.0,
                               "t_end": 11.0, "pid": 1}}
    assert layers.self_times(trace.spans)["sweep.chunk"] == (3, 7.0)
    metrics = layers.layer_metrics(trace, {1: (1.0, 11.0)})
    # [1, 2] and [10, 11] of the main window are covered by no span
    assert metrics["cli.unattributed_s"] == pytest.approx(2.0)
    assert metrics["cli.unattributed_pct"] == pytest.approx(20.0)
    assert metrics["cli.import_s"] == pytest.approx(0.5)
    # total = self times 1 + 7 + 3 + 0 + 5 + 2, plus 2 unattributed
    assert metrics["layers.total_s"] == pytest.approx(20.0)
    assert metrics["sweep.run_sweep.self_pct"] == pytest.approx(35.0)
    assert metrics["sweep.chunk.calls"] == 3
    assert metrics["sweep.points_computed"] == 3
    assert metrics["sweep.heaviest_point_s"] == pytest.approx(3.0)
    # chunks busy 3 + 5 + 2 over 2 workers x [3, 8]
    assert metrics["sweep.pool_busy_ratio"] == pytest.approx(1.0)
    # the layer shares and the unattributed rest add up to the whole
    unattributed_share = 100.0 * metrics["cli.unattributed_s"] / metrics["layers.total_s"]
    shares = sum(metrics[f"{n}.self_pct"] for n in layers.SPAN_NAMES)
    assert shares + unattributed_share == pytest.approx(100.0)


def test_covered_merges_overlaps_and_clips():
    assert layers.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert layers.covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert layers.covered([(2, 8), (3, 4)], 0, 10) == 6
    assert layers.covered([], 0, 10) == 0


def test_boot_wraps_exactly_the_reported_spans():
    names = {span for _, _, span in boot.FUNCTIONS}
    names |= {span for *_, span in boot.METHODS if isinstance(span, str)}
    names |= {f"core.{kind}.{mode}" for kind in ("program_sim", "comm_step")
              for mode in ("standard", "worstcase")}
    assert names == set(layers.SPAN_NAMES)
    assert set(boot.AFTER) <= names


def test_zipf_schedule_is_a_function_of_the_seed():
    universe = run.serve_universe(run.FULL)
    assert len(universe) == 104 == 2 * run.FULL.serve_cache
    first = run.zipf_schedule(universe, 4000, seed=7)
    assert first == run.zipf_schedule(universe, 4000, seed=7)
    assert first != run.zipf_schedule(universe, 4000, seed=8)
    assert all(doc in universe for doc in first)
    # a zipf head: the most requested point takes a large share
    top = max(first.count(doc) for doc in universe)
    assert top > 4000 / len(universe) * 10


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, True)[0] == "improved"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, True)[0] == "regressed"
    assert compare.verdict(base, list(reversed(base)), 0.1, True)[0] == "within bound"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5]
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"
    # higher-is-better metrics read the other way round
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, False)[0] == "improved"
    result, wins = compare.verdict(base, [v * 1.05 for v in base], 0.1, True)
    assert (result, wins) == ("within bound", 0.0)


def test_compare_pairs_runs_by_seed(tmp_path):
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    for side, scale in (("a", 1.0), ("b", 1.5)):
        (tmp_path / side).mkdir()
        for seed in range(5):
            doc = {"workload": "w", "seed": seed, "trace": 0,
                   "metrics": {"wall_s": {"value": scale * (10 + seed / 10), "unit": "s"}}}
            (tmp_path / side / f"w-{seed}.json").write_text(json.dumps(doc))
    out = io.StringIO()
    assert compare.compare(tmp_path / "a", tmp_path / "b", [metric], out=out) == 1
    assert "5 paired by seed" in out.getvalue() and "regressed" in out.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_benchmark_metric(trace):
    section = "per_layer" if trace else "end_to_end"
    wanted = {(m["name"], m["unit"]) for m in BENCHMARK[section]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {(k, m["unit"]) for k, m in result["metrics"].items()} == wanted
