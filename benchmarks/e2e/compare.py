"""Compare two sets of benchmark runs, workload by workload.

    python benchmarks/e2e/run.py --repeat 10 --seed 100 --out parent/   # on the parent
    python benchmarks/e2e/run.py --repeat 10 --seed 100 --out change/   # on the change
    python benchmarks/e2e/compare.py parent/ change/

For every workload and end-to-end metric of ``BENCHMARK.json`` this
prints each side's median and quartiles, the share of runs paired by
seed that the change wins (ties count for neither side), and a verdict:

* ``improved``     every change run beats every parent run, or the change
                   wins at least 9 of 10 pairs and the medians differ by
                   more than the parent's inter-quartile distance;
* ``regressed``    the change's median is worse than the parent's by more
                   than the metric's bound;
* ``unresolved``   either side's spread (inter-quartile distance over the
                   median) is wider than the bound, so neither of the
                   other verdicts can be told from noise;
* ``within bound`` otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402

BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """``workload -> {seed: metrics}`` of the untraced runs in ``directory``."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace") == 0:
            runs.setdefault(doc["workload"], {})[doc["seed"]] = {
                name: m["value"] for name, m in doc["metrics"].items()
            }
    return runs


def verdict(parent: list, change: list, bound: float, lower_is_better: bool):
    """``(verdict, win fraction)`` for one metric; runs are paired by index."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs) / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = (c_med - p_med) / p_med * (1 if lower_is_better else -1)
    q1, _, q3 = quartiles(parent)
    if all(better(c, p) for c in change for p in parent):
        return "improved", wins
    if worse_by > bound and all(better(p, c) for c in change for p in parent):
        return "regressed", wins
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved", wins
    if wins >= 0.9 and better(c_med, p_med) and abs(c_med - p_med) > q3 - q1:
        return "improved", wins
    if worse_by > bound:
        return "regressed", wins
    return "within bound", wins


def compare(parent_dir: Path, change_dir: Path, metrics: list, out=sys.stdout) -> int:
    """Print the comparison table; returns how many metrics regressed."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    regressed = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        if seeds:
            p_list = [p_runs[s] for s in seeds]
            c_list = [c_runs[s] for s in seeds]
        else:  # no common seeds: pair in seed order
            p_list = [p_runs[s] for s in sorted(p_runs)]
            c_list = [c_runs[s] for s in sorted(c_runs)]
        print(f"{workload}  ({len(p_list)} parent runs, {len(c_list)} change runs, "
              f"{len(seeds)} paired by seed)", file=out)
        for m in metrics:
            name = m["name"]
            p_vals = [r[name] for r in p_list]
            c_vals = [r[name] for r in c_list]
            result, wins = verdict(p_vals, c_vals, m["bound"], m["better"] == "lower")
            regressed += result == "regressed"
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(f"  {name:16s} {m['unit']:>5s}  parent {pq[1]:11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"  change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"  wins {wins:4.0%}  bound {m['bound']:.0%}  {result}", file=out)
    return regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    return 1 if compare(Path(argv[0]), Path(argv[1]), metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
