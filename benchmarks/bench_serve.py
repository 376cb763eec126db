"""Load test of the prediction service under a zipf-distributed mix.

Eight client threads hammer one in-process :class:`PredictionService`
(the same object ``repro serve`` wraps in a ``ThreadingHTTPServer``)
with ≥ 1000 requests drawn zipf-style (weight ∝ 1/rank^s) over a
bounded universe of distinct GE points — the access pattern a shared
prediction endpoint actually sees: a hot head, a long tail.

The cache is sized to *half* the distinct universe, so the run
exercises every tier: the hot head answers from memory, the evicted
tail from the experiment store, and each point is simulated at most
once (single-flight absorbs concurrent duplicates).

Gates (both hard, on every host):

* ``identical``  — for every distinct point, the served digest equals
  ``point_digest(summarize_ge_point(...))`` computed directly, and all
  responses for the same point agree.  The serve layer may never trade
  correctness for latency.
* ``hit_rate``   — ≥ 80% of successful requests answered from a cache
  tier (memory / store / in-flight).  By construction the miss count
  is bounded by the distinct-point count, so a failure here means the
  cache or single-flight table is broken, not that the mix was unlucky.

Latency (server-side, exact nearest-rank quantiles — the tracker
window exceeds the request count) and throughput are recorded, not
gated: they land in ``BENCH_serve.json`` at the repo root (at reduced
scale in ``benchmarks/results/BENCH_serve.reduced.json``, which CI
regenerates and uploads as an artifact).

Run standalone with ``python benchmarks/bench_serve.py`` or via
``pytest benchmarks/bench_serve.py``.
"""

import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _shared import COST_MODEL, LAYOUTS, PARAMS, REDUCED, bench_json  # noqa: E402

from repro.core.predictor import summarize_ge_point  # noqa: E402
from repro.obs import RunRecord, loggp_dict  # noqa: E402
from repro.serve import (  # noqa: E402
    PredictionClient,
    PredictionService,
    ServeConfig,
    point_digest,
)

BENCH_JSON = bench_json("serve")

#: the serve workload has its own scale: many *distinct* cheap points
#: (prediction only, no emulated measurement) rather than few expensive
#: ones — the cache hierarchy is the thing under load, not the kernel.
MATRIX_N = 240 if REDUCED else 480
BLOCK_SIZES = (
    (8, 10, 12, 16, 20, 24, 30, 40)
    if REDUCED
    else (8, 10, 12, 15, 16, 20, 24, 30, 32, 40, 48, 60, 80, 96, 120)
)
SEEDS = (0, 1)
REQUESTS = 1200 if REDUCED else 2400
THREADS = 8
ZIPF_S = 1.1
ZIPF_SEED = 2026
HIT_RATE_GATE = 0.80


def request_universe() -> list[dict]:
    """Every distinct request document of the run, hottest first."""
    return [
        {"n": MATRIX_N, "b": b, "layout": layout, "seed": seed}
        for b in BLOCK_SIZES
        for layout in LAYOUTS
        for seed in SEEDS
    ]


def zipf_schedule(universe: list[dict]) -> list[dict]:
    """REQUESTS docs drawn with weight ∝ 1/rank^s (deterministic)."""
    rng = random.Random(ZIPF_SEED)
    ranked = list(universe)
    rng.shuffle(ranked)  # popularity is not correlated with block size
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=REQUESTS)


def hammer(service: PredictionService, schedule: list[dict]):
    """Drive the schedule from THREADS client threads; return digests.

    Returns ``(digests, errors)`` where ``digests`` maps each distinct
    point key to the set of digests its responses carried (the identity
    gate requires every set to be a singleton).
    """
    client = PredictionClient.in_process(service)
    digests: dict[tuple, set] = {}
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(THREADS)

    def worker(tid: int):
        local: dict[tuple, set] = {}
        failures: list[str] = []
        barrier.wait()
        for doc in schedule[tid::THREADS]:
            try:
                answer = client.predict_doc(dict(doc))
            except Exception as exc:  # noqa: BLE001 — recorded, gated below
                failures.append(f"{doc}: {exc}")
                continue
            key = (doc["n"], doc["b"], doc["layout"], doc["seed"])
            local.setdefault(key, set()).add(answer.digest)
        with lock:
            for key, seen in local.items():
                digests.setdefault(key, set()).update(seen)
            errors.extend(failures)

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return digests, errors


def run_bench() -> dict:
    universe = request_universe()
    schedule = zipf_schedule(universe)

    with tempfile.TemporaryDirectory() as tmp:
        config = ServeConfig(
            store_dir=str(Path(tmp) / "store"),
            cache_size=max(8, len(universe) // 2),  # force tier-2 traffic
            batch_window_s=0.005,
        )
        with PredictionService(config) as service:
            t0 = time.perf_counter()
            digests, errors = hammer(service, schedule)
            duration_s = time.perf_counter() - t0
            stats = service.stats()

    # -- gate 1: bit-identity against the direct serial engine ---------------
    direct = {
        (doc["n"], doc["b"], doc["layout"], doc["seed"]): point_digest(
            summarize_ge_point(
                doc["n"], doc["b"], doc["layout"], PARAMS, COST_MODEL,
                with_measured=False, seed=doc["seed"],
            )
        )
        for doc in universe
    }
    drifted = sorted(
        key for key, seen in digests.items() if seen != {direct[key]}
    )
    identical = not errors and not drifted and len(digests) == len(universe)

    record = {
        "schema": "repro.bench.serve/v1",
        "fast": REDUCED,
        "scale": {
            "n": MATRIX_N,
            "block_sizes": list(BLOCK_SIZES),
            "layouts": list(LAYOUTS),
            "seeds": list(SEEDS),
        },
        "distinct_points": len(universe),
        "requests": REQUESTS,
        "threads": THREADS,
        "zipf_s": ZIPF_S,
        "cache_size": max(8, len(universe) // 2),
        "duration_s": round(duration_s, 4),
        "throughput_rps": round(REQUESTS / duration_s, 1),
        "hit_rate": stats["hit_rate"],
        "hit_rate_gate": HIT_RATE_GATE,
        "tiers": stats["tiers"],
        "batches": stats["batches"],
        "evictions": stats["cache"]["evictions"],
        "latency_us": stats["latency_us"],
        "errors": len(errors),
        "drifted_points": len(drifted),
        "identical": identical,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    manifest = RunRecord.begin("bench:serve")
    manifest.note(
        params=loggp_dict(PARAMS), engine="serve",
        workload={"n": MATRIX_N, "block_sizes": list(BLOCK_SIZES),
                  "requests": REQUESTS, "threads": THREADS,
                  "zipf_s": ZIPF_S, "fast": REDUCED},
        **{k: record[k] for k in
           ("distinct_points", "hit_rate", "tiers", "batches",
            "throughput_rps", "latency_us", "identical")},
    ).finish().write()

    mode = "REPRO_BENCH_REDUCED reduced scale" if REDUCED else "paper scale"
    lat = stats["latency_us"]
    print()
    print(f"prediction service — {mode}: n={MATRIX_N}, "
          f"{len(universe)} distinct points, {PARAMS.describe()}")
    print(f"  requests                    : {REQUESTS} "
          f"from {THREADS} threads (zipf s={ZIPF_S})")
    print(f"  wall / throughput           : {duration_s:8.3f} s "
          f"/ {record['throughput_rps']:.0f} req/s")
    print(f"  cache hit rate              : {stats['hit_rate']:.3f} "
          f"(gate >= {HIT_RATE_GATE})")
    print(f"  tiers                       : {stats['tiers']}")
    print(f"  batches                     : {stats['batches']['count']} "
          f"({stats['batches']['points']} points, "
          f"max {stats['batches']['max_size']})")
    print(f"  latency p50 / p90 / p99     : {lat['p50']:.0f} / "
          f"{lat['p90']:.0f} / {lat['p99']:.0f} us")
    print(f"  served == direct            : {identical}")
    print(f"  recorded -> {BENCH_JSON.name}")
    return record


def test_serve_load():
    record = run_bench()
    assert record["identical"], (
        f"served answers drifted from the direct engine "
        f"({record['drifted_points']} points, {record['errors']} errors)"
    )
    assert record["hit_rate"] >= HIT_RATE_GATE, (
        f"cache hit rate {record['hit_rate']:.3f} below "
        f"gate {HIT_RATE_GATE} — tiers {record['tiers']}"
    )


if __name__ == "__main__":
    rec = run_bench()
    if not rec["identical"]:
        sys.exit(
            f"FAIL: served answers drifted from the direct engine "
            f"({rec['drifted_points']} points, {rec['errors']} errors)"
        )
    if rec["hit_rate"] < HIT_RATE_GATE:
        sys.exit(
            f"FAIL: cache hit rate {rec['hit_rate']:.3f} below "
            f"gate {HIT_RATE_GATE}"
        )
