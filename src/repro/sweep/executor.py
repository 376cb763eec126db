"""Self-tuning sweep execution: the paper's idea, pointed at ourselves.

The paper predicts a parallel program's running time from a calibrated
model instead of running it.  The sweep engine has the same scheduling
problem one level up: dispatching a grid to a process pool costs real
time (interpreter spawn, module import, argument pickling) that only
pays off when the simulation work dwarfs it — ``BENCH_sweep.json`` once
recorded a 4-worker sweep at **0.87x** of serial on a 1-CPU host
because nobody predicted that cost.  So the executor calibrates a cost
model of the sweep itself and *predicts* which of two strategies wins:

``serial``
    Evaluate in-process through the vectorized batch kernel.  Zero
    dispatch overhead; always the floor the pool must beat.
``process``
    A process pool: linear CPU scaling for grids whose estimated
    serial time clearly exceeds spawn+pickle overhead.

Inputs to the decision: the measured pool spawn overhead (once per
process, ~tens of milliseconds with fork, ~seconds with spawn), the
per-point cost estimate calibrated by the memo layer
(:func:`repro.kernel.memo.estimate_point_cost` — an EWMA over observed
evaluations, probed on the first point when cold) and the host's CPU
count.

Every decision is returned as an :class:`ExecutorDecision` and recorded
in the run manifest and the ``sweep.decide`` trace span, so a surprising
schedule can always be audited after the fact.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from ..kernel.memo import estimate_point_cost, point_weight
from ..obs import get_tracer

__all__ = [
    "EXECUTORS",
    "ExecutorDecision",
    "available_cpus",
    "measure_spawn_overhead",
    "estimate_grid_cost",
    "decide_executor",
]

#: accepted ``--executor`` values (``auto`` resolves to one of the rest)
EXECUTORS = ("auto", "serial", "process")

#: grids estimated cheaper than this never leave the main process: even a
#: forked pool costs a few tens of milliseconds plus per-chunk pickling
MIN_PARALLEL_S = 0.5

#: a process pool must predict at least this much advantage over serial
#: before we commit to it (estimates are coarse; ties go to the simpler
#: strategy, and a near-tie parallel run still pays pickling + teardown)
PROCESS_ADVANTAGE = 0.85


@dataclass(frozen=True)
class ExecutorDecision:
    """One executor choice and the numbers that produced it."""

    #: the strategy that will run: ``serial`` | ``process``
    executor: str
    #: what the caller asked for (``auto`` or a forced strategy)
    requested: str
    #: worker count the strategy will use (1 for serial)
    workers: int
    #: human-readable rationale, for manifests and trace spans
    reason: str
    cpu_count: int
    #: calibrated estimate of the pending grid's serial seconds (None
    #: when the cost model had no observations and no probe ran)
    est_total_s: Optional[float] = None
    #: measured pool spawn overhead (None when never measured)
    spawn_overhead_s: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def available_cpus() -> int:
    """CPUs the scheduler may plan for (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pool_probe(_arg):  # pragma: no cover - runs in the worker process
    return None


_SPAWN_CACHE: dict[Optional[str], float] = {}
_SPAWN_LOCK = threading.Lock()


def measure_spawn_overhead(mp_context: Optional[str] = None) -> float:
    """Measured seconds to stand up a 1-worker pool and run a no-op.

    This is the fixed cost a process-pool sweep pays before any point
    computes (interpreter fork/spawn, module import, first-task
    round-trip), timed on the executor class the sweep's pool uses.
    Measured once per process per start method and cached;
    ``REPRO_SPAWN_OVERHEAD_S`` overrides the measurement (CI and the
    regression tests pin it for determinism).
    """
    override = os.environ.get("REPRO_SPAWN_OVERHEAD_S")
    if override is not None:
        return float(override)
    with _SPAWN_LOCK:
        cached = _SPAWN_CACHE.get(mp_context)
        if cached is not None:
            return cached
    ctx = multiprocessing.get_context(mp_context)
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        pool.submit(_pool_probe, None).result()
    overhead = time.perf_counter() - t0
    with _SPAWN_LOCK:
        _SPAWN_CACHE[mp_context] = overhead
    return overhead


def clear_spawn_cache() -> None:
    """Forget measured spawn overheads (tests)."""
    with _SPAWN_LOCK:
        _SPAWN_CACHE.clear()


def estimate_grid_cost(points: Sequence) -> Optional[float]:
    """Calibrated serial seconds of a pending grid; ``None`` when cold."""
    total = 0.0
    for p in points:
        est = estimate_point_cost(p.n, p.b, p.with_measured)
        if est is None:
            return None
        total += est
    return total


def grid_weight(points: Iterable) -> float:
    """Total relative weight of a grid (for apportioning observations)."""
    return sum(point_weight(p.n, p.b, p.with_measured) for p in points)


def decide_executor(
    points: Sequence,
    requested: str,
    workers: Optional[int],
    *,
    mp_context: Optional[str] = None,
    cpu_count: Optional[int] = None,
) -> ExecutorDecision:
    """Choose how to execute ``points`` (the pending, uncached grid).

    ``requested`` is one of :data:`EXECUTORS`; a forced strategy is
    honoured, ``auto`` runs the cost model.  The pool is ``workers``
    wide (``None``: every available CPU) and never wider than the
    number of pending points; ``auto`` also never plans more workers
    than CPUs.
    """
    if requested not in EXECUTORS:
        raise ValueError(
            f"unknown executor {requested!r}; expected one of {EXECUTORS}"
        )
    # deterministic decision telemetry: which strategies callers *ask* for
    # (the runner separately counts what was picked) — exposed at /metrics
    get_tracer().count(f"sweep.executor.requested.{requested}")
    cpus = cpu_count if cpu_count is not None else available_cpus()
    n_pts = len(points)
    width = workers if workers is not None and workers > 0 else cpus
    width = max(1, min(width, n_pts))

    if requested != "auto":
        return ExecutorDecision(
            executor=requested, requested=requested,
            workers=width if requested == "process" else 1,
            reason="forced by caller", cpu_count=cpus,
        )

    if n_pts <= 1:
        return ExecutorDecision(
            executor="serial", requested=requested, workers=1,
            reason=f"{n_pts} pending point(s): nothing to fan out",
            cpu_count=cpus,
        )
    if cpus <= 1:
        # The 0.87x regression, fixed at the source: on one CPU a pool
        # adds spawn + pickling on top of the same serial compute.
        return ExecutorDecision(
            executor="serial", requested=requested, workers=1,
            reason="single CPU: a pool only adds dispatch overhead",
            cpu_count=cpus,
        )
    est_total = estimate_grid_cost(points)
    if est_total is None:
        return ExecutorDecision(
            executor="serial", requested=requested, workers=1,
            reason="cost model uncalibrated: probe serially first",
            cpu_count=cpus,
        )
    if est_total < MIN_PARALLEL_S:
        return ExecutorDecision(
            executor="serial", requested=requested, workers=1,
            reason=(
                f"grid too cheap to parallelise "
                f"(est {est_total:.3f}s < {MIN_PARALLEL_S}s)"
            ),
            cpu_count=cpus, est_total_s=est_total,
        )
    pool_workers = min(width, cpus)
    spawn_s = measure_spawn_overhead(mp_context)
    t_process = spawn_s + est_total / pool_workers
    if t_process < PROCESS_ADVANTAGE * est_total:
        return ExecutorDecision(
            executor="process", requested=requested, workers=pool_workers,
            reason=(
                f"pool predicted {t_process:.3f}s vs serial "
                f"{est_total:.3f}s across {pool_workers} workers"
            ),
            cpu_count=cpus, est_total_s=est_total, spawn_overhead_s=spawn_s,
        )
    return ExecutorDecision(
        executor="serial", requested=requested, workers=1,
        reason=(
            f"pool predicted {t_process:.3f}s vs serial {est_total:.3f}s: "
            "spawn overhead eats the gain"
        ),
        cpu_count=cpus, est_total_s=est_total, spawn_overhead_s=spawn_s,
    )
