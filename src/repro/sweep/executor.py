"""Sweep execution: one fixed rule picks in-process serial or a process pool.

Two strategies run a grid's pending points, bit-identically:

``serial``
    Evaluate in-process through the vectorized batch kernel.  Zero
    dispatch overhead; always the floor the pool must beat.
``process``
    A process pool: linear CPU scaling for grids heavy enough to repay
    the pool's spawn and pickling cost.

``workers`` is the one knob.  An integer forces the strategy: ``1`` runs
serial, ``N > 1`` a pool of ``min(N, pending)``.  ``"auto"`` applies a
rule over the host's CPU count and the grid's :func:`grid_weight`: serial
on one CPU, for a single pending point, or for a grid lighter than
:data:`MIN_PARALLEL_WEIGHT`; otherwise a pool as wide as the CPUs (never
wider than the pending points).  The rule needs no timing, so it picks
the same strategy on every run of the same grid and host — and a cold
sweep evaluates its points in grid order, emitting exactly the event
stream of ``workers=1``.

Every decision is returned as an :class:`ExecutorDecision` and recorded
in the run manifest and the ``sweep.decide`` trace span, so a surprising
schedule can always be audited after the fact.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence, Union

from ..kernel.memo import point_weight

__all__ = [
    "MIN_PARALLEL_WEIGHT",
    "ExecutorDecision",
    "available_cpus",
    "check_workers",
    "grid_weight",
    "decide_executor",
]

#: ``workers="auto"`` keeps grids lighter than this (in :func:`point_weight`
#: units) in the main process.  Every paper-scale e2e grid weighs more
#: (the n=240 traced Figure 7 grid, the lightest, about 8.5e4); every
#: n=120 smoke grid weighs at most about 2.8e4.
MIN_PARALLEL_WEIGHT = 5e4


@dataclass(frozen=True)
class ExecutorDecision:
    """One executor choice and the numbers that produced it."""

    #: the strategy that will run: ``serial`` | ``process``
    executor: str
    #: the ``workers`` value the caller passed (``"auto"`` or an int)
    requested: Union[int, str]
    #: worker count the strategy will use (1 for serial)
    workers: int
    #: human-readable rationale, for manifests and trace spans
    reason: str
    cpu_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def available_cpus() -> int:
    """CPUs the scheduler may plan for (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def check_workers(workers: Union[int, str]) -> None:
    """Raise ``ValueError`` unless ``workers`` is ``"auto"`` or an int >= 1."""
    if workers == "auto" or (isinstance(workers, int) and workers >= 1):
        return
    raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")


def grid_weight(points: Iterable) -> float:
    """Total relative :func:`point_weight` of a grid."""
    return sum(point_weight(p.n, p.b, p.with_measured) for p in points)


def decide_executor(
    points: Sequence,
    workers: Union[int, str],
    *,
    cpu_count: Optional[int] = None,
) -> ExecutorDecision:
    """Choose how to execute ``points`` (the pending, uncached grid).

    ``workers`` is ``"auto"`` or an int >= 1 (see the module docstring).
    ``cpu_count`` overrides :func:`available_cpus`.
    """
    check_workers(workers)
    cpus = cpu_count if cpu_count is not None else available_cpus()
    n_pts = len(points)

    def serial(reason: str) -> ExecutorDecision:
        return ExecutorDecision(
            executor="serial", requested=workers, workers=1,
            reason=reason, cpu_count=cpus,
        )

    def pool(width: int, reason: str) -> ExecutorDecision:
        return ExecutorDecision(
            executor="process", requested=workers,
            workers=max(1, min(width, n_pts)), reason=reason, cpu_count=cpus,
        )

    if workers != "auto":
        if workers == 1:
            return serial("forced by caller")
        return pool(workers, "forced by caller")
    if n_pts <= 1:
        return serial(f"{n_pts} pending point(s): nothing to fan out")
    if cpus <= 1:
        # on one CPU a pool adds spawn + pickling on top of the same
        # serial compute (BENCH_sweep.json once recorded 0.87x of serial)
        return serial("single CPU: a pool only adds dispatch overhead")
    weight = grid_weight(points)
    if weight < MIN_PARALLEL_WEIGHT:
        return serial(
            f"grid too light to parallelise "
            f"(weight {weight:.3g} < {MIN_PARALLEL_WEIGHT:.3g})"
        )
    width = min(cpus, n_pts)
    return pool(
        width,
        f"grid weight {weight:.3g} >= {MIN_PARALLEL_WEIGHT:.3g}: "
        f"{width} workers on {cpus} CPUs",
    )
