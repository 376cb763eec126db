"""Parallel sweep engine: paper-scale studies across worker processes.

The paper's evaluation is a grid study — every ``(n, b, layout, seed)``
point of Figures 7-9 — and growing the reproduction to larger grids
means the serial point-by-point loop no longer cuts it.  This package
fans a validated grid (:func:`expand_grid`) out across a process pool
(:func:`run_sweep`) with chunked scheduling, deterministic result
ordering, and safe coordination with a shared
:class:`repro.experiments.ExperimentStore` (atomic per-entry writes,
advisory locks, resume-by-short-circuit).

Quick start::

    from repro.core import MEIKO_CS2, CalibratedCostModel
    from repro.sweep import expand_grid, run_sweep

    grid = expand_grid(480, [20, 30, 40, 48, 60], ["diagonal", "stripped"])
    result = run_sweep(grid, MEIKO_CS2, CalibratedCostModel(),
                       workers=4, store=".repro/store")
    for point, summary in zip(result.points, result.summaries):
        print(point.describe(), summary.pred_standard_total)

The CLI front-end is ``python -m repro sweep [--workers auto|N]
[--store DIR --resume]``; the differential test suite pins
``run_sweep`` results to the one-point reference
:func:`repro.core.predictor.summarize_ge_point` bit for bit, under both
strategies.  ``--workers`` is the one execution knob: ``1`` runs serial
in-process, ``N > 1`` a process pool of N, and ``auto`` (the default)
picks between them by a fixed rule over the CPU count and the grid's
weight — see :mod:`repro.sweep.executor`.

:func:`run_point_batch` is the prediction service's entry: a small
batch of points, possibly under several machines and UQ specs, read
from the store and computed in the calling process with the same
chunk evaluator, with no executor decision and no pool.
"""

from .batch import BatchItem, BatchResult, run_point_batch
from .executor import ExecutorDecision, decide_executor
from .points import SweepPoint, expand_grid
from .runner import SweepResult, SweepStats, run_sweep

__all__ = [
    "SweepPoint",
    "expand_grid",
    "SweepResult",
    "SweepStats",
    "run_sweep",
    "BatchItem",
    "BatchResult",
    "run_point_batch",
    "ExecutorDecision",
    "decide_executor",
]
