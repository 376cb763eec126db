"""Batch submission: heterogeneous prediction requests → grouped sweeps.

:func:`run_sweep` evaluates one grid under one machine.  The prediction
service (:mod:`repro.serve`) coalesces whatever distinct requests arrive
inside a batching window — points that may disagree on the machine
parameters or carry different UQ specs — and needs them fanned through
the sweep engine *as few sweeps as possible* so the PR 7 self-tuning
executor and the vectorized batch kernel see whole batches, not
point-at-a-time calls.

:func:`run_point_batch` is that entrypoint: it groups items by
``(machine fingerprint, UQ tag)``, dedupes repeated points inside each
group, runs one store-backed :func:`run_sweep` per group, and hands back
summaries aligned with the submitted items plus per-item *source*
attribution (``"cached"`` — the store already held it — or
``"computed"``), which is how the serve layer tells a store-tier hit
from a genuine simulation without a second store read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..core.fingerprint import loggp_fingerprint
from ..core.loggp import LogGPParameters
from ..experiments import PointSummary
from ..uq.spec import UQSpec
from .points import SweepPoint
from .runner import SweepStats, run_sweep

__all__ = ["BatchItem", "BatchResult", "run_point_batch"]


@dataclass(frozen=True)
class BatchItem:
    """One submitted evaluation: a sweep point under a specific machine."""

    point: SweepPoint
    params: LogGPParameters
    uq: Optional[UQSpec] = None

    def group_key(self) -> tuple:
        """Items sharing this key can ride one :func:`run_sweep` call."""
        uq_tag = None
        if self.uq is not None and not self.uq.is_identity():
            uq_tag = self.uq.fingerprint()
        return (loggp_fingerprint(self.params), uq_tag)


@dataclass
class BatchResult:
    """A completed batch: per-item summaries plus per-group sweep stats."""

    #: aligned with the submitted items
    summaries: list[PointSummary]
    #: ``"cached"`` (store tier) or ``"computed"`` per item
    sources: list[str]
    #: one :class:`SweepStats` per executed machine/UQ group
    group_stats: list[SweepStats]

    @property
    def computed(self) -> int:
        """How many submitted items required a simulation."""
        return sum(1 for s in self.sources if s == "computed")

    @property
    def cached(self) -> int:
        """How many submitted items the store tier already held."""
        return sum(1 for s in self.sources if s == "cached")


def run_point_batch(
    items: Sequence[BatchItem],
    cost_model,
    *,
    store_dir: Union[str, Path, None] = None,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> BatchResult:
    """Evaluate a heterogeneous batch through grouped, store-backed sweeps.

    Parameters
    ----------
    items:
        The submitted evaluations, in response order.  Items may mix
        machines, UQ specs, seeds and ``with_measured`` freely; repeated
        identical points inside one group are evaluated once.
    cost_model:
        The cost model shared by every item (the server's).
    store_dir:
        Directory of the shared :class:`~repro.experiments.ExperimentStore`
        (tier 2).  Each group opens its own handle — entries are keyed by
        the group's machine fingerprint and UQ tag, so one directory
        safely serves every machine.  ``None`` computes without
        persistence (every item then reports ``"computed"``).
    workers, executor:
        Forwarded to :func:`run_sweep` per group (``executor="auto"``
        rides the self-tuning executor; ``None``/``None`` runs serial).
    """
    items = list(items)
    if not items:
        return BatchResult(summaries=[], sources=[], group_stats=[])

    # -- group by (machine, uq), first-occurrence order ----------------------
    groups: dict[tuple, list[int]] = {}
    for idx, item in enumerate(items):
        groups.setdefault(item.group_key(), []).append(idx)

    summaries: list[Optional[PointSummary]] = [None] * len(items)
    sources: list[Optional[str]] = [None] * len(items)
    group_stats: list[SweepStats] = []
    for indices in groups.values():
        rep = items[indices[0]]
        # dedupe repeated points inside the group, preserving order
        unique: list[SweepPoint] = []
        position: dict[SweepPoint, int] = {}
        for idx in indices:
            point = items[idx].point
            if point not in position:
                position[point] = len(unique)
                unique.append(point)
        point_source: dict[SweepPoint, str] = {}

        def _observe(done, total, point, source):
            point_source[point] = source

        result = run_sweep(
            unique, rep.params, cost_model,
            workers=workers,
            executor=executor,
            store=store_dir,
            resume=True,
            progress=_observe,
            uq=rep.uq,
        )
        group_stats.append(result.stats)
        for idx in indices:
            point = items[idx].point
            summaries[idx] = result.summaries[position[point]]
            sources[idx] = point_source.get(point, "computed")

    assert all(s is not None for s in summaries)
    return BatchResult(
        summaries=summaries,  # type: ignore[arg-type]
        sources=sources,  # type: ignore[arg-type]
        group_stats=group_stats,
    )
