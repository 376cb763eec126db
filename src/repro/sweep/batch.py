"""Batch submission: heterogeneous prediction requests → grouped chunks.

:func:`run_sweep` evaluates one grid under one machine, in-process or,
for big grids, in a process pool.  The prediction service
(:mod:`repro.serve`) coalesces whatever distinct requests arrive inside
a batching window — a handful of points that may disagree on the
machine parameters or carry different UQ specs — and evaluates them in
its own process, with no executor decision and no pool.

:func:`run_point_batch` is that entrypoint: it groups items by
``(machine fingerprint, UQ tag)``, dedupes repeated points inside each
group, reads the store once per unique point (the sweep's own
short-circuit, :func:`repro.sweep.runner._read_stored`) and hands the
misses to the sweep's chunk evaluator
(:func:`repro.sweep.runner._evaluate_chunk`), which persists each
point it computes — also the ones finished before a failing point.  It
returns summaries aligned with the submitted items plus per-item
*source* attribution (``"cached"`` — the store already held it — or
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
from ..obs import get_tracer
from ..uq.spec import UQSpec
from .points import SweepPoint
from .runner import _evaluate_chunk, _open_store, _read_stored

__all__ = ["BatchItem", "BatchResult", "run_point_batch"]


@dataclass(frozen=True)
class BatchItem:
    """One submitted evaluation: a sweep point under a specific machine."""

    point: SweepPoint
    params: LogGPParameters
    uq: Optional[UQSpec] = None

    def group_key(self) -> tuple:
        """Items sharing this key share one store handle and one chunk."""
        uq_tag = None
        if self.uq is not None and not self.uq.is_identity():
            uq_tag = self.uq.fingerprint()
        return (loggp_fingerprint(self.params), uq_tag)


@dataclass
class BatchResult:
    """A completed batch: per-item summaries and sources."""

    #: aligned with the submitted items
    summaries: list[PointSummary]
    #: ``"cached"`` (store tier) or ``"computed"`` per item
    sources: list[str]
    #: how many machine/UQ groups the batch split into
    groups: int

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
) -> BatchResult:
    """Evaluate a heterogeneous batch, one store-backed chunk per group.

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

    The misses of every group are computed serially in the calling
    process.  A point that raises fails the batch; the points its group
    finished before it are already in the store.
    """
    items = list(items)
    # -- group by (machine, uq), first-occurrence order ----------------------
    groups: dict[tuple, list[int]] = {}
    for idx, item in enumerate(items):
        groups.setdefault(item.group_key(), []).append(idx)

    summaries: list[Optional[PointSummary]] = [None] * len(items)
    sources: list[Optional[str]] = [None] * len(items)
    for indices in groups.values():
        rep = items[indices[0]]
        # dedupe repeated points inside the group, preserving order
        unique = list(dict.fromkeys(items[idx].point for idx in indices))
        position = {point: pos for pos, point in enumerate(unique)}
        store = _open_store(store_dir, rep.params, cost_model, rep.uq)
        found, pending = _read_stored(unique, store)
        computed: dict[int, PointSummary] = {}
        if pending:
            computed = dict(
                _evaluate_chunk(pending, rep.params, cost_model, store, rep.uq)
            )
            get_tracer().count("sweep.points_computed", len(computed))
        for idx in indices:
            pos = position[items[idx].point]
            hit = found[pos]
            summaries[idx] = hit if hit is not None else computed[pos]
            sources[idx] = "cached" if hit is not None else "computed"

    return BatchResult(
        summaries=summaries,  # type: ignore[arg-type]
        sources=sources,  # type: ignore[arg-type]
        groups=len(groups),
    )
