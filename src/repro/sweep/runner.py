"""The parallel sweep runner: grid points fanned across worker processes.

The paper's headline result (Figures 7-9) is a 14-block-size ×
multi-layout GE sweep; serially that is minutes of simulation.  This
runner executes the same grid across ``workers`` processes:

* **One execution knob.**  ``workers`` is ``"auto"`` or an int >= 1;
  a fixed rule over the CPU count and the grid's weight turns it into
  vectorized-serial or the process pool, recorded in the stats (hence
  the run manifest) and a ``sweep.decide`` span.  See
  :mod:`repro.sweep.executor`.
* **One evaluator.**  The serial arm and every pool worker evaluate
  their points through :func:`_evaluate_chunk`, which runs the whole
  chunk through the batch kernel, traced or not.
* **Chunked scheduling.**  Pending points are split into contiguous
  chunks (default: ~4 chunks per worker) dispatched to a process pool as
  workers free up, so a few slow points (large ``b``, measured runs)
  don't serialise the tail.
* **Deterministic results.**  Whatever order chunks complete in, the
  returned summaries are in grid order — ``result.summaries[i]`` always
  belongs to ``points[i]``, and a ``--workers 8`` sweep is bit-identical
  to a ``--workers 1`` sweep.
* **Shared-store coordination.**  With an :class:`ExperimentStore`
  attached, already-stored points are short-circuited *before* dispatch
  (``resume=True``; the only store read — ``resume=False`` recomputes
  and overwrites every point), and each worker persists every point it
  computes through the store's atomic, advisory-locked writes — so an
  interrupted sweep resumes where it stopped, and concurrent sweeps
  sharing a store never corrupt or duplicate entries.

Workers receive only picklable payloads (the point list, the LogGP
parameters, the cost model, the store *directory*) and re-open the store
themselves; results travel back as :class:`PointSummary` values.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from ..core.costmodel import CostModel
from ..core.loggp import LogGPParameters
from ..experiments import ExperimentStore, PointSummary
from ..kernel.memo import point_weight
from ..obs import NULL_TRACER, TraceConfig, TraceContext, Tracer, get_tracer, tracing
from ..obs.telemetry import write_shard
from ..uq.spec import UQSpec
from .executor import ExecutorDecision, check_workers, decide_executor, grid_weight
from .points import SweepPoint

__all__ = ["SweepStats", "SweepResult", "run_sweep"]

#: progress callback signature: (points done, points total, point, source)
#: where ``source`` is ``"cached"`` or ``"computed"``.
ProgressFn = Callable[[int, int, SweepPoint, str], None]

StoreLike = Union[ExperimentStore, str, Path, None]


@dataclass
class SweepStats:
    """How one sweep executed (the manifest's ``sweep`` block)."""

    total: int
    cached: int
    computed: int
    workers: int
    chunks: int
    wall_s: float = 0.0
    #: strategy that ran the pending points: serial | process
    executor: str = "serial"
    #: the :class:`~repro.sweep.executor.ExecutorDecision` that picked it
    #: (None when nothing was pending)
    decision: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepResult:
    """A completed sweep: summaries in grid order plus execution stats."""

    points: tuple[SweepPoint, ...]
    summaries: list[PointSummary]
    stats: SweepStats

    def rows(self) -> list[dict]:
        """JSON-ready rows in grid order (full totals and breakdowns)."""
        return [dict(s.__dict__) for s in self.summaries]

    def digest(self) -> str:
        """SHA-256 over the canonical result rows.

        Timing-free and order-stable, so two sweeps of the same grid
        agree on the digest iff they agree on every value — the
        cross-engine differential gate CI checks.
        """
        payload = json.dumps(self.rows(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def _evaluate_point(
    point: SweepPoint,
    params: LogGPParameters,
    cost_model: CostModel,
    store: Optional[ExperimentStore],
    uq: Optional[UQSpec] = None,
) -> PointSummary:
    """One point as a one-point batch: compute, then store put.

    What :func:`_evaluate_chunk` redoes a failed batch's unfinished
    points with.
    """
    return _evaluate_pending_batch([(0, point)], params, cost_model, store, uq)[0][1]


def _evaluate_chunk(
    indexed: list[tuple[int, SweepPoint]],
    params: LogGPParameters,
    cost_model: CostModel,
    store: Optional[ExperimentStore],
    uq: Optional[UQSpec],
) -> list[tuple[int, PointSummary]]:
    """``(index, summary)`` pairs of one chunk, in chunk order.

    The one evaluator behind the serial arm, every pool worker and a
    served batch's misses
    (:func:`repro.sweep.batch.run_point_batch`): the whole chunk goes
    through the batch evaluator (:func:`_evaluate_pending_batch`), whose
    lanes also emit the chunk's events when the caller is traced.  It
    computes every point it is given; which points are pending is the
    caller's call (:func:`_read_stored`).

    A batch returns all its points or raises, so a failed one is
    recovered untraced: every point the batch finished before the
    failure is persisted for a resumed run, and only the points it did
    not finish are redone, one by one, so the failure surfaces from its
    own point.  The batch recorded each point it reached, and the
    recovery records nothing, so a traced failed chunk records — and
    computes — each point at most once.
    """
    finished: dict[int, dict] = {}
    try:
        return _evaluate_pending_batch(
            indexed, params, cost_model, store, uq, finished
        )
    except Exception:  # noqa: BLE001 - re-raised by the point that fails
        pass
    with tracing(NULL_TRACER):
        stored = {
            pos: _persist(summary, indexed[pos][1], store)
            for pos, summary in finished.items()
        }
        return [
            (idx, stored[pos] if pos in stored
             else _evaluate_point(point, params, cost_model, store, uq))
            for pos, (idx, point) in enumerate(indexed)
        ]


def _open_store(
    directory: Union[str, Path, None],
    params: LogGPParameters,
    cost_model: CostModel,
    uq: Optional[UQSpec],
) -> Optional[ExperimentStore]:
    """The store handle over ``directory`` for one machine and UQ spec."""
    if directory is None:
        return None
    return ExperimentStore(
        directory, params, cost_model,
        extra_tag=uq.store_tag() if uq is not None else None,
    )


def _read_stored(
    points: Sequence[SweepPoint], store: Optional[ExperimentStore]
) -> tuple[list[Optional[PointSummary]], list[tuple[int, SweepPoint]]]:
    """The store short-circuit: one read per point, before any compute.

    Returns the stored summary of each point (``None`` where the store
    holds none, or when ``store`` is ``None``) and the ``(index,
    point)`` pairs left to compute, in order, and counts the hits as
    ``sweep.points_cached``.  This is the only store read of a sweep or
    of a served batch: :func:`_evaluate_chunk` computes every point it
    is handed.
    """
    found: list[Optional[PointSummary]] = [None] * len(points)
    pending: list[tuple[int, SweepPoint]] = []
    for idx, point in enumerate(points):
        hit = (
            store.get(
                point.n, point.b, point.layout,
                seed=point.seed, with_measured=point.with_measured,
            )
            if store is not None
            else None
        )
        if hit is None:
            pending.append((idx, point))
        else:
            found[idx] = hit
    get_tracer().count("sweep.points_cached", len(points) - len(pending))
    return found, pending


def _persist(
    summary: dict, point: SweepPoint, store: Optional[ExperimentStore]
) -> PointSummary:
    """One flat summary dict as a :class:`PointSummary`, put in ``store``."""
    stored = PointSummary(**summary)
    if store is not None:
        store.put(stored, with_measured=point.with_measured)
    return stored


def _run_chunk(payload):
    """Worker entrypoint: evaluate one chunk of (index, point) pairs.

    Module-level (hence picklable by reference) and self-contained: the
    worker re-opens the store from its directory so every process holds
    its own handle, coordinated only through the store's atomic writes.

    When the parent sweep is traced, its :class:`TraceConfig` travels in
    the payload: the worker traces its chunk locally (filters and
    deterministic sampling applied here, so retention cannot depend on
    the worker count) and ships the materialised rows plus a metrics
    snapshot back for the parent to absorb.  Returns
    ``(chunk_no, results, rows, metrics_snapshot)`` with the last two
    ``None`` for untraced sweeps.

    Two optional telemetry fields ride in the payload (see
    :mod:`repro.obs.telemetry`): ``ctx_doc`` — the dispatching run's
    :class:`TraceContext` wire document, from which the worker derives
    the chunk's deterministic span id (``parent.child("sweep.chunk",
    chunk_no)``) so the merged timeline parents every worker-interior
    span under the dispatching run; and ``shard_path`` — when set, the
    worker flushes its events *and* metrics to that shard file instead
    of shipping anything back (rows and snapshot return ``None``), so a
    later :func:`repro.obs.merge_shards` sees each event and each
    counter exactly once.
    """
    (store_dir, params, cost_model, uq, trace_doc,
     ctx_doc, shard_path, chunk_no, indexed) = payload
    store = _open_store(store_dir, params, cost_model, uq)
    if trace_doc is None:
        results = _evaluate_chunk(indexed, params, cost_model, store, uq)
        return chunk_no, results, None, None
    tracer = Tracer(config=TraceConfig.from_dict(trace_doc))
    parent_ctx = TraceContext.from_dict(ctx_doc) if ctx_doc else None
    chunk_ctx = (
        parent_ctx.child("sweep.chunk", chunk_no) if parent_ctx is not None else None
    )
    with tracing(tracer):
        with tracer.span(
            "sweep.chunk",
            ctx=chunk_ctx,
            parent_span_id=parent_ctx.span_id if parent_ctx is not None else None,
            chunk=chunk_no,
            points=len(indexed),
        ):
            results = _evaluate_chunk(indexed, params, cost_model, store, uq)
    if shard_path is not None:
        write_shard(
            shard_path, tracer,
            label=f"chunk-{chunk_no:04d}", context=chunk_ctx,
        )
        return chunk_no, results, None, None
    rows = tracer.export_rows()
    snap = tracer.metrics.snapshot()
    # the parent re-counts obs.events.* when it materialises the absorbed
    # rows; shipping the worker's copies too would double the tallies
    snap["counters"] = {
        k: v for k, v in snap["counters"].items()
        if not k.startswith("obs.events.")
    }
    return chunk_no, results, rows, snap


def _chunked(items: list, size: int) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _weight_chunks(
    pending: list[tuple[int, SweepPoint]], target_chunks: int
) -> list[list[tuple[int, SweepPoint]]]:
    """Contiguous chunks balanced by point *weight*, not point count.

    Grid cost is heavily skewed — at n=960 the b=10 point alone is ~23%
    of the whole Figure 7 sweep — so equal-count chunks leave one worker
    holding most of the work.  Cutting chunk boundaries when the
    accumulated :func:`point_weight` reaches an equal share keeps cheap
    tail points batched while heavy points travel alone.  Chunks remain
    contiguous slices of ``pending`` in grid order, so the traced
    absorb-in-chunk-order invariant (and result reassembly) is untouched;
    with uniform weights this degrades to exactly the equal-count split.
    """
    total = grid_weight(p for _, p in pending)
    if total <= 0.0 or target_chunks <= 1:
        return [list(pending)]
    goal = total / target_chunks
    chunks: list[list[tuple[int, SweepPoint]]] = []
    current: list[tuple[int, SweepPoint]] = []
    acc = 0.0
    for item in pending:
        w = point_weight(item[1].n, item[1].b, item[1].with_measured)
        # close *before* overshooting, so a heavy point never rides on an
        # already-loaded chunk (it would become the makespan's long pole)
        if current and acc + w > goal and len(chunks) < target_chunks - 1:
            chunks.append(current)
            current = []
            acc = 0.0
        current.append(item)
        acc += w
        if acc >= goal and len(chunks) < target_chunks - 1:
            chunks.append(current)
            current = []
            acc = 0.0
    if current:
        chunks.append(current)
    return chunks


def _evaluate_pending_batch(
    pending: list[tuple[int, SweepPoint]],
    params: LogGPParameters,
    cost_model: CostModel,
    store: Optional[ExperimentStore],
    uq: Optional[UQSpec],
    finished: Optional[dict[int, dict]] = None,
) -> list[tuple[int, PointSummary]]:
    """Chunk evaluation through the batch kernel: compute all, then put.

    Computes every point via
    :func:`repro.kernel.vector.evaluate_ge_points_batch`, so replicate
    lanes sharing a configuration fold over one compiled plan, then
    persists each summary.  Results come back in ``pending`` order.
    ``finished``, when given, collects ``{position: summary dict}`` of
    each point as the batch completes it — also when the batch then
    raises.
    """
    from ..kernel.vector import evaluate_ge_points_batch

    summaries = evaluate_ge_points_batch(
        [pt for _, pt in pending], params, cost_model, uq=uq,
        done=None if finished is None else finished.__setitem__,
    )
    return [
        (idx, _persist(summary, point, store))
        for (idx, point), summary in zip(pending, summaries)
    ]


def run_sweep(
    points: Sequence[SweepPoint],
    params: LogGPParameters,
    cost_model: CostModel,
    *,
    workers: Union[int, str] = 1,
    store: StoreLike = None,
    resume: bool = True,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    mp_context: Optional[str] = None,
    uq: Optional[UQSpec] = None,
    trace_shard_dir: Union[str, Path, None] = None,
) -> SweepResult:
    """Evaluate a sweep grid, optionally in parallel and store-backed.

    Parameters
    ----------
    points:
        The grid (see :func:`repro.sweep.expand_grid`); results come
        back in this order regardless of ``workers``.
    workers:
        ``1`` runs serial (in-process, no pool, no pickling), ``N > 1``
        a process pool of ``min(N, pending points)``, and ``"auto"``
        lets a fixed rule over the CPU count and the grid's weight
        choose (see :mod:`repro.sweep.executor`).  Every choice is
        bit-identical — only wall time differs.
    store:
        An :class:`ExperimentStore`, a directory for one, or ``None``
        (compute-only).  Workers persist what they compute.
    resume:
        With a store, short-circuit already-stored points before
        dispatch.  ``False`` recomputes every point and overwrites its
        entry.
    chunk_size:
        Points per dispatched chunk, at least 1 (default: grid split
        into ~4 chunks per worker, balanced by point weight).
    progress:
        ``(done, total, point, source)`` callback, invoked once per
        point as its result lands (cached points first, then computed
        points in completion order).
    mp_context:
        :mod:`multiprocessing` start method (``"fork"``, ``"spawn"``,
        ...); ``None`` uses the platform default.
    uq:
        Optional :class:`repro.uq.UQSpec`: each point's seed then selects
        a perturbed machine replicate instead of the base machine (the
        Monte Carlo path of :func:`repro.uq.run_uq`).  An identity spec
        behaves exactly like ``None``.
    trace_shard_dir:
        Directory for per-worker trace shards.  When set (and the sweep
        is traced), process-pool workers flush their events and metrics
        to ``shard-chunk-NNNN.jsonl`` sidecars instead of shipping rows
        back for live absorption; stitch afterwards with ``repro
        trace-merge`` (see :mod:`repro.obs.telemetry`).  Ignored when
        untraced or when no process pool runs.

    Raises
    ------
    ValueError
        ``workers`` is neither ``"auto"`` nor an int >= 1, or
        ``chunk_size`` is below 1.
    concurrent.futures.process.BrokenProcessPool
        A pool worker died abruptly (killed by a signal, out of memory):
        the sweep fails instead of waiting for the lost chunk.  Points
        finished before that stay in the store for a resumed run.
    """
    points = tuple(points)
    check_workers(workers)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if isinstance(store, (str, Path)):
        store = _open_store(store, params, cost_model, uq)
    tracer = get_tracer()
    t0 = time.perf_counter()

    total = len(points)
    summaries, pending = _read_stored(points, store if resume else None)
    cached = done = total - len(pending)
    if progress is not None:
        hits = (pt for pt, s in zip(points, summaries) if s is not None)
        for seen, point in enumerate(hits, 1):
            progress(seen, total, point, "cached")

    def finish(results: list[tuple[int, PointSummary]]) -> None:
        nonlocal done
        for idx, summary in results:
            summaries[idx] = summary
            done += 1
            tracer.count("sweep.points_computed")
            if progress is not None:
                progress(done, total, points[idx], "computed")

    n_chunks = 0
    decision: Optional[ExecutorDecision] = None
    if pending:
        with tracer.span("sweep.decide", requested=workers, points=len(pending)):
            decision = decide_executor([pt for _, pt in pending], workers)
        tracer.count(f"sweep.decision.{decision.executor}")

    if pending and decision.executor == "serial":
        with tracer.span("sweep.chunk", chunk=0, points=len(pending)):
            results = _evaluate_chunk(pending, params, cost_model, store, uq)
        finish(results)
        n_chunks = 1
    elif pending:
        if chunk_size is not None:
            chunks = list(_chunked(pending, chunk_size))
        else:
            chunks = _weight_chunks(pending, decision.workers * 4)
        n_chunks = len(chunks)
        store_dir = str(store.directory) if store is not None else None
        trace_doc = tracer.config.to_dict() if tracer.enabled else None
        parent_ctx = getattr(tracer, "context", None) if tracer.enabled else None
        ctx_doc = parent_ctx.to_dict() if parent_ctx is not None else None
        shard_dir = (
            Path(trace_shard_dir)
            if (trace_shard_dir is not None and tracer.enabled)
            else None
        )
        if shard_dir is not None:
            shard_dir.mkdir(parents=True, exist_ok=True)
        chunk_rows: list = [None] * n_chunks
        chunk_metrics: list = [None] * n_chunks
        pool = ProcessPoolExecutor(
            max_workers=decision.workers,
            mp_context=multiprocessing.get_context(mp_context),
        )
        try:
            futures = [
                pool.submit(_run_chunk, (
                    store_dir, params, cost_model, uq, trace_doc, ctx_doc,
                    str(shard_dir / f"shard-chunk-{chunk_no:04d}.jsonl")
                    if shard_dir is not None else None,
                    chunk_no, chunk,
                ))
                for chunk_no, chunk in enumerate(chunks)
            ]
            for future in as_completed(futures):
                chunk_no, chunk_result, rows, snap = future.result()
                chunk_rows[chunk_no] = rows
                chunk_metrics[chunk_no] = snap
                finish(chunk_result)
        finally:
            # on failure, chunks not yet started are dropped; running
            # ones finish and persist what they computed
            pool.shutdown(cancel_futures=True)
        # Chunks are contiguous slices of ``pending`` in grid order, so
        # absorbing their event rows in chunk order reproduces exactly the
        # stream a serial sweep emits inline — completion order never shows.
        if tracer.enabled:
            for rows, snap in zip(chunk_rows, chunk_metrics):
                if rows:
                    tracer.absorb_rows(rows)
                if snap:
                    tracer.metrics.merge(snap)

    missing = [i for i, s in enumerate(summaries) if s is None]
    if missing:  # pragma: no cover - defensive: a worker dropped results
        raise RuntimeError(f"sweep lost results for point indices {missing}")

    wall_s = time.perf_counter() - t0
    tracer.observe("sweep.wall_s", wall_s)
    stats = SweepStats(
        total=total,
        cached=cached,
        computed=total - cached,
        workers=decision.workers if decision is not None else 1,
        chunks=n_chunks,
        wall_s=wall_s,
        executor=decision.executor if decision is not None else "serial",
        decision=decision.to_dict() if decision is not None else None,
    )
    return SweepResult(points=points, summaries=summaries, stats=stats)
