"""Fingerprint-keyed memoisation of the pure cost functions.

Two caches, both keyed by canonical machine identity
(:mod:`repro.core.fingerprint`):

* **Basic-op costs.**  ``cost(op, b)`` of every deterministic cost model
  is a pure function of ``(op, b, model class, model fingerprint)``.
  :func:`memoize` wraps a model in a :class:`MemoizedCostModel` sharing
  one process-wide dict per (class, fingerprint); a model that cannot
  be fingerprinted (``cost_model_fingerprint(...) is None``, e.g. a
  host-timed ``MeasuredCostModel``) is returned unwrapped — *bypass*,
  never a wrong hit.
* **LogGP send durations.**  ``o + (size-1)*G`` per message size, keyed
  by the exact ``(L, o, g, G)`` float tuple (value-identity — stronger
  than any hash).  Receive duration is the constant ``o`` and needs no
  table.

Invalidation is structural, not temporal: a
:class:`~repro.machine.perturbed.ScaledCostModel` folds its factors into
its fingerprint and a perturbed ``params.with_(...)`` changes the float
tuple, so UQ replicates sharing one worker process each hit their own
bucket (regression-tested in ``tests/test_kernel_memo.py``).  Buckets
are capped to keep long Monte Carlo runs bounded.

The module also defines :func:`point_weight`, the relative cost of one
GE sweep point, which the sweep uses to balance its chunks and to keep
light grids out of a process pool.
"""

from __future__ import annotations

from typing import Optional

from ..core.fingerprint import cost_model_fingerprint
from ..core.loggp import LogGPParameters

__all__ = [
    "MemoizedCostModel",
    "memoize",
    "send_durations",
    "clear_caches",
    "point_weight",
]

#: per-(model class, fingerprint) (op, b) -> us buckets
_COST_CACHES: dict[tuple[type, str], dict[tuple[str, int], float]] = {}
#: per-(L, o, g, G) size -> send-duration tables
_SEND_TABLES: dict[tuple[float, float, float, float], dict[int, float]] = {}

#: bucket-count cap: a 10k-replicate UQ run must not grow memory forever
_MAX_BUCKETS = 512


class MemoizedCostModel:
    """A cost model sharing a process-wide memo for its fingerprint.

    Transparent: ``cost`` returns exactly what ``base.cost`` returns
    (the cached value *is* a ``base.cost`` return value), so wrapping is
    bit-identical by construction.  Invalid inputs take the uncached
    path and raise exactly like the base model.
    """

    __slots__ = ("base", "_cache")

    def __init__(self, base, cache: dict):
        self.base = base
        self._cache = cache

    def cost(self, op: str, b: int) -> float:
        """Memoised ``base.cost(op, b)``."""
        key = (op, b)
        cache = self._cache
        try:
            return cache[key]
        except KeyError:
            value = self.base.cost(op, b)
            cache[key] = value
            return value

    def fingerprint(self) -> Optional[str]:
        """Delegates: the wrapper has the identity of its base."""
        return cost_model_fingerprint(self.base)


def memoize(cost_model):
    """The memoised view of ``cost_model`` — or the model itself.

    Returns the input unchanged when it is already memoised or when it
    has no fingerprint (nothing to key the shared cache on: caching
    would risk stale hits across instances, so the kernel declines).
    """
    if isinstance(cost_model, MemoizedCostModel):
        return cost_model
    fp = cost_model_fingerprint(cost_model)
    if fp is None:
        return cost_model
    # The class is part of the key: a subclass may keep its parent's
    # fingerprint (same table) yet override ``cost`` — it must not be
    # served prices its parent cached.
    key = (type(cost_model), fp)
    cache = _COST_CACHES.get(key)
    if cache is None:
        if len(_COST_CACHES) >= _MAX_BUCKETS:
            _COST_CACHES.clear()
        cache = _COST_CACHES[key] = {}
    return MemoizedCostModel(cost_model, cache)


def send_durations(params: LogGPParameters) -> dict[int, float]:
    """The shared ``size -> send_duration`` table of one machine.

    Callers fill it lazily with ``params.send_duration(size)`` values;
    the key is the exact parameter tuple, so any perturbation gets a
    fresh table.
    """
    key = (params.L, params.o, params.g, params.G)
    table = _SEND_TABLES.get(key)
    if table is None:
        if len(_SEND_TABLES) >= _MAX_BUCKETS:
            _SEND_TABLES.clear()
        table = _SEND_TABLES[key] = {}
    return table


def point_weight(n: int, b: int, with_measured: bool = True) -> float:
    """Relative cost weight of one GE sweep point.

    The simulators' work is dominated by per-message scheduling over the
    ``m = n/b`` block grid: messages per step scale with ``m``-ish
    fan-outs over ``O(m)`` steps with ``O(m^2)`` block updates, so a
    cubic-plus-quadratic polynomial in ``m`` tracks measured wall times
    well across the Figure 7 grid.  The emulated "measured" run roughly
    doubles a point (profiled: emulator ≈ prediction cost).  The unit is
    arbitrary: chunking compares weights with each other, and the
    sweep's ``workers="auto"`` rule compares a grid's total with a fixed
    floor in the same unit.
    """
    m = max(1.0, n / b)
    w = m * m * (m + 8.0)
    return w * 2.0 if with_measured else w


def clear_caches() -> None:
    """Drop every memo bucket (tests and long-lived processes)."""
    _COST_CACHES.clear()
    _SEND_TABLES.clear()
